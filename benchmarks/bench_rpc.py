"""What the RPC boundary costs: requests/sec and added latency.

The same staggered 8-session scenario (2 workers per task, stagger 1 —
the ``bench_session_engine`` workload) runs three ways:

* **in-process** — clients hold the :class:`Chain` object directly (the
  pre-RPC deployment story, the floor);
* **loopback RPC** — full JSON + canonical-codec wire encoding, no
  socket (what the encoding itself costs);
* **HTTP RPC** — a real localhost socket through the node's asyncio
  server (what one-step-from-deployment costs).

The equivalence contract rides along: all three paths must settle the
same tasks with identical payments.  A ``chain_head`` micro-benchmark
prices a single round trip on each transport, then again under
concurrency and batching, and a fan-out benchmark prices server-push
delivery to a hundred-plus subscribed clients — zero ``chain_events``
polls anywhere.

Reproduce the table with::

    PYTHONPATH=src python -m pytest benchmarks/bench_rpc.py -s -q
"""

from __future__ import annotations

import asyncio
import threading

from repro.analysis.tables import render_table
from repro.chain.chain import Chain
from repro.chain.transactions import scoped_tx_nonces
from repro.core.requester import RequesterClient
from repro.core.task import HITTask, TaskParameters
from repro.core.worker import WorkerClient
from repro.crypto.rng import deterministic_entropy
from repro.rpc import (
    AsyncRpcServer,
    AsyncSubscription,
    HitSpec,
    HttpTransport,
    LoopbackTransport,
    RpcChain,
    RpcNode,
    RpcRequesterClient,
    RpcSession,
    RpcSwarm,
    RpcWorkerClient,
    run_hits,
)
from repro.storage.swarm import SwarmStore

from bench_helpers import emit, pick, record
from repro.obs.tracing import span_clock

NUM_TASKS = pick(8, 3)
HEAD_CALLS = pick(2000, 50)
CONCURRENT_CLIENTS = pick(8, 4)
BATCH_SIZE = pick(100, 10)
SUBSCRIBERS = pick(128, 12)
SEED = 11
GOOD = [0] * 10
BAD = [1] * 10


def _task() -> HITTask:
    parameters = TaskParameters(10, 100, 2, (0, 1), 2, 3)
    return HITTask(parameters, ["q%d" % i for i in range(10)],
                   [0, 1, 2], [0, 0, 0], [0] * 10)


def _specs():
    return [
        HitSpec(index, "req-%d" % index, _task(), [GOOD, BAD])
        for index in range(NUM_TASKS)
    ]


def _run_in_process():
    chain, swarm = Chain(), SwarmStore()
    with scoped_tx_nonces(), deterministic_entropy(SEED):
        outcomes = run_hits(
            chain, swarm, _specs(),
            lambda label, task: RequesterClient(label, task, chain, swarm),
            lambda label, answers: WorkerClient(label, chain, swarm,
                                                answers=answers),
        )
    # Materialized eagerly: payments are ledger reads, and the RPC
    # variants' servers are torn down before the comparison runs.
    return [outcome.payments() for outcome in outcomes], chain.height, None


def _run_over(transport):
    with scoped_tx_nonces(), deterministic_entropy(SEED):
        outcomes = run_hits(
            RpcChain(transport), RpcSwarm(transport), _specs(),
            lambda label, task: RpcRequesterClient(label, task, transport),
            lambda label, answers: RpcWorkerClient(label, transport,
                                                   answers=answers),
        )
    return (
        [outcome.payments() for outcome in outcomes],
        RpcChain(transport).height,
        transport.requests_sent,
    )


def test_rpc_boundary_cost():
    rows = []
    results = []

    start = span_clock()
    payments, height, _ = _run_in_process()
    base_elapsed = span_clock() - start
    results.append(payments)
    rows.append(["in-process", height, "-", "%.2fs" % base_elapsed, "-", "-"])

    start = span_clock()
    payments, loop_height, requests = _run_over(
        LoopbackTransport(RpcNode())
    )
    elapsed = loop_elapsed = span_clock() - start
    results.append(payments)
    rows.append([
        "loopback rpc", loop_height, requests, "%.2fs" % elapsed,
        "%.0f" % (requests / elapsed),
        "%.2fms" % (1e3 * max(0.0, elapsed - base_elapsed) / requests),
    ])

    node = RpcNode()
    with AsyncRpcServer(node) as server:
        transport = HttpTransport(server.url)
        start = span_clock()
        payments, http_height, requests = _run_over(transport)
        elapsed = span_clock() - start
        transport.close()
    results.append(payments)
    rows.append([
        "http rpc (localhost)", http_height, requests, "%.2fs" % elapsed,
        "%.0f" % (requests / elapsed),
        "%.2fms" % (1e3 * max(0.0, elapsed - base_elapsed) / requests),
    ])

    emit(
        "rpc_boundary",
        render_table(
            ["path", "blocks", "requests", "wall time", "req/s",
             "added latency/req"],
            rows,
            title="%d staggered tasks (2 workers each): the RPC boundary"
            % NUM_TASKS,
        ),
    )
    record(
        "rpc_boundary",
        {"tasks": NUM_TASKS},
        {"in_process": base_elapsed, "loopback": loop_elapsed,
         "http": elapsed},
        values={"requests": requests},
    )

    # The equivalence bar: every path settles identically.
    assert results[1] == results[0] and results[2] == results[0]
    assert height == loop_height == http_height


def test_head_request_throughput():
    """A single tiny round trip, priced per transport."""
    rows = []

    node = RpcNode()
    transport = LoopbackTransport(node)
    chain = RpcChain(transport)
    start = span_clock()
    for _ in range(HEAD_CALLS):
        chain.rpc.call("chain_head")
    elapsed = loop_elapsed = span_clock() - start
    rows.append(["loopback", HEAD_CALLS, "%.0f" % (HEAD_CALLS / elapsed),
                 "%.3fms" % (1e3 * elapsed / HEAD_CALLS)])

    node = RpcNode()
    with AsyncRpcServer(node) as server:
        transport = HttpTransport(server.url)
        chain = RpcChain(transport)
        chain.rpc.call("chain_head")  # warm the keep-alive connection
        start = span_clock()
        for _ in range(HEAD_CALLS):
            chain.rpc.call("chain_head")
        elapsed = span_clock() - start
        transport.close()
    rows.append(["http (localhost)", HEAD_CALLS,
                 "%.0f" % (HEAD_CALLS / elapsed),
                 "%.3fms" % (1e3 * elapsed / HEAD_CALLS)])

    emit(
        "rpc_head_throughput",
        render_table(
            ["transport", "requests", "req/s", "latency"],
            rows,
            title="chain_head round trips",
        ),
    )
    record(
        "rpc_head_throughput",
        {"calls": HEAD_CALLS},
        {"loopback": loop_elapsed, "http": elapsed},
    )


def _hammer_heads(url: str, calls: int) -> None:
    transport = HttpTransport(url)
    session = RpcSession(transport)
    for _ in range(calls):
        session.call("chain_head")
    transport.close()


def _serial_heads(url: str) -> float:
    start = span_clock()
    _hammer_heads(url, HEAD_CALLS)
    return span_clock() - start


def _concurrent_heads(url: str) -> float:
    per_client = HEAD_CALLS // CONCURRENT_CLIENTS
    threads = [
        threading.Thread(target=_hammer_heads, args=(url, per_client))
        for _ in range(CONCURRENT_CLIENTS)
    ]
    start = span_clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return span_clock() - start, per_client * CONCURRENT_CLIENTS


def _batched_heads(url: str) -> float:
    transport = HttpTransport(url)
    session = RpcSession(transport)
    batch = [("chain_head", {})] * BATCH_SIZE
    rounds = HEAD_CALLS // BATCH_SIZE
    start = span_clock()
    for _ in range(rounds):
        session.call_batch(batch)
    elapsed = span_clock() - start
    transport.close()
    return elapsed, rounds * BATCH_SIZE


def test_concurrent_and_batched_head_throughput():
    """The front-end's scaling story: one client, many, and batches.

    The serial row is the baseline deployment shape (one client, one
    request per round trip); the concurrent row exploits the node's
    reader-writer lock, and the batch row amortizes round trips.  The
    bar: batched requests must beat the serial baseline by at least 2x.
    """
    rows = []
    rates = {}

    def row(label, calls, elapsed):
        rates[label] = calls / elapsed
        rows.append([label, calls, "%.0f" % (calls / elapsed),
                     "%.3fms" % (1e3 * elapsed / calls)])

    node = RpcNode()
    with AsyncRpcServer(node) as server:
        _hammer_heads(server.url, 5)  # warm up
        row("1 client", HEAD_CALLS, _serial_heads(server.url))
        elapsed, calls = _concurrent_heads(server.url)
        row("%d clients" % CONCURRENT_CLIENTS, calls, elapsed)
        elapsed, calls = _batched_heads(server.url)
        row("batches of %d" % BATCH_SIZE, calls, elapsed)

    emit(
        "rpc_head_scaling",
        render_table(
            ["clients", "requests", "req/s", "latency"],
            rows,
            title="chain_head under concurrency and batching",
        ),
    )
    record(
        "rpc_head_scaling",
        {"calls": HEAD_CALLS, "clients": CONCURRENT_CLIENTS,
         "batch_size": BATCH_SIZE},
        {},
        values={
            label.replace(" ", "_") + "_rps": rate
            for label, rate in rates.items()
        },
    )
    serial, batched = rates["1 client"], rates["batches of %d" % BATCH_SIZE]
    assert batched >= 2 * serial, (
        "batched %.0f req/s did not reach 2x the serial %.0f req/s"
        % (batched, serial)
    )


def test_subscription_fanout_pushes_without_polling():
    """Server push to 100+ subscribed clients, one event loop, no polls.

    Every subscriber opens one ``chain_subscribe`` stream and then
    issues zero further requests — the asyncio front-end pushes each
    event batch to all of them.  The bar: every subscriber sees the
    whole log, and the node served exactly one request per subscriber
    beyond the scenario itself.
    """
    node = RpcNode()
    with AsyncRpcServer(node) as server:
        transport = HttpTransport(server.url)
        with scoped_tx_nonces(), deterministic_entropy(SEED):
            run_hits(
                RpcChain(transport), RpcSwarm(transport), _specs()[:3],
                lambda label, task: RpcRequesterClient(label, task, transport),
                lambda label, answers: RpcWorkerClient(label, transport,
                                                       answers=answers),
            )
        served_by_scenario = node.requests_served
        head = node.event_head(from_start=False)
        transport.close()

        async def subscribe_and_drain():
            subscriptions = []
            for _ in range(SUBSCRIBERS):
                subscriptions.append(
                    await AsyncSubscription.open(server.url, from_start=True)
                )

            async def drain(subscription):
                count = 0
                while subscription.cursor < head:
                    count += len(await asyncio.wait_for(
                        subscription.next_records(), timeout=30
                    ))
                return count

            start = span_clock()
            counts = await asyncio.gather(
                *[drain(subscription) for subscription in subscriptions]
            )
            elapsed = span_clock() - start
            for subscription in subscriptions:
                await subscription.close()
            return counts, elapsed

        counts, elapsed = asyncio.run(subscribe_and_drain())
        frames = server.pushed_frames

    assert len(counts) == SUBSCRIBERS
    assert all(count == head for count in counts), "a subscriber missed events"
    # No polling: the node served one subscribe per client and nothing else.
    assert node.requests_served == served_by_scenario + SUBSCRIBERS
    delivered = sum(counts)
    emit(
        "rpc_subscription_fanout",
        render_table(
            ["metric", "value"],
            [
                ["subscribed clients", SUBSCRIBERS],
                ["events in log", head],
                ["events delivered", delivered],
                ["pushed frames", frames],
                ["chain_events polls", 0],
                ["fan-out wall time", "%.2fs" % elapsed],
                ["events/s delivered", "%.0f" % (delivered / elapsed)],
            ],
            title="server-push fan-out over one asyncio loop",
        ),
    )
    record(
        "rpc_subscription_fanout",
        {"subscribers": SUBSCRIBERS},
        {"fanout": elapsed},
        values={
            "events_in_log": head,
            "events_delivered": delivered,
            "pushed_frames": frames,
        },
    )
