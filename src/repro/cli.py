"""A command-line interface for the Dragoon reproduction.

Downstream users drive the library from the shell::

    python -m repro.cli demo                 # quickstart task
    python -m repro.cli imagenet             # the paper's SVI experiment
    python -m repro.cli fees                 # Table III reproduction
    python -m repro.cli audit                # reputation demo
    python -m repro.cli incentives           # strategy utilities
    python -m repro.cli serve --tasks 4      # staggered session engine
    python -m repro.cli simulate --preset poisson --seed 7   # workload sim

    # A marketplace instance that lives across invocations:
    python -m repro.cli node init --state-dir ./mainnet
    python -m repro.cli serve --tasks 4 --state-dir ./mainnet
    python -m repro.cli node status --state-dir ./mainnet

    # Checkpoint a long simulation and resume it after a kill:
    python -m repro.cli simulate --preset diurnal --seed 7 \
        --state-dir ./sim --checkpoint-every 16
    python -m repro.cli node resume --state-dir ./sim

    # Serve the node to out-of-process clients over JSON-RPC:
    python -m repro.cli node rpc-serve --state-dir ./mainnet --port 8545

    # Telemetry analytics: sweep a scenario grid into byte-reproducible
    # report artifacts; analyze span traces and metrics snapshots:
    python -m repro.cli report sweep --seed 7 --tasks 4 \
        --axis budget=100,140 --axis accuracy=0.7,0.9 --out reports
    python -m repro.cli report trace run.jsonl
    python -m repro.cli report metrics before.json after.json --diff

Each subcommand prints a compact, self-explanatory report.  ``serve``
and ``simulate`` are seeded and run under deterministic entropy, so the
same invocation prints the same bytes every time.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from repro.analysis.costs import build_handling_fee_table, mturk_handling_fee
from repro.analysis.incentives import IncentiveParameters, strategy_profile
from repro.analysis.tables import render_gas_extras, render_table
from repro.chain.gas import PAPER_PRICING
from repro.core.protocol import run_hit
from repro.core.task import (
    make_imagenet_task,
    make_street_parking_task,
    sample_worker_answers,
)
from repro.obs.logging import add_logging_flags, configure_logging, get_logger
from repro.obs.tracing import trace_to

#: Every line the CLI emits goes through the structured logger: the
#: default human rendering is byte-identical to the old print() output,
#: and --log-json swaps in one-JSON-object-per-line for machine readers.
_log = get_logger("cli")


def _cmd_demo(args: argparse.Namespace) -> int:
    task = make_street_parking_task(num_workers=2, budget=200)
    answers = [
        sample_worker_answers(task, 0.95, seed=1),
        sample_worker_answers(task, 0.2, seed=2),
    ]
    outcome = run_hit(task, answers)
    rows = [
        [w.label, outcome.payment_of(w), outcome.contract.verdict_of(w.address)]
        for w in outcome.workers
    ]
    _log.info(render_table(["worker", "paid", "verdict"], rows, title="Demo HIT"))
    return 0


def _cmd_imagenet(args: argparse.Namespace) -> int:
    task = make_imagenet_task()
    accuracies = [0.98, 0.92, 0.60, 0.15]
    answers = [
        sample_worker_answers(task, accuracy, seed=i)
        for i, accuracy in enumerate(accuracies)
    ]
    outcome = run_hit(task, answers)
    rows = [
        [
            w.label,
            "%.0f%%" % (accuracies[i] * 100),
            task.quality_of(answers[i]),
            outcome.payment_of(w),
        ]
        for i, w in enumerate(outcome.workers)
    ]
    _log.info(
        render_table(
            ["worker", "accuracy", "gold quality", "paid"],
            rows,
            title="ImageNet HIT (paper SVI policy)",
        )
    )
    _log.info(
        "total gas: %dk ($%.2f)" % (
            outcome.gas.total // 1000, PAPER_PRICING.to_usd(outcome.gas.total)
        ),
        gas=outcome.gas.total,
    )
    return 0


def _cmd_fees(args: argparse.Namespace) -> int:
    task = make_imagenet_task()
    good = [sample_worker_answers(task, 0.97, seed=i) for i in range(4)]
    outcome = run_hit(task, good)
    table = build_handling_fee_table(outcome.gas, pricing=PAPER_PRICING)
    rows = [
        [row.operation, "~%dk" % (row.gas // 1000), "$%.2f" % row.usd]
        for row in table.rows
    ]
    _log.info(render_table(["operation", "gas", "usd"], rows,
                           title="Table III reproduction (best case)"))
    _log.info(render_gas_extras(outcome.gas.extras, pricing=PAPER_PRICING))
    _log.info("MTurk fee for the same task: $%.2f" % mturk_handling_fee(20.0, 4))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.core.audit import GoldAuditLog
    from repro.dragoon import Dragoon
    from repro.core.task import HITTask, TaskParameters

    def tiny():
        parameters = TaskParameters(10, 100, 2, (0, 1), 2, 3)
        return HITTask(parameters, ["q%d" % i for i in range(10)],
                       [0, 1, 2], [0, 0, 0], [0] * 10)

    system = Dragoon()
    system.fund("honest-alice", 200)
    system.fund("mass-rejecter", 200)
    system.run_task("honest-alice", tiny(), [[0] * 10, [0] * 10],
                    worker_labels=["w0", "w1"])
    system.run_task("mass-rejecter", tiny(), [[1] * 10, [1] * 10],
                    worker_labels=["w2", "w3"])
    reputations = GoldAuditLog(system.chain).reputation()
    rows = [
        [
            label,
            reputation.tasks,
            "%.0f%%" % (100 * reputation.rejection_rate),
            "; ".join(reputation.flags) or "-",
        ]
        for label, reputation in sorted(reputations.items())
    ]
    _log.info(render_table(["requester", "tasks", "rejection rate", "flags"],
                           rows, title="Requester reputations (public audit)"))
    return 0


def _cmd_incentives(args: argparse.Namespace) -> int:
    params = IncentiveParameters()
    for world, naive in (("Dragoon", False), ("naive transparent chain", True)):
        rows = [
            [o.name, "%.1f%%" % (100 * o.pay_probability),
             "$%.2f" % o.expected_reward, "$%.2f" % o.cost,
             "$%+.2f" % o.expected_utility]
            for o in strategy_profile(params, naive_chain=naive)
        ]
        _log.info(render_table(
            ["strategy", "P[paid]", "E[reward]", "cost", "E[utility]"],
            rows, title="Worker strategies on %s" % world))
        _log.info("")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run N staggered tasks through the session engine; trace each block.

    Seeded end to end: worker answer sheets are sampled at fixed
    accuracies (0.95 / 0.30) from ``--seed``, and the whole run executes
    under deterministic entropy, so the same invocation prints the same
    trace — gas included.
    """
    from repro.core.session import StragglerScheduler
    from repro.core.task import HITTask, TaskParameters
    from repro.crypto.rng import deterministic_entropy
    from repro.dragoon import Dragoon, TaskArrival
    from repro.sim.seeding import derive_seed

    def tiny():
        parameters = TaskParameters(10, 100, 2, (0, 1), 2, 3)
        return HITTask(parameters, ["q%d" % i for i in range(10)],
                       [0, 1, 2], [0, 0, 0], [0] * 10)

    arrivals = []
    for index in range(args.tasks):
        task = tiny()
        answers = [
            sample_worker_answers(
                task, accuracy, seed=derive_seed(args.seed, index, slot)
            )
            for slot, accuracy in enumerate((0.95, 0.30))
        ]
        # The first --stragglers tasks get a worker who reveals one
        # period late: the Fig. 4 deadline rejects it and the burned
        # gas lands in GasReport.extras.
        policies = (
            {0: StragglerScheduler(reveal=1)} if index < args.stragglers else None
        )
        arrivals.append(
            TaskArrival(
                at_block=index * args.stagger,
                requester_label="req-%d" % index,
                task=task,
                worker_answers=answers,
                worker_labels=["t%d/w0" % index, "t%d/w1" % index],
                worker_policies=policies,
            )
        )
    store = None
    if getattr(args, "state_dir", None):
        from repro.store import NodeStore

        if NodeStore.exists(args.state_dir):
            store = NodeStore.open(args.state_dir)
            chain, meta = store.load(apply_runtime=True)
            dragoon = Dragoon(chain=chain)
            dragoon.restore_node_state(meta["extra"])
            dragoon.attach_store(store)
            _log.info(
                "resumed node at height %d (state_root %s...)"
                % (chain.height, meta["state_root"].hex()[:16]),
                height=chain.height,
                state_dir=args.state_dir,
            )
            # Long-lived requesters may have spent earlier budgets; top
            # them up so this run's publishes can freeze B.  After
            # attach_store, so the mints land in the next block's WAL
            # record and crash recovery sees them.
            for arrival in arrivals:
                dragoon.ensure_funds(
                    arrival.requester_label, arrival.task.parameters.budget
                )
        else:
            store = NodeStore.init(args.state_dir)
            dragoon = Dragoon()
            dragoon.attach_store(store)
    else:
        dragoon = Dragoon()
    with deterministic_entropy(args.seed):
        outcomes = dragoon.serve(arrivals)
    if store is not None:
        root = store.save(dragoon.chain, extra=dragoon.node_state())
        _log.info(
            "node state saved to %s (height %d, state_root %s...)"
            % (args.state_dir, dragoon.chain.height, root.hex()[:16]),
            state_dir=args.state_dir,
            height=dragoon.chain.height,
        )

    rows = []
    for trace in dragoon.engine.trace:
        events = ", ".join(
            "%s:%s" % (task.split(":")[1], name) for task, name in trace.events
        )
        phases = " ".join(
            "%s=%s" % (task.split(":")[1], phase)
            for task, phase in sorted(trace.phases.items())
        )
        rows.append(
            [trace.block_number, trace.period, trace.transactions,
             events or "-", phases or "-"]
        )
    _log.info(render_table(
        ["block", "period", "txs", "events", "session phases"],
        rows,
        title="Session engine trace (%d tasks, stagger %d)"
        % (args.tasks, args.stagger),
    ))
    _log.info(
        "chain height: %d blocks (lock-step sequential would need ~%d)"
        % (dragoon.chain.height, 5 * args.tasks),
        height=dragoon.chain.height,
    )
    paid = sum(
        1 for outcome in outcomes
        for value in outcome.payments().values() if value > 0
    )
    _log.info(
        "settled %d tasks: %d workers paid, %d rejected"
        % (len(outcomes), paid, 2 * len(outcomes) - paid),
        settled=len(outcomes),
        paid=paid,
    )
    extras: dict = {}
    for outcome in outcomes:
        for operation, gas in outcome.gas.extras.items():
            extras[operation] = extras.get(operation, 0) + gas
    _log.info(render_gas_extras(extras, pricing=PAPER_PRICING))
    _write_metrics(args)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    """Run a seeded marketplace workload scenario; print its report."""
    from repro.sim import SCENARIO_PRESETS, preset, run_scenario

    scenario = preset(args.preset, seed=args.seed, tasks=args.tasks)
    store = None
    if args.state_dir:
        from repro.store import NodeStore

        if NodeStore.exists(args.state_dir):
            _log.error(
                "error: %s already holds node state — a scenario runs "
                "from genesis; pick a fresh --state-dir or `node resume` "
                "the existing one" % args.state_dir,
                state_dir=args.state_dir,
            )
            return 2
        store = NodeStore.init(args.state_dir)
    elif args.checkpoint_every:
        _log.error("error: --checkpoint-every needs --state-dir")
        return 2
    try:
        report = run_scenario(
            scenario, store=store, checkpoint_every=args.checkpoint_every
        )
    except BaseException:
        # A killed run with checkpoints is exactly what `node resume`
        # is for — keep it.  But a directory holding nothing resumable
        # would only block the identical retry with "already holds
        # node state", so clean it up.
        if store is not None and not store.manifest().get("checkpoints"):
            import shutil

            shutil.rmtree(args.state_dir, ignore_errors=True)
        raise
    report.check_invariants()

    _log.info(render_table(
        ["metric", "value"],
        [
            ["tasks published", report.tasks_published],
            ["tasks settled", report.tasks_settled],
            ["tasks cancelled", report.tasks_cancelled],
            ["blocks", report.blocks],
            ["blocks per task", "%.2f" % report.blocks_per_task],
            ["settled per block", "%.2f" % report.settled_per_block],
            ["transactions", report.total_transactions],
            ["total gas", "%dk" % (report.total_gas // 1000)],
            ["gas per settled task",
             "%dk" % (int(report.gas_per_settled_task) // 1000)],
            ["peak mempool depth", report.peak_mempool_depth],
            ["enrollments", report.enrollments],
            ["dropped worker steps", report.dropped_steps],
        ],
        title="Scenario %r (seed %d)" % (scenario.name, scenario.seed),
    ))
    latency = report.commit_to_finalize
    _log.info("commit->finalize latency: min %s, mean %s, max %s blocks"
              % (latency["min"], latency["mean"], latency["max"]))
    _log.info(render_gas_extras(report.gas_extras, pricing=PAPER_PRICING))
    top = sorted(
        report.worker_earnings.items(), key=lambda pair: (-pair[1], pair[0])
    )[:5]
    _log.info(render_table(
        ["worker", "coins earned"], top, title="Top earners",
    ))
    _emit_report(report, args)
    _write_metrics(args)
    if store is not None:
        _log.info("node state saved to %s" % args.state_dir,
                  state_dir=args.state_dir)
    return 0


def _emit_report(report, args: argparse.Namespace) -> None:
    """The shared --json/--out tail of the report-producing commands."""
    if args.json:
        # The canonical JSON report is program output, not a log line:
        # it must stay byte-identical under any logging mode.
        print(report.to_json())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")
        _log.info("report written to %s" % args.out, out=args.out)


def _write_metrics(args: argparse.Namespace) -> None:
    """The shared --metrics-out tail: snapshot the registry to a file."""
    if getattr(args, "metrics_out", None):
        from repro.obs.registry import REGISTRY
        from repro.reporting.metricsfold import write_snapshot

        write_snapshot(args.metrics_out, REGISTRY.collect())
        _log.info("metrics snapshot written to %s" % args.metrics_out,
                  metrics_out=args.metrics_out)


def _cmd_node_init(args: argparse.Namespace) -> int:
    """Create a fresh node state directory (genesis snapshot)."""
    from repro.dragoon import Dragoon
    from repro.store import NodeStore

    dragoon = Dragoon()
    for grant in args.fund or []:
        label, _, coins = grant.partition("=")
        if not coins.isdigit():
            _log.error("error: --fund takes label=coins, got %r" % grant)
            return 2
        dragoon.fund(label, int(coins))
    store = NodeStore.init(
        args.state_dir, chain=dragoon.chain, extra=dragoon.node_state()
    )
    manifest = store.manifest()
    _log.info("initialized node state at %s" % args.state_dir,
              state_dir=args.state_dir)
    _log.info("  height     : %d" % manifest["height"])
    _log.info("  state_root : %s" % manifest["state_root"])
    return 0


def _cmd_node_status(args: argparse.Namespace) -> int:
    """Load (snapshot + WAL replay) and report the node's state."""
    from repro.store import NodeStore

    status = NodeStore.open(args.state_dir).status()
    rows = [
        ["height", status["height"]],
        ["snapshot height", status["snapshot_height"]],
        ["WAL records replayed", status["wal_records"]],
        ["state root", status["state_root"][:32] + "..."],
        ["accounts", status["accounts"]],
        ["contracts", status["contracts"]],
        ["events (total)", status["events"]],
        ["events pruned", status["events_pruned"]],
        ["total gas", "%dk" % (status["total_gas"] // 1000)],
        ["checkpoints", ", ".join(map(str, status["checkpoints"])) or "-"],
    ]
    _log.info(render_table(["field", "value"], rows,
                           title="Node %s" % args.state_dir))
    return 0


def _cmd_node_resume(args: argparse.Namespace) -> int:
    """Resume an interrupted simulation checkpoint to completion."""
    from repro.sim.runner import resume_scenario

    report = resume_scenario(args.state_dir, step=args.step)
    report.check_invariants()
    _log.info(render_table(
        ["metric", "value"],
        [
            ["tasks published", report.tasks_published],
            ["tasks settled", report.tasks_settled],
            ["tasks cancelled", report.tasks_cancelled],
            ["blocks", report.blocks],
            ["total gas", "%dk" % (report.total_gas // 1000)],
        ],
        title="Resumed scenario %r (seed %d)" % (report.scenario, report.seed),
    ))
    _emit_report(report, args)
    return 0


def _proof_key(args: argparse.Namespace):
    """Resolve the selector flags to one trie key (or None + error)."""
    from repro.ledger.accounts import Address
    from repro.store import trie

    selectors = [
        args.account is not None,
        args.task is not None,
        args.entry is not None,
        args.meta is not None,
        args.key is not None,
    ]
    if sum(selectors) != 1:
        _log.error(
            "error: pick exactly one of --account / --task --slot / "
            "--entry / --meta / --key"
        )
        return None
    if args.account is not None:
        return trie.account_key(Address.from_label(args.account))
    if args.task is not None:
        if args.slot is None:
            _log.error("error: --task needs --slot")
            return None
        return trie.storage_key(args.task, args.slot)
    if args.entry is not None:
        return trie.entry_key(args.entry)
    if args.meta is not None:
        return trie.meta_key(args.meta)
    try:
        return bytes.fromhex(args.key)
    except ValueError:
        _log.error("error: --key must be hex")
        return None


def _cmd_node_proof(args: argparse.Namespace) -> int:
    """Produce (and locally check) a state proof from a state directory.

    The offline twin of the ``get_proof`` RPC method: load the node,
    mint the current commitment header, prove the selected key, verify
    the proof against the header's root, and print both in portable
    form — everything a light client needs to check the same fact.
    """
    from repro.rpc import wire
    from repro.store import NodeStore, codec, trie

    key = _proof_key(args)
    if key is None:
        return 2
    chain, _ = NodeStore.open(args.state_dir).load(apply_runtime=False)
    tracker = trie.chain_state_trie(chain)
    tracker.track_headers = True
    _, header, proof = tracker.anchored_proof(chain, key)
    present, value = trie.verify_proof(header.state_root, key, proof)
    rows = [
        ["key", key.hex()],
        ["present", "yes" if present else "no (non-membership proven)"],
        ["value", repr(codec.decode(value)) if present else "-"],
        ["state root", header.state_root.hex()],
        ["header height", header.height],
        ["header hash", header.header_hash().hex()],
        ["proof steps", len(proof["steps"])],
        ["proof (packed)", wire.pack(proof)],
        ["header (packed)", wire.pack(trie.header_to_data(header))],
    ]
    _log.info(render_table(["field", "value"], rows,
                           title="State proof from %s" % args.state_dir))
    return 0


def _cmd_light_verify(args: argparse.Namespace) -> int:
    """Verify chain facts from an untrusted node: headers + proofs only.

    Connects a :class:`repro.lightclient.LightClient` to ``--url``,
    syncs and hash-checks the header chain against ``--trust`` (or
    adopts the anchor trust-on-first-use, printing it so the next
    invocation can pin it), then proves whatever was asked: an account
    balance (``--balance``), a task's phase (``--task``), and a
    settlement receipt (``--task`` + ``--worker``).
    """
    from repro.ledger.accounts import Address
    from repro.lightclient import LightClient
    from repro.rpc import HttpTransport, RpcChain
    from repro.store.trie import ProofError

    trust = bytes.fromhex(args.trust) if args.trust else None
    transport = HttpTransport(args.url)
    try:
        client = LightClient(RpcChain(transport), trust=trust)
        tip = client.sync()
        rows = [
            ["node", args.url],
            ["verified headers", len(client.headers)],
            ["tip height", tip.height],
            ["tip state root", tip.state_root.hex()],
            ["trust anchor", client.headers[0].header_hash().hex()
             + ("" if args.trust else "  (adopted; pin with --trust)")],
        ]
        if args.balance:
            address = Address.from_label(args.balance)
            rows.append(
                ["balance %r" % args.balance, client.balance_of(address)]
            )
        if args.task:
            rows.append(["task %r phase" % args.task,
                         client.task_phase(args.task)])
            if args.worker:
                receipt = client.verify_settlement(
                    args.task, Address.from_label(args.worker)
                )
                rows.append(["worker %r verdict" % args.worker,
                             receipt["verdict"]])
                rows.append(["worker %r payout" % args.worker,
                             receipt["amount"]])
        elif args.worker:
            _log.error("error: --worker needs --task")
            return 2
        _log.info(render_table(["field", "value"], rows,
                               title="Light-client verification"))
        return 0
    except ProofError as exc:
        _log.error("VERIFICATION FAILED: %s" % exc)
        return 1
    finally:
        transport.close()


def _cmd_node_rpc_serve(args: argparse.Namespace) -> int:
    """Serve a node's JSON-RPC front-end over HTTP until interrupted.

    An existing ``--state-dir`` is resumed (snapshot + WAL replay); a
    fresh one is initialized at genesis.  Every block mined through the
    RPC surface is journalled to the WAL, and the final state is
    snapshotted on shutdown, so the served marketplace lives across
    invocations exactly like ``serve --state-dir``.

    The front-end is :class:`~repro.rpc.aserver.AsyncRpcServer`
    (persistent connections, batches, ``chain_subscribe`` server-push
    streams); ``--admin-token``/``--submit-token`` lock the mutating
    method families behind envelope auth tokens.  SIGINT and SIGTERM
    both stop it cleanly: the server's loop handles both signals while
    it runs.
    """
    from repro.rpc.aserver import AsyncRpcServer
    from repro.rpc.server import RpcAuth, RpcNode
    from repro.rpc.wire import PROTOCOL_VERSION
    from repro.store import NodeStore

    if NodeStore.exists(args.state_dir):
        store = NodeStore.open(args.state_dir)
        chain, meta = store.load(apply_runtime=True)
        _log.info(
            "resumed node at height %d (state_root %s...)"
            % (chain.height, meta["state_root"].hex()[:16]),
            height=chain.height,
            state_dir=args.state_dir,
        )
    else:
        store = NodeStore.init(args.state_dir)
        chain, meta = store.load(apply_runtime=True)
        _log.info("initialized fresh node state in %s" % args.state_dir,
                  state_dir=args.state_dir)
    chain.attach_store(store)
    auth = None
    if args.admin_token or args.submit_token:
        auth = RpcAuth(
            admin_tokens=tuple(args.admin_token),
            submit_tokens=tuple(args.submit_token),
        )
    node = RpcNode(chain=chain, store=store, auth=auth)

    def _announce(server) -> None:
        _log.info(
            "rpc node listening on http://%s:%d/rpc (%d methods, "
            "protocol v%d%s) — Ctrl-C to stop"
            % (server.host, server.port, len(node._methods),
               PROTOCOL_VERSION, ", auth" if auth is not None else ""),
            host=server.host,
            port=server.port,
        )

    server = AsyncRpcServer(
        node, host=args.host, port=args.port, ready_callback=_announce
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass  # a signal that landed before the loop took over
    finally:
        # The server stops accepting and releases the socket here — the
        # snapshot below must be the last word on this state dir.
        server.shutdown()
        root = store.save(chain)
        _log.info(
            "node state saved to %s (height %d, state_root %s...)"
            % (args.state_dir, chain.height, root.hex()[:16]),
            state_dir=args.state_dir,
            height=chain.height,
        )
    return 0


def _parse_axis_value(text: str):
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            raise SystemExit("error: axis value %r is not a number" % text)


def _load_sweep_spec(args: argparse.Namespace):
    from repro.reporting import sweep as sweeplib

    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            return sweeplib.spec_from_json(handle.read())
    axes = []
    for item in args.axis or []:
        axis, _, values = item.partition("=")
        if not values:
            raise SystemExit(
                "error: --axis takes name=v1,v2,..., got %r" % item
            )
        axes.append(
            (axis, tuple(_parse_axis_value(v) for v in values.split(",")))
        )
    if not axes:
        raise SystemExit("error: report sweep needs --spec or --axis")
    return sweeplib.SweepSpec(
        name=args.name,
        preset=args.preset,
        seed=args.seed,
        tasks=args.tasks,
        axes=tuple(axes),
        checkpoint_every=args.checkpoint_every,
    )


def _cmd_report_sweep(args: argparse.Namespace) -> int:
    """Run the scenario grid, then render the artifact set.

    The out dir afterwards holds the canonical spec, one record per
    cell, tables, plots, and the sha256 manifest — byte-identical for
    the same spec on any host, at any ``--procs``, so two runs can be
    compared with ``diff -r`` (that is exactly what CI does).
    """
    from repro.reporting import sweep as sweeplib
    from repro.reporting.render import render_reports

    spec = _load_sweep_spec(args)
    records = sweeplib.run_sweep(
        spec,
        args.out,
        work_dir=args.work_dir,
        procs=args.procs,
        force=args.force,
        progress=lambda message: _log.info(message),
    )
    manifest = render_reports(
        args.out,
        records,
        sweeplib.spec_to_json(spec),
        sweeplib.grid_hash(spec),
        bench_dir=args.bench_dir,
    )
    _log.info(
        "%d cells, %d artifacts under %s (grid %s...)"
        % (len(records), len(manifest["artifacts"]), args.out,
           manifest["grid"][:16]),
        out=args.out,
        grid=manifest["grid"],
    )
    return 0


def _fmt_ms(seconds: float) -> str:
    return "%.2fms" % (seconds * 1000.0)


def _cmd_report_trace(args: argparse.Namespace) -> int:
    """Analyze one JSONL span trace (see ``--trace`` on serve/simulate)."""
    from repro.reporting import traces

    analysis = traces.analyze_file(args.file)
    if analysis.truncated:
        _log.info("note: torn tail cut — analyzing the intact prefix")
    rows = [
        [name, stats.count, _fmt_ms(stats.total),
         _fmt_ms(stats.to_dict().get("mean", 0.0)),
         _fmt_ms(stats.percentiles()["p50"]),
         _fmt_ms(stats.percentiles()["p90"]),
         _fmt_ms(stats.percentiles()["p99"])]
        for name, stats in sorted(analysis.by_name.items())
    ]
    _log.info(render_table(
        ["span", "count", "total", "mean", "p50", "p90", "p99"], rows,
        title="Latency by span (%s)" % args.file,
    ))
    if analysis.by_phase:
        rows = [
            [phase, stats.count, _fmt_ms(stats.total),
             _fmt_ms(stats.percentiles()["p50"]),
             _fmt_ms(stats.percentiles()["p99"])]
            for phase, stats in sorted(analysis.by_phase.items())
        ]
        _log.info(render_table(
            ["phase", "count", "total", "p50", "p99"], rows,
            title="Session phases",
        ))
    path = analysis.critical_path()
    if path:
        _log.info(render_table(
            ["depth", "span", "duration"],
            [[i, hop["name"], _fmt_ms(hop["duration"])]
             for i, hop in enumerate(path)],
            title="Critical path",
        ))
    pool = analysis.utilization()
    if pool["spans"]:
        _log.info(
            "pool: %d jobs, peak %d in flight, busy %s, mean "
            "concurrency %.2f"
            % (pool["spans"], pool["peak"], _fmt_ms(pool["busy_seconds"]),
               pool["mean"])
        )
    if analysis.worker:
        rows = [
            [pid, stats.count, _fmt_ms(stats.total)]
            for pid, stats in sorted(analysis.worker.items())
        ]
        _log.info(render_table(
            ["pid", "spans", "worker-clock total"], rows,
            title="Worker attribution (per-process clocks)",
        ))
    if args.json:
        import json as _json

        print(_json.dumps(analysis.to_dict(), sort_keys=True))
    if args.out:
        import json as _json

        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(
                _json.dumps(analysis.to_dict(), sort_keys=True, indent=2)
            )
            handle.write("\n")
        _log.info("analysis written to %s" % args.out, out=args.out)
    return 0


def _cmd_report_metrics(args: argparse.Namespace) -> int:
    """Diff, merge, or project registry snapshots (--metrics-out files)."""
    import json as _json

    from repro.reporting import metricsfold

    snapshots = [metricsfold.read_snapshot(path) for path in args.files]
    if args.diff:
        if len(snapshots) != 2:
            _log.error("error: --diff takes exactly two snapshots "
                       "(before after)")
            return 2
        folded = metricsfold.diff_snapshots(snapshots[0], snapshots[1])
    elif len(snapshots) == 1:
        folded = snapshots[0]
    else:
        folded = metricsfold.merge_snapshots(snapshots)
    if args.project:
        projected = metricsfold.deterministic_projection(
            folded, prefixes=tuple(args.prefix) or None
        )
        text = _json.dumps(projected, sort_keys=True, indent=2) + "\n"
    else:
        text = metricsfold.snapshot_to_json(folded)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        _log.info("snapshot written to %s" % args.out, out=args.out)
    else:
        print(text, end="")
    return 0


def _cmd_report_render(args: argparse.Namespace) -> int:
    """Re-render (or --check) the artifact set from on-disk cell records."""
    import json as _json
    import os

    from repro.reporting import sweep as sweeplib
    from repro.reporting.render import render_reports, verify_manifest

    if args.check:
        manifest = verify_manifest(args.dir)
        _log.info(
            "manifest verified: %d artifacts, grid %s..."
            % (len(manifest["artifacts"]), manifest["grid"][:16])
        )
        return 0
    with open(os.path.join(args.dir, "sweep.json"), encoding="utf-8") as h:
        spec = sweeplib.spec_from_json(h.read())
    cells_dir = os.path.join(args.dir, "cells")
    records = {}
    for name in sorted(os.listdir(cells_dir)):
        if name.endswith(".json"):
            with open(os.path.join(cells_dir, name), encoding="utf-8") as h:
                record = _json.load(h)
            records[record["cell"]] = record
    manifest = render_reports(
        args.dir,
        records,
        sweeplib.spec_to_json(spec),
        sweeplib.grid_hash(spec),
        bench_dir=args.bench_dir,
    )
    _log.info(
        "re-rendered %d artifacts under %s"
        % (len(manifest["artifacts"]), args.dir),
        out=args.dir,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Dragoon reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("demo", help="run a small HIT end to end").set_defaults(
        func=_cmd_demo
    )
    sub.add_parser("imagenet", help="the paper's SVI ImageNet task").set_defaults(
        func=_cmd_imagenet
    )
    sub.add_parser("fees", help="Table III handling-fee reproduction").set_defaults(
        func=_cmd_fees
    )
    sub.add_parser("audit", help="gold-standard audit / reputations").set_defaults(
        func=_cmd_audit
    )
    sub.add_parser("incentives", help="worker strategy utilities").set_defaults(
        func=_cmd_incentives
    )
    serve = sub.add_parser(
        "serve",
        help="run staggered tasks through the session engine with a "
        "per-block event/phase trace",
    )
    serve.add_argument("--tasks", type=int, default=4,
                       help="number of arriving tasks (default 4)")
    serve.add_argument("--stagger", type=int, default=1,
                       help="blocks between consecutive arrivals (default 1)")
    serve.add_argument("--seed", type=int, default=0,
                       help="seed for worker-answer sampling and all "
                       "protocol randomness (default 0; same seed, "
                       "same output)")
    serve.add_argument("--stragglers", type=int, default=0,
                       help="give the first N tasks a worker who reveals "
                       "one period late (default 0)")
    serve.add_argument("--state-dir", default=None,
                       help="persist the node here: an existing state dir "
                       "is resumed (the marketplace lives across "
                       "invocations), a fresh one is initialized")
    serve.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write a MetricsRegistry snapshot (canonical "
                       "JSON) after the run; fold with `report metrics`")
    add_logging_flags(serve)
    serve.set_defaults(func=_cmd_serve)
    simulate = sub.add_parser(
        "simulate",
        help="run a seeded marketplace workload scenario (repro.sim) "
        "and print its SimulationReport",
    )
    simulate.add_argument(
        "--preset", default="poisson",
        help="scenario preset: poisson, burst, diurnal, closed-loop, "
        "adversarial (default poisson)",
    )
    simulate.add_argument("--seed", type=int, default=0,
                          help="scenario seed (default 0)")
    simulate.add_argument("--tasks", type=int, default=None,
                          help="resize the preset to ~N tasks")
    simulate.add_argument("--json", action="store_true",
                          help="also print the canonical JSON report")
    simulate.add_argument("--out", default=None, metavar="FILE",
                          help="write the canonical JSON report to FILE")
    simulate.add_argument("--state-dir", default=None,
                          help="persist chain state (WAL + snapshots) to "
                          "this fresh directory")
    simulate.add_argument("--checkpoint-every", type=int, default=0,
                          metavar="N",
                          help="write a resumable checkpoint every N blocks "
                          "(requires --state-dir; resume with `node resume`)")
    simulate.add_argument("--metrics-out", default=None, metavar="FILE",
                          help="write a MetricsRegistry snapshot (canonical "
                          "JSON) after the run; fold with `report metrics`")
    add_logging_flags(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    report = sub.add_parser(
        "report",
        help="telemetry analytics: sweep a scenario grid, analyze "
        "traces, fold metrics, render byte-reproducible artifacts",
    )
    report_sub = report.add_subparsers(dest="report_command", required=True)
    report_sweep = report_sub.add_parser(
        "sweep",
        help="run a declarative scenario grid and render its report "
        "artifacts (tables, plots, sha256 manifest)",
    )
    report_sweep.add_argument("--spec", default=None, metavar="FILE",
                              help="sweep spec JSON (see reports/sweep.json; "
                              "overrides the flag-built grid)")
    report_sweep.add_argument("--name", default="sweep",
                              help="grid name for a flag-built spec")
    report_sweep.add_argument("--preset", default="poisson",
                              help="base scenario preset (default poisson)")
    report_sweep.add_argument("--seed", type=int, default=0,
                              help="base scenario seed (default 0)")
    report_sweep.add_argument("--tasks", type=int, default=None,
                              help="resize the preset to ~N tasks")
    report_sweep.add_argument("--axis", action="append", metavar="NAME=V,V",
                              help="one grid axis, e.g. --axis "
                              "budget=100,140 --axis accuracy=0.7,0.9 "
                              "(axes: reward, budget, audit_threshold, "
                              "accuracy, stragglers, dropouts, seed)")
    report_sweep.add_argument("--checkpoint-every", type=int, default=0,
                              metavar="N",
                              help="checkpoint each cell every N blocks; an "
                              "interrupted sweep re-run resumes those cells")
    report_sweep.add_argument("--out", required=True, metavar="DIR",
                              help="artifact directory (byte-reproducible)")
    report_sweep.add_argument("--work-dir", default=None, metavar="DIR",
                              help="scratch for traces/state (default "
                              "OUT.work; not byte-reproducible)")
    report_sweep.add_argument("--procs", type=int, default=0, metavar="N",
                              help="fan cells across N processes "
                              "(0 = inline; records identical either way)")
    report_sweep.add_argument("--force", action="store_true",
                              help="re-run cells whose records already "
                              "exist")
    report_sweep.add_argument("--bench-dir", default=None, metavar="DIR",
                              help="fold benchmarks/results/*.json records "
                              "into the artifact set")
    add_logging_flags(report_sweep)
    report_sweep.set_defaults(func=_cmd_report_sweep)
    report_trace = report_sub.add_parser(
        "trace",
        help="analyze a --trace JSONL span file: latency percentiles, "
        "critical path, pool utilization, worker attribution",
    )
    report_trace.add_argument("file", help="the JSONL trace file")
    report_trace.add_argument("--json", action="store_true",
                              help="also print the full analysis as JSON")
    report_trace.add_argument("--out", default=None, metavar="FILE",
                              help="write the full analysis JSON to FILE")
    add_logging_flags(report_trace)
    report_trace.set_defaults(func=_cmd_report_trace)
    report_metrics = report_sub.add_parser(
        "metrics",
        help="diff/merge/project registry snapshots (--metrics-out files)",
    )
    report_metrics.add_argument("files", nargs="+",
                                help="snapshot files; one is shown as-is, "
                                "several are merged (or --diff'd)")
    report_metrics.add_argument("--diff", action="store_true",
                                help="subtract the first snapshot from the "
                                "second (exactly two files)")
    report_metrics.add_argument("--project", action="store_true",
                                help="emit the deterministic projection "
                                "(counters + histogram counts) instead of "
                                "the full snapshot")
    report_metrics.add_argument("--prefix", action="append", default=[],
                                metavar="P",
                                help="restrict --project to family names "
                                "with this prefix (repeatable)")
    report_metrics.add_argument("--out", default=None, metavar="FILE",
                                help="write to FILE instead of stdout")
    add_logging_flags(report_metrics)
    report_metrics.set_defaults(func=_cmd_report_metrics)
    report_render = report_sub.add_parser(
        "render",
        help="re-render artifacts from a sweep dir's cell records, or "
        "--check its manifest hashes",
    )
    report_render.add_argument("--dir", required=True, metavar="DIR",
                               help="a `report sweep` output directory")
    report_render.add_argument("--bench-dir", default=None, metavar="DIR",
                               help="fold benchmarks/results/*.json records "
                               "into the artifact set")
    report_render.add_argument("--check", action="store_true",
                               help="verify every artifact against "
                               "manifest.json instead of rewriting")
    add_logging_flags(report_render)
    report_render.set_defaults(func=_cmd_report_render)

    node = sub.add_parser(
        "node",
        help="manage a persistent node state directory "
        "(init / status / resume)",
    )
    node_sub = node.add_subparsers(dest="node_command", required=True)
    node_init = node_sub.add_parser(
        "init", help="create a fresh state directory (genesis snapshot)"
    )
    node_init.add_argument("--state-dir", required=True)
    node_init.add_argument("--fund", action="append", metavar="LABEL=COINS",
                           help="open a funded account (repeatable)")
    node_init.set_defaults(func=_cmd_node_init)
    node_status = node_sub.add_parser(
        "status", help="load (snapshot + WAL replay) and report the state"
    )
    node_status.add_argument("--state-dir", required=True)
    node_status.set_defaults(func=_cmd_node_status)
    node_resume = node_sub.add_parser(
        "resume",
        help="resume an interrupted simulation checkpoint to completion",
    )
    node_resume.add_argument("--state-dir", required=True)
    node_resume.add_argument("--step", type=int, default=None,
                             help="resume from this checkpoint step "
                             "(default: the latest)")
    node_resume.add_argument("--json", action="store_true",
                             help="also print the canonical JSON report")
    node_resume.add_argument("--out", default=None, metavar="FILE",
                             help="write the canonical JSON report to FILE")
    node_resume.set_defaults(func=_cmd_node_resume)
    node_proof = node_sub.add_parser(
        "proof",
        help="produce a Merkle state proof (and its commitment header) "
        "from a state directory",
    )
    node_proof.add_argument("--state-dir", required=True)
    node_proof.add_argument("--account", default=None, metavar="LABEL",
                            help="prove LABEL's ledger account")
    node_proof.add_argument("--task", default=None, metavar="NAME",
                            help="prove a storage slot of task contract "
                            "NAME (with --slot)")
    node_proof.add_argument("--slot", default=None, metavar="SLOT",
                            help="the storage slot for --task")
    node_proof.add_argument("--entry", type=int, default=None,
                            metavar="INDEX",
                            help="prove ledger journal entry INDEX")
    node_proof.add_argument("--meta", default=None, metavar="NAME",
                            help="prove a chain metadata key "
                            "(schema/period/scheduler/fees/event_base)")
    node_proof.add_argument("--key", default=None, metavar="HEX",
                            help="prove a raw trie key (hex)")
    node_proof.set_defaults(func=_cmd_node_proof)
    light = sub.add_parser(
        "light-verify",
        help="verify balances / task phases / settlement receipts from "
        "an untrusted node via headers + Merkle proofs",
    )
    light.add_argument("--url", required=True,
                       help="the node's RPC endpoint (http://host:port)")
    light.add_argument("--trust", default=None, metavar="HEXHASH",
                       help="pinned hash of the node's anchor header "
                       "(default: adopt trust-on-first-use and print it)")
    light.add_argument("--balance", default=None, metavar="LABEL",
                       help="verify LABEL's balance")
    light.add_argument("--task", default=None, metavar="NAME",
                       help="verify task contract NAME's phase")
    light.add_argument("--worker", default=None, metavar="LABEL",
                       help="with --task: verify LABEL's settlement "
                       "receipt (verdict + payout)")
    light.set_defaults(func=_cmd_light_verify)
    node_rpc = node_sub.add_parser(
        "rpc-serve",
        help="serve this node's JSON-RPC front-end over HTTP "
        "(out-of-process clients; see repro.rpc)",
    )
    node_rpc.add_argument("--state-dir", required=True)
    node_rpc.add_argument("--host", default="127.0.0.1",
                          help="bind address (default 127.0.0.1)")
    node_rpc.add_argument("--port", type=int, default=8545,
                          help="TCP port; 0 binds an ephemeral port and "
                          "prints it (default 8545)")
    node_rpc.add_argument("--admin-token", action="append", default=[],
                          metavar="TOKEN",
                          help="auth token for admin methods (chain_mine, "
                          "node_checkpoint, node_prune); admin tokens also "
                          "cover submissions; repeatable")
    node_rpc.add_argument("--submit-token", action="append", default=[],
                          metavar="TOKEN",
                          help="auth token for submission methods (tx_*, "
                          "swarm_put); repeatable")
    add_logging_flags(node_rpc)
    node_rpc.set_defaults(func=_cmd_node_rpc_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(
        level=getattr(args, "log_level", "info"),
        json_mode=getattr(args, "log_json", False),
    )
    # --trace scopes a JSONL span tracer to the whole command: every
    # block mine, session phase, and RPC dispatch inside lands
    # in the file; the run's outputs stay byte-identical either way.
    tracing = (
        trace_to(args.trace)
        if getattr(args, "trace", None)
        else contextlib.nullcontext()
    )
    # SIGTERM unwinds like Ctrl-C so the trace_to exit below flushes
    # and closes the span file — a terminated run leaves only complete
    # lines, never a span torn mid-write.  (While rpc-serve's event
    # loop runs, the loop's own handlers stop the server instead.)
    import signal

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    previous_sigterm = None
    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _terminate)
    except ValueError:
        pass  # not the main thread (tests driving main() directly)
    try:
        with tracing:
            return args.func(args)
    except KeyboardInterrupt:
        _log.error("interrupted")
        return 130
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)


if __name__ == "__main__":
    sys.exit(main())
