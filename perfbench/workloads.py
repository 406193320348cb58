"""The three workloads: inputs from a seed, one round of each, and the
correctness gates every round must pass.

A run is a sequence of rounds; round ``r`` of a run with seed ``s`` uses
seed ``round_seed(s, r)`` and fresh state (a new chain, state dir or
node), so per-round cost does not depend on how many rounds fit into
the run, and round 0 of a seed is the same work on every run — which is
what the exact-count check compares.

* ``market`` — a marketplace through ``repro.sim.run_scenario``: one
  task arrives per block, in-memory chain, batched evaluation, a
  rational worker population.
* ``durable`` — the same generated scenario journalled to a
  ``NodeStore`` (WAL record per block, checkpoints, final snapshot).
* ``rpc`` — staggered ``HitSpec``s driven by ``repro.rpc.run_hits``
  against an ``AsyncRpcServer`` on localhost over one blocking
  ``HttpTransport``; a second connection verifies every settled
  worker's payment with a ``LightClient``.  Evaluation is sequential.
"""

from __future__ import annotations

import os
import shutil
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chain.transactions import scoped_tx_nonces
from repro.core.task import sample_worker_answers
from repro.crypto.curve import GENERATOR, FixedBaseTable, precompute_base
from repro.crypto.elgamal import keygen
from repro.crypto.poqoea import compute_quality
from repro.crypto.rng import deterministic_entropy
from repro.errors import ProtocolError
from repro.lightclient import LightClient
from repro.obs.registry import REGISTRY
from repro.obs.tracing import span_clock
from repro.reporting.metricsfold import diff_snapshots
from repro.rpc import (
    AsyncRpcServer,
    HitSpec,
    HttpTransport,
    RpcChain,
    RpcNode,
    RpcRequesterClient,
    RpcSession,
    RpcSwarm,
    RpcWorkerClient,
    run_hits,
)
from repro.sim.arrivals import TaskTemplate
from repro.sim.population import PopulationSpec
from repro.sim.runner import run_scenario
from repro.sim.scenario import Scenario, make_arrival_process
from repro.sim.seeding import derive_rng, derive_seed
from repro.store import NodeStore, codec
from repro.store.trie import ProofError

from probes import E2EProbe, Patcher

#: Tasks per round.  ``market`` and ``durable`` share the generator and
#: the size, so their difference is the store layer alone.
ROUND_TASKS = {"market": 12, "durable": 12, "rpc": 8}

#: The population serving ``market``/``durable``: sized so every task
#: fills long before ``CANCEL_AFTER`` (no task fails).
POPULATION = 16
CANCEL_AFTER = 12
#: ``durable`` snapshots a resumable checkpoint every this many engine
#: steps: a round of ``ROUND_TASKS["durable"]`` tasks runs 15 steps, so
#: one step in five is a checkpoint step, which ``block_s_p90`` catches.
CHECKPOINT_EVERY = 4
#: ``rpc`` worker accuracies: one worker per task answers well, the
#: other falls below the quality threshold on almost every task.
RPC_ACCURACIES = (0.95, 0.1)


def round_seed(seed: int, index: int) -> int:
    return derive_seed(seed, "round", index)


def market_scenario(seed: int, tasks: int) -> Scenario:
    # One task arrives every block, as in ``rpc_specs``.  A fixed
    # schedule, not Poisson gaps: with Poisson arrivals the blocks per
    # task, and with them every settle and block percentile, moved 15-23%
    # (quartile spread over median) from one seed to the next, so no
    # seed-to-seed comparison could resolve a smaller change.
    return Scenario(
        name="market",
        arrivals=("burst", 1, 1, tasks),
        seed=seed,
        population=PopulationSpec(size=POPULATION),
        evaluation="batched",
        cancel_after=CANCEL_AFTER,
    )


def rpc_specs(seed: int, tasks: int) -> List[HitSpec]:
    template = TaskTemplate()
    specs = []
    for index in range(tasks):
        task = template.build(index, derive_rng(seed, "task", index))
        answers = [
            sample_worker_answers(
                task, accuracy, seed=derive_seed(seed, "answers", index, slot)
            )
            for slot, accuracy in enumerate(RPC_ACCURACIES)
        ]
        specs.append(
            HitSpec(index, "req-%d" % index, task, answers, evaluation="sequential")
        )
    return specs


# ---------------------------------------------------------------------------
# Correctness gates
# ---------------------------------------------------------------------------

#: What one worker should get: ``(paid, amount)``.
Expected = Tuple[bool, int]


def expected_outcome(task, answers: Sequence[int]) -> Expected:
    """The ideal-world verdict (``IdealHIT``): paid iff quality >= Θ."""
    parameters = task.parameters
    quality = compute_quality(answers, task.gold_indexes, task.gold_answers)
    paid = quality >= parameters.quality_threshold
    return paid, parameters.reward_per_worker if paid else 0


def check_conservation(ledger) -> List[str]:
    minted = sum(entry.amount for entry in ledger.entries if entry.kind == "mint")
    supply = ledger.total_supply()
    if supply != minted:
        return ["money not conserved: supply %d, minted %d" % (supply, minted)]
    return []


def check_verdicts(chain, expected: Dict[Tuple[str, Any], Expected]) -> List[str]:
    """Every worker's on-chain verdict and payment against ``expected``
    (keyed by ``(contract name, worker address)``)."""
    paid_to: Dict[Tuple[Any, Any], int] = {}
    for entry in chain.ledger.entries:
        if entry.kind == "pay":
            key = (entry.source, entry.destination)
            paid_to[key] = paid_to.get(key, 0) + entry.amount
    problems = []
    for (name, worker), (paid, amount) in sorted(
        expected.items(), key=lambda item: (item[0][0], item[0][1].hex())
    ):
        contract = chain.contract(name)
        verdict = contract.verdict_of(worker)
        got = paid_to.get((contract.address, worker), 0)
        if verdict is None or verdict.startswith("paid") != paid or got != amount:
            problems.append(
                "%s worker %s: verdict %r, paid %d; expected %s %d"
                % (name, worker, verdict, got, "paid" if paid else "rejected", amount)
            )
    return problems


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


@dataclass
class Round:
    """One round's outcome and raw samples."""

    workload: str
    seed: int
    traced: bool
    probe: E2EProbe
    wall: float = 0.0  # serving the tasks (what tasks_per_s divides by)
    #: Host-normalized seconds per measured second (``HostPace.factor``).
    pace: float = 1.0
    #: The whole round: set-up, serving, verification, gates.  Every span
    #: a traced round records falls inside it.
    active_wall: float = 0.0
    blocks: int = 0
    gas: int = 0
    #: ``durable``: checkpoints the state dir's manifest lists.
    checkpoints: int = 0
    problems: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    verify_s: List[float] = field(default_factory=list)
    verifications: int = 0
    verify_failed: int = 0
    #: ``durable``: the state dir and live chain, kept for the cold load.
    state_dir: Optional[str] = None
    chain: Any = None

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def failed_tasks(self) -> int:
        if not self.ok:
            return self.probe.published
        return self.probe.published - self.probe.settled

    def fingerprint(self) -> Dict[str, Any]:
        """The counts that must repeat exactly for one round seed."""
        return {
            "blocks": self.blocks,
            "checkpoints": self.checkpoints,
            "gas": self.gas,
            "tasks": self.probe.published,
            "wal_bytes": self.probe.wal_bytes,
            **{name: value for name, value in sorted(self.counters.items())
               if name.startswith(("chain.txs", "chain.reverted", "rpc.requests."))},
        }


def registry_counters(before, after) -> Dict[str, float]:
    """Counter deltas between two ``REGISTRY.collect()`` snapshots, keyed
    ``family`` or ``family{label=value}``."""
    out: Dict[str, float] = {}
    for family in diff_snapshots(before, after):
        if family["type"] != "counter":
            continue
        for sample in family["samples"]:
            labels = sample.get("labels") or {}
            key = family["name"] + "".join(
                "{%s=%s}" % item for item in sorted(labels.items())
            )
            out[key] = sample["value"]
    return out


def _named_counters(raw: Dict[str, float]) -> Dict[str, float]:
    """The registry deltas the benchmark reports, under its own names."""
    named = {
        "chain.txs": raw.get("chain_txs_executed_total{status=ok}", 0)
        + raw.get("chain_txs_executed_total{status=reverted}", 0),
        "chain.reverted": raw.get("chain_txs_executed_total{status=reverted}", 0),
        "store.trie.syncs": raw.get("state_trie_syncs_total", 0),
        "store.trie.set_keys": raw.get("state_trie_updates_total{op=set}", 0),
        "store.trie.hashes": raw.get("state_trie_node_hashes_total", 0),
    }
    prefix = "rpc_requests_total{method="
    for key, value in raw.items():
        if key.startswith(prefix) and value:
            named["rpc.requests." + key[len(prefix):-1]] = value
    return named


def run_round(workload: str, seed: int, work_dir: str, tasks: Optional[int] = None,
              traced: bool = False, expect_override=None, clock=span_clock) -> Round:
    """Run one round with fresh state; never raises for a protocol
    failure — the failure lands in :attr:`Round.problems`.

    ``clock`` times the end-to-end samples (a :class:`HostPace` clock
    leaves out the reference slices).

    ``expect_override`` maps the expected-outcome table before the gate
    compares it (the tests use it to inject a wrong expectation).
    """
    entered = span_clock()
    size = tasks if tasks is not None else ROUND_TASKS[workload]
    result = Round(workload, seed, traced, E2EProbe(clock))
    patcher = Patcher()
    result.probe.install(patcher)
    before = REGISTRY.collect()
    try:
        if workload == "rpc":
            _rpc_round(result, size, expect_override)
        else:
            _market_round(result, size, work_dir, expect_override)
    except Exception:  # the round boundary: record, keep measuring
        result.problems.append(traceback.format_exc().strip().splitlines()[-1])
        traceback.print_exc()
    finally:
        patcher.restore()
    result.counters = _named_counters(registry_counters(before, REGISTRY.collect()))
    if result.probe.cancelled or result.probe.open_tasks():
        result.problems.append(
            "%d task(s) cancelled, %s left open"
            % (result.probe.cancelled, result.probe.open_tasks() or "none")
        )
    result.active_wall = span_clock() - entered
    return result


def _market_round(result: Round, size: int, work_dir: str, expect_override) -> None:
    store = None
    if result.workload == "durable":
        result.state_dir = os.path.join(work_dir, "state-%d" % result.seed)
        shutil.rmtree(result.state_dir, ignore_errors=True)
        store = NodeStore.init(result.state_dir)
    result.probe.start_round()
    run = run_scenario(
        market_scenario(result.seed, size),
        keep_objects=True,
        store=store,
        checkpoint_every=CHECKPOINT_EVERY if store is not None else 0,
    )
    result.wall = result.probe.clock() - result.probe.round_start
    chain = run.dragoon.chain
    if store is not None:
        result.chain = chain
        result.checkpoints = len(store.manifest().get("checkpoints", []))
    result.blocks = chain.height
    result.gas = run.report.total_gas
    try:
        run.report.check_invariants()
    except ProtocolError as failure:
        result.problems.append("report invariants: %s" % failure)
    result.problems += check_conservation(chain.ledger)
    expected = {}
    for name, session in run.sessions.items():
        task = session.requester.task
        for worker in session.workers:
            expected[(name, worker.address)] = expected_outcome(
                task, worker.produce_answers()
            )
    if expect_override is not None:
        expected = expect_override(expected)
    result.problems += check_verdicts(chain, expected)


def _rpc_round(result: Round, size: int, expect_override) -> None:
    specs = rpc_specs(result.seed, size)
    node = RpcNode()
    with AsyncRpcServer(node, dispatch_threads=1) as server:
        transport = HttpTransport(server.url)
        verifier = HttpTransport(server.url)
        try:
            result.probe.start_round()
            with scoped_tx_nonces(), deterministic_entropy(result.seed):
                outcomes = run_hits(
                    RpcChain(transport), RpcSwarm(transport), specs,
                    lambda label, task: RpcRequesterClient(label, task, transport),
                    lambda label, answers: RpcWorkerClient(
                        label, transport, answers=answers
                    ),
                )
            result.wall = result.probe.clock() - result.probe.round_start
            expected = {}
            for spec, outcome in zip(specs, outcomes):
                for worker, answers in zip(outcome.workers, spec.worker_answers):
                    expected[(outcome.requester.contract_name, worker.address)] = (
                        expected_outcome(spec.task, answers)
                    )
            if expect_override is not None:
                expected = expect_override(expected)
            _verify_settlements(result, LightClient(RpcChain(verifier)), expected)
        finally:
            transport.close()
            verifier.close()
    chain = node.chain
    result.blocks = chain.height
    result.gas = chain.total_gas
    result.problems += check_conservation(chain.ledger)
    result.problems += check_verdicts(chain, expected)


def _verify_settlements(result: Round, light: LightClient, expected) -> None:
    for (name, worker), (paid, amount) in sorted(
        expected.items(), key=lambda item: (item[0][0], item[0][1].hex())
    ):
        result.verifications += 1
        start = result.probe.clock()
        try:
            proven = light.verify_settlement(name, worker)
        except ProofError as failure:
            result.verify_failed += 1
            result.problems.append("light client: %s" % failure)
            continue
        result.verify_s.append(result.probe.clock() - start)
        if proven["verdict"].startswith("paid") != paid or proven["amount"] != amount:
            result.verify_failed += 1
            result.problems.append(
                "light client: %s worker %s proved %r/%d, expected %s/%d"
                % (name, worker, proven["verdict"], proven["amount"],
                   "paid" if paid else "rejected", amount)
            )


def recover(state_dir: str, live_chain, clock=span_clock) -> Tuple[float, List[str]]:
    """Cold ``NodeStore.load`` of a finished round: snapshot decode, WAL
    replay and root check.  The recovered root must equal the live one."""
    start = clock()
    _chain, meta = NodeStore.open(state_dir).load()
    elapsed = clock() - start
    live = codec.state_root(live_chain)
    if meta["state_root"] != live:
        return elapsed, [
            "recovered root %s != live root %s"
            % (meta["state_root"].hex(), live.hex())
        ]
    return elapsed, []


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup_once(workload: str, seed: int, work_dir: str, clock=span_clock) -> float:
    """One cold set-up: fixed-base table build, round-0 input generation,
    a requester key, and the state dir (``durable``) or the bound server
    plus a first answered request (``rpc``).  Returns its time on
    ``clock``; everything it built is torn down again."""
    start = clock()
    FixedBaseTable(GENERATOR.affine)
    precompute_base(GENERATOR)
    first = round_seed(seed, 0)
    if workload == "rpc":
        rpc_specs(first, ROUND_TASKS[workload])
    else:
        list(make_arrival_process(market_scenario(first, ROUND_TASKS[workload])))
    keygen()
    state_dir = os.path.join(work_dir, "setup-state")
    if workload == "durable":
        NodeStore.init(state_dir)
    if workload == "rpc":
        with AsyncRpcServer(RpcNode(), dispatch_threads=1) as server:
            transport = HttpTransport(server.url)
            RpcSession(transport).call("chain_head")
            elapsed = clock() - start
            transport.close()
        return elapsed
    elapsed = clock() - start
    shutil.rmtree(state_dir, ignore_errors=True)
    return elapsed
