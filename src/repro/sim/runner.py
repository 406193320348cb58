"""The simulation runner: population + arrivals + metrics → the engine.

:func:`run_scenario` is the marketplace in a loop.  Per block:

1. pull the arrivals due now from the (possibly open-ended) arrival
   process and admit them through :meth:`Dragoon.admit` — same-step
   arrivals share one deployment block, exactly as in ``serve``;
2. let the population observe the bus and enroll idle agents into the
   open listings they rationally prefer (commits land next block);
3. sample the mempool and pump the engine one block;
4. feed settlements back (closed-loop republish) and, on long runs,
   prune the event log — every consumer here is cursor-based.

The loop ends at quiescence (arrivals exhausted, sessions terminal,
mempool drained) and packages a :class:`SimulationReport`.  The whole
run executes under :func:`repro.crypto.rng.deterministic_entropy` *and*
:func:`repro.chain.transactions.scoped_tx_nonces`, so a seeded scenario
is byte-for-byte reproducible — report, gas, and final ``state_root``
alike.

Checkpoint/resume (PR 4)
------------------------

Long scenarios can persist through a :class:`~repro.store.NodeStore`:
pass ``store=`` (the chain journals every block to its WAL) and
``checkpoint_every=N`` (every N engine steps the runner snapshots the
canonical chain state and pickles the live continuation — sessions,
population, arrival process, collector — next to it).  A killed run
(``interrupt_after=`` simulates the kill deterministically) resumes
with :func:`resume_scenario`, which restores the continuation, verifies
it against the snapshot ``state_root``, re-enters the loop with the
entropy stream and nonce counter exactly where they stopped, and
produces a report byte-for-byte identical to the uninterrupted run's —
the round-trip property ``tests/test_persistence.py`` pins for every
preset scenario.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.chain.transactions import scoped_tx_nonces
from repro.core.session import HITSession
from repro.crypto.rng import deterministic_entropy
from repro.dragoon import Dragoon
from repro.errors import ProtocolError
from repro.sim.arrivals import ArrivalProcess, ClosedLoopArrivals
from repro.sim.metrics import MetricsCollector
from repro.sim.population import WorkerPopulation
from repro.sim.scenario import Scenario, make_arrival_process


@dataclass
class SimulationReport:
    """The structured outcome of one scenario run.

    Everything here is plain data; :meth:`to_json` is canonical (sorted
    keys), so two runs of the same seeded scenario must produce the
    same bytes — the reproducibility contract the tests pin.
    """

    scenario: str
    seed: int
    blocks: int
    tasks_published: int
    tasks_settled: int
    tasks_cancelled: int
    total_transactions: int
    total_gas: int
    gas_per_settled_task: float
    gas_extras: Dict[str, int]
    blocks_per_task: float
    settled_per_block: float
    commit_to_finalize: Dict[str, object]
    publish_to_finalize: Dict[str, object]
    worker_earnings: Dict[str, int]
    peak_mempool_depth: int
    enrollments: int
    declined_enrollments: int
    dropped_steps: int
    events_pruned: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "blocks": self.blocks,
            "tasks_published": self.tasks_published,
            "tasks_settled": self.tasks_settled,
            "tasks_cancelled": self.tasks_cancelled,
            "total_transactions": self.total_transactions,
            "total_gas": self.total_gas,
            "gas_per_settled_task": round(self.gas_per_settled_task, 2),
            "gas_extras": dict(sorted(self.gas_extras.items())),
            "blocks_per_task": round(self.blocks_per_task, 4),
            "settled_per_block": round(self.settled_per_block, 4),
            "commit_to_finalize": self.commit_to_finalize,
            "publish_to_finalize": self.publish_to_finalize,
            "worker_earnings": dict(sorted(self.worker_earnings.items())),
            "peak_mempool_depth": self.peak_mempool_depth,
            "enrollments": self.enrollments,
            "declined_enrollments": self.declined_enrollments,
            "dropped_steps": self.dropped_steps,
            "events_pruned": self.events_pruned,
        }

    def to_json(self) -> str:
        """Canonical serialization (the byte-for-byte comparison form)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def check_invariants(self) -> None:
        """Raise unless the accounting closes (the CI smoke gate)."""
        if self.tasks_settled + self.tasks_cancelled != self.tasks_published:
            raise ProtocolError(
                "unsettled tasks: %d published, %d settled + %d cancelled"
                % (self.tasks_published, self.tasks_settled, self.tasks_cancelled)
            )
        if self.tasks_published == 0:
            raise ProtocolError("the scenario issued no tasks")
        if self.blocks <= 0:
            raise ProtocolError("no blocks mined")
        if self.total_gas <= 0:
            raise ProtocolError("no gas metered")
        histogram_total = sum(
            self.commit_to_finalize.get("histogram", {}).values()  # type: ignore[union-attr]
        )
        if histogram_total > self.tasks_settled:
            raise ProtocolError("latency histogram exceeds settled tasks")
        if any(earning < 0 for earning in self.worker_earnings.values()):
            raise ProtocolError("negative worker earnings")


@dataclass
class SimulationRun:
    """The report plus the live objects, for tests that want to poke."""

    report: SimulationReport
    dragoon: Dragoon
    population: WorkerPopulation
    collector: MetricsCollector
    sessions: Dict[str, HITSession] = field(default_factory=dict)


@dataclass
class InterruptedRun:
    """A run stopped at a checkpoint (the simulated kill).

    Hand the state directory to :func:`resume_scenario` to continue it;
    the resumed run's report is byte-for-byte what the uninterrupted
    run would have produced.
    """

    state_dir: str
    step: int
    scenario: str
    seed: int


@dataclass
class _Continuation:
    """Everything the loop needs to pick up mid-stream (pickled whole).

    The object graph is shared: sessions, population, collector, and
    the engine all reference ``dragoon.chain`` (and its event log and
    cursors), and pickling preserves that sharing — a restored
    continuation is the same machine, paused.
    """

    scenario: Scenario
    dragoon: Dragoon
    process: ArrivalProcess
    population: WorkerPopulation
    collector: MetricsCollector
    sessions: Dict[str, HITSession]
    settled_reported: int
    events_pruned: int
    step: int
    checkpoint_every: int


def run_scenario(
    scenario: Scenario,
    keep_objects: bool = False,
    store=None,
    checkpoint_every: int = 0,
    interrupt_after: Optional[int] = None,
) -> Union[SimulationReport, SimulationRun, InterruptedRun]:
    """Run one scenario to quiescence; return its :class:`SimulationReport`
    (or a :class:`SimulationRun` when ``keep_objects``).

    With ``store`` (a :class:`~repro.store.NodeStore`) every block is
    journalled to the WAL; add ``checkpoint_every=N`` to snapshot a
    resumable continuation every N engine steps.  ``interrupt_after=M``
    stops the run at step M right after writing a checkpoint there and
    returns an :class:`InterruptedRun` — the deterministic stand-in for
    ``kill -9`` that the resume tests and the example build on.
    """
    if (checkpoint_every or interrupt_after is not None) and store is None:
        raise ProtocolError("checkpointing needs a NodeStore (pass store=...)")
    with scoped_tx_nonces(), deterministic_entropy(scenario.seed):
        dragoon = Dragoon()
        if store is not None:
            dragoon.attach_store(store)
        continuation = _Continuation(
            scenario=scenario,
            dragoon=dragoon,
            process=make_arrival_process(scenario),
            population=WorkerPopulation(
                scenario.population, dragoon.chain, dragoon.swarm,
                seed=scenario.seed,
            ),
            collector=MetricsCollector(dragoon.chain),
            sessions={},
            settled_reported=0,
            events_pruned=0,
            step=0,
            checkpoint_every=checkpoint_every,
        )
        run = _loop(continuation, store, interrupt_after)
    if isinstance(run, InterruptedRun):
        return run
    return run if keep_objects else run.report


def resume_scenario(
    state_dir: str,
    step: Optional[int] = None,
    keep_objects: bool = False,
    interrupt_after: Optional[int] = None,
) -> Union[SimulationReport, SimulationRun, InterruptedRun]:
    """Continue a checkpointed scenario from ``state_dir`` to completion.

    Loads the latest (or the requested) checkpoint, verifies the
    pickled chain against the canonical snapshot's ``state_root``,
    restores the entropy stream and nonce counter to their recorded
    positions, and re-enters the loop.  Checkpointing continues at the
    cadence the original run used.
    """
    from repro.store import NodeStore

    store = NodeStore.open(state_dir)
    envelope, _entry = store.load_checkpoint(step)
    continuation: _Continuation = envelope["payload"]["continuation"]
    runtime = envelope["runtime"]
    continuation.dragoon.attach_store(store)
    with scoped_tx_nonces(runtime["nonce_position"]), deterministic_entropy(
        continuation.scenario.seed, state=runtime["rng"]
    ):
        # Re-align the canonical layer to the checkpoint being resumed:
        # the manifest may point at a *later* snapshot (a later
        # checkpoint, or the original run's final save), and journalling
        # the resumed tail on top of that would leave the directory
        # unloadable if this process dies mid-resume.
        store.save(continuation.dragoon.chain)
        run = _loop(continuation, store, interrupt_after)
    if isinstance(run, InterruptedRun):
        return run
    return run if keep_objects else run.report


def _checkpoint(store, continuation: _Continuation) -> None:
    store.checkpoint(
        continuation.dragoon.chain,
        continuation.step,
        {
            "chain": continuation.dragoon.chain,
            "continuation": continuation,
            "scenario": continuation.scenario.name,
            "seed": continuation.scenario.seed,
        },
    )


def _loop(
    continuation: _Continuation, store, interrupt_after: Optional[int]
) -> Union[SimulationRun, InterruptedRun]:
    """The marketplace loop, kept apart from ``SessionEngine.serve``.

    It admits through the same :meth:`Dragoon.admit` and stops on the
    same quiescence rule, but population observation and enrollment,
    metrics sampling, event-log pruning and checkpoints sit between
    admission and each engine step — work a bare service loop has no
    place for.  Checkpointing sits between the block advance and the
    quiescence check, so a resumed continuation re-enters exactly where
    the original would have continued — and writing a checkpoint never
    consumes entropy or nonces, which is what keeps a checkpointed
    run's trajectory identical to an unobserved one.
    """
    state = continuation
    scenario = state.scenario
    dragoon = state.dragoon
    engine = dragoon.engine
    process = state.process
    population = state.population
    collector = state.collector
    sessions = state.sessions

    while True:
        due = process.due(state.step)
        if due:
            for session in dragoon.admit(due):
                sessions[session.contract_name] = session
                population.register_task(
                    session.contract_name,
                    dragoon.tasks[session.contract_name].requester.task,
                )
        # The population sees everything up to and including this
        # step's deployments, then fills slots; commits mine next block.
        population.observe()
        population.enroll(sessions)
        collector.before_step()
        block = engine.step()
        collector.on_block(block)
        state.step += 1

        # Closed-loop feedback: every newly settled task republishes.
        if isinstance(process, ClosedLoopArrivals):
            newly_settled = (
                collector.tasks_settled
                + collector.tasks_cancelled
                - state.settled_reported
            )
            for _ in range(newly_settled):
                process.notify_settled(state.step)
            state.settled_reported += newly_settled

        if scenario.prune_every and state.step % scenario.prune_every == 0:
            dropped = dragoon.chain.event_log.prune()
            state.events_pruned += dropped
            if dropped and store is not None:
                store.note_prune(dragoon.chain)

        if (
            process.exhausted
            and engine.all_done
            and not len(dragoon.chain.mempool)
        ):
            # One last drain so terminal events reach every consumer.
            population.observe()
            break

        # Checkpoint (and the simulated kill) only *after* the
        # quiescence check: a checkpoint written at the run's final
        # step would make the resumed loop mine one extra empty block
        # the uninterrupted run never saw, breaking byte-for-byte.
        if (
            store is not None
            and state.checkpoint_every
            and state.step % state.checkpoint_every == 0
        ):
            _checkpoint(store, state)

        if interrupt_after is not None and state.step >= interrupt_after:
            if not (
                state.checkpoint_every
                and state.step % state.checkpoint_every == 0
            ):
                _checkpoint(store, state)
            return InterruptedRun(
                state_dir=store.state_dir,
                step=state.step,
                scenario=scenario.name,
                seed=scenario.seed,
            )

        if state.step >= scenario.max_blocks:
            raise ProtocolError(
                "scenario %r still busy after %d blocks: %s"
                % (scenario.name, state.step, engine.describe_stuck())
            )

    if store is not None:
        store.save(dragoon.chain)

    dropped = sum(len(session.dropped) for session in sessions.values())
    report = SimulationReport(
        scenario=scenario.name,
        seed=scenario.seed,
        blocks=dragoon.chain.height,
        tasks_published=collector.tasks_published,
        tasks_settled=collector.tasks_settled,
        tasks_cancelled=collector.tasks_cancelled,
        total_transactions=collector.total_transactions,
        total_gas=collector.total_gas,
        gas_per_settled_task=collector.gas_per_settled_task(),
        gas_extras=collector.extras_total(),
        blocks_per_task=(
            dragoon.chain.height / collector.tasks_published
            if collector.tasks_published
            else 0.0
        ),
        settled_per_block=(
            collector.tasks_settled / dragoon.chain.height
            if dragoon.chain.height
            else 0.0
        ),
        commit_to_finalize=collector.commit_to_finalize.to_dict(),
        publish_to_finalize=collector.publish_to_finalize.to_dict(),
        worker_earnings=population.earnings(),
        peak_mempool_depth=collector.peak_mempool_depth,
        enrollments=population.enrollments,
        declined_enrollments=population.declined,
        dropped_steps=dropped,
        events_pruned=state.events_pruned,
    )
    return SimulationRun(
        report=report,
        dragoon=dragoon,
        population=population,
        collector=collector,
        sessions=sessions,
    )
