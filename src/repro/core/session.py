"""Event-driven HIT sessions: per-task phase machines over the event bus.

The original driver (:func:`repro.core.protocol.run_hit`) was a
lock-step script — every task started at block 0 and marched through
publish → commit → reveal → evaluate → finalize in unison, so staggered
arrivals, stragglers, and dropouts were inexpressible.  This module
inverts the life cycle:

* :class:`HITSession` is an explicit per-task phase state machine that
  times each client's duties off the contract's deadlines.  It never
  calls ``mine_block`` and is never handed receipts: it reacts to the events
  the chain's :class:`~repro.chain.eventlog.EventLog` shows it, routed
  through the reactive step methods
  :meth:`~repro.core.worker.WorkerClient.on_event` and
  :meth:`~repro.core.requester.RequesterClient.on_event`.
* :class:`SessionEngine` pumps the clock: each :meth:`SessionEngine.step`
  mines one block (possibly empty — time passes without traffic) and
  delivers that block's events to every registered session.  Any number
  of sessions run concurrently at arbitrary block offsets; sessions in
  the same phase land their transactions in the same block, so all of a
  task's quality rejections ride one ``evaluate_batch`` transaction
  (``evaluation="batched"``) and the chain grows per *phase*, not per
  task.
* :meth:`SessionEngine.serve` is the one service loop.  Its callers —
  :meth:`repro.dragoon.Dragoon.serve` (with ``run_task`` and
  ``run_hits_batch``) and :func:`repro.rpc.harness.run_hits`, over a
  ``Chain`` or an ``RpcChain`` alike — differ only in their ``admit``
  step.
* :class:`DropScheduler` and :class:`StragglerScheduler` are the
  scenario adversaries: they sit between a worker's reactive steps and
  the mempool, dropping or delaying commits and reveals to exercise the
  contract's Fig. 4 deadlines (a late reveal reverts; an unrevealed slot
  is refunded to the requester at finalization).

:meth:`SessionEngine.run`, :func:`repro.core.protocol.run_hit` and the
simulation runner keep loops of their own; each docstring says why.  The
lock-step five-block schedule falls out of the state machine as the
special case where everyone acts at the earliest allowed period.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional
from typing import Sequence, Tuple

from repro.chain.blocks import Block
from repro.chain.chain import Chain
from repro.chain.eventlog import EventRecord
from repro.chain.network import Scheduler
from repro.chain.transactions import Receipt
from repro.core.protocol import (
    ProtocolOutcome,
    gas_report_from_receipts,
)
from repro.core.requester import EvaluationAction, RequesterClient
from repro.core.worker import WorkerClient
from repro.errors import ProtocolError
from repro.ledger.accounts import Address
from repro.obs import registry as _obs
from repro.obs.tracing import get_tracer, span_clock, trace_span
from repro.storage.swarm import SwarmStore

_PHASE_TRANSITIONS = _obs.REGISTRY.counter(
    "session_phase_transitions_total",
    "Session phase transitions, labeled by the phase entered",
    labelnames=("phase",),
)
_PHASE_SECONDS = _obs.REGISTRY.histogram(
    "session_phase_seconds",
    "Wall-clock time a session spent in each phase before leaving it",
    labelnames=("phase",),
)
_DROPPED_STEPS = _obs.REGISTRY.counter(
    "session_dropped_steps_total",
    "Worker steps a scheduling policy refused to send",
)
_ENGINE_STEPS = _obs.REGISTRY.counter(
    "engine_steps_total", "SessionEngine.step invocations"
)
_ENGINE_STEP_SECONDS = _obs.REGISTRY.histogram(
    "engine_step_seconds", "Wall-clock duration of one engine step"
)
_SESSIONS_ACTIVE = _obs.REGISTRY.gauge(
    "sessions_active", "Registered sessions not yet in a terminal phase"
)

# Client-side session phases.  COMMIT/REVEAL/EVALUATE mirror the
# contract's effective phases; FINALIZE covers "window closed, settlement
# transaction in flight"; DONE and CANCELLED are terminal.
SESSION_COMMIT = "commit"
SESSION_REVEAL = "reveal"
SESSION_EVALUATE = "evaluate"
SESSION_FINALIZE = "finalize"
SESSION_DONE = "done"
SESSION_CANCELLED = "cancelled"

TERMINAL_PHASES = (SESSION_DONE, SESSION_CANCELLED)


@dataclass
class SessionConfig:
    """How one session conducts its requester's duties.

    ``evaluation`` selects the phase-3 path: ``"sequential"`` sends one
    ``evaluate``/``outrange`` transaction per rejected worker (the
    paper's literal deployment story), ``"batched"`` folds all quality
    rejections into one ``evaluate_batch`` transaction verified by a
    single random-linear-combination check, and ``"none"`` models the
    silent requester (everyone is paid by default).  ``cancel_after``
    makes the requester reclaim her budget if the commit phase is still
    unfilled that many clock periods after arrival (``None``: wait
    forever).
    """

    evaluation: str = "sequential"  # "sequential" | "batched" | "none"
    cancel_after: Optional[int] = None


class WorkerPolicy:
    """When a worker's due protocol steps actually reach the mempool.

    The honest policy submits every step the moment it becomes due.
    Adversarial subclasses delay (:class:`StragglerScheduler`) or
    suppress (:class:`DropScheduler`) steps; they model worker-side
    behaviour, not network power — the network adversary stays in
    :mod:`repro.chain.network`.
    """

    def schedule(self, step: str, period: int) -> Optional[int]:
        """The period to submit ``step`` at, or ``None`` to never send it."""
        return period


class StragglerScheduler(WorkerPolicy):
    """Delay chosen steps by whole clock periods (late commits/reveals).

    ``StragglerScheduler(reveal=1)`` submits the reveal one period after
    it became due — past the Fig. 4 reveal deadline, so the contract
    rejects it and the worker's slot is refunded to the requester at
    finalization.
    """

    def __init__(self, **delays: int) -> None:
        for step, blocks in delays.items():
            if blocks < 0:
                raise ValueError("cannot deliver %s into the past" % step)
        self.delays = dict(delays)

    def schedule(self, step: str, period: int) -> Optional[int]:
        return period + self.delays.get(step, 0)


class DropScheduler(WorkerPolicy):
    """Suppress chosen steps entirely (worker dropouts).

    ``DropScheduler("reveal")`` commits but never opens — the classic
    mid-task dropout; ``DropScheduler("commit")`` never shows up, which
    leaves the task unfilled until the requester cancels.
    """

    def __init__(self, *steps: str) -> None:
        if not steps:
            raise ValueError("name at least one step to drop")
        self.dropped_steps = frozenset(steps)

    def schedule(self, step: str, period: int) -> Optional[int]:
        if step in self.dropped_steps:
            return None
        return period


class HITSession:
    """The client-side state machine of one published task.

    Keeps its own schedule: the session learns the reveal deadline from
    the ``all_committed`` event (through the requester's reactive view)
    and times every subsequent duty off it, exactly as a deployed
    client would.  It decides when to *send*; which phase the chain is
    in is :func:`~repro.core.hit_contract.effective_phase`'s call.
    All chain interaction goes through the registered clients' existing
    step methods, so adversarial client subclasses behave identically
    under the engine and under the old lock-step driver.
    """

    def __init__(
        self,
        chain: Chain,
        swarm: SwarmStore,
        requester: RequesterClient,
        config: Optional[SessionConfig] = None,
    ) -> None:
        if requester.contract_name is None:
            raise ProtocolError("session requires a published task")
        self.chain = chain
        self.swarm = swarm
        self.requester = requester
        self.contract_name: str = requester.contract_name
        self.contract_address = chain.contract(self.contract_name).address
        self.config = config or SessionConfig()
        self.workers: List[WorkerClient] = []
        self.phase = SESSION_COMMIT
        self.arrival_period = chain.clock.period
        self.actions: List[EvaluationAction] = []
        #: (block_number, phase) at every transition, for traces/tests.
        self.history: List[Tuple[int, str]] = [
            (max(0, chain.height - 1), SESSION_COMMIT)
        ]
        #: (worker_label, step) pairs a policy refused to send.
        self.dropped: List[Tuple[str, str]] = []
        #: span_clock() at the last phase entry — observability only,
        #: never an input to protocol decisions.
        self._phase_entered = span_clock()
        self._policies: Dict[str, WorkerPolicy] = {}
        self._deferred: List[Tuple[int, str, str, Callable[[], object]]] = []
        self._cancel_requested = False
        self._finalize_sent = False
        self._terminal_phase: Optional[str] = None
        published = chain.events_named("published", self.contract_name)
        if not published:
            raise ProtocolError(
                "no published event for %s" % self.contract_name
            )
        self._published_event = published[0]

    def __getstate__(self) -> dict:
        """Checkpoints carry no clock reading: ``_phase_entered`` would
        make two runs' pickles differ, and means nothing in the process
        that resumes (its first transition observes zero seconds)."""
        state = dict(self.__dict__)
        state.pop("_phase_entered", None)
        return state

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def add_worker(
        self, worker: WorkerClient, policy: Optional[WorkerPolicy] = None
    ) -> WorkerClient:
        """Enroll a worker: discover the task and react to its publication.

        The worker is handed the ``published`` event it would have seen
        on the bus; its :meth:`~repro.core.worker.WorkerClient.on_event`
        answers with the due ``commit`` step, which the policy then
        schedules (immediately, late, or never).
        """
        if worker.discovered is None:
            worker.discover(self.contract_name)
        self.workers.append(worker)
        if policy is not None:
            self._policies[worker.label] = policy
        for step in worker.on_event(self._published_event):
            self._schedule_worker_step(worker, step, self.chain.clock.period)
        return worker

    @staticmethod
    def check_staffing(
        worker_answers: Sequence[Sequence[int]],
        worker_labels: Optional[Sequence[str]],
    ) -> None:
        """Reject labels that do not match the answer sheets — called
        before publishing, so no budget is escrowed for a task that no
        session could settle."""
        if worker_labels is not None and (
            len(worker_labels) != len(worker_answers)
        ):
            raise ProtocolError("worker label count mismatch")

    def enroll(
        self,
        make_worker: Callable[[str, List[int]], WorkerClient],
        worker_answers: Sequence[Sequence[int]],
        worker_labels: Optional[Sequence[str]],
        policies: Optional[Dict[int, WorkerPolicy]],
    ) -> List[WorkerClient]:
        """Enroll one worker per answer sheet, built by
        ``make_worker(label, answers)``.  Labels default to
        ``"<contract>/worker-<i>"``; ``policies`` maps worker indexes to
        adversarial :class:`WorkerPolicy` objects (unmapped: honest).
        """
        self.check_staffing(worker_answers, worker_labels)
        if worker_labels is None:
            worker_labels = [
                "%s/worker-%d" % (self.contract_name, index)
                for index in range(len(worker_answers))
            ]
        policies = policies or {}
        return [
            self.add_worker(
                make_worker(label, list(answers)), policies.get(index)
            )
            for index, (label, answers) in enumerate(
                zip(worker_labels, worker_answers)
            )
        ]

    @property
    def reveal_deadline(self) -> Optional[int]:
        """The observed Fig. 4 reveal deadline (None while unfilled)."""
        return self.requester.observed_reveal_deadline

    @property
    def finished(self) -> bool:
        return self.phase in TERMINAL_PHASES

    # ------------------------------------------------------------------
    # Event delivery (called by the engine once per mined block)
    # ------------------------------------------------------------------

    def on_block(
        self, block_number: int, period: int, records: Iterable[EventRecord]
    ) -> None:
        """Deliver one block's events, then act on the new clock period."""
        for record in records:
            event = record.event
            self.requester.on_event(event)
            if event.name == "finalized":
                self._terminal_phase = SESSION_DONE
            elif event.name == "cancelled":
                self._terminal_phase = SESSION_CANCELLED
            for worker in self.workers:
                for step in worker.on_event(event):
                    self._schedule_worker_step(worker, step, period)
        self._advance(block_number, period)

    def _schedule_worker_step(
        self, worker: WorkerClient, step: str, period: int
    ) -> None:
        policy = self._policies.get(worker.label)
        due = period if policy is None else policy.schedule(step, period)
        if due is None:
            self.dropped.append((worker.label, step))
            _DROPPED_STEPS.inc()
            return
        submit = worker.send_commit if step == "commit" else worker.send_reveal
        if due <= period:
            submit()
        else:
            self._deferred.append((due, worker.label, step, submit))

    def _run_deferred(self, period: int) -> None:
        still_waiting = []
        for due, label, step, submit in self._deferred:
            if due <= period:
                submit()
            else:
                still_waiting.append((due, label, step, submit))
        self._deferred = still_waiting

    # ------------------------------------------------------------------
    # The phase state machine
    # ------------------------------------------------------------------

    def _advance(self, block_number: int, period: int) -> None:
        """Fire every transition the new period allows (Fig. 4 timing).

        With everyone honest this advances one phase per block — the
        lock-step schedule — but the ``>=`` guards let a session catch
        up after idle blocks, which is what staggered scenarios need.
        """
        if self.finished:
            return
        self._run_deferred(period)
        if self._terminal_phase is not None:
            # Which terminal event actually arrived decides the phase: a
            # cancel that reverted (a late commit filled the task in the
            # same block) still runs to DONE through finalization.
            self._set_phase(block_number, self._terminal_phase)
            return
        deadline = self.reveal_deadline
        if self.phase == SESSION_COMMIT:
            if deadline is not None:
                self._set_phase(block_number, SESSION_REVEAL)
            elif self._commit_phase_timed_out(period) and not self._cancel_requested:
                self._cancel_requested = True
                self.requester.send_cancel()
        if self.phase == SESSION_REVEAL and deadline is not None:
            if period >= deadline + 1:
                self._set_phase(block_number, SESSION_EVALUATE)
                self._evaluate()
        if self.phase == SESSION_EVALUATE and deadline is not None:
            if period >= deadline + 2 and not self._finalize_sent:
                self._finalize_sent = True
                self._set_phase(block_number, SESSION_FINALIZE)
                self.requester.send_finalize()

    def scheduled_until(self) -> Optional[int]:
        """The latest clock period at which this session still expects
        self-scheduled progress: a policy-deferred worker step, or a
        pending ``cancel_after`` timeout on an unfilled commit phase.
        ``None`` when nothing is scheduled — a session idle past this
        period is genuinely stuck, not waiting.
        """
        dues = [due for due, _, _, _ in self._deferred]
        if (
            self.phase == SESSION_COMMIT
            and not self._cancel_requested
            and self.config.cancel_after is not None
        ):
            # The cancel fires no earlier than period 2 (contract rule).
            dues.append(max(2, self.arrival_period + self.config.cancel_after))
        return max(dues) if dues else None

    def _commit_phase_timed_out(self, period: int) -> bool:
        after = self.config.cancel_after
        # The contract only accepts cancellations from period 2 on; a
        # cancel submitted now executes at this same period number.
        return (
            after is not None
            and period >= 2
            and period - self.arrival_period >= after
        )

    def _evaluate(self) -> None:
        mode = self.config.evaluation
        if mode == "none":
            return
        if mode == "batched":
            self.actions = self.requester.evaluate_all_batched()
        elif mode == "sequential":
            self.actions = self.requester.evaluate_all()
        else:
            raise ProtocolError("unknown evaluation mode: %r" % mode)

    def _set_phase(self, block_number: int, phase: str) -> None:
        now = span_clock()
        entered = getattr(self, "_phase_entered", now)
        _PHASE_SECONDS.observe(now - entered, phase=self.phase)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(
                "session.phase",
                entered,
                now,
                parent=tracer.current_span_id(),
                attrs={
                    "task": self.contract_name,
                    "phase": self.phase,
                    "next": phase,
                    "block": block_number,
                },
            )
        self.phase = phase
        self._phase_entered = now
        _PHASE_TRANSITIONS.inc(phase=phase)
        self.history.append((block_number, phase))

    # ------------------------------------------------------------------
    # Outcome
    # ------------------------------------------------------------------

    def outcome(self) -> ProtocolOutcome:
        """The finished session, packaged like the lock-step driver's."""
        return session_outcomes([self])[0]


def session_outcomes(sessions: Sequence[HITSession]) -> List[ProtocolOutcome]:
    """Package sessions of one chain, reading its blocks once.

    Over :class:`~repro.rpc.client.RpcChain`, ``chain.blocks`` fetches
    every block, so one scan for all the sessions, not one per session,
    keeps outcome assembly from costing tasks × height requests.
    """
    receipts: Dict[str, List[Receipt]] = {
        session.contract_name: [] for session in sessions
    }
    if sessions:
        for block in sessions[0].chain.blocks:
            for receipt in block.receipts:
                bucket = receipts.get(receipt.transaction.contract)
                if bucket is not None:
                    bucket.append(receipt)
    return [
        ProtocolOutcome(
            chain=session.chain,
            swarm=session.swarm,
            requester=session.requester,
            workers=session.workers,
            contract=session.chain.contract(session.contract_name),
            actions=session.actions,
            gas=gas_report_from_receipts(receipts[session.contract_name]),
            receipts=receipts[session.contract_name],
        )
        for session in sessions
    ]


@dataclass
class BlockTrace:
    """What one engine step looked like (the CLI's per-block trace)."""

    block_number: int
    period: int
    transactions: int
    events: List[Tuple[str, str]] = field(default_factory=list)  # (task, event)
    phases: Dict[str, str] = field(default_factory=dict)  # task -> phase


class SessionEngine:
    """Pumps the clock and routes each block's events to its sessions.

    One engine owns one chain (and its Swarm store) and any number of
    concurrent sessions at arbitrary offsets: tasks may arrive
    mid-stream (:meth:`serve` admits them between steps), and each
    :meth:`step` mines exactly one block — empty if nobody acted — then
    delivers the block's events to every session whose contract emitted
    them.  Same-phase sessions therefore share blocks, which is what
    collapses N tasks to five blocks and routes all of a task's quality
    rejections through one batched verification.
    """

    def __init__(
        self,
        chain: Optional[Chain] = None,
        swarm: Optional[SwarmStore] = None,
        scheduler: Optional[Scheduler] = None,
    ) -> None:
        if chain is not None and scheduler is not None:
            raise ProtocolError("pass a scheduler or a chain, not both")
        self.chain = chain if chain is not None else Chain(scheduler=scheduler)
        self.swarm = swarm if swarm is not None else SwarmStore()
        self.sessions: List[HITSession] = []
        self._by_address: Dict[Address, HITSession] = {}
        self.trace: List[BlockTrace] = []
        # The engine's own cursor: each step polls only the events that
        # appeared since the last one (including any deployment blocks
        # sealed between steps), never rescanning the log.
        self._subscription = self.chain.subscribe()

    # ------------------------------------------------------------------
    # Session registration
    # ------------------------------------------------------------------

    def publish_session(
        self,
        requester: RequesterClient,
        contract_name: Optional[str] = None,
        config: Optional[SessionConfig] = None,
    ) -> HITSession:
        """Publish the requester's task now and register its session."""
        receipt = requester.publish(contract_name=contract_name)
        if not receipt.succeeded:
            raise ProtocolError("publish failed: %s" % receipt.revert_reason)
        return self.register(requester, config=config)

    def register(
        self,
        requester: RequesterClient,
        config: Optional[SessionConfig] = None,
    ) -> HITSession:
        """Adopt an already-published task (e.g. from a batched deploy)."""
        session = HITSession(self.chain, self.swarm, requester, config=config)
        self.sessions.append(session)
        self._by_address[session.contract_address] = session
        return session

    # ------------------------------------------------------------------
    # The pump
    # ------------------------------------------------------------------

    def step(self) -> Block:
        """Mine one block and deliver its events to the sessions."""
        started = span_clock()
        with trace_span("engine.step", sessions=len(self.sessions)) as span:
            block = self.chain.mine_block()
            period = self.chain.clock.period
            routed: Dict[Address, List[EventRecord]] = {}
            for record in self._subscription.poll():
                routed.setdefault(record.event.contract, []).append(record)
            trace = BlockTrace(block.number, period, len(block.transactions))
            for session in self.sessions:
                if session.finished:
                    continue
                records = routed.get(session.contract_address, [])
                session.on_block(block.number, period, records)
                trace.events.extend(
                    (session.contract_name, record.event.name)
                    for record in records
                )
                trace.phases[session.contract_name] = session.phase
            self.trace.append(trace)
            span.set(block=block.number)
        _ENGINE_STEPS.inc()
        _SESSIONS_ACTIVE.set(len(self.active_sessions()))
        _ENGINE_STEP_SECONDS.observe(span_clock() - started)
        return block

    def active_sessions(self) -> List[HITSession]:
        return [session for session in self.sessions if not session.finished]

    @property
    def all_done(self) -> bool:
        return not self.active_sessions()

    def describe_stuck(self, limit: int = 8) -> str:
        """Name the unfinished sessions and their phases (error messages)."""
        active = self.active_sessions()
        shown = ", ".join(
            "%s (phase=%s)" % (session.contract_name, session.phase)
            for session in active[:limit]
        )
        if len(active) > limit:
            shown += ", ... %d more" % (len(active) - limit)
        return shown or "none"

    def run(self, max_blocks: int = 256) -> int:
        """Step until every session settles; returns the blocks mined.

        The loop for sessions registered by hand, with no arrival
        stream to admit — what the engine tests drive, step by step,
        without going through :meth:`serve`.  Raises
        :class:`ProtocolError` naming the stuck sessions if they are
        still open after ``max_blocks`` — an unfilled task with no
        ``cancel_after`` is the usual culprit.
        """
        mined = 0
        while not self.all_done:
            if mined >= max_blocks:
                raise ProtocolError(
                    "%d sessions still open after %d blocks: %s"
                    % (len(self.active_sessions()), mined, self.describe_stuck())
                )
            self.step()
            mined += 1
        return mined

    def serve(
        self,
        arrivals: Iterable,
        admit: Callable[[List], List[HITSession]],
        max_blocks: Optional[int] = None,
    ) -> List[ProtocolOutcome]:
        """The service loop: admit arrivals mid-stream, settle them all.

        ``arrivals`` holds anything with an ``at_block`` (engine steps
        from the start of the loop; 0 = before its first block).  A
        sequence may list them in any order (outcomes come back in its
        order); an *open-ended iterator* — e.g. a Poisson process from
        :mod:`repro.sim.arrivals` — is pulled lazily as blocks come up
        and must yield non-decreasing ``at_block`` (outcomes in arrival
        order).  ``admit(due)`` publishes one step's due arrivals and
        returns their staffed sessions in the same order; then the step
        mines one block, so a task entering at block 7 commits while
        earlier tasks reveal or evaluate.

        The loop ends at *quiescence*: stream exhausted, every session
        terminal, mempool drained.  ``max_blocks=None`` adapts the stall
        bound to the load (:meth:`_stall_bound`); a stalled loop raises
        :class:`ProtocolError` naming the stuck sessions and phases.
        The mempool is read only at quiescence or at the stall bound,
        never per step: over an ``RpcChain`` each read is a request.
        """
        stream: Iterator[Tuple[int, object]]
        if isinstance(arrivals, SequenceABC):
            # Sorted, so an arrival before block 0 is the first one the
            # loop below pulls — and rejects before admitting anything.
            stream = iter(
                sorted(enumerate(arrivals), key=lambda pair: pair[1].at_block)
            )
        else:
            stream = iter(enumerate(arrivals))

        sessions: Dict[int, HITSession] = {}  # arrival index -> session
        pending = next(stream, None)
        if pending is None:
            return []
        period0 = self.chain.clock.period  # period == period0 + step below
        step = 0
        last_progress = 0
        progress_mark = (0, 0)
        while True:
            due: List[Tuple[int, object]] = []
            while pending is not None and pending[1].at_block <= step:
                if pending[1].at_block < 0:
                    raise ProtocolError("arrivals cannot predate the serve loop")
                if pending[1].at_block < step:
                    raise ProtocolError(
                        "arrival stream must be ordered by at_block "
                        "(got block %d after the loop reached block %d)"
                        % (pending[1].at_block, step)
                    )
                due.append(pending)
                pending = next(stream, None)
            if due:
                admitted = admit([arrival for _, arrival in due])
                sessions.update(zip((index for index, _ in due), admitted))
            if pending is None and self.all_done and not len(self.chain.mempool):
                break
            bound = (
                max_blocks
                if max_blocks is not None
                else self._stall_bound(last_progress, pending, period0)
            )
            # A non-empty mempool is imminent work (it mines next step),
            # never a stall — e.g. the cancel transaction a timed-out
            # session just submitted.
            if step >= bound and not len(self.chain.mempool):
                raise ProtocolError(
                    "service loop stalled at block %d with %d open "
                    "session(s): %s"
                    % (step, len(self.active_sessions()), self.describe_stuck())
                )
            self.step()
            step += 1
            # Progress = a new admission or any session's phase moving;
            # history lengths only ever grow, so the pair is a cheap
            # monotone fingerprint.
            mark = (
                len(sessions),
                sum(len(session.history) for session in sessions.values()),
            )
            if mark != progress_mark:
                progress_mark = mark
                last_progress = step
        return session_outcomes([sessions[index] for index in sorted(sessions)])

    def _stall_bound(
        self,
        last_progress: int,
        pending: Optional[Tuple[int, object]],
        period0: int,
    ) -> int:
        """The step past which an idle service loop counts as stuck.

        Anchored at the latest of: the last observed progress, every
        active session's self-scheduled work (converted from clock
        periods to loop steps), and the next arrival's block.  The
        slack on top scales with the number of in-flight sessions —
        a deeper pipeline legitimately takes longer to drain than a
        flat allowance assumes.
        """
        active = self.active_sessions()
        horizon = last_progress
        for session in active:
            until = session.scheduled_until()
            if until is not None:
                horizon = max(horizon, until - period0)
        if pending is not None:
            horizon = max(horizon, pending[1].at_block)
        return horizon + 16 + 4 * len(active)
