"""The protocol driver: runs Π_hit end to end on the simulated chain.

:func:`run_hit` wires a requester and K workers through the full task
life cycle — publish, commit, reveal, evaluate, finalize — and returns a
:class:`ProtocolOutcome` with the payment vector and a per-operation gas
ledger (the raw material of the paper's Table III).

Since the session-engine refactor, :func:`run_hit` is a thin wrapper
over :class:`repro.core.session.SessionEngine`: one session, honest
policies, sequential evaluation.  Everyone acts at the earliest allowed
period, so the engine reproduces the classic lock-step schedule — one
block per clock period, five blocks per task — transaction for
transaction.  The event-driven path (staggered arrivals, stragglers,
dropouts) lives in :mod:`repro.core.session`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.chain.chain import Chain
from repro.chain.network import Scheduler
from repro.chain.transactions import Receipt
from repro.core.hit_contract import HITContract
from repro.core.requester import EvaluationAction, RequesterClient
from repro.core.task import HITTask
from repro.core.worker import WorkerClient
from repro.errors import ProtocolError
from repro.storage.swarm import SwarmStore


@dataclass
class GasReport:
    """Gas usage per protocol operation, aggregated across a full run.

    The five scripted operations of the happy path keep their fixed
    slots (Table III reads them directly); anything outside that script
    — a cancelled task's refund, a late reveal burned against the
    Fig. 4 deadline — lands in the dynamic :attr:`extras` ledger via
    :meth:`record`, so per-session scenarios extend the report without
    changing its shape.
    """

    publish: int = 0
    commits: Dict[str, int] = field(default_factory=dict)
    reveals: Dict[str, int] = field(default_factory=dict)
    golden: int = 0
    rejections: Dict[str, int] = field(default_factory=dict)
    finalize: int = 0

    @property
    def extras(self) -> Dict[str, int]:
        """Gas of dynamic (non-scripted) operations, keyed by operation.

        Created lazily so the report's storage layout — frozen by the
        interface contract tests — is untouched until a scenario
        actually records something dynamic.
        """
        try:
            return self._extras
        except AttributeError:
            self._extras: Dict[str, int] = {}
            return self._extras

    def record(self, operation: str, gas: int) -> None:
        """Accumulate gas under a dynamic operation label.

        Operation labels are free-form but conventionally
        ``"<what>:<who>"`` — e.g. ``"cancel:requester"`` or
        ``"late-reveal:worker-3"``.
        """
        self.extras[operation] = self.extras.get(operation, 0) + gas

    def submit_cost(self, worker_label: str) -> int:
        """Commit plus reveal gas for one worker (Table III 'submit')."""
        return self.commits.get(worker_label, 0) + self.reveals.get(worker_label, 0)

    @property
    def total(self) -> int:
        return (
            self.publish
            + sum(self.commits.values())
            + sum(self.reveals.values())
            + self.golden
            + sum(self.rejections.values())
            + self.finalize
            + sum(getattr(self, "_extras", {}).values())
        )


@dataclass
class ProtocolOutcome:
    """Everything a test or bench wants to know about a finished run."""

    chain: Chain
    swarm: SwarmStore
    requester: RequesterClient
    workers: List[WorkerClient]
    contract: HITContract
    actions: List[EvaluationAction]
    gas: GasReport
    receipts: List[Receipt] = field(default_factory=list)

    def payment_of(self, worker: WorkerClient) -> int:
        return self.chain.ledger.balance_of(worker.address)

    def payments(self) -> Dict[str, int]:
        return {w.label: self.payment_of(w) for w in self.workers}

    def verdicts(self) -> Dict[str, Optional[str]]:
        return {w.label: self.contract.verdict_of(w.address) for w in self.workers}


def fold_receipt(gas: GasReport, receipt: Receipt) -> GasReport:
    """Fold one receipt into a task's gas ledger (see the batch helper).

    Successful scripted operations fill the report's fixed Table III
    slots; an ``evaluate_batch`` receipt is amortized into equal
    per-worker shares (the division remainder goes to the first worker
    so the report sums to the receipt's actual gas).  Dynamic
    per-session operations go to :meth:`GasReport.record`: a successful
    ``cancel`` (the unfilled-task refund) and the gas burned by
    commits/reveals that reverted against their Fig. 4 phase deadline.

    Exposed separately from :func:`gas_report_from_receipts` so
    streaming consumers — the simulation metrics pipeline folds each
    block's receipts as they seal — share the exact slotting rules.
    """
    method = receipt.transaction.method
    sender = receipt.transaction.sender.label
    if not receipt.succeeded:
        # Only deadline misses are a protocol-level operation worth
        # ledgering; other reverts (duplicate commitment, bad
        # opening) stay out of the totals, as they always have.
        if method in ("commit", "reveal") and (
            "only valid in phase" in receipt.revert_reason
        ):
            gas.record("late-%s:%s" % (method, sender), receipt.gas_used)
        return gas
    if method == "__deploy__":
        gas.publish = receipt.gas_used
    elif method == "commit":
        gas.commits[sender] = gas.commits.get(sender, 0) + receipt.gas_used
    elif method == "reveal":
        gas.reveals[sender] = gas.reveals.get(sender, 0) + receipt.gas_used
    elif method == "golden":
        gas.golden += receipt.gas_used
    elif method in ("evaluate", "outrange"):
        target = receipt.transaction.args[0]
        gas.rejections[target.label or target.hex()] = receipt.gas_used
    elif method == "evaluate_batch":
        rejections = receipt.transaction.args[0]
        share, remainder = divmod(receipt.gas_used, max(1, len(rejections)))
        for position, (target, _, _, _) in enumerate(rejections):
            gas.rejections[target.label or target.hex()] = (
                share + (remainder if position == 0 else 0)
            )
    elif method == "finalize":
        gas.finalize = receipt.gas_used
    elif method == "cancel":
        gas.record("cancel:%s" % sender, receipt.gas_used)
    return gas


def gas_report_from_receipts(receipts: Sequence[Receipt]) -> GasReport:
    """Rebuild the per-operation gas ledger of one task from its receipts
    (the slotting rules live in :func:`fold_receipt`)."""
    gas = GasReport()
    for receipt in receipts:
        fold_receipt(gas, receipt)
    return gas


def run_hit(
    task: HITTask,
    worker_answers: Sequence[Sequence[int]],
    scheduler: Optional[Scheduler] = None,
    requester_label: str = "requester",
    worker_labels: Optional[Sequence[str]] = None,
    requester_evaluates: bool = True,
    requester_cls: type = RequesterClient,
    worker_cls: type = WorkerClient,
) -> ProtocolOutcome:
    """Run one complete HIT through the simulated blockchain.

    ``worker_answers`` supplies one answer vector per worker slot; pass a
    custom ``scheduler`` to inject the reordering adversary, or custom
    client classes to inject misbehaving parties.

    A thin wrapper over the session engine: publish the task, enroll
    every worker with the honest policy, and pump until the session
    settles — publish, commit, reveal, evaluate, finalize, one block per
    clock period, exactly as the synchronous model prescribes.

    It keeps its own five-block loop rather than
    :meth:`~repro.core.session.SessionEngine.serve`: its schedule is
    pinned by ``GOLDEN_SEEDED_ROOT`` (``tests/test_state_trie.py``), and
    a run that cannot finish comes back as an unfinished outcome after
    five blocks instead of raising a stall error.
    """
    from repro.core.session import SessionConfig, SessionEngine

    parameters = task.parameters
    if len(worker_answers) != parameters.num_workers:
        raise ProtocolError(
            "need %d answer vectors, got %d"
            % (parameters.num_workers, len(worker_answers))
        )
    labels = list(
        worker_labels
        if worker_labels is not None
        else ["worker-%d" % i for i in range(parameters.num_workers)]
    )
    if len(labels) != parameters.num_workers:
        raise ProtocolError("worker label count mismatch")

    engine = SessionEngine(scheduler=scheduler)
    requester = requester_cls(requester_label, task, engine.chain, engine.swarm)
    session = engine.publish_session(
        requester,
        config=SessionConfig(
            evaluation="sequential" if requester_evaluates else "none"
        ),
    )
    for label, answers in zip(labels, worker_answers):
        session.add_worker(
            worker_cls(label, engine.chain, engine.swarm, answers=answers)
        )
    # The lock-step schedule: deploy block + four mined blocks.  Like the
    # scripted driver of old, run_hit always returns after five blocks —
    # a task whose commit phase never fills (a misbehaving worker_cls)
    # comes back as an unfinished outcome, not an exception.
    while not session.finished and engine.chain.height < 5:
        engine.step()
    return session.outcome()
