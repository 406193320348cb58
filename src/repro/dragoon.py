"""The Dragoon system facade: many tasks, one chain, one requester key.

The paper's §VI notes that "Dragoon enables the requester to manage only
one private-public key pair throughout all her tasks, because all
protocol scripts are simulatable without the secret key and therefore
leak nothing relevant".  :class:`Dragoon` packages that deployment
story: one chain + Swarm instance, per-requester long-lived keys, and a
task registry, so a downstream user can run many HITs the way the
deployed system at the paper's ropsten address did.

Execution paths and throughput
------------------------------

Every path runs through one service loop,
:meth:`repro.core.session.SessionEngine.serve`, with :meth:`Dragoon.admit`
as its admission step (each step's arrivals deploy in one block under
their requesters' long-lived keys):

* :meth:`Dragoon.serve` — the general case: tasks arrive at arbitrary
  block offsets mid-stream, each runs its own event-driven phase state
  machine, and same-phase sessions share blocks (and the batched
  verification paths) automatically.
* :meth:`Dragoon.run_task` — the one-arrival case: one task, one block
  per protocol phase (five blocks per task), sequential ``evaluate``
  transactions, one VPKE verification per mismatch proof.  This is the
  paper's literal deployment story.
* :meth:`Dragoon.run_hits_batch` — the all-at-once case: N tasks
  arrive at block 0, so all deployments seal into a *single* block
  (:meth:`repro.chain.chain.Chain.deploy_many`), all commits share the
  next block, then reveals, then evaluations, then finalizations: five
  blocks total for the whole batch instead of five per task.  Each
  requester's quality rejections ride one ``evaluate_batch``
  transaction whose VPKE proofs the contract verifies in a single
  random-linear-combination check
  (:func:`repro.crypto.vpke.verify_decryption_batch`).

Precomputation
--------------

Fixed-base scalar multiplication reads per-base window tables
(generator, requester public keys) from a least-recently-used cache of
fixed size, so the generator's table survives any number of one-off
bases.  :func:`repro.crypto.curve.precompute_base` warms a table ahead
of a burst; :func:`repro.crypto.curve.fixed_base_cache_info` reports
occupancy.

``benchmarks/bench_batch_verification.py`` records the batched-versus-
sequential speedup (see its module docstring for how to reproduce the
table).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.chain.chain import Chain
from repro.chain.network import Scheduler
from repro.core.protocol import ProtocolOutcome
from repro.core.requester import RequesterClient
from repro.core.session import (
    HITSession,
    SessionConfig,
    SessionEngine,
    WorkerPolicy,
)
from repro.core.task import HITTask
from repro.core.worker import WorkerClient
from repro.errors import ProtocolError
from repro.ledger.accounts import Address
from repro.storage.swarm import SwarmStore


@dataclass
class TaskArrival:
    """One task joining a :meth:`Dragoon.serve` run mid-stream.

    ``at_block`` counts engine steps from the start of the serve loop
    (0 = published before the first block of the run).  ``worker_policies``
    maps worker *indexes* to :class:`~repro.core.session.WorkerPolicy`
    adversaries — stragglers and dropouts; unmapped workers are honest.
    """

    at_block: int
    requester_label: str
    task: HITTask
    worker_answers: Sequence[Sequence[int]]
    worker_labels: Optional[Sequence[str]] = None
    worker_policies: Optional[Dict[int, WorkerPolicy]] = None
    evaluation: str = "batched"
    cancel_after: Optional[int] = None


@dataclass
class TaskHandle:
    """One published task: its contract name, requester, and workers."""

    contract_name: str
    requester: RequesterClient
    workers: List[WorkerClient] = field(default_factory=list)
    finished: bool = False


class Dragoon:
    """A long-lived Dragoon deployment hosting many tasks.

    Requester identities keep their ElGamal key pair across tasks; the
    chain, ledger, and Swarm store are shared.  Each task runs the same
    five-block life cycle as :func:`repro.core.protocol.run_hit`, but
    tasks may be interleaved on the same chain.
    """

    def __init__(
        self,
        scheduler: Optional[Scheduler] = None,
        chain: Optional[Chain] = None,
        swarm: Optional[SwarmStore] = None,
    ) -> None:
        if chain is not None and scheduler is not None:
            raise ProtocolError("pass a scheduler or a restored chain, not both")
        self.chain = chain if chain is not None else Chain(scheduler=scheduler)
        self.swarm = swarm if swarm is not None else SwarmStore()
        self.engine = SessionEngine(chain=self.chain, swarm=self.swarm)
        self._requester_keys: Dict[str, int] = {}
        self._task_serial = 0
        self.tasks: Dict[str, TaskHandle] = {}

    # ------------------------------------------------------------------
    # Persistence (see repro.store.nodestore)
    # ------------------------------------------------------------------

    def _next_task_serial(self) -> int:
        value = self._task_serial
        self._task_serial += 1
        return value

    def node_state(self) -> Dict[str, object]:
        """The facade-level durable state: long-lived requester keys and
        the task-name serial (contract names must keep advancing across
        process restarts — the chain rejects duplicate names)."""
        return {
            "requester_keys": dict(self._requester_keys),
            "task_serial": self._task_serial,
        }

    def restore_node_state(self, state: Dict[str, object]) -> None:
        self._requester_keys = dict(state.get("requester_keys", {}))
        self._task_serial = int(state.get("task_serial", 0))

    def attach_store(self, store) -> None:
        """Journal this deployment to ``store`` — chain *and* facade.

        Beyond :meth:`Chain.attach_store`, this wires
        :meth:`node_state` as the store's extra provider, so requester
        keys and the task serial ride every WAL record and snapshot: a
        crash at any block recovers the facade, not just the chain.
        The store holds the method weakly (the chain already holds the
        store), so a finished deployment is freed by reference counting
        alone; journalling after the facade is gone raises
        :class:`~repro.store.blockstore.StoreError`.
        """
        store.extra_provider = weakref.WeakMethod(self.node_state)
        self.chain.attach_store(store)

    # ------------------------------------------------------------------
    # Identities
    # ------------------------------------------------------------------

    def fund(self, label: str, coins: int) -> Address:
        """Open (or top up awareness of) an account with ``coins``."""
        return self.chain.register_account(label, coins)

    def ensure_funds(self, label: str, coins: int) -> Address:
        """Top ``label`` up to at least ``coins`` (minting the difference).

        The cross-invocation path of a persistent node: a requester who
        spent her budget in an earlier run needs a deposit before she
        can publish again, where a fresh in-memory run would have opened
        her account pre-funded.
        """
        address = self.chain.register_account(label, coins)
        balance = self.chain.ledger.balance_of(address)
        if balance < coins:
            self.chain.ledger.mint(address, coins - balance, memo="top-up")
        return address

    def _requester_secret(self, label: str) -> int:
        """The requester's long-lived key (created on first use)."""
        from repro.crypto.curve import random_scalar

        if label not in self._requester_keys:
            self._requester_keys[label] = random_scalar()
        return self._requester_keys[label]

    # ------------------------------------------------------------------
    # Task life cycle
    # ------------------------------------------------------------------

    def publish_task(self, requester_label: str, task: HITTask) -> TaskHandle:
        """Publish a task under the requester's long-lived key."""
        return self.publish_tasks_batch([(requester_label, task)])[0]

    def submit_answers(
        self, handle: TaskHandle, worker_label: str, answers: Sequence[int]
    ) -> WorkerClient:
        """Register a worker on a task and queue their commit."""
        worker = WorkerClient(
            worker_label, self.chain, self.swarm, answers=list(answers)
        )
        worker.discover(handle.contract_name)
        worker.send_commit()
        handle.workers.append(worker)
        return worker

    def run_task(
        self,
        requester_label: str,
        task: HITTask,
        worker_answers: Sequence[Sequence[int]],
        worker_labels: Optional[Sequence[str]] = None,
    ) -> ProtocolOutcome:
        """Publish, collect, evaluate, and settle one task end to end.

        The one-arrival case of :meth:`serve`, evaluated sequentially:
        publish, commit, reveal, evaluate and finalize in five blocks.
        """
        arrival = TaskArrival(
            0, requester_label, task, worker_answers,
            worker_labels=worker_labels, evaluation="sequential",
        )
        return self.serve([arrival])[0]

    def publish_tasks_batch(
        self, specs: Sequence[Tuple[str, HITTask]]
    ) -> List[TaskHandle]:
        """Publish many tasks in one block (see :meth:`Chain.deploy_many`).

        ``specs`` is a sequence of ``(requester_label, task)`` pairs;
        requesters may repeat (each keeps its single long-lived key).
        """
        clients: List[RequesterClient] = []
        deployments = []
        names: List[str] = []
        for requester_label, task in specs:
            requester = RequesterClient(
                requester_label, task, self.chain, self.swarm,
                secret=self._requester_secret(requester_label),
            )
            name = "hit:%s:%d" % (requester_label, self._next_task_serial())
            contract, args, payload = requester.prepare_publish(contract_name=name)
            deployments.append((contract, requester.address, args, payload))
            clients.append(requester)
            names.append(name)

        receipts = self.chain.deploy_many(deployments)
        handles: List[TaskHandle] = []
        for requester, name, receipt in zip(clients, names, receipts):
            if not receipt.succeeded:
                raise ProtocolError("publish failed: %s" % receipt.revert_reason)
            requester.contract_name = name
            handle = TaskHandle(contract_name=name, requester=requester)
            self.tasks[name] = handle
            handles.append(handle)
        return handles

    def run_hits_batch(
        self,
        specs: Sequence[Tuple[str, HITTask, Sequence[Sequence[int]]]],
    ) -> List[ProtocolOutcome]:
        """Run N tasks through five *shared* blocks (batched throughput).

        ``specs`` holds ``(requester_label, task, worker_answers)``
        triples.  The all-at-once case of :meth:`serve`: all tasks
        publish in one block, then all workers' commits share a block,
        then all reveals, then all evaluations (each task's quality
        rejections in one ``evaluate_batch`` transaction), then all
        finalizations — so a batch of N tasks advances the chain by 5
        blocks instead of ~5N and verifies all of a task's mismatch
        proofs in a single batched check.
        """
        return self.serve(
            [TaskArrival(0, label, task, answers) for label, task, answers in specs]
        )

    def serve(
        self,
        arrivals: Iterable[TaskArrival],
        max_blocks: Optional[int] = None,
    ) -> List[ProtocolOutcome]:
        """The service loop: accept task arrivals mid-stream, settle all.

        :meth:`SessionEngine.serve` with :meth:`admit` as its admission
        step, so same-step arrivals share one deployment block.  It
        takes a sequence in any order or an open-ended generator in
        ``at_block`` order, returns outcomes in sequence (or arrival)
        order, ends at quiescence, and raises :class:`ProtocolError`
        naming the stuck sessions if the loop stalls.
        """
        outcomes = self.engine.serve(arrivals, self.admit, max_blocks)
        for outcome in outcomes:
            self.tasks[outcome.requester.contract_name].finished = True
        return outcomes

    def admit(self, arrivals: Sequence[TaskArrival]) -> List[HITSession]:
        """Publish one step's arrivals (sharing a single deployment block)
        and enroll their sessions and workers.

        The admission step of :meth:`serve`, and the building block the
        simulation runner in :mod:`repro.sim.runner` calls between
        engine steps; an arrival with no ``worker_answers`` is admitted
        unstaffed — its workers join later (e.g. a
        :class:`repro.sim.population.WorkerPopulation` enrolling through
        the marketplace).  A malformed arrival is rejected before any
        of the step's tasks deploys.
        """
        for arrival in arrivals:
            HITSession.check_staffing(
                arrival.worker_answers, arrival.worker_labels
            )
        handles = self.publish_tasks_batch(
            [(arrival.requester_label, arrival.task) for arrival in arrivals]
        )
        sessions: List[HITSession] = []
        for arrival, handle in zip(arrivals, handles):
            session = self.engine.register(
                handle.requester,
                config=SessionConfig(
                    evaluation=arrival.evaluation,
                    cancel_after=arrival.cancel_after,
                ),
            )
            handle.workers.extend(
                session.enroll(
                    self._new_worker,
                    arrival.worker_answers,
                    arrival.worker_labels,
                    arrival.worker_policies,
                )
            )
            sessions.append(session)
        return sessions

    def _new_worker(self, label: str, answers: List[int]) -> WorkerClient:
        return WorkerClient(label, self.chain, self.swarm, answers=answers)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def requester_public_key_bytes(self, label: str) -> bytes:
        """The stable public key a requester uses across all her tasks."""
        from repro.crypto.elgamal import keygen

        public_key, _ = keygen(self._requester_secret(label))
        return public_key.to_bytes()

    @property
    def total_gas(self) -> int:
        return self.chain.total_gas
