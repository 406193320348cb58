"""Stochastic worker populations: accuracies, adversaries, rational choice.

The paper sizes its traffic informally ("SVI ImageNet workers", the
Turkopticon audit economy); this module makes the worker side of the
marketplace a *model*: a :class:`WorkerPopulation` of agents whose
per-worker accuracy is drawn from a configurable distribution, a
configurable fraction of whom misbehave through the existing session
adversaries (:class:`~repro.core.session.StragglerScheduler`,
:class:`~repro.core.session.DropScheduler`), and who are **never
assigned tasks**: each idle agent watches the chain's event bus and
joins the open listing with the best *positive* expected utility, as
computed by :meth:`repro.core.marketplace.TaskMarketplace.expected_utility`
— the same Turkopticon-style vetting a rational worker would run.

The population maintains its own open-listings view from a cursor
subscription (``Chain.subscribe``), so a long run costs memory and time
proportional to in-flight tasks, not chain history — and it keeps
working when the runner prunes the event log.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chain.chain import Chain
from repro.core.audit import RequesterReputation
from repro.core.marketplace import TaskListing, TaskMarketplace
from repro.core.session import (
    DropScheduler,
    HITSession,
    StragglerScheduler,
    WorkerPolicy,
)
from repro.core.task import HITTask, sample_worker_answers
from repro.core.worker import WorkerClient
from repro.errors import ProtocolError
from repro.sim.seeding import derive_rng, derive_seed
from repro.storage.swarm import SwarmStore


@dataclass(frozen=True)
class PopulationSpec:
    """The declarative description of a worker population.

    ``accuracy`` is a distribution tag plus parameters:
    ``("point", p)``, ``("uniform", lo, hi)``, or ``("beta", a, b)``
    (rescaled to [0.5, 1.0] so even an unlucky draw beats guessing on
    binary tasks).  ``straggler_fraction`` of agents reveal one period
    late (losing the payment at the Fig. 4 deadline);
    ``dropout_fraction`` commit but never reveal.  The utility knobs
    mirror :meth:`TaskMarketplace.expected_utility`.
    """

    size: int = 16
    accuracy: Tuple = ("uniform", 0.60, 0.98)
    straggler_fraction: float = 0.0
    dropout_fraction: float = 0.0
    effort_cost_per_question: float = 0.02
    coin_value_usd: float = 0.05
    submit_fee_usd: float = 0.48
    avoid_flagged: bool = True


def sample_accuracy(spec: PopulationSpec, rng: random.Random) -> float:
    """One accuracy draw from the spec's distribution."""
    kind, params = spec.accuracy[0], spec.accuracy[1:]
    if kind == "point":
        return float(params[0])
    if kind == "uniform":
        low, high = params
        return rng.uniform(low, high)
    if kind == "beta":
        alpha, beta = params
        return 0.5 + 0.5 * rng.betavariate(alpha, beta)
    raise ProtocolError("unknown accuracy distribution: %r" % (kind,))


@dataclass
class WorkerAgent:
    """One member of the population (a persistent chain identity)."""

    label: str
    accuracy: float
    policy: Optional[WorkerPolicy] = None
    busy_with: Optional[str] = None  # contract name while enrolled
    tasks_worked: int = 0

    @property
    def idle(self) -> bool:
        return self.busy_with is None


@dataclass
class _OpenListing:
    """The population's incremental view of one commit-phase task."""

    listing: TaskListing
    published_event: object = None  # the bus event, for log-free discovery
    slots_taken: int = 0
    enrolling: int = 0  # this population's commits still in flight

    @property
    def slots_free(self) -> int:
        return (
            self.listing.parameters.num_workers
            - self.slots_taken
            - self.enrolling
        )


class WorkerPopulation:
    """Agents joining tasks by expected utility, driven off the event bus.

    Call :meth:`observe` once per mined block (it drains the cursor),
    then :meth:`enroll` to let idle agents claim open slots.  Agents are
    busy until their task settles; their earnings accumulate on one
    ledger account per agent because labels (and hence addresses) are
    stable across tasks.
    """

    def __init__(
        self,
        spec: PopulationSpec,
        chain: Chain,
        swarm: SwarmStore,
        seed: int = 0,
    ) -> None:
        self.spec = spec
        self.chain = chain
        self.swarm = swarm
        self.seed = seed
        self.market = TaskMarketplace(chain)
        self._subscription = chain.subscribe()
        self._rng = derive_rng(seed, "population")
        self.agents: List[WorkerAgent] = [
            self._spawn_agent(index) for index in range(spec.size)
        ]
        self._open: Dict[str, _OpenListing] = {}  # contract -> view
        self._tasks: Dict[str, HITTask] = {}  # ground truth for synthesis
        self._busy_on: Dict[str, List[WorkerAgent]] = {}
        self._address_to_name: Dict[bytes, str] = {}
        # Turkopticon-lite: paid/rejected tallies per requester label,
        # folded into RequesterReputation for the flagged check.
        self._paid: Dict[str, int] = {}
        self._rejected: Dict[str, int] = {}
        self._requester_tasks: Dict[str, int] = {}
        self.enrollments = 0
        self.declined = 0  # idle agents that found no worthwhile task

    def _spawn_agent(self, index: int) -> WorkerAgent:
        accuracy = sample_accuracy(self.spec, self._rng)
        roll = self._rng.random()
        policy: Optional[WorkerPolicy] = None
        if roll < self.spec.dropout_fraction:
            policy = DropScheduler("reveal")
        elif roll < self.spec.dropout_fraction + self.spec.straggler_fraction:
            policy = StragglerScheduler(reveal=1)
        return WorkerAgent(
            label="pop/worker-%03d" % index, accuracy=accuracy, policy=policy
        )

    # ------------------------------------------------------------------
    # Registration of tasks (the runner tells us the ground truth)
    # ------------------------------------------------------------------

    def register_task(self, contract_name: str, task: HITTask) -> None:
        """Make a task joinable: the simulator needs its ground truth to
        synthesize answers at each agent's accuracy (public metadata
        still comes off the event bus like it would on a real chain)."""
        self._tasks[contract_name] = task
        address = self.chain.contract(contract_name).address
        self._address_to_name[address.value] = contract_name

    # ------------------------------------------------------------------
    # Event-bus maintenance
    # ------------------------------------------------------------------

    def observe(self) -> None:
        """Drain the cursor: update open listings, free settled agents."""
        for record in self._subscription.poll():
            event = record.event
            name = event.name
            if name == "published":
                self._on_published(event)
            elif name == "committed":
                contract_name = self._address_to_name.get(event.contract.value)
                view = self._open.get(contract_name or "")
                if view is not None:
                    view.slots_taken += 1
                    if view.enrolling:
                        view.enrolling -= 1
            elif name in ("finalized", "cancelled"):
                contract_name = self._address_to_name.get(event.contract.value)
                if contract_name is not None:
                    self._settle(contract_name)
            elif name in ("evaluated", "outranged"):
                requester = self._requester_of(event.contract.value)
                if requester is not None:
                    self._rejected[requester] = self._rejected.get(requester, 0) + 1
            elif name == "paid":
                requester = self._requester_of(event.contract.value)
                if requester is not None:
                    self._paid[requester] = self._paid.get(requester, 0) + 1

    def _on_published(self, event) -> None:
        payload = event.payload
        contract_name = self._address_to_name.get(event.contract.value)
        if contract_name is None or contract_name not in self._tasks:
            return  # not a task this simulation issued
        requester_label = payload["requester"].label
        self._requester_tasks[requester_label] = (
            self._requester_tasks.get(requester_label, 0) + 1
        )
        self._open[contract_name] = _OpenListing(
            TaskListing(
                contract_name=contract_name,
                requester=payload["requester"],
                parameters=payload["parameters"],
                slots_taken=0,
                requester_reputation=None,
            ),
            published_event=event,
        )

    def _requester_of(self, address_value: bytes) -> Optional[str]:
        name = self._address_to_name.get(address_value)
        if name is None:
            return None
        view = self._open.get(name)
        if view is not None:
            return view.listing.requester.label
        return None

    def _settle(self, contract_name: str) -> None:
        """Free the task's agents and forget its bookkeeping.

        Dropping the task object and address mapping here is what keeps
        a long open-ended run's memory proportional to *in-flight*
        tasks (the per-requester reputation tallies are the one
        intentional long-term memory, and they are just counters).
        """
        self._open.pop(contract_name, None)
        for agent in self._busy_on.pop(contract_name, []):
            agent.busy_with = None
        task = self._tasks.pop(contract_name, None)
        if task is not None:
            address = self.chain.contract(contract_name).address
            self._address_to_name.pop(address.value, None)

    # ------------------------------------------------------------------
    # Rational enrollment
    # ------------------------------------------------------------------

    def _reputation_of(self, requester_label: str) -> RequesterReputation:
        reputation = RequesterReputation(
            requester=requester_label,
            tasks=self._requester_tasks.get(requester_label, 0),
            workers_paid=self._paid.get(requester_label, 0),
            workers_rejected=self._rejected.get(requester_label, 0),
        )
        if reputation.tasks >= 2 and reputation.rejection_rate >= 0.75:
            reputation.flags.append(
                "rejects %.0f%% of adjudicated workers"
                % (100 * reputation.rejection_rate)
            )
        return reputation

    def _utility(self, agent: WorkerAgent, view: _OpenListing) -> float:
        return self.market.expected_utility(
            view.listing,
            worker_accuracy=agent.accuracy,
            effort_cost_per_question=self.spec.effort_cost_per_question,
            coin_value_usd=self.spec.coin_value_usd,
            submit_fee_usd=self.spec.submit_fee_usd,
        )

    def enroll(self, sessions: Dict[str, HITSession]) -> int:
        """Let every idle agent claim the best worthwhile open slot.

        ``sessions`` maps contract names to the live
        :class:`~repro.core.session.HITSession` objects (the runner's
        registry); enrollment goes through ``session.add_worker`` so the
        agent's policy (straggler/dropout) plugs into the usual path.
        Returns how many agents enrolled this block.
        """
        joined = 0
        for agent in self.agents:
            if not agent.idle:
                continue
            best: Optional[Tuple[float, str]] = None
            for contract_name in sorted(self._open):
                view = self._open[contract_name]
                if view.slots_free <= 0:
                    continue
                if self.spec.avoid_flagged and self._reputation_of(
                    view.listing.requester.label
                ).is_suspicious:
                    continue
                utility = self._utility(agent, view)
                if utility <= 0:
                    continue
                if best is None or utility > best[0]:
                    best = (utility, contract_name)
            if best is None:
                self.declined += 1
                continue
            _, contract_name = best
            view = self._open[contract_name]
            session = sessions[contract_name]
            task = self._tasks[contract_name]
            answers = sample_worker_answers(
                task,
                agent.accuracy,
                seed=derive_seed(
                    self.seed, "answers", agent.label, agent.tasks_worked
                ),
            )
            worker = WorkerClient(
                agent.label, self.chain, self.swarm, answers=answers
            )
            # Discover from the event we already hold: no log rescan,
            # and immune to event-log pruning on long runs.
            worker.discover_from_event(contract_name, view.published_event)
            session.add_worker(worker, policy=agent.policy)
            view.enrolling += 1
            agent.busy_with = contract_name
            agent.tasks_worked += 1
            self._busy_on.setdefault(contract_name, []).append(agent)
            self.enrollments += 1
            joined += 1
        return joined

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def earnings(self) -> Dict[str, int]:
        """Each agent's ledger balance (coins earned across all tasks).

        An agent that never enrolled has no ledger account yet — their
        earnings are zero, not an error.
        """
        from repro.ledger.accounts import Address

        balances: Dict[str, int] = {}
        for agent in self.agents:
            address = Address.from_label(agent.label)
            balances[agent.label] = (
                self.chain.ledger.balance_of(address)
                if self.chain.ledger.has_account(address)
                else 0
            )
        return balances
