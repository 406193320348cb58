"""Declarative simulation scenarios and the named presets.

A :class:`Scenario` is pure data: the seed, an arrival-regime spec, a
:class:`~repro.sim.population.PopulationSpec`, and a task template.
:func:`make_arrival_process` and :func:`make_task_factory` turn the
specs into live objects; :func:`repro.sim.runner.run_scenario` wires
everything into the session engine.

Arrival specs are tagged tuples::

    ("poisson",  rate, tasks)
    ("burst",    burst_size, gap, bursts)
    ("diurnal",  base_rate, peak_rate, day_length, tasks)
    ("closed-loop", initial, republish_delay, max_tasks)

Presets in :data:`SCENARIO_PRESETS` cover the regimes the benchmark
compares; ``scaled()`` shrinks any scenario for smoke lanes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.errors import ProtocolError
from repro.sim.arrivals import (
    ArrivalProcess,
    BurstArrivals,
    ClosedLoopArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    TaskFactory,
    TaskTemplate,
)
from repro.sim.population import PopulationSpec


@dataclass(frozen=True)
class Scenario:
    """One reproducible marketplace workload, fully described by data."""

    name: str
    arrivals: Tuple  # tagged spec, see module docstring
    seed: int = 0
    population: PopulationSpec = field(default_factory=PopulationSpec)
    task: TaskTemplate = field(default_factory=TaskTemplate)
    evaluation: str = "batched"
    #: Requesters reclaim unfilled tasks after this many periods.
    cancel_after: Optional[int] = 12
    #: Compact the event log every N blocks (0 = never).  Safe because
    #: every simulation consumer is cursor-based.
    prune_every: int = 64
    #: Hard stop for the runner loop (quiescence normally ends it).
    max_blocks: int = 4096

    def expected_tasks(self) -> int:
        """How many tasks the arrival spec will issue in total."""
        tag = self.arrivals[0]
        if tag == "poisson":
            return int(self.arrivals[2])
        if tag == "burst":
            return int(self.arrivals[1]) * int(self.arrivals[3])
        if tag == "diurnal":
            return int(self.arrivals[4])
        if tag == "closed-loop":
            return int(self.arrivals[3])
        raise ProtocolError("unknown arrival regime: %r" % (tag,))


def make_task_factory(scenario: Scenario) -> TaskFactory:
    return scenario.task.build


def make_arrival_process(scenario: Scenario) -> ArrivalProcess:
    """Instantiate the scenario's arrival regime (unstaffed: workers
    come from the population)."""
    spec = scenario.arrivals
    common = dict(
        seed=scenario.seed,
        task_factory=make_task_factory(scenario),
        evaluation=scenario.evaluation,
        cancel_after=scenario.cancel_after,
    )
    tag = spec[0]
    if tag == "poisson":
        return PoissonArrivals(rate=spec[1], tasks=spec[2], **common)
    if tag == "burst":
        return BurstArrivals(
            burst_size=spec[1], gap=spec[2], bursts=spec[3], **common
        )
    if tag == "diurnal":
        return DiurnalArrivals(
            base_rate=spec[1],
            peak_rate=spec[2],
            day_length=spec[3],
            tasks=spec[4],
            **common,
        )
    if tag == "closed-loop":
        return ClosedLoopArrivals(
            initial=spec[1], republish_delay=spec[2], max_tasks=spec[3], **common
        )
    raise ProtocolError("unknown arrival regime: %r" % (tag,))


#: The named regimes the benchmark (and the CLI) compare.
SCENARIO_PRESETS: Dict[str, Scenario] = {
    "poisson": Scenario(
        name="poisson",
        arrivals=("poisson", 0.6, 24),
        population=PopulationSpec(size=12),
    ),
    "burst": Scenario(
        name="burst",
        arrivals=("burst", 6, 12, 4),
        population=PopulationSpec(size=16),
    ),
    "diurnal": Scenario(
        name="diurnal",
        arrivals=("diurnal", 0.1, 1.2, 16, 24),
        population=PopulationSpec(size=12),
    ),
    "closed-loop": Scenario(
        name="closed-loop",
        arrivals=("closed-loop", 4, 2, 20),
        population=PopulationSpec(size=10),
    ),
    "adversarial": Scenario(
        name="adversarial",
        arrivals=("poisson", 0.5, 16),
        population=PopulationSpec(
            size=12, straggler_fraction=0.2, dropout_fraction=0.15
        ),
    ),
}


def preset(name: str, seed: Optional[int] = None, tasks: Optional[int] = None) -> Scenario:
    """Fetch a preset, optionally reseeded and resized."""
    try:
        scenario = SCENARIO_PRESETS[name]
    except KeyError:
        raise ProtocolError(
            "unknown scenario preset %r (have: %s)"
            % (name, ", ".join(sorted(SCENARIO_PRESETS)))
        ) from None
    if seed is not None:
        scenario = replace(scenario, seed=seed)
    if tasks is not None:
        scenario = replace(scenario, arrivals=_resize(scenario.arrivals, tasks))
    return scenario


def _resize(spec: Tuple, tasks: int) -> Tuple:
    """The same regime issuing ``tasks`` tasks in total."""
    tag = spec[0]
    if tag == "poisson":
        return (tag, spec[1], tasks)
    if tag == "burst":
        bursts = max(1, tasks // spec[1])
        return (tag, spec[1], spec[2], bursts)
    if tag == "diurnal":
        return (tag, spec[1], spec[2], spec[3], tasks)
    if tag == "closed-loop":
        return (tag, min(spec[1], tasks), spec[2], tasks)
    raise ProtocolError("unknown arrival regime: %r" % (tag,))
