"""The declarative sweep runner: a scenario grid → per-cell records.

A :class:`SweepSpec` is pure data: a base preset, a seed, an optional
task-count resize, and a grid of **axes** — each axis names one
scenario knob and lists the values to sweep.  The cells are the
cartesian product, run through :func:`repro.sim.runner.run_scenario`
with PR-8 telemetry capture switched on: a per-cell JSONL span trace
and a before/after ``MetricsRegistry.collect()`` diff.

Axes (the adversary-&-economics-lab knobs from the ROADMAP):

===================  ====================================================
``reward``           task budget in coins (alias: ``budget``)
``audit_threshold``  golds a submission must match (Θ)
``accuracy``         population accuracy, pinned to ``("point", value)``
``stragglers``       fraction of agents revealing one period late
``dropouts``         fraction of agents committing but never revealing
``seed``             per-cell reseed (the grid's replication axis)
===================  ====================================================

Reproducibility contract
------------------------

Each cell runs under the same deterministic-entropy / scoped-nonce
regime as any ``run_scenario`` call, so a cell record's ``report`` and
``state_root`` are byte-identical run over run, *and* identical to an
un-instrumented run of the same scenario — telemetry only observes.
The record's ``metrics`` member keeps only the deterministic projection
(:data:`CELL_METRIC_PREFIXES` counters + histogram counts) and its
``trace`` member only the structural projection, so whole cell records
are byte-stable across hosts and across ``--procs`` settings.  That is
what lets CI regenerate ``reports/`` and fail on a byte diff.

Cells checkpoint/resume through the PR-4 store: with
``checkpoint_every`` set, each cell journals to its own state dir under
the work dir, and a sweep re-entered after a kill resumes interrupted
cells with :func:`repro.sim.runner.resume_scenario` — the resumed
``report``/``state_root`` are byte-identical to an uninterrupted cell's
(the ``trace``/``metrics`` projections describe the processes that
actually executed, so an interrupted cell's record notes the resume).
Completed cells (their record already on disk, manifest hash matching)
are skipped entirely.

Fan-out: ``procs=0`` runs cells inline (the reference path),
``procs=N`` fans independent cells across a process pool — cell
*records* are identical either way.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReportError
from repro.obs.registry import REGISTRY
from repro.obs.tracing import trace_to
from repro.reporting import metricsfold, traces
from repro.sim.runner import InterruptedRun, resume_scenario, run_scenario
from repro.sim.scenario import Scenario, preset
from repro.store import NodeStore
from repro.store.codec import state_root

__all__ = [
    "SweepSpec",
    "SWEEP_AXES",
    "CELL_METRIC_PREFIXES",
    "spec_to_json",
    "spec_from_json",
    "grid_hash",
    "cells",
    "build_scenario",
    "run_cell",
    "run_sweep",
]

#: Version stamp on sweep specs and cell records.
SWEEP_SCHEMA_VERSION = 1

#: Axis names the grid understands (see the module table).
SWEEP_AXES = (
    "reward", "budget", "audit_threshold", "accuracy",
    "stragglers", "dropouts", "seed",
)

#: Metric families whose counts are invariants of the *scenario* (not of
#: the executing process): safe for byte-diffed artifacts.  Crypto-cache
#: families depend on process lifetime and host shape, so they stay in
#: the full (work-dir) fold, never in the record.
CELL_METRIC_PREFIXES = ("chain_", "engine_", "session_", "sim_")


@dataclass(frozen=True)
class SweepSpec:
    """One reproducible scenario grid, fully described by data."""

    name: str
    preset: str = "poisson"
    seed: int = 0
    tasks: Optional[int] = None
    #: ``((axis, (value, ...)), ...)`` — normalized sorted by axis name.
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    #: Per-cell checkpoint cadence through the PR-4 store (0 = off).
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        normalized = []
        for axis, values in self.axes:
            if axis not in SWEEP_AXES:
                raise ReportError(
                    "unknown sweep axis %r (have: %s)"
                    % (axis, ", ".join(SWEEP_AXES))
                )
            if not values:
                raise ReportError("sweep axis %r lists no values" % axis)
            for value in values:
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    raise ReportError(
                        "axis %r value %r is not a number" % (axis, value)
                    )
            normalized.append((axis, tuple(values)))
        normalized.sort()
        object.__setattr__(self, "axes", tuple(normalized))

    def to_data(self) -> Dict[str, Any]:
        return {
            "schema": SWEEP_SCHEMA_VERSION,
            "name": self.name,
            "preset": self.preset,
            "seed": self.seed,
            "tasks": self.tasks,
            "checkpoint_every": self.checkpoint_every,
            "axes": {axis: list(values) for axis, values in self.axes},
        }

    @classmethod
    def from_data(cls, data: Dict[str, Any]) -> "SweepSpec":
        if not isinstance(data, dict) or "name" not in data:
            raise ReportError("not a sweep spec")
        if data.get("schema", SWEEP_SCHEMA_VERSION) != SWEEP_SCHEMA_VERSION:
            raise ReportError(
                "unknown sweep spec schema %r" % data.get("schema")
            )
        return cls(
            name=str(data["name"]),
            preset=str(data.get("preset", "poisson")),
            seed=int(data.get("seed", 0)),
            tasks=data.get("tasks"),
            checkpoint_every=int(data.get("checkpoint_every", 0)),
            axes=tuple(
                (axis, tuple(values))
                for axis, values in sorted(
                    (data.get("axes") or {}).items()
                )
            ),
        )


def spec_to_json(spec: SweepSpec) -> str:
    """Canonical spec bytes — the input to :func:`grid_hash`."""
    return json.dumps(spec.to_data(), sort_keys=True, indent=2) + "\n"


def spec_from_json(text: str) -> SweepSpec:
    try:
        return SweepSpec.from_data(json.loads(text))
    except ValueError as failure:
        raise ReportError("unreadable sweep spec: %s" % failure) from None


def grid_hash(spec: SweepSpec) -> str:
    """The manifest key: sha256 over the canonical spec bytes."""
    return hashlib.sha256(spec_to_json(spec).encode("utf-8")).hexdigest()


def _format_value(value: Any) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def cell_id(params: Dict[str, Any]) -> str:
    """The deterministic cell slug, e.g. ``accuracy=0.7__budget=120``."""
    return "__".join(
        "%s=%s" % (axis, _format_value(value))
        for axis, value in sorted(params.items())
    )


def cells(spec: SweepSpec) -> List[Tuple[str, Dict[str, Any]]]:
    """The grid's cells: ``(cell_id, {axis: value})`` in sorted order."""
    if not spec.axes:
        return [("base", {})]
    names = [axis for axis, _ in spec.axes]
    grid = [values for _, values in spec.axes]
    out = []
    for combo in itertools.product(*grid):
        params = dict(zip(names, combo))
        out.append((cell_id(params), params))
    return out


def build_scenario(spec: SweepSpec, params: Dict[str, Any]) -> Scenario:
    """The preset with this cell's axis values applied."""
    scenario = preset(spec.preset, seed=spec.seed, tasks=spec.tasks)
    task = scenario.task
    population = scenario.population
    seed = scenario.seed
    for axis, value in sorted(params.items()):
        if axis in ("reward", "budget"):
            task = replace(task, budget=int(value))
        elif axis == "audit_threshold":
            task = replace(task, quality_threshold=int(value))
        elif axis == "accuracy":
            population = replace(population, accuracy=("point", float(value)))
        elif axis == "stragglers":
            population = replace(population, straggler_fraction=float(value))
        elif axis == "dropouts":
            population = replace(population, dropout_fraction=float(value))
        elif axis == "seed":
            seed = int(value)
        else:  # pragma: no cover - __post_init__ already screened
            raise ReportError("unknown sweep axis %r" % axis)
    return replace(scenario, task=task, population=population, seed=seed)


# ---------------------------------------------------------------------------
# Running one cell
# ---------------------------------------------------------------------------


def _work_paths(work_dir: str, cell: str) -> Tuple[str, str, str]:
    traces_dir = os.path.join(work_dir, "traces")
    state_dir = os.path.join(work_dir, "state", cell)
    os.makedirs(traces_dir, exist_ok=True)
    return os.path.join(traces_dir, cell + ".jsonl"), state_dir, work_dir


def run_cell(
    spec: SweepSpec,
    cell: str,
    params: Dict[str, Any],
    work_dir: str,
    interrupt_after: Optional[int] = None,
):
    """Run (or resume) one cell; return its record dict.

    ``interrupt_after`` is the deterministic stand-in for ``kill -9``
    mid-cell (see :func:`run_scenario`); it returns the
    :class:`InterruptedRun` marker instead of a record, and the next
    ``run_cell`` for the same cell resumes from the checkpoint.
    """
    trace_path, state_dir, _ = _work_paths(work_dir, cell)
    scenario = build_scenario(spec, params)
    before = REGISTRY.collect()
    resumed = False
    with trace_to(trace_path):
        if spec.checkpoint_every and NodeStore.exists(state_dir) and (
            NodeStore.open(state_dir).manifest().get("checkpoints")
        ):
            resumed = True
            run = resume_scenario(
                state_dir, keep_objects=True, interrupt_after=interrupt_after
            )
        else:
            store = None
            if spec.checkpoint_every:
                # A checkpoint-less leftover (e.g. from a completed cell
                # being re-run under --force) cannot be resumed; restart.
                if NodeStore.exists(state_dir):
                    shutil.rmtree(state_dir)
                store = NodeStore.init(state_dir)
            run = run_scenario(
                scenario,
                keep_objects=True,
                store=store,
                checkpoint_every=spec.checkpoint_every,
                interrupt_after=interrupt_after,
            )
    if isinstance(run, InterruptedRun):
        return run
    after = REGISTRY.collect()
    fold = metricsfold.diff_snapshots(before, after)
    analysis = traces.analyze_file(trace_path)
    record = {
        "schema": SWEEP_SCHEMA_VERSION,
        "cell": cell,
        "params": dict(sorted(params.items())),
        "grid": grid_hash(spec),
        "scenario": {
            "preset": spec.preset,
            "name": scenario.name,
            "seed": scenario.seed,
            "tasks": spec.tasks,
        },
        "report": run.report.to_dict(),
        "state_root": state_root(run.dragoon.chain).hex(),
        "metrics": metricsfold.deterministic_projection(
            fold, prefixes=CELL_METRIC_PREFIXES
        ),
        "trace": analysis.structure(),
        "resumed": resumed,
    }
    run.report.check_invariants()
    return record


def record_to_json(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def _cell_worker(args: Tuple) -> Tuple[str, Dict[str, Any]]:
    spec_data, cell, params, work_dir = args
    spec = SweepSpec.from_data(spec_data)
    return cell, run_cell(spec, cell, params, work_dir)


# ---------------------------------------------------------------------------
# Running the grid
# ---------------------------------------------------------------------------


def run_sweep(
    spec: SweepSpec,
    out_dir: str,
    work_dir: Optional[str] = None,
    procs: int = 0,
    force: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Dict[str, Any]]:
    """Run every cell of the grid; write ``cells/<id>.json`` under
    ``out_dir``; return ``{cell_id: record}``.

    Completed cells whose on-disk record carries the current grid hash
    are skipped (delete the record — or pass ``force`` — to re-run);
    interrupted checkpointed cells resume.  ``procs`` fans cells across
    a process pool (0 = inline, the reference path the determinism
    tests pin N against).
    """
    work_dir = work_dir or out_dir + ".work"
    cells_dir = os.path.join(out_dir, "cells")
    os.makedirs(cells_dir, exist_ok=True)
    os.makedirs(work_dir, exist_ok=True)
    expected_hash = grid_hash(spec)
    say = progress or (lambda message: None)

    records: Dict[str, Dict[str, Any]] = {}
    pending: List[Tuple[str, Dict[str, Any]]] = []
    for cell, params in cells(spec):
        record_path = os.path.join(cells_dir, cell + ".json")
        if not force and os.path.exists(record_path):
            with open(record_path, "r", encoding="utf-8") as handle:
                existing = json.load(handle)
            if existing.get("grid") == expected_hash:
                records[cell] = existing
                say("cell %s: reusing completed record" % cell)
                continue
        pending.append((cell, params))

    if procs and len(pending) > 1:
        jobs = [
            (spec.to_data(), cell, params, work_dir)
            for cell, params in pending
        ]
        with ProcessPoolExecutor(max_workers=procs) as pool:
            for cell, record in pool.map(_cell_worker, jobs):
                records[cell] = record
                say("cell %s: settled %d/%d tasks" % (
                    cell,
                    record["report"]["tasks_settled"],
                    record["report"]["tasks_published"],
                ))
    else:
        for cell, params in pending:
            record = run_cell(spec, cell, params, work_dir)
            if isinstance(record, InterruptedRun):
                raise ReportError(
                    "cell %s interrupted at step %d (re-run the sweep to "
                    "resume it)" % (cell, record.step)
                )
            records[cell] = record
            say("cell %s: settled %d/%d tasks" % (
                cell,
                record["report"]["tasks_settled"],
                record["report"]["tasks_published"],
            ))

    for cell, record in records.items():
        with open(
            os.path.join(cells_dir, cell + ".json"), "w", encoding="utf-8"
        ) as handle:
            handle.write(record_to_json(record))
    return dict(sorted(records.items()))
