"""Shared helpers for the benchmark harness.

Every bench prints its reproduction table to stdout (run pytest with
``-s`` to see it live) and writes a copy under ``benchmarks/results/``
(see the README's "Reproducing the benchmark tables").

Smoke mode
----------

Setting ``DRAGOON_BENCH_SMOKE=1`` shrinks every bench to tiny
parameters: small tasks, short sweeps, and no paper-number assertions.
``tests/test_bench_smoke.py`` runs every bench entry point this way on
each tier-1 run, so a refactor that breaks a benchmark is caught
immediately instead of at the next full benchmark campaign.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Sequence, TypeVar

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Version stamp on the machine-readable bench records.
RECORD_SCHEMA_VERSION = 1

#: Tiny-parameter mode for the tier-1 smoke run (see module docstring).
SMOKE = os.environ.get("DRAGOON_BENCH_SMOKE") == "1"

_T = TypeVar("_T")


def pick(full: _T, tiny: _T) -> _T:
    """``full`` normally, ``tiny`` under ``DRAGOON_BENCH_SMOKE=1``."""
    return tiny if SMOKE else full


def bench_task():
    """The ImageNet task (shrunk to 16 questions in smoke mode)."""
    from repro.core.task import make_imagenet_task

    if SMOKE:
        return make_imagenet_task(num_questions=16)
    return make_imagenet_task()


def emit(name: str, text: str) -> None:
    """Print a table and persist it under benchmarks/results/<name>.txt.

    Smoke-mode tables are printed but *not* persisted, so a tier-1 run
    never clobbers full-size result artifacts with tiny-parameter ones.
    """
    print()
    print(text)
    if SMOKE:
        return
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, name + ".txt"), "w") as handle:
        handle.write(text + "\n")


def record(
    name: str,
    params: Dict[str, Any],
    timings: Dict[str, float],
    **extra: Any,
) -> None:
    """Persist the machine-readable twin of a bench table.

    Writes ``benchmarks/results/<name>.json`` — bench name, parameters,
    span-clock timings in seconds, and the host's cpu_count — the
    record ``repro.reporting.render.fold_benches`` (and the ``report
    sweep --bench-dir`` artifact path) consumes.  Pass unitless
    numbers (gas figures, throughput counts) as a ``values`` mapping
    via ``**extra``; they fold into the same table.  Like :func:`emit`,
    smoke-mode records are not persisted, so tier-1 runs never clobber
    full-size artifacts; set ``DRAGOON_BENCH_RESULTS=<dir>`` to redirect
    records to another directory *and* persist them even in smoke mode
    (CI uses this to exercise the folding path on tiny parameters).
    """
    results_dir = os.environ.get("DRAGOON_BENCH_RESULTS")
    if SMOKE and not results_dir:
        return
    results_dir = results_dir or RESULTS_DIR
    payload = {
        "schema": RECORD_SCHEMA_VERSION,
        "bench": name,
        "smoke": SMOKE,
        "params": params,
        "timings": {label: float(value) for label, value in timings.items()},
        "host": {"cpu_count": os.cpu_count()},
    }
    payload.update(extra)
    os.makedirs(results_dir, exist_ok=True)
    with open(
        os.path.join(results_dir, name + ".json"), "w", encoding="utf-8"
    ) as handle:
        handle.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def imagenet_answer_sets(task, accuracies: Sequence[float]) -> List[List[int]]:
    """One synthetic answer sheet per worker at the given accuracies."""
    from repro.core.task import sample_worker_answers

    return [
        sample_worker_answers(task, accuracy, seed=index + 1)
        for index, accuracy in enumerate(accuracies)
    ]


def all_rejected_answers(task) -> List[List[int]]:
    """Answer sheets rejected at the paper's threshold (worst case).

    The ImageNet policy rejects a submission failing 3 of the 6 golds;
    the paper's worst-case column prices each rejection at the matching
    3-mismatch PoQoEA proof, so each sheet here misses exactly enough
    golds to fall just below Θ.
    """
    answers = []
    options = task.parameters.answer_range
    to_flip = task.parameters.num_golds - task.parameters.quality_threshold + 1
    for _ in range(task.parameters.num_workers):
        sheet = list(task.ground_truth)
        for index, truth in zip(
            task.gold_indexes[:to_flip], task.gold_answers[:to_flip]
        ):
            sheet[index] = next(o for o in options if o != truth)
        answers.append(sheet)
    return answers
