"""The observability determinism contract.

Tracing and metrics only *observe*: a seeded scenario run with a tracer
installed and the registry scraped mid-flight is byte-identical —
receipts, gas, ``state_root``, report JSON — to the same scenario run
dark.  This holds for whole runs and for checkpoint/resume round trips.
"""

from __future__ import annotations

import json

from repro.obs.registry import REGISTRY, render_prometheus
from repro.obs.tracing import trace_to
from repro.sim.runner import InterruptedRun, resume_scenario, run_scenario
from repro.sim.scenario import preset
from repro.store import NodeStore
from repro.store.codec import state_root


def poisson(seed: int = 11, tasks: int = 3):
    return preset("poisson", seed=seed, tasks=tasks)


def run_fingerprint(scenario, **kwargs):
    """Everything the contract pins: report JSON + chain state root."""
    run = run_scenario(scenario, keep_objects=True, **kwargs)
    return run.report.to_json(), state_root(run.dragoon.chain)


def test_traced_and_scraped_run_is_byte_identical(tmp_path):
    baseline_json, baseline_root = run_fingerprint(poisson())
    with trace_to(str(tmp_path / "run.jsonl")) as tracer:
        traced_json, traced_root = run_fingerprint(poisson())
        # Scraping mid-flight is part of the contract under test.
        scrape = render_prometheus()
        families = REGISTRY.collect()
    assert tracer.spans_written > 0
    assert scrape and families
    assert traced_json == baseline_json
    assert traced_root == baseline_root


def test_trace_file_is_valid_jsonl_of_known_span_names(tmp_path):
    path = tmp_path / "run.jsonl"
    with trace_to(str(path)):
        run_scenario(poisson())
    names = set()
    for line in path.read_text().splitlines():
        record = json.loads(line)
        assert record["v"] == 1
        names.add(record["name"])
    # The three layers the runner exercises all show up in one file.
    assert {"engine.step", "chain.mine_block", "session.phase"} <= names


def test_checkpoint_resume_round_trip_under_tracing(tmp_path):
    scenario = poisson(seed=5, tasks=4)
    baseline_json, _root = run_fingerprint(scenario)
    store = NodeStore.init(str(tmp_path / "traced-rt"))
    with trace_to(str(tmp_path / "rt.jsonl")):
        marker = run_scenario(
            scenario, store=store, checkpoint_every=2, interrupt_after=4
        )
        assert isinstance(marker, InterruptedRun)
        resumed = resume_scenario(store.state_dir)
    assert resumed.to_json() == baseline_json
