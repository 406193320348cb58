"""Tiny-size tests of the benchmark itself.

    python3 -m pytest perfbench -q

They check the measuring, not the numbers: the self-time fold adds up
to the traced wall time, a wrong expected verdict fails the gate and
counts as a failure, counts repeat for a seed, ``market`` never touches
the store or RPC layers, the trace file reads back through the
program's own analyzer, and reported timings are the measured times
scaled by the host pace, whose reference slices stay off the clock and
run only while a block of work is being timed.
"""

from __future__ import annotations

import functools
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import bench  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402
from repro.reporting.traces import analyze, read_trace  # noqa: E402


def _flip_first(expected):
    key = sorted(expected, key=lambda item: (item[0], item[1].hex()))[0]
    paid, amount = expected[key]
    reward = 50 if amount == 0 else amount
    flipped = dict(expected)
    flipped[key] = (not paid, 0 if paid else reward)
    return flipped


def test_fold_of_nested_spans_adds_up_to_wall():
    spans = [
        probes.Span(1, None, "core.step", "core", 0.0, 1.0, {}),
        probes.Span(2, 1, "chain.mine", "chain", 0.1, 0.6, {}),
        probes.Span(3, 2, "crypto.keccak", "crypto", 0.2, 0.3, {}),
        probes.Span(4, None, "store.wal", "store", 1.5, 1.75, {}),
    ]
    folded = probes.fold(spans, wall=2.0)
    assert folded.self_s["core"] == pytest.approx(0.5)
    assert folded.self_s["chain"] == pytest.approx(0.4)
    assert folded.self_s["crypto"] == pytest.approx(0.1)
    assert folded.unattributed == pytest.approx(0.75)
    assert sum(folded.self_s.values()) + folded.unattributed == pytest.approx(2.0)
    assert folded.inclusive_s["chain.mine"] == pytest.approx(0.5)


def test_traced_market_folds_to_wall_and_bypasses_store_and_rpc(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", str(tmp_path))
    run = bench.Run("market", 3, 0, trace=True, tasks=2)
    run.serve()
    metrics, folded = run.per_layer()
    assert run.correct
    assert folded.wall > 0
    assert sum(folded.self_s.values()) + folded.unattributed == pytest.approx(folded.wall)
    assert 0 <= folded.unattributed < 0.5 * folded.wall
    assert metrics["layer.crypto.self_s"] > 0
    assert metrics["trace.tasks"] == 2
    names = [name for name, _ in bench.declared("per_layer")]
    assert set(metrics) == set(names)
    for name in names:
        if name.startswith(("store.", "rpc.", "light.", "layer.store", "layer.rpc")):
            assert metrics[name] == 0, name

    path = tmp_path / "trace.jsonl"
    probes.write_spans(str(path), run.recorder.spans)
    analysis = analyze(read_trace(str(path)))
    assert not analysis.truncated
    assert analysis.structure()["orphans"] == 0
    assert sum(analysis.structure()["spans_by_name"].values()) == len(run.recorder.spans)


def test_wrong_expected_verdict_fails_the_gate(tmp_path):
    result = workloads.run_round(
        "market", workloads.round_seed(5, 0), str(tmp_path), tasks=2,
        expect_override=_flip_first,
    )
    assert not result.ok
    assert any("expected" in problem for problem in result.problems)
    assert result.failed_tasks == result.probe.published == 2


def test_wrong_expected_verdict_fails_the_light_client_gate(tmp_path):
    result = workloads.run_round(
        "rpc", workloads.round_seed(5, 0), str(tmp_path), tasks=1,
        expect_override=_flip_first,
    )
    assert result.verifications == 2
    assert result.verify_failed == 1
    assert any(problem.startswith("light client") for problem in result.problems)
    assert result.failed_tasks == 1


@pytest.mark.parametrize("seed", [1, 2])
def test_counts_repeat_for_a_seed(tmp_path, seed):
    def fingerprint():
        result = workloads.run_round(
            "durable", workloads.round_seed(seed, 0), str(tmp_path), tasks=2
        )
        assert result.ok, result.problems
        return result.fingerprint()

    first = fingerprint()
    assert first["wal_bytes"] > 0 and first["chain.txs"] > 0
    assert fingerprint() == first


def test_durable_round_recovers_the_live_root(tmp_path):
    result = workloads.run_round("durable", workloads.round_seed(4, 0), str(tmp_path), tasks=2)
    assert result.checkpoints > 0
    seconds, problems = workloads.recover(result.state_dir, result.chain)
    assert seconds > 0 and problems == []


def test_a_failed_round_reports_no_timings(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", str(tmp_path))
    monkeypatch.setattr(bench, "run_round", functools.partial(
        workloads.run_round, expect_override=_flip_first))
    run = bench.Run("market", 3, 0, trace=False, tasks=2)
    run.serve()
    metrics, extra = run.end_to_end()
    assert not run.correct
    assert extra["rounds"] == 0
    assert metrics["tasks_per_s"] == metrics["settle_s_p50"] == metrics["block_s_p90"] == 0


def test_host_pace_keeps_its_slices_off_the_clock():
    pace = probes.HostPace()
    clock, wall = pace.clock(), probes.span_clock()
    pace.sample()
    pace.sample()
    slices = sum(pace.slices)
    assert len(pace.slices) == 2 and slices > 0
    elapsed_clock, elapsed_wall = pace.clock() - clock, probes.span_clock() - wall
    assert elapsed_wall - elapsed_clock == pytest.approx(slices, abs=1e-3)
    assert pace.factor == pytest.approx(
        sum(probes.NOMINAL_SLICE_S / elapsed for elapsed in pace.slices) / 2)
    assert probes.HostPace().factor == 1.0


def test_host_pace_ticks_only_inside_its_block():
    import signal

    pace = probes.HostPace()
    before = signal.getsignal(signal.SIGALRM)
    with pace.ticking():
        start = probes.span_clock()
        while probes.span_clock() - start < 10 * probes.TICK_S:
            sum(range(1000))
    ticks = len(pace.slices)
    assert ticks >= 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    start = probes.span_clock()
    while probes.span_clock() - start < 3 * probes.TICK_S:
        sum(range(1000))
    assert len(pace.slices) == ticks


def test_timings_are_the_measured_times_scaled_by_each_rounds_pace(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", str(tmp_path))
    run = bench.Run("market", 3, 0, trace=False, tasks=2)
    run.serve()
    metrics, extra = run.end_to_end()
    (only,) = run.rounds
    assert run.correct and only.pace != 1.0
    wall = extra["measured"]
    assert metrics["block_s_p50"] == pytest.approx(wall["block_s"]["p50"] * only.pace)
    assert metrics["settle_s_p90"] == pytest.approx(wall["settle_s"]["p90"] * only.pace)
    assert metrics["tasks_per_s"] == pytest.approx(wall["tasks_per_s"] / only.pace)


def test_rpc_method_is_read_from_the_wire_bytes():
    from repro.rpc import wire

    assert probes.rpc_method(wire.request("chain_head", {}, 7)) == "chain_head"
    assert probes.rpc_method(b"{}") == "?"


def test_patcher_restores_every_binding():
    from repro.crypto import keccak
    from repro.store import trie

    original = keccak.keccak256
    patcher = probes.Patcher()
    patcher.wrap("repro.crypto.keccak", "keccak256", lambda fn: lambda data: fn(data))
    assert trie.keccak256 is not original and keccak.keccak256 is not original
    patcher.restore()
    assert trie.keccak256 is original and keccak.keccak256 is original
