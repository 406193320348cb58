"""Measuring one benchmark run: set-up, rounds, gates, metrics, output.

``run.py`` is the command; this module does the work once the program
under ``src/`` is importable.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.tracing import span_clock
from repro.reporting.traces import percentile as nearest_rank

from probes import HostPace, Patcher, SpanRecorder, fold, write_spans
from workloads import recover, round_seed, run_round, setup_once

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: Named percentiles; a timing reports the highest one with at least
#: ``BEYOND`` samples above it (the median always).
PERCENTILES = (50, 90, 99)
BEYOND = 10
SETUP_REPEATS = 6
IMPORT_REPEATS = 4
IMPORTS = (
    "import repro.sim.runner, repro.rpc, repro.store, repro.lightclient, "
    "repro.reporting.metricsfold"
)


@functools.lru_cache(maxsize=None)
def declared(kind: str) -> Tuple[Tuple[str, str], ...]:
    """``(name, unit)`` of every ``end_to_end`` or ``per_layer`` metric
    ``BENCHMARK.json`` declares.  Per-layer values are per settled task of
    the traced rounds when the unit ends in ``/task``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return tuple((m["name"], m["unit"]) for m in json.load(handle)[kind])


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def timing_summary(values: List[float]) -> Dict[str, Any]:
    """n, the named percentiles, and the highest one the sample supports."""
    summary: Dict[str, Any] = {"n": len(values)}
    if not values:
        return summary
    ordered = sorted(values)
    supported = 50
    for q in PERCENTILES:
        summary["p%d" % q] = nearest_rank(ordered, q)
        if len(values) * (100 - q) / 100.0 >= BEYOND:
            supported = q
    summary["supported"] = "p%d" % supported
    return summary


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git (a
    benchmark checkout is usually not a repository: "unknown")."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the program's and the benchmark's files: a checkout
    that is not a repository has no commit to name the code it runs."""
    digest = hashlib.sha256()
    for base in (SRC, os.path.dirname(os.path.abspath(__file__))):
        for folder, dirs, files in os.walk(base):
            dirs[:] = sorted(d for d in dirs if not d.startswith((".", "__")))
            for name in sorted(files):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode("utf-8") + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def provenance(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


class CpuRotation:
    """Pins the measuring thread to the next allowed CPU at every set-up
    repeat and every round; an ``rpc`` round's node threads inherit the
    pin, so client and node share the CPU.

    The CPUs of a shared host run at speeds that differ by up to a third
    and drift over minutes, and the scheduler keeps a busy process on one
    of them: left alone, runs of one seed read one CPU's speed or the
    other's and differed by 20%.  Taking turns makes every run read the
    mean of all CPUs.  A round stays on one CPU, so the host pace its
    slices see is that of the CPU its work ran on: moving at every engine
    step instead left ``market`` timings spread up to 0.36 (IQR over
    median, ten seeds) in a set where ``rpc``, moved per round, spread at
    most 0.06.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self._turns = itertools.cycle(self.cpus)

    def next(self) -> None:
        os.sched_setaffinity(0, {next(self._turns)})

    def release(self) -> None:
        os.sched_setaffinity(0, self.cpus)


def measure_imports(rotation: CpuRotation) -> float:
    """Median wall time of a fresh interpreter importing the program."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(IMPORT_REPEATS):
        rotation.next()
        start = span_clock()
        subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True,
                       cwd=ROOT, timeout=120)
        times.append(span_clock() - start)
    return statistics.median(times)


class Run:
    """One benchmark run: rounds, gates, and the metrics they yield."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 tasks: Optional[int] = None) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tasks = tasks
        self.work = os.path.join(OUT, "work", "%s-%d-%d" % (workload, seed, os.getpid()))
        self.recorder = SpanRecorder() if trace else None
        self.rounds: List[Any] = []
        self.problems: List[str] = []
        #: Seconds of set-up and of the cold load (slices left out), and
        #: the host-normalized seconds per measured second of each.
        self.setup_s = 0.0
        self.setup_pace = 1.0
        self.recover_s: Optional[float] = None
        self.recover_pace = 1.0
        self.recoveries = (0, 0)  # (attempted, failed)
        self.traced_wall = 0.0
        self.rotation = CpuRotation()

    # -- phases --------------------------------------------------------------

    def setup(self) -> None:
        os.makedirs(self.work, exist_ok=True)
        pace = HostPace()
        try:
            imports = measure_imports(self.rotation)
            # The host pace comes from the in-process repeats only: a
            # slice would share its CPU with an import's interpreter.
            repeats = []
            with pace.ticking():
                for _ in range(SETUP_REPEATS):
                    self.rotation.next()
                    repeats.append(setup_once(self.workload, self.seed, self.work,
                                              clock=pace.clock))
        finally:
            self.rotation.release()
        self.setup_s = imports + statistics.median(repeats)
        self.setup_pace = pace.factor

    def _round(self, seed: int, traced: bool):
        work_dir = os.path.join(self.work, "traced" if traced else "dark")
        os.makedirs(work_dir, exist_ok=True)
        patcher = Patcher()
        # Dark rounds sample the host's speed as they run; traced rounds
        # only feed the per-layer ledger and run without slices.
        pace = HostPace()
        if traced:
            self.recorder.install(patcher)
        self.rotation.next()
        try:
            with pace.ticking() if not traced else contextlib.nullcontext():
                result = run_round(self.workload, seed, work_dir, self.tasks, traced,
                                   clock=pace.clock)
        finally:
            patcher.restore()
            self.rotation.release()
        result.pace = pace.factor
        if traced:
            self.traced_wall += result.active_wall
        return result

    def serve(self) -> None:
        """Rounds until ``seconds`` have passed (at least one)."""
        deadline = span_clock() + self.seconds
        latest: Dict[bool, Any] = {}
        index = 0
        while index == 0 or span_clock() < deadline:
            seed = round_seed(self.seed, index)
            modes = (False,)
            if self.trace:
                # Alternate the order so neither mode always runs on the
                # caches the other just warmed.
                modes = (False, True) if index % 2 == 0 else (True, False)
            for traced in modes:
                result = self._round(seed, traced)
                self.rounds.append(result)
                previous = latest.get(traced)
                if previous is not None and previous.state_dir:
                    shutil.rmtree(previous.state_dir, ignore_errors=True)
                    previous.chain = None
                latest[traced] = result
            index += 1
        final = latest[self.trace]
        if final.state_dir:
            self._recover(final)

    def _recover(self, final) -> None:
        patcher = Patcher()
        pace = HostPace()
        if self.trace:
            self.recorder.install(patcher)
        try:
            with pace.ticking() if not self.trace else contextlib.nullcontext():
                self.recover_s, problems = recover(final.state_dir, final.chain,
                                                   clock=pace.clock)
        finally:
            patcher.restore()
        self.recover_pace = pace.factor
        if self.trace:
            self.traced_wall += self.recover_s
        self.recoveries = (1, 1 if problems else 0)
        self.problems += problems

    def check_counts(self) -> None:
        """Exact counts of round 0 must repeat: against the traced copy of
        the same round, and against earlier runs of this seed on the same
        code (a change may move the counts on purpose)."""
        dark = [r for r in self.rounds if not r.traced]
        first = dark[0].fingerprint()
        if self.trace:
            traced = [r for r in self.rounds if r.traced][0].fingerprint()
            if traced != first:
                self.problems.append("count drift under tracing: %s vs %s" % (traced, first))
        path = os.path.join(OUT, "counts", "%s-%d-%s-%s.json" % (
            self.workload, self.seed, self.tasks or "default", source_digest()[:16]))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                recorded = json.load(handle)
            if recorded != json.loads(json.dumps(first)):
                self.problems.append("count drift from an earlier run: %s vs %s"
                                     % (first, recorded))
        else:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(first, handle, sort_keys=True)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # -- accounting ------------------------------------------------------------

    def operations(self) -> Dict[str, Tuple[int, int]]:
        """``(attempted, failed)`` per operation type."""
        ops = {
            "tasks": (sum(r.probe.published for r in self.rounds),
                      sum(r.failed_tasks for r in self.rounds)),
        }
        if self.workload == "rpc":
            ops["rpc_requests"] = (sum(r.probe.rpc_requests for r in self.rounds),
                                   sum(r.probe.rpc_errors for r in self.rounds))
            ops["light_verifications"] = (sum(r.verifications for r in self.rounds),
                                          sum(r.verify_failed for r in self.rounds))
        if self.recoveries[0]:
            ops["recoveries"] = self.recoveries
        return ops

    @property
    def correct(self) -> bool:
        return not self.problems and all(r.ok for r in self.rounds)

    def _measured(self, traced: bool) -> List[Any]:
        """Rounds whose timings count: those that passed every gate.  With
        none, timings read 0 beside ``correct: false``."""
        return [r for r in self.rounds if r.traced == traced and r.ok]

    # -- metrics -----------------------------------------------------------------

    def timings(self, normalized: bool) -> Dict[str, Any]:
        """Every timing of the passing dark rounds: host-normalized
        seconds, or seconds as measured (slices left out).  Scalars, and a
        :func:`timing_summary` per kind of operation."""
        rounds = self._measured(False)

        def pace(r) -> float:
            return r.pace if normalized else 1.0

        def summary(samples_of) -> Dict[str, Any]:
            return timing_summary([s * pace(r) for r in rounds for s in samples_of(r)])

        served = sum(r.wall * pace(r) for r in rounds)
        out: Dict[str, Any] = {
            "setup_s": self.setup_s * (self.setup_pace if normalized else 1.0),
            "tasks_per_s": sum(r.probe.settled for r in rounds) / served if served else 0.0,
            "settle_s": summary(lambda r: r.probe.settle_s),
            "block_s": summary(lambda r: r.probe.block_s),
        }
        if self.recover_s is not None:
            out["recover_s"] = self.recover_s * (self.recover_pace if normalized else 1.0)
        if self.workload == "rpc":
            out["rpc_read_s"] = summary(lambda r: r.probe.rpc_read_s)
            out["verify_s"] = summary(lambda r: r.verify_s)
        return out

    def end_to_end(self) -> Tuple[Dict[str, float], Dict[str, Any]]:
        """The ``BENCHMARK.json`` end-to-end metrics (timings
        host-normalized), plus the workload-specific ones and the
        measured timings for the table and the record."""
        rounds = self._measured(False)
        settled = sum(r.probe.settled for r in rounds)
        published = sum(r.probe.published for r in rounds)
        timed = self.timings(normalized=True)
        metrics = {
            "setup_s": timed["setup_s"],
            "tasks_per_s": timed["tasks_per_s"],
            "settle_s_p50": timed["settle_s"].get("p50", 0.0),
            "settle_s_p90": timed["settle_s"].get("p90", 0.0),
            "block_s_p50": timed["block_s"].get("p50", 0.0),
            "block_s_p90": timed["block_s"].get("p90", 0.0),
            "gas_per_task": sum(r.gas for r in rounds) / max(settled, 1),
            "blocks_per_task": sum(r.blocks for r in rounds) / max(published, 1),
            "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        ops = self.operations()
        attempted = sum(a for a, _ in ops.values())
        failed = sum(f for _, f in ops.values())
        extra: Dict[str, Any] = {
            "timings": timed,
            "measured": self.timings(normalized=False),
            "pace": [r.pace for r in rounds],
            "rounds": len(rounds),
            "tasks_settled": settled,
            "failed_ratio": failed / attempted if attempted else 0.0,
            "operations": {name: {"attempted": a, "failed": f} for name, (a, f) in ops.items()},
        }
        return metrics, extra

    def per_layer(self):
        """Per-layer metrics from the traced rounds, and the fold."""
        rounds = self._measured(True)
        dark = {r.seed: r.wall for r in self.rounds if not r.traced}
        tasks = sum(r.probe.settled for r in rounds)
        folded = fold(self.recorder.spans, self.traced_wall)
        counters: Dict[str, float] = {}
        for r in rounds:
            for name, value in r.counters.items():
                counters[name] = counters.get(name, 0) + value
        spans = self.recorder.spans

        def total(name: str, attr: str) -> float:
            return sum(s.attrs.get(attr, 0) for s in spans if s.name == name)

        # ``<span name>.calls`` and ``.s`` (inclusive busy seconds) for
        # every span name, the registry counters under their own names,
        # then the metrics that are not one of those.
        calls, busy = folded.calls, folded.inclusive_s
        raw: Dict[str, float] = {}
        for name, count in calls.items():
            raw[name + ".calls"] = count
            raw[name + ".s"] = busy.get(name, 0.0)
        for span in spans:
            if span.name == "chain.exec":
                stem = "chain.exec.%s." % span.attrs.get("method")
                raw[stem + "calls"] = raw.get(stem + "calls", 0) + 1
                raw[stem + "s"] = raw.get(stem + "s", 0.0) + span.duration
                raw[stem + "gas"] = raw.get(stem + "gas", 0) + span.attrs.get("gas", 0)
        raw.update(counters)
        scanned = total("store.trie.scan", "keys")
        raw.update({
            "crypto.msm.terms": total("crypto.msm", "terms"),
            "crypto.keccak.bytes": total("crypto.keccak", "bytes"),
            "core.step.s": folded.self_by_name.get("core.step", 0.0),
            "store.wal.appends": calls.get("store.wal", 0),
            "store.wal.bytes": sum(r.probe.wal_bytes for r in rounds),
            "store.snapshot.bytes": total("store.snapshot", "bytes"),
            "store.trie.scan_keys": scanned,
            "store.codec.bytes": total("store.codec", "bytes"),
            "rpc.requests_per_task": sum(
                v for k, v in counters.items() if k.startswith("rpc.requests.")),
            "rpc.transport.s": busy.get("rpc.client", 0.0) - busy.get("rpc.server", 0.0),
            "rpc.bytes": total("rpc.client", "bytes"),
            "rpc.errors": sum(r.probe.rpc_errors for r in rounds),
            "light.proofs": calls.get("light.prove", 0),
            "unattributed.s": folded.unattributed,
        })
        for layer, seconds in folded.self_s.items():
            raw["layer.%s.self_s" % layer] = seconds
        metrics: Dict[str, float] = {}
        for name, unit in declared("per_layer"):
            if unit.endswith("/task"):
                metrics[name] = raw.get(name, 0.0) / tasks if tasks else 0.0
            else:
                metrics[name] = raw.get(name, 0.0)
        metrics["store.load.s"] = self.recover_s or 0.0
        metrics["store.trie.useful_ratio"] = (
            raw.get("store.trie.set_keys", 0) / scanned if scanned else 0.0)
        traced_serving = sum(r.wall for r in rounds)
        dark_serving = sum(dark.get(r.seed, 0.0) for r in rounds)
        metrics["trace.overhead_ratio"] = (
            traced_serving / dark_serving if dark_serving else 0.0)
        metrics["trace.tasks"] = tasks
        return metrics, folded


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def _flat(timed: Dict[str, Any]) -> Dict[str, float]:
    """``name`` for scalars and ``name_p50``/``name_p90`` for summaries."""
    out: Dict[str, float] = {}
    for name, value in timed.items():
        if isinstance(value, dict):
            out.update(("%s_%s" % (name, q), value[q]) for q in ("p50", "p90") if q in value)
        else:
            out[name] = value
    return out


def print_end_to_end(run: Run, metrics: Dict[str, float], extra: Dict[str, Any]) -> None:
    print("%s seed %d: %d rounds, %d tasks settled; timings in host-normalized "
          "seconds, measured beside them"
          % (run.workload, run.seed, extra["rounds"], extra["tasks_settled"]))
    timed, wall = _flat(extra["timings"]), _flat(extra["measured"])
    print("%-22s %-8s %-12s %s" % ("metric", "unit", "value", "measured"))
    rows = [(name, unit, metrics[name]) for name, unit in declared("end_to_end")]
    rows += [(name, "s", value) for name, value in timed.items() if name not in metrics]
    for name, unit, value in rows:
        print("%-22s %-8s %-12s %s" % (name, unit, _fmt(value),
                                        _fmt(wall[name]) if name in wall else ""))
    pace = extra["pace"]
    if pace:
        print("  host pace: normalized s per wall s %s..%s over %d rounds"
              % (_fmt(min(pace)), _fmt(max(pace)), len(pace)))
    for name, summary in extra["timings"].items():
        if isinstance(summary, dict):
            print("  %s: n=%d, highest supported percentile %s"
                  % (name, summary["n"], summary.get("supported", "-")))
    print("%-22s %-8s %s" % ("failed_ratio", "ratio", _fmt(extra["failed_ratio"])))
    for name, counts in sorted(extra["operations"].items()):
        print("  %s: %d attempted, %d failed" % (name, counts["attempted"], counts["failed"]))


def print_per_layer(run: Run, metrics: Dict[str, float], folded, trace_path: str) -> None:
    tasks = metrics["trace.tasks"]
    print("%s seed %d traced: %d tasks settled, wall %.3fs, overhead ratio %.3f"
          % (run.workload, run.seed, tasks, folded.wall, metrics["trace.overhead_ratio"]))
    print("%-12s %12s %8s %14s" % ("layer", "self s", "share", "s/task"))
    rows = sorted(folded.self_s.items(), key=lambda item: -item[1])
    rows.append(("unattributed", folded.unattributed))
    for layer, seconds in rows:
        print("%-12s %12.4f %7.1f%% %14.6f" % (
            layer, seconds, 100.0 * seconds / folded.wall if folded.wall else 0.0,
            seconds / tasks if tasks else 0.0))
    print("%-12s %12.4f" % ("wall", folded.wall))
    print("%-34s %-11s %s" % ("metric", "unit", "value"))
    for name, unit in declared("per_layer"):
        print("%-34s %-11s %s" % (name, unit, _fmt(metrics[name])))
    print("spans: %s (%d)" % (os.path.relpath(trace_path, ROOT), len(run.recorder.spans)))


def write_record(name: str, record: Dict[str, Any]) -> str:
    path = os.path.join(OUT, "results", name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, sort_keys=True, indent=2, default=str)
    return path


def execute(workload: str, seed: int, seconds: float, trace: bool,
            tasks: Optional[int] = None) -> Tuple[Run, Dict[str, Any]]:
    """Run one benchmark run and return it with its result line."""
    run = Run(workload, seed, seconds, trace, tasks)
    try:
        run.setup()
        run.serve()
        run.check_counts()
    finally:
        run.close()
    ops = run.operations()
    result: Dict[str, Any] = {
        "correct": run.correct,
        "attempted": sum(a for a, _ in ops.values()),
        "failed": sum(f for _, f in ops.values()),
    }
    return run, result


def report(workload: str, seed: int, seconds: int, trace: int) -> None:
    """One run, its tables, its record file and, last, its result line."""
    info = provenance(workload, seed, seconds, trace)
    print("provenance: " + json.dumps(info, sort_keys=True))
    run, result = execute(workload, seed, seconds, bool(trace))
    for problem in run.problems + [p for r in run.rounds for p in r.problems]:
        print("GATE FAILED: " + problem)
    stem = "%s-seed%d-trace%d" % (workload, seed, trace)
    if trace:
        metrics, folded = run.per_layer()
        trace_path = os.path.join(OUT, "traces", stem + ".jsonl")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        write_spans(trace_path, run.recorder.spans)
        print_per_layer(run, metrics, folded, trace_path)
        units = dict(declared("per_layer"))
        extra: Dict[str, Any] = {"self_s": folded.self_s, "wall": folded.wall}
    else:
        metrics, extra = run.end_to_end()
        print_end_to_end(run, metrics, extra)
        units = dict(declared("end_to_end"))
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in metrics.items()}
    write_record(stem + ".json", dict(result, provenance=info, extra=extra,
                                      problems=run.problems))
    print(json.dumps(result, sort_keys=True))
