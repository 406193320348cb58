"""The trace analyzer: PR-8 JSONL span files → latency structure.

A trace file is one JSON object per line (see
:mod:`repro.obs.tracing`); a killed run may leave a torn final line.
The reader here follows the WAL recipe (:mod:`repro.store.blockstore`):
stream records until the first undecodable line, treat everything
before it as intact, and report the tear instead of failing — a trace
cut mid-span is the *expected* artifact of ``kill -9``, not an error.
An intact record carrying an unknown schema version is different: that
is data we would silently misread, so it raises :class:`ReportError`
loudly.

:func:`analyze` folds the spans into a :class:`TraceAnalysis`:

* per-name and per-session-phase latency distributions (count, total,
  min/max, nearest-rank percentiles);
* the span forest (parent/child linkage) and the **critical path** —
  from the longest root span, repeatedly descend into the longest
  child — the chain of spans that bounded the run's wall clock;
* **pool-utilization timelines**: a sweep line over ``pool.job`` spans
  (which older traces, written while proving had a process pool,
  still carry) giving peak and average in-flight jobs while it was busy;
* **cross-process attribution**: spans measured in another process
  carry ``"clock": "worker"`` and a ``pid`` attr — their timestamps
  live in the *worker's* clock domain, so they are aggregated per pid
  (and never mixed into parent-clock timelines).  A worker span whose
  parent id is missing from the file (the tear ate the submit-side
  span) is kept and counted as an orphan rather than dropped.

Determinism: analyzing the same file twice is trivially identical, and
the :meth:`TraceAnalysis.structure` projection — span counts, tree
shape, phase counts, orphan/worker tallies — is byte-identical across
two identically seeded runs even though every timestamp differs.  Only
that projection feeds the byte-diffed report artifacts; timings are for
the human-facing ``report trace`` rendering.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ReportError
from repro.obs.tracing import SPAN_SCHEMA_VERSION

__all__ = [
    "TraceFile",
    "SpanStats",
    "TraceAnalysis",
    "read_trace",
    "iter_spans",
    "analyze",
    "analyze_file",
    "percentile",
]

#: Schema versions this analyzer knows how to read.
KNOWN_SCHEMA_VERSIONS = (SPAN_SCHEMA_VERSION,)

#: The fields every intact span record must carry.
_REQUIRED = ("v", "span", "name", "start", "end")

#: Percentile points every latency distribution reports.
PERCENTILES = (50, 90, 99)


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile over an ascending list (deterministic)."""
    if not sorted_values:
        raise ReportError("percentile of an empty distribution")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _parse_line(line: str) -> Optional[Dict[str, Any]]:
    """One record, ``None`` for a torn/undecodable line.

    An intact record with an unknown ``v`` raises: that is not a torn
    write but a file from a future tracer, and binning its spans with
    today's semantics would corrupt the analysis silently.
    """
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict) or any(k not in record for k in _REQUIRED):
        return None
    version = record["v"]
    if version not in KNOWN_SCHEMA_VERSIONS:
        raise ReportError(
            "trace record has unknown schema version %r (can read: %s)"
            % (version, ", ".join(map(str, KNOWN_SCHEMA_VERSIONS)))
        )
    return record


@dataclass
class TraceFile:
    """The intact prefix of one JSONL trace file."""

    path: str
    spans: List[Dict[str, Any]]
    truncated: bool = False  # a torn tail (or mid-file tear) was cut

    def __len__(self) -> int:
        return len(self.spans)


def iter_spans(lines: Iterator[str]) -> Iterator[Dict[str, Any]]:
    """Stream intact span records; stop cleanly at the first tear."""
    for line in lines:
        if not line.strip():
            continue
        record = _parse_line(line)
        if record is None:
            return
        yield record


def read_trace(path: str) -> TraceFile:
    """Read ``path`` torn-tail-tolerantly (see the module docstring)."""
    spans: List[Dict[str, Any]] = []
    truncated = False
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = _parse_line(line)
            if record is None:
                truncated = True
                break
            spans.append(record)
    return TraceFile(path=path, spans=spans, truncated=truncated)


@dataclass
class SpanStats:
    """One latency distribution (durations in span-clock seconds)."""

    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = 0.0
    _durations: List[float] = field(default_factory=list)

    def add(self, duration: float) -> None:
        self.count += 1
        self.total += duration
        self.minimum = min(self.minimum, duration)
        self.maximum = max(self.maximum, duration)
        self._durations.append(duration)

    def percentiles(self) -> Dict[str, float]:
        ordered = sorted(self._durations)
        return {
            "p%d" % q: percentile(ordered, q) for q in PERCENTILES
        }

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum,
        }
        if self.count:
            out["mean"] = self.total / self.count
            out.update(self.percentiles())
        return out


def _duration(span: Dict[str, Any]) -> float:
    return float(span["end"]) - float(span["start"])


class TraceAnalysis:
    """The folded view of one trace file (build with :func:`analyze`)."""

    def __init__(self, trace: TraceFile) -> None:
        self.path = trace.path
        self.truncated = trace.truncated
        self.spans = trace.spans
        self.by_id: Dict[int, Dict[str, Any]] = {}
        self.children: Dict[int, List[int]] = {}
        self.roots: List[int] = []
        #: Spans naming a parent id absent from the (possibly torn) file.
        self.orphans: List[int] = []
        self.by_name: Dict[str, SpanStats] = {}
        self.by_phase: Dict[str, SpanStats] = {}
        #: Worker-clock spans per pid: their timestamps are not
        #: comparable to the parent's, so they only ever aggregate here.
        self.worker: Dict[int, SpanStats] = {}
        self.worker_spans = 0
        self._fold()

    # -- folding ----------------------------------------------------------

    def _fold(self) -> None:
        for span in self.spans:
            self.by_id[span["span"]] = span
        for span in self.spans:
            parent = span.get("parent")
            if parent is None:
                self.roots.append(span["span"])
            elif parent in self.by_id:
                self.children.setdefault(parent, []).append(span["span"])
            else:
                # The tear (or a pre-attach parent) ate the parent span:
                # keep the child, attributed at top level.
                self.orphans.append(span["span"])
            duration = _duration(span)
            if span.get("clock") == "worker":
                self.worker_spans += 1
                pid = int((span.get("attrs") or {}).get("pid", -1))
                self.worker.setdefault(pid, SpanStats()).add(duration)
                continue
            self.by_name.setdefault(span["name"], SpanStats()).add(duration)
            if span["name"] == "session.phase":
                phase = str((span.get("attrs") or {}).get("phase", "?"))
                self.by_phase.setdefault(phase, SpanStats()).add(duration)

    # -- structure --------------------------------------------------------

    def depth_of(self, span_id: int) -> int:
        depth, seen = 1, {span_id}
        parent = self.by_id[span_id].get("parent")
        while parent in self.by_id and parent not in seen:
            seen.add(parent)
            depth += 1
            parent = self.by_id[parent].get("parent")
        return depth

    def max_depth(self) -> int:
        return max((self.depth_of(s["span"]) for s in self.spans), default=0)

    def critical_path(self) -> List[Dict[str, Any]]:
        """The longest root span, then its longest child, recursively.

        Worker-clock children are excluded (their timestamps live in
        another process's clock domain), so every hop on the path is a
        real parent-clock containment.
        """
        candidates = [
            s for s in self.roots
            if self.by_id[s].get("clock") != "worker"
        ]
        if not candidates:
            return []
        current = max(
            candidates, key=lambda s: (_duration(self.by_id[s]), -s)
        )
        path = []
        while True:
            span = self.by_id[current]
            path.append(
                {
                    "span": current,
                    "name": span["name"],
                    "duration": _duration(span),
                }
            )
            nested = [
                child for child in self.children.get(current, ())
                if self.by_id[child].get("clock") != "worker"
            ]
            if not nested:
                return path
            current = max(
                nested, key=lambda s: (_duration(self.by_id[s]), -s)
            )

    def utilization(self, name: str = "pool.job") -> Dict[str, Any]:
        """Sweep-line concurrency over the parent-clock spans ``name``.

        Returns peak concurrent spans, total busy wall time (≥1 span in
        flight), and the time-weighted average concurrency while busy —
        the pool-utilization timeline folded to its summary.
        """
        events: List[Tuple[float, int]] = []
        for span in self.spans:
            if span["name"] != name or span.get("clock") == "worker":
                continue
            events.append((float(span["start"]), 1))
            events.append((float(span["end"]), -1))
        if not events:
            return {"spans": 0, "peak": 0, "busy_seconds": 0.0, "mean": 0.0}
        events.sort()
        active = peak = 0
        busy = weighted = 0.0
        previous = events[0][0]
        for at, delta in events:
            if active > 0:
                busy += at - previous
                weighted += active * (at - previous)
            previous = at
            active += delta
            peak = max(peak, active)
        return {
            "spans": sum(1 for _, delta in events if delta > 0),
            "peak": peak,
            "busy_seconds": busy,
            "mean": (weighted / busy) if busy else 0.0,
        }

    # -- projections ------------------------------------------------------

    def structure(self) -> Dict[str, Any]:
        """The deterministic projection: identical across two runs of the
        same seeded scenario (timestamps differ; this does not)."""
        return {
            "spans_by_name": {
                name: stats.count
                for name, stats in sorted(self.by_name.items())
            },
            "phases": {
                phase: stats.count
                for phase, stats in sorted(self.by_phase.items())
            },
            "roots": len(self.roots),
            "orphans": len(self.orphans),
            "worker_spans": self.worker_spans,
            "max_depth": self.max_depth(),
            "truncated": self.truncated,
        }

    def to_dict(self) -> Dict[str, Any]:
        """The full analysis (timings included) for one fixed file."""
        return {
            "path": self.path,
            "structure": self.structure(),
            "latency_by_name": {
                name: stats.to_dict()
                for name, stats in sorted(self.by_name.items())
            },
            "latency_by_phase": {
                phase: stats.to_dict()
                for phase, stats in sorted(self.by_phase.items())
            },
            "critical_path": self.critical_path(),
            "pool_utilization": self.utilization(),
            "worker_attribution": {
                str(pid): stats.to_dict()
                for pid, stats in sorted(self.worker.items())
            },
        }


def analyze(trace: TraceFile) -> TraceAnalysis:
    return TraceAnalysis(trace)


def analyze_file(path: str) -> TraceAnalysis:
    return TraceAnalysis(read_trace(path))
