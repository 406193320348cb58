"""Measurement helpers for the benchmark harness.

The paper's Table I reports both wall-clock proving time and peak memory.
:class:`Stopwatch` measures elapsed time; :class:`MemoryMeter` measures peak
heap allocation via :mod:`tracemalloc` (our analogue of the paper's
peak-RSS figure, with one caveat: it counts Python heap allocations,
not the process's resident set).

Timers read :func:`repro.obs.tracing.span_clock` — the same clock every
trace span records — so benchmark tables and ``--trace`` files agree on
methodology by construction.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable, Tuple

from repro.obs.tracing import span_clock


class Stopwatch:
    """Context manager measuring elapsed wall-clock seconds."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = span_clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = span_clock() - self._start

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed * 1000.0


class MemoryMeter:
    """Context manager measuring peak heap allocation in bytes.

    Nested use is supported: the meter snapshots the traced peak on entry
    and reports the delta on exit.
    """

    def __init__(self) -> None:
        self.peak_bytes = 0
        self._was_tracing = False
        self._baseline = 0

    def __enter__(self) -> "MemoryMeter":
        self._was_tracing = tracemalloc.is_tracing()
        if not self._was_tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        self._baseline, _ = tracemalloc.get_traced_memory()
        return self

    def __exit__(self, *exc_info: object) -> None:
        _, peak = tracemalloc.get_traced_memory()
        self.peak_bytes = max(0, peak - self._baseline)
        if not self._was_tracing:
            tracemalloc.stop()

    @property
    def peak_mib(self) -> float:
        return self.peak_bytes / (1024.0 * 1024.0)


@dataclass
class Measurement:
    """A single (time, memory, result) measurement of a callable."""

    elapsed_seconds: float
    peak_bytes: int
    result: Any = field(repr=False, default=None)

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_seconds * 1000.0

    @property
    def peak_mib(self) -> float:
        return self.peak_bytes / (1024.0 * 1024.0)


def measure(func: Callable[..., Any], *args: Any, **kwargs: Any) -> Measurement:
    """Run ``func`` once, measuring wall time and peak heap allocation."""
    meter = MemoryMeter()
    watch = Stopwatch()
    with meter:
        with watch:
            result = func(*args, **kwargs)
    return Measurement(watch.elapsed, meter.peak_bytes, result)


def best_of(func: Callable[[], Any], repeats: int = 3) -> Tuple[float, Any]:
    """Run ``func`` several times and return (best elapsed seconds, result)."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = span_clock()
        result = func()
        best = min(best, span_clock() - start)
    return best, result
