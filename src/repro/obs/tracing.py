"""The span tracer: explicit-clock, deterministic-safe, JSONL on disk.

A :class:`Tracer` writes one JSON object per finished span to a sink
file — the trace of where the time went: block mining, session phase
transitions, and RPC dispatch.  ``--trace FILE`` on the CLI's
``serve`` / ``simulate`` / ``node rpc-serve`` installs one for the run.

Determinism contract
--------------------

Wall-clock time **never** feeds the DRBG, the codec, or ``state_root``:
the tracer reads :func:`span_clock` (``time.perf_counter``) and writes
only to its own file.  Span ids come from a plain counter, not from
entropy.  A seeded scenario traced to a file is therefore byte-identical
— receipts, gas, report JSON, ``state_root`` — to the same scenario
untraced; only the trace file (whose timestamps are honest wall clock)
differs between runs.

Trace-file schema (one object per line)::

    {"v": 1, "span": 7, "parent": 3, "name": "chain.mine_block",
     "start": 1.0231, "end": 1.0288, "attrs": {"block": 4, "txs": 2}}

``start``/``end`` are :func:`span_clock` seconds in the *emitting
process's* clock domain.  A span measured in another process and
written with :meth:`Tracer.emit` carries ``"clock": "worker"`` and a
``"pid"`` attr: its timestamps are that process's own monotonic clock
(not comparable to the parent's), but its parent/child linkage is
exact.

The tracer keeps an implicit per-thread span stack, so nested
instrumentation points (an engine step containing a block mine
containing an MSM) link up without threading ids through every call
signature.  When no tracer is installed (the default), every
instrumentation point costs one attribute load and a no-op context
manager — cheap enough for the crypto hot path.
"""

from __future__ import annotations

import atexit
import contextlib
import json
import threading
import time
from typing import Any, Dict, IO, Iterator, Optional

__all__ = [
    "SPAN_SCHEMA_VERSION",
    "span_clock",
    "Tracer",
    "NullTracer",
    "get_tracer",
    "set_tracer",
    "trace_to",
    "trace_span",
]

#: Version stamp on every trace record.
SPAN_SCHEMA_VERSION = 1


def span_clock() -> float:
    """The one clock every span, stopwatch, and bench timer reads.

    Monotonic ``time.perf_counter`` — benchmark tables and trace files
    agree on methodology because they literally share this function.
    """
    return time.perf_counter()


class _NullSpan:
    """The shared no-op span: absorbs the full Span surface for free."""

    __slots__ = ()
    id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def set(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a cheap no-op."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def emit(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
        **extra: Any,
    ) -> Optional[int]:
        return None

    def current_span_id(self) -> Optional[int]:
        return None

    def close(self) -> None:
        pass


class Span:
    """One live span: a context manager that emits itself on exit."""

    __slots__ = ("_tracer", "name", "attrs", "id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.id = tracer._next_id()
        self.parent: Optional[int] = None
        self.start = 0.0

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        self.parent = stack[-1] if stack else None
        stack.append(self.id)
        self.start = self._tracer.clock()
        return self

    def __exit__(self, exc_type: Any, *exc_info: object) -> None:
        end = self._tracer.clock()
        stack = self._tracer._stack()
        if stack and stack[-1] == self.id:
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._write(
            {
                "v": SPAN_SCHEMA_VERSION,
                "span": self.id,
                "parent": self.parent,
                "name": self.name,
                "start": self.start,
                "end": end,
                "attrs": self.attrs,
            }
        )


class Tracer:
    """A JSONL span emitter over one sink file.

    ``sink`` is any text-mode file-like object; writes are serialized
    under a lock (spans are emitted from RPC dispatch threads and the
    engine thread alike).  Span ids are
    monotonically increasing ints — unique per tracer, assigned at span
    creation, never drawn from entropy.
    """

    enabled = True

    def __init__(self, sink: IO[str], clock=span_clock) -> None:
        self._sink = sink
        self.clock = clock
        self._lock = threading.Lock()
        self._ids = 0
        self._local = threading.local()
        self.spans_written = 0

    # -- internals --------------------------------------------------------

    def _next_id(self) -> int:
        with self._lock:
            self._ids += 1
            return self._ids

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            self._sink.write(line + "\n")
            self.spans_written += 1

    # -- the public surface ----------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """An implicit-parent span; use as a context manager."""
        return Span(self, name, attrs)

    def emit(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
        **extra: Any,
    ) -> int:
        """Emit a pre-measured span (e.g. one timed in another process)."""
        span_id = self._next_id()
        record: Dict[str, Any] = {
            "v": SPAN_SCHEMA_VERSION,
            "span": span_id,
            "parent": parent,
            "name": name,
            "start": start,
            "end": end,
            "attrs": dict(attrs or {}),
        }
        record.update(extra)
        self._write(record)
        return span_id

    def current_span_id(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    def close(self) -> None:
        with self._lock:
            try:
                self._sink.flush()
            except ValueError:
                # The sink was already closed (atexit firing after a
                # normal trace_to unwind): nothing left to flush.
                pass


#: The process-global tracer; NullTracer unless a run installs one.
_TRACER: "Tracer | NullTracer" = NullTracer()


def get_tracer() -> "Tracer | NullTracer":
    return _TRACER


def set_tracer(tracer: Optional["Tracer | NullTracer"]) -> None:
    """Install ``tracer`` process-wide (``None`` restores the null tracer)."""
    global _TRACER
    _TRACER = tracer if tracer is not None else NullTracer()


@contextlib.contextmanager
def trace_to(path: str) -> Iterator[Tracer]:
    """Trace everything inside the block to a JSONL file at ``path``.

    File lifecycle: the sink is **line-buffered**, so every finished
    span reaches the OS as a complete line the moment it is emitted —
    a ``kill -9`` mid-run loses at most the line being written (a torn
    tail the analyzer tolerates), never a buffer of finished spans.
    For the catchable ends (SIGINT/SIGTERM unwound as
    :class:`KeyboardInterrupt` by the CLI, plain ``sys.exit``) the
    ``finally`` below flushes and closes; an ``atexit`` hook backstops
    interpreter exits that skip the context manager's unwind.
    """
    sink = open(path, "w", encoding="utf-8", buffering=1)
    tracer = Tracer(sink)
    previous = get_tracer()
    set_tracer(tracer)
    atexit.register(tracer.close)
    try:
        yield tracer
    finally:
        set_tracer(previous)
        tracer.close()
        atexit.unregister(tracer.close)
        sink.close()


def trace_span(name: str, **attrs: Any):
    """``with trace_span("chain.mine_block", block=n):`` — the one-liner
    instrumentation points use; a shared no-op when tracing is off."""
    return _TRACER.span(name, **attrs)
