"""Measurement probes: the benchmark's wrappers around the program's
public functions.

Nothing under ``src/`` knows it is being measured.  The benchmark
replaces public functions and methods with thin wrappers while a round
runs and puts the originals back afterwards:

* :class:`E2EProbe` is installed on every run.  It timestamps task
  publication, every engine step and every settlement, times the RPC
  read round trips the client observes, and counts WAL bytes — the raw
  samples behind the end-to-end metrics.
* :class:`HostPace` runs a fixed reference slice on a timer while a
  dark round runs and keeps its time off the probe's clock; the speed
  the slices saw says how fast the host ran that round.
* :class:`SpanRecorder` is installed only for traced rounds.  It records
  one span per call of every entry in :data:`LAYER_POINTS` (name, layer,
  start, end, parent, attrs) in memory; :func:`fold` turns the spans
  into per-layer self time plus an ``unattributed`` remainder, and
  :func:`write_spans` writes them in the program's span schema v1 so
  ``repro.reporting.traces`` reads the file unchanged.

A module-level function is often imported by name into other modules
(``from repro.crypto.keccak import keccak256``); :class:`Patcher`
therefore rebinds every ``repro`` module global that refers to the
original, not just the defining module's attribute.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import signal
import statistics
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.tracing import SPAN_SCHEMA_VERSION, span_clock
from repro.rpc.server import READ_METHODS

#: Layers, named after the modules that hold them.
LAYERS = ("crypto", "chain", "core", "sim", "store", "rpc", "light")


def _resolve(path: str):
    """``"pkg.module"`` or ``"pkg.module:Class"`` to the object."""
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Patcher:
    """Swaps callables for wrappers and restores them in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, path: str, attr: str, make_wrapper: Callable) -> None:
        owner = _resolve(path)
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            self._set(owner, attr, make_wrapper(original), original)
            return
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapper, original)

    def _set(self, owner: Any, name: str, wrapper: Any, original: Any) -> None:
        self._undo.append((owner, name, original))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def rpc_method(raw: bytes) -> str:
    """The method of one JSON-RPC request body (the wire sorts keys, so
    ``"method"`` is a plain substring; no JSON decode on the hot path)."""
    marker = b'"method": "'
    start = raw.find(marker)
    if start < 0:
        return "?"
    start += len(marker)
    return raw[start:raw.index(b'"', start)].decode("ascii", "replace")


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

#: A reference slice: fixed pure-Python big-integer arithmetic, the kind
#: of work the program's field and curve code does, but none of the
#: program's code, so no change to the program changes its time.
REFERENCE_MODULUS = (1 << 255) - 19
REFERENCE_STEPS = 1000
#: Host-normalized seconds are seconds on a host that runs one slice in
#: this long (an unloaded vCPU of the 2-vCPU VM the benchmark was tuned
#: on takes 1.2-1.3 ms).
NOMINAL_SLICE_S = 0.0013
#: Wall-clock seconds from the end of one slice to the start of the next.
TICK_S = 0.03


def reference_slice() -> int:
    x, y, table = 5, 7, {}
    for i in range(REFERENCE_STEPS):
        x = (x * y + i) % REFERENCE_MODULUS
        y = (y * y + x) % REFERENCE_MODULUS
        table[i & 255] = x
    return x


class HostPace:
    """How fast the host runs, sampled alongside the work.

    A shared host's CPUs change speed by up to half with their
    neighbours' load, from one second to the next: one round of one seed
    took 3.5 s or 7 s.  While :meth:`ticking`, a timer interrupts the
    measuring thread every :data:`TICK_S` and runs a slice there, so the
    slices sample the host's speed evenly over time, on the CPU the work
    runs on.  :attr:`factor` is the mean speed the slices saw relative to
    a nominal host; a round's timings times its factor are
    host-normalized seconds.  Over 14 ``durable`` rounds of four seeds
    the round wall time spread 21% (IQR over median) and the normalized
    time 5.5%; over 13 ``rpc`` rounds 18% and 3.9%; over 30 ``market``
    rounds 10% and 6.6%.  A slice run before every engine step instead
    left ``durable`` at 15.5%: its few long checkpoint steps each saw one
    slice.

    :meth:`clock` is the span clock minus the time spent in slices, so
    the slices add nothing to the timings.
    """

    def __init__(self) -> None:
        self.slices: List[float] = []
        self._excluded = 0.0
        self._ticking = False

    def clock(self) -> float:
        # A slice can run between any two bytecodes; read again if one
        # ran between reading the excluded time and the span clock.
        while True:
            excluded = self._excluded
            now = span_clock()
            if excluded == self._excluded:
                return now - excluded

    def sample(self) -> None:
        start = span_clock()
        reference_slice()
        elapsed = span_clock() - start
        self.slices.append(elapsed)
        self._excluded += elapsed

    @contextlib.contextmanager
    def ticking(self) -> Iterator["HostPace"]:
        """Sample every :data:`TICK_S` inside the block (main thread
        only: the timer is ``SIGALRM``)."""
        def tick(signum, frame) -> None:
            if self._ticking:
                self.sample()
                signal.setitimer(signal.ITIMER_REAL, TICK_S)

        previous = signal.signal(signal.SIGALRM, tick)
        self._ticking = True
        signal.setitimer(signal.ITIMER_REAL, TICK_S)
        try:
            yield self
        finally:
            self._ticking = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def factor(self) -> float:
        """Host-normalized seconds per measured second (1 with no slice)."""
        if not self.slices:
            return 1.0
        return statistics.fmean(NOMINAL_SLICE_S / elapsed for elapsed in self.slices)


# ---------------------------------------------------------------------------
# End-to-end samples (every run)
# ---------------------------------------------------------------------------


@dataclass
class E2EProbe:
    """Raw end-to-end samples of one round, on :attr:`clock`.

    ``block_s`` is the wall time of one loop iteration: from the end of
    the previous engine step (or the round's start) to the end of this
    one, so it holds the block, every client reaction to it, and the
    loop's work between blocks (admission, enrollment, checkpoints).
    """

    clock: Callable[[], float] = span_clock
    round_start: float = 0.0
    settle_s: List[float] = field(default_factory=list)
    block_s: List[float] = field(default_factory=list)
    rpc_read_s: List[float] = field(default_factory=list)
    rpc_requests: int = 0
    rpc_errors: int = 0
    wal_bytes: int = 0
    published: int = 0
    settled: int = 0
    cancelled: int = 0
    _pending: Dict[str, Tuple[Any, float]] = field(default_factory=dict)
    _last_step_end: float = 0.0

    def start_round(self) -> None:
        self.round_start = self._last_step_end = self.clock()

    def open_tasks(self) -> List[str]:
        return sorted(self._pending)

    def _published(self, sessions, at: float) -> None:
        for session in sessions:
            self._pending[session.contract_name] = (session, at)
            self.published += 1

    def _stepped(self) -> None:
        now = self.clock()
        self.block_s.append(now - self._last_step_end)
        self._last_step_end = now
        for name, (session, published_at) in list(self._pending.items()):
            if session.phase == "done":
                self.settle_s.append(now - published_at)
                self.settled += 1
                del self._pending[name]
            elif session.phase == "cancelled":
                self.cancelled += 1
                del self._pending[name]

    def install(self, patcher: Patcher) -> None:
        probe = self

        def admit(original):
            @functools.wraps(original)
            def wrapper(dragoon, arrivals):
                at = probe.clock()
                sessions = original(dragoon, arrivals)
                probe._published(sessions, at)
                return sessions
            return wrapper

        def publish_session(original):
            @functools.wraps(original)
            def wrapper(engine, requester, *args, **kwargs):
                at = probe.clock()
                session = original(engine, requester, *args, **kwargs)
                probe._published([session], at)
                return session
            return wrapper

        def step(original):
            @functools.wraps(original)
            def wrapper(engine):
                block = original(engine)
                probe._stepped()
                return block
            return wrapper

        def request(original):
            @functools.wraps(original)
            def wrapper(transport, raw, *args, **kwargs):
                start = probe.clock()
                response = original(transport, raw, *args, **kwargs)
                elapsed = probe.clock() - start
                probe.rpc_requests += 1
                if response.startswith(b'{"error"'):
                    probe.rpc_errors += 1
                if rpc_method(raw) in READ_METHODS:
                    probe.rpc_read_s.append(elapsed)
                return response
            return wrapper

        def append(original):
            @functools.wraps(original)
            def wrapper(wal, record):
                before = os.path.getsize(wal.path) if os.path.exists(wal.path) else 0
                original(wal, record)
                probe.wal_bytes += os.path.getsize(wal.path) - before
            return wrapper

        patcher.wrap("repro.dragoon:Dragoon", "admit", admit)
        patcher.wrap("repro.core.session:SessionEngine", "publish_session", publish_session)
        patcher.wrap("repro.core.session:SessionEngine", "step", step)
        patcher.wrap("repro.rpc.client:HttpTransport", "request", request)
        patcher.wrap("repro.store.blockstore:BlockStore", "append", append)


# ---------------------------------------------------------------------------
# Layer spans (traced rounds only)
# ---------------------------------------------------------------------------


def _task_of_client(args, result) -> Dict[str, Any]:
    client = args[0]
    name = getattr(client, "contract_name", None)
    if name is None and getattr(client, "discovered", None) is not None:
        name = client.discovered.contract_name
    return {"task": name} if name else {}


def _execution(args, result) -> Dict[str, Any]:
    contract, method, ctx = args[0], args[1], args[2]
    return {"method": method, "gas": ctx.meter.used, "task": contract.name}


def _input_bytes(args, result) -> Dict[str, Any]:
    return {"bytes": len(args[0])}


def _output_bytes(args, result) -> Dict[str, Any]:
    return {"bytes": len(result)} if isinstance(result, bytes) else {}


def _terms(args, result) -> Dict[str, Any]:
    return {"terms": len(args[0])}


def _snapshot_bytes(args, result) -> Dict[str, Any]:
    path = args[0]
    return {"bytes": os.path.getsize(path)} if os.path.exists(path) else {}


def _scanned(args, result) -> Dict[str, Any]:
    return {"keys": len(result)} if result is not None else {}


def _client_request(args, result) -> Dict[str, Any]:
    raw = args[1]
    size = len(raw) + (len(result) if isinstance(result, bytes) else 0)
    return {"method": rpc_method(raw), "bytes": size}


def _server_request(args, result) -> Dict[str, Any]:
    envelope = args[1]
    return {"method": envelope.get("method")} if isinstance(envelope, dict) else {}


def _settlement(args, result) -> Dict[str, Any]:
    return {"task": args[1]}


#: ``(layer, span name, owner path, attribute, attrs hook)`` for every
#: wrapped public function.  The span name is the per-layer metric stem.
LAYER_POINTS = (
    ("crypto", "crypto.encrypt", "repro.crypto.elgamal:ElGamalPublicKey", "encrypt_vector", None),
    ("crypto", "crypto.decrypt", "repro.crypto.elgamal:ElGamalSecretKey", "decrypt_vector", None),
    ("crypto", "crypto.vpke_prove", "repro.crypto.vpke", "prove_decryption", None),
    ("crypto", "crypto.poqoea_prove", "repro.crypto.poqoea", "prove_quality", None),
    ("crypto", "crypto.verify", "repro.crypto.vpke", "verify_decryption", None),
    ("crypto", "crypto.verify", "repro.crypto.vpke", "verify_decryption_batch", None),
    ("crypto", "crypto.verify", "repro.crypto.poqoea", "verify_quality", None),
    ("crypto", "crypto.verify", "repro.crypto.poqoea", "verify_quality_proofs_batch", None),
    ("crypto", "crypto.msm", "repro.crypto.curve", "msm", _terms),
    ("crypto", "crypto.keccak", "repro.crypto.keccak", "keccak256", _input_bytes),
    ("chain", "chain.mine", "repro.chain.chain:Chain", "mine_block", None),
    ("chain", "chain.exec", "repro.chain.contract:Contract", "dispatch", _execution),
    ("chain", "chain.hash", "repro.chain.blocks:Block", "block_hash", None),
    ("chain", "chain.hash", "repro.chain.transactions:Transaction", "tx_hash", None),
    ("core", "core.step", "repro.core.session:SessionEngine", "step", None),
    ("core", "core.worker.commit", "repro.core.worker:WorkerClient", "send_commit", _task_of_client),
    ("core", "core.worker.reveal", "repro.core.worker:WorkerClient", "send_reveal", _task_of_client),
    ("core", "core.requester.publish", "repro.core.requester:RequesterClient", "publish", None),
    ("core", "core.requester.publish", "repro.core.requester:RequesterClient", "prepare_publish", None),
    ("core", "core.requester.evaluate", "repro.core.requester:RequesterClient", "evaluate_all", _task_of_client),
    ("core", "core.requester.evaluate", "repro.core.requester:RequesterClient", "evaluate_all_batched", _task_of_client),
    ("core", "core.requester.finalize", "repro.core.requester:RequesterClient", "send_finalize", _task_of_client),
    ("sim", "sim.admit", "repro.dragoon:Dragoon", "admit", None),
    ("sim", "sim.enroll", "repro.sim.population:WorkerPopulation", "enroll", None),
    ("store", "store.wal", "repro.store.blockstore:BlockStore", "append", None),
    ("store", "store.baseline", "repro.store.blockstore:StateBaseline", "capture", None),
    ("store", "store.record", "repro.store.blockstore", "block_record", None),
    ("store", "store.snapshot", "repro.store.blockstore", "save_snapshot", _snapshot_bytes),
    ("store", "store.checkpoint", "repro.store.nodestore:NodeStore", "checkpoint", None),
    ("store", "store.trie", "repro.store.trie:ChainStateTrie", "root", None),
    ("store", "store.trie", "repro.store.trie:ChainStateTrie", "ensure_header", None),
    ("store", "store.trie", "repro.store.trie:ChainStateTrie", "prove", None),
    ("store", "store.trie.scan", "repro.store.trie", "live_items", _scanned),
    ("store", "store.codec", "repro.store.codec", "encode", _output_bytes),
    ("store", "store.codec", "repro.store.codec", "decode", _input_bytes),
    ("store", "store.load", "repro.store.nodestore:NodeStore", "load", None),
    ("rpc", "rpc.client", "repro.rpc.client:HttpTransport", "request", _client_request),
    ("rpc", "rpc.server", "repro.rpc.server:RpcNode", "respond", _server_request),
    ("light", "light.verify", "repro.lightclient:LightClient", "verify_settlement", _settlement),
    ("light", "light.sync", "repro.lightclient:LightClient", "sync", None),
    ("light", "light.prove", "repro.lightclient:LightClient", "prove", None),
)


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    layer: str
    start: float
    end: float
    attrs: Dict[str, Any]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory spans with a per-thread parent stack.

    RPC requests cross a thread boundary: the node answers on a server
    thread while the client thread waits.  The client span publishes its
    id as :attr:`remote_parent` for the duration of the request, and a
    server-thread span with an empty stack adopts it, so server work
    nests under the request that caused it.  Requests are sent one at a
    time, which is what makes a single slot enough.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.remote_parent: Optional[int] = None

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def traced(self, name: str, layer: str, describe, original):
        recorder = self
        remote = name == "rpc.client"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else recorder.remote_parent
            span_id = next(recorder._ids)
            stack.append(span_id)
            if remote:
                outer, recorder.remote_parent = recorder.remote_parent, span_id
            result = None
            start = span_clock()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = span_clock()
                stack.pop()
                if remote:
                    recorder.remote_parent = outer
                attrs = describe(args, result) if describe is not None else {}
                recorder.spans.append(
                    Span(span_id, parent, name, layer, start, end, attrs)
                )

        return wrapper

    def install(self, patcher: Patcher) -> None:
        for layer, name, path, attr, describe in LAYER_POINTS:
            patcher.wrap(
                path, attr, functools.partial(self.traced, name, layer, describe)
            )


# ---------------------------------------------------------------------------
# Folding spans
# ---------------------------------------------------------------------------


@dataclass
class Fold:
    """Self time per layer; ``sum(self_s.values()) + unattributed == wall``."""

    wall: float
    self_s: Dict[str, float]
    unattributed: float
    #: Per span name: calls and inclusive seconds (outermost spans only,
    #: so a name nested in itself is not counted twice).
    calls: Dict[str, int]
    inclusive_s: Dict[str, float]
    self_by_name: Dict[str, float]


def fold(spans: List[Span], wall: float) -> Fold:
    by_id = {span.id: span for span in spans}
    covered_by_children: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent in by_id:
            covered_by_children[span.parent] += span.duration
    self_s = {layer: 0.0 for layer in LAYERS}
    calls: Dict[str, int] = defaultdict(int)
    inclusive: Dict[str, float] = defaultdict(float)
    self_by_name: Dict[str, float] = defaultdict(float)
    top_level = 0.0
    for span in spans:
        own = span.duration - covered_by_children[span.id]
        self_s[span.layer] += own
        self_by_name[span.name] += own
        if span.parent not in by_id:
            top_level += span.duration
        calls[span.name] += 1
        if not _nested_in_same_name(span, by_id):
            inclusive[span.name] += span.duration
    return Fold(wall, self_s, wall - top_level, dict(calls), dict(inclusive),
                dict(self_by_name))


def _nested_in_same_name(span: Span, by_id: Dict[int, Span]) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == span.name:
            return True
        parent = by_id.get(parent.parent)
    return False


def write_spans(path: str, spans: List[Span]) -> None:
    """Span schema v1 JSONL (see ``repro.obs.tracing``)."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            attrs = dict(span.attrs, layer=span.layer)
            handle.write(
                json.dumps(
                    {
                        "v": SPAN_SCHEMA_VERSION,
                        "span": span.id,
                        "parent": span.parent,
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "attrs": attrs,
                    },
                    sort_keys=True,
                    default=str,
                )
                + "\n"
            )
