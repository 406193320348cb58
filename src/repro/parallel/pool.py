"""Parent-side pools: job dispatch, crash recovery, and backend hooks.

Both pools share one execution core (:class:`_ProcessPool`): jobs are
codec-encoded bytes submitted to a ``ProcessPoolExecutor`` (fork start
method where the platform has it), collected in submission order.  A
crashed worker process surfaces as ``BrokenProcessPool``; the pool
discards the dead executor, rebuilds it, and re-runs the job up to
``max_retries`` times before raising a loud
:class:`~repro.errors.ProofPoolError` — a killed worker can cost a
retry, never a hang.  ``procs=0`` runs the identical job functions
inline in the parent, which is the reference the determinism tests pin
``procs=1/2/4`` against.

Pools survive pickling (simulation checkpoints pickle the engine they
hang off): only the configuration travels; the live executor is
dropped and lazily rebuilt on first use after restore.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.crypto import curve, pairing
from repro.crypto.curve import CURVE_ORDER, G1Point
from repro.crypto.rng import entropy
from repro.crypto.tower import FQ2, FQ12
from repro.errors import InvalidPoint, ProofPoolError
from repro.obs.tracing import get_tracer, span_clock
from repro.parallel import jobs
from repro.parallel.metrics import POOL_JOB_SECONDS, POOL_JOBS, POOL_RETRIES
from repro.store import codec

_UNSET = object()

#: Exceptions that mean "the worker running this job died" — retryable.
_WORKER_FAILURES = (BrokenProcessPool, CancelledError, FutureTimeout)


class PoolJob:
    """A dispatched job: ``result()`` blocks, decodes, and memoizes.

    The async handoff currency: the session engine holds these while
    block mining proceeds, collecting them at the deterministic drain
    point.  Collection retries transparently through the owning pool.
    """

    __slots__ = (
        "_pool", "_fn", "_payload", "_decoder", "_future", "_raw", "_value",
        "_submitted", "_trace_parent",
    )

    def __init__(
        self,
        pool: "_ProcessPool",
        fn: Callable[[bytes], bytes],
        payload: bytes,
        decoder: Optional[Callable[[bytes], Any]],
    ) -> None:
        self._pool = pool
        self._fn = fn
        self._payload = payload
        self._decoder = decoder
        self._future = None
        self._raw = _UNSET
        self._value = _UNSET
        #: Observability bookkeeping: span_clock() at submission and the
        #: span active then (the ``pool.job`` span's parent at collect).
        self._submitted = 0.0
        self._trace_parent = None

    def result(self) -> Any:
        if self._value is _UNSET:
            raw = self._pool._collect(self)
            self._value = self._decoder(raw) if self._decoder else raw
        return self._value

    # A job crossing a checkpoint is collected *now*: futures (and some
    # decoders) don't pickle, and the job's result is deterministic
    # regardless of when it is collected — forcing it here consumes no
    # entropy, so the checkpointed trajectory stays byte-identical.
    def __getstate__(self) -> Dict[str, Any]:
        return {"value": self.result()}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self._pool = None
        self._fn = None
        self._payload = b""
        self._decoder = None
        self._future = None
        self._raw = _UNSET
        self._value = state["value"]
        self._submitted = 0.0
        self._trace_parent = None


class _ProcessPool:
    """Executor lifecycle, retry policy, and codec-framed dispatch."""

    kind = "pool"

    def __init__(
        self,
        procs: int,
        *,
        start_method: Optional[str] = None,
        max_retries: int = 1,
        job_timeout: Optional[float] = None,
    ) -> None:
        if procs < 0:
            raise ValueError("pool size cannot be negative")
        self.procs = int(procs)
        self.start_method = start_method
        self.max_retries = int(max_retries)
        self.job_timeout = job_timeout
        self.retries = 0
        self.jobs_dispatched = 0
        self._executor: Optional[ProcessPoolExecutor] = None

    # -- executor lifecycle ---------------------------------------------------

    def _resolve_start_method(self) -> str:
        if self.start_method is not None:
            return self.start_method
        methods = multiprocessing.get_all_start_methods()
        return "fork" if "fork" in methods else methods[0]

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            context = multiprocessing.get_context(self._resolve_start_method())
            self._executor = ProcessPoolExecutor(
                max_workers=self.procs,
                mp_context=context,
                initializer=jobs.initialize_worker,
                initargs=(curve.fixed_base_cache_info()[1],),
            )
        return self._executor

    def _discard_executor(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the executor down; the pool can be reused (lazy rebuild)."""
        self._discard_executor()

    def __enter__(self) -> "_ProcessPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # Checkpoints pickle whatever object graph reaches a pool; only the
    # configuration travels — executors hold locks, pipes, and child
    # PIDs that mean nothing after restore.
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_executor"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)

    # -- dispatch -------------------------------------------------------------

    def _submit(
        self,
        fn: Callable[[bytes], bytes],
        payload: bytes,
        decoder: Optional[Callable[[bytes], Any]] = None,
    ) -> PoolJob:
        tracer = get_tracer()
        if tracer.enabled and self.procs > 0 and fn is not jobs.job_traced:
            # Ship the job under the tracing envelope: the worker times
            # itself and its span rides home inside the framed result.
            # Wrapping happens *after* the caller encoded the payload
            # (and drew any per-job seed), so the parent entropy stream
            # is untouched by tracing.
            payload = codec.encode({"fn": fn.__name__, "inner": payload})
            fn = jobs.job_traced
        job = PoolJob(self, fn, payload, decoder)
        job._submitted = span_clock()
        job._trace_parent = tracer.current_span_id()
        self.jobs_dispatched += 1
        POOL_JOBS.inc(kind=self.kind)
        if self.procs == 0:
            if tracer.enabled:
                with tracer.span(
                    "pool.job", fn=fn.__name__, kind=self.kind, inline=True
                ):
                    job._raw = fn(payload)
            else:
                job._raw = fn(payload)
            POOL_JOB_SECONDS.observe(
                span_clock() - job._submitted, kind=self.kind
            )
            return job
        try:
            job._future = self._ensure_executor().submit(fn, payload)
        except BrokenProcessPool:
            # The pool died between jobs; this job never ran, so a fresh
            # executor does not consume the retry budget.
            self._discard_executor()
            job._future = self._ensure_executor().submit(fn, payload)
        return job

    def _collect(self, job: PoolJob) -> bytes:
        if job._raw is not _UNSET:
            return job._raw
        attempts = 0
        future = job._future
        while True:
            try:
                raw = future.result(timeout=self.job_timeout)
                job._raw = self._finish(job, raw)
                return job._raw
            except _WORKER_FAILURES as failure:
                self._discard_executor()
                if attempts >= self.max_retries:
                    raise ProofPoolError(
                        "%s pool job %s failed after %d attempt(s): worker "
                        "process died (%s)"
                        % (
                            self.kind,
                            job._fn.__name__,
                            attempts + 1,
                            type(failure).__name__,
                        )
                    ) from failure
                attempts += 1
                self.retries += 1
                POOL_RETRIES.inc(kind=self.kind)
                future = self._ensure_executor().submit(job._fn, job._payload)

    def _finish(self, job: PoolJob, raw: bytes) -> bytes:
        """Collection-time bookkeeping; unwraps the tracing envelope.

        Unwrapping keys off how the job was *dispatched* (``job_traced``),
        not the tracer's current state, so a job collected after its
        tracer was uninstalled still hands its decoder the inner bytes.
        """
        collected = span_clock()
        POOL_JOB_SECONDS.observe(collected - job._submitted, kind=self.kind)
        if job._fn is not jobs.job_traced:
            return raw
        envelope = codec.decode(raw)
        shipped = envelope["span"]
        tracer = get_tracer()
        if tracer.enabled:
            # The submit→collect span in the parent's clock domain, then
            # the worker's own measurement re-parented beneath it.  The
            # worker's timestamps are its process-local monotonic clock —
            # not comparable to the parent's — hence the domain marker.
            parent = tracer.emit(
                "pool.job",
                job._submitted,
                collected,
                parent=job._trace_parent,
                attrs={"fn": shipped["fn"], "kind": self.kind},
            )
            tracer.emit(
                "pool.job.worker",
                shipped["start"],
                shipped["end"],
                parent=parent,
                attrs={"fn": shipped["fn"], "pid": shipped["pid"]},
                clock="worker",
            )
        return envelope["raw"]

    def run_jobs(
        self,
        fn: Callable[[bytes], bytes],
        payloads: Sequence[bytes],
        decoder: Optional[Callable[[bytes], Any]] = None,
    ) -> List[Any]:
        """Submit every payload, then collect in submission order."""
        dispatched = [self._submit(fn, payload, decoder) for payload in payloads]
        return [job.result() for job in dispatched]

    # -- introspection --------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "procs": self.procs,
            "start_method": self._resolve_start_method(),
            "max_retries": self.max_retries,
            "jobs_dispatched": self.jobs_dispatched,
            "retries": self.retries,
            "alive": self._executor is not None,
        }

    def worker_cache_info(self) -> List[Dict[str, Any]]:
        """Best-effort per-worker fixed-base cache stats, sorted by pid.

        One probe job per worker slot; a busy worker can answer twice
        while another answers never, so results are deduplicated by pid
        rather than guaranteed exhaustive.
        """
        if self.procs == 0:
            return []
        probe = codec.encode({})
        results = self.run_jobs(jobs.job_cache_info, [probe] * self.procs)
        by_pid = {}
        for raw in results:
            info = codec.decode(raw)
            by_pid[info["pid"]] = info
        return [by_pid[pid] for pid in sorted(by_pid)]


class ProverPool(_ProcessPool):
    """Worker-side proving jobs under deterministically derived seeds.

    Every submission draws a fixed-size per-job seed from the parent
    entropy stream *at submission time* — so the parent stream position,
    and therefore every byte of a seeded simulation, is identical
    whether jobs then run inline (``procs=0``) or on 1/2/4/N processes.
    """

    kind = "prover"

    def submit_encrypt_vector(self, public_key, messages) -> PoolJob:
        payload = codec.encode(
            {
                "key": public_key.h,
                "messages": [int(message) for message in messages],
                "seed": entropy.derive_job_seed(b"encrypt-vector"),
            }
        )
        return self._submit(jobs.job_encrypt_vector, payload, codec.decode)

    def encrypt_vector(self, public_key, messages) -> List[Any]:
        return self.submit_encrypt_vector(public_key, messages).result()

    def submit_prove_decryption(
        self, secret_key, ciphertext, message_range
    ) -> PoolJob:
        payload = codec.encode(
            {
                "secret": secret_key.k,
                "ciphertext": ciphertext,
                "message_range": [int(value) for value in message_range],
                "seed": entropy.derive_job_seed(b"prove-vpke"),
            }
        )
        return self._submit(
            jobs.job_prove_decryption,
            payload,
            lambda raw: _pair_from(codec.decode(raw), "claim", "proof"),
        )

    def prove_decryption(self, secret_key, ciphertext, message_range):
        return self.submit_prove_decryption(
            secret_key, ciphertext, message_range
        ).result()

    def submit_prove_quality(
        self, secret_key, ciphertexts, gold_indexes, gold_answers, answer_range
    ) -> PoolJob:
        payload = codec.encode(
            {
                "secret": secret_key.k,
                "ciphertexts": list(ciphertexts),
                "gold_indexes": [int(index) for index in gold_indexes],
                "gold_answers": [int(answer) for answer in gold_answers],
                "answer_range": [int(value) for value in answer_range],
                "seed": entropy.derive_job_seed(b"prove-quality"),
            }
        )
        return self._submit(
            jobs.job_prove_quality,
            payload,
            lambda raw: _pair_from(codec.decode(raw), "quality", "proof"),
        )

    def prove_quality(
        self, secret_key, ciphertexts, gold_indexes, gold_answers, answer_range
    ):
        return self.submit_prove_quality(
            secret_key, ciphertexts, gold_indexes, gold_answers, answer_range
        ).result()


def _pair_from(data: Dict[str, Any], first: str, second: str) -> Tuple[Any, Any]:
    return data[first], data[second]


class VerifierPool(_ProcessPool):
    """Chunked MSM and Miller-loop products behind the crypto hooks.

    :meth:`install` routes :func:`repro.crypto.curve.msm` and
    :func:`repro.crypto.pairing.multi_pairing` through this pool, which
    parallelizes every batch verifier in the tree (VPKE, Schnorr, sigma,
    Groth16, PoQoEA) without touching their code.  Verification weights
    are drawn by the callers *in the parent*, and chunking changes only
    how the identical sum/product is evaluated — results are exact, not
    just equivalent.
    """

    kind = "verifier"

    def __init__(
        self,
        procs: int,
        *,
        min_msm_terms: int = 16,
        min_miller_pairs: int = 2,
        **kwargs: Any,
    ) -> None:
        super().__init__(procs, **kwargs)
        self.min_msm_terms = int(min_msm_terms)
        self.min_miller_pairs = int(min_miller_pairs)

    # -- backend hooks --------------------------------------------------------

    def install(self) -> None:
        """Become the process-wide MSM + Miller backend (one pool at a time)."""
        curve.set_msm_backend(self._msm_hook)
        pairing.set_miller_backend(self._miller_hook)

    def uninstall(self) -> None:
        curve.set_msm_backend(None)
        pairing.set_miller_backend(None)

    @contextmanager
    def installed(self) -> Iterator["VerifierPool"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _msm_hook(self, points, reduced) -> Optional[G1Point]:
        if len(points) < self.min_msm_terms:
            return None
        return self.msm(points, reduced)

    def _miller_hook(self, pairs) -> Optional[FQ12]:
        if len(pairs) < self.min_miller_pairs:
            return None
        return self.miller_product(pairs)

    # -- chunked evaluation ---------------------------------------------------

    def msm(self, points, scalars) -> G1Point:
        """``sum_i scalars[i] * points[i]`` over chunked scalar windows.

        Each chunk covers a contiguous bit range of every scalar; the
        child shifts its partial back into place (doublings), so the
        parent combines with plain point additions.
        """
        if len(points) != len(scalars):
            raise ValueError("msm needs one scalar per point")
        reduced = [scalar % CURVE_ORDER for scalar in scalars]
        max_bits = max((scalar.bit_length() for scalar in reduced), default=0)
        if max_bits == 0:
            return G1Point.infinity()
        shipped = list(points)
        payloads = [
            codec.encode(
                {"points": shipped, "scalars": reduced, "lo": lo, "hi": hi}
            )
            for lo, hi in _bit_ranges(max_bits, max(1, self.procs))
        ]
        partials = self.run_jobs(jobs.job_msm_chunk, payloads, codec.decode)
        total = G1Point.infinity()
        for partial in partials:
            total = total + partial
        return total

    def miller_product(self, pairs) -> FQ12:
        """The raw Miller product over ``pairs``, chunked across workers.

        Children each multiply the raw Miller loops of a contiguous pair
        slice; the parent multiplies the partial products.  The final
        exponentiation stays with the caller (``multi_pairing``), so the
        whole batch still pays for exactly one.
        """
        shipped = []
        for g1_point, g2_point in pairs:
            if g2_point is None:
                shipped.append((g1_point, None))
            else:
                x, y = g2_point
                if not isinstance(x, FQ2) or not isinstance(y, FQ2):
                    raise InvalidPoint("G2 argument must be over Fp2")
                shipped.append((g1_point, (tuple(x.coeffs), tuple(y.coeffs))))
        chunk_count = max(1, min(self.procs, len(shipped)) or 1)
        payloads = [
            codec.encode(chunk) for chunk in _split_even(shipped, chunk_count)
        ]
        partials = self.run_jobs(jobs.job_miller_chunk, payloads)
        product = FQ12.one()
        for raw in partials:
            product = product * FQ12(list(codec.decode(raw)))
        return product


def _bit_ranges(max_bits: int, chunks: int) -> List[Tuple[int, int]]:
    """Split ``[0, max_bits)`` into up to ``chunks`` contiguous ranges."""
    chunks = max(1, min(chunks, max_bits))
    step = (max_bits + chunks - 1) // chunks
    return [(lo, min(lo + step, max_bits)) for lo in range(0, max_bits, step)]


def _split_even(items: List[Any], chunks: int) -> List[List[Any]]:
    """Split a list into ``chunks`` contiguous, near-even slices."""
    base, extra = divmod(len(items), chunks)
    slices = []
    start = 0
    for index in range(chunks):
        size = base + (1 if index < extra else 0)
        if size:
            slices.append(items[start : start + size])
        start += size
    return slices
