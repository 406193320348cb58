"""Multiprocessing pools for the cryptographic hot paths.

Pure-Python group arithmetic is single-core by default; this package
spreads it across processes without changing a single observable byte:

* :class:`ProverPool` runs worker-side jobs — ElGamal answer-vector
  encryption, VPKE decryption proofs, PoQoEA quality proofs — in child
  processes, each under a DRBG seeded deterministically from the parent
  entropy stream (:func:`repro.crypto.rng.derive_job_seed`).
* :class:`VerifierPool` installs itself as the backend of
  :func:`repro.crypto.curve.msm` (chunked Pippenger windows, partial
  sums combined in the parent) and of
  :func:`repro.crypto.pairing.multi_pairing` (parallel raw Miller-loop
  products, one shared final exponentiation in the parent), so every
  batch verifier — VPKE, Schnorr, sigma, Groth16, PoQoEA — parallelizes
  transparently.

Jobs travel as :mod:`repro.store.codec` TLV bytes (the PR-4 canonical
encoding), so the IPC format is the wire format.  A killed worker
process is detected via ``BrokenProcessPool``; the pool rebuilds its
executor and retries before raising a loud
:class:`~repro.errors.ProofPoolError` — never a hang.  ``procs=0`` runs
the very same job functions inline, which is the serial reference the
determinism tests pin pooled runs against.

The pools (and with them ``multiprocessing``) load on first use, so
importing :mod:`repro.parallel.metrics` for the pool metric families
stays cheap.
"""

from repro.errors import ProofPoolError

__all__ = ["PoolJob", "ProofPoolError", "ProverPool", "VerifierPool"]


def __getattr__(name):
    if name in ("PoolJob", "ProverPool", "VerifierPool"):
        from repro.parallel import pool

        return getattr(pool, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
