"""The pool layer's metric families.

Kept apart from :mod:`repro.parallel.pool` so that a node front-end can
register them without loading ``multiprocessing``: a fresh
:class:`~repro.rpc.server.RpcNode` scrapes the same ``pool_*`` families
whether or not anything in the process has touched a pool yet.
"""

from __future__ import annotations

from repro.obs.registry import REGISTRY

POOL_JOBS = REGISTRY.counter(
    "pool_jobs_total", "Jobs dispatched, by pool kind", labelnames=("kind",)
)
POOL_RETRIES = REGISTRY.counter(
    "pool_retries_total",
    "Jobs re-run after a worker process died, by pool kind",
    labelnames=("kind",),
)
POOL_JOB_SECONDS = REGISTRY.histogram(
    "pool_job_seconds",
    "Submit-to-collect wall time per job, by pool kind",
    labelnames=("kind",),
)
