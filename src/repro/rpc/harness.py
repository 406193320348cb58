"""Drive staggered HIT sessions against any chain front-end.

The session engine does not care whether its chain is the in-process
:class:`~repro.chain.chain.Chain` or an :class:`~repro.rpc.client.RpcChain`
speaking to a node — both expose the same surface, down to the
mempool depth the service loop's stop rule reads.  :func:`run_hits`
exploits that: one scenario description, one loop
(:meth:`~repro.core.session.SessionEngine.serve`, shared with
:meth:`repro.dragoon.Dragoon.serve`), two (or more) transports.  It
differs from the facade only in its admission step, which publishes
each task through its own requester client.  The RPC contract tests run
the *same* seeded scenario in process and over RPC and compare
receipts, gas, and ``state_root`` byte for byte;
``benchmarks/bench_rpc.py`` runs it against loopback and a localhost
socket to price the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.core.protocol import ProtocolOutcome
from repro.core.session import HITSession, SessionConfig, SessionEngine


@dataclass
class HitSpec:
    """One task of a front-end-agnostic scenario (cf. ``TaskArrival``)."""

    at_block: int
    requester_label: str
    task: object
    worker_answers: Sequence[Sequence[int]]
    worker_labels: Optional[Sequence[str]] = None
    evaluation: str = "sequential"


def run_hits(
    chain,
    swarm,
    specs: Sequence[HitSpec],
    requester_factory: Callable,
    worker_factory: Callable,
    max_blocks: int = 512,
) -> List[ProtocolOutcome]:
    """Run ``specs`` through a session engine over the given front-end.

    ``requester_factory(label, task)`` and ``worker_factory(label,
    answers)`` build the protocol clients — in-process client classes
    bound to ``chain``/``swarm``, or the RPC client classes bound to a
    transport.  Outcomes come back in spec order.
    """
    engine = SessionEngine(chain=chain, swarm=swarm)

    def admit(due: List[HitSpec]) -> List[HITSession]:
        for spec in due:
            HITSession.check_staffing(spec.worker_answers, spec.worker_labels)
        sessions = []
        for spec in due:
            session = engine.publish_session(
                requester_factory(spec.requester_label, spec.task),
                config=SessionConfig(evaluation=spec.evaluation),
            )
            session.enroll(
                worker_factory, spec.worker_answers, spec.worker_labels, None
            )
            sessions.append(session)
        return sessions

    return engine.serve(specs, admit, max_blocks)
