"""Drive staggered HIT sessions against any chain front-end.

The session engine does not care whether its chain is the in-process
:class:`~repro.chain.chain.Chain` or an :class:`~repro.rpc.client.RpcChain`
speaking to a node — both expose the same surface.  :func:`run_hits`
exploits that: one scenario description, one driver, two (or more)
transports.  The RPC contract tests run the *same* seeded scenario
in process and over RPC and compare receipts, gas, and ``state_root``
byte for byte; ``benchmarks/bench_rpc.py`` runs it against loopback and
a localhost socket to price the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.core.protocol import ProtocolOutcome
from repro.core.session import SessionConfig, SessionEngine
from repro.errors import ProtocolError


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
    if not specs:
        return []
    engine = SessionEngine(chain=chain, swarm=swarm)
    order = sorted(range(len(specs)), key=lambda index: specs[index].at_block)
    sessions: dict = {}
    position = 0
    step = 0
    while position < len(order) or not engine.all_done or not sessions:
        while (
            position < len(order)
            and specs[order[position]].at_block <= step
        ):
            index = order[position]
            spec = specs[index]
            requester = requester_factory(spec.requester_label, spec.task)
            session = engine.publish_session(
                requester, config=SessionConfig(evaluation=spec.evaluation)
            )
            labels = list(
                spec.worker_labels
                if spec.worker_labels is not None
                else [
                    "%s/worker-%d" % (session.contract_name, slot)
                    for slot in range(len(spec.worker_answers))
                ]
            )
            if len(labels) != len(spec.worker_answers):
                raise ProtocolError("worker label count mismatch")
            for label, answers in zip(labels, spec.worker_answers):
                session.add_worker(worker_factory(label, list(answers)))
            sessions[index] = session
            position += 1
        if step >= max_blocks:
            raise ProtocolError(
                "%d sessions still open after %d blocks: %s"
                % (
                    len(engine.active_sessions()),
                    step,
                    engine.describe_stuck(),
                )
            )
        engine.step()
        step += 1
    return [sessions[index].outcome() for index in range(len(specs))]
