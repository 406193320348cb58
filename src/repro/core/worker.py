"""The worker client (paper Fig. 5, worker side).

A worker discovers a published task from the contract's event log,
fetches the question blob from Swarm (integrity-checked against the
on-chain digest), answers, then submits in two steps:

* **commit** — send ``H(ciphertexts || key)``; nothing about the answers
  is visible yet, so a rushing adversary that reorders commits learns
  nothing and a copier has nothing to copy.
* **reveal** — after all K commits are in, open the commitment to the
  encrypted answer vector.

The answers themselves are encrypted to the requester's public key, so
even after the reveal no other worker can read (or grade) them — that is
the confidentiality property that kills copy-paste free-riding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.chain.chain import Chain
from repro.chain.transactions import Transaction
from repro.core.hit_contract import CIPHERTEXT_BYTES
from repro.core.task import TaskParameters
from repro.crypto.commitment import commit as make_commitment
from repro.crypto.elgamal import Ciphertext, ElGamalPublicKey
from repro.crypto.curve import G1Point
from repro.errors import AnswerError, ProtocolError
from repro.ledger.accounts import Address
from repro.storage.swarm import SwarmStore


@dataclass
class DiscoveredTask:
    """A worker's view of a published task."""

    contract_name: str
    requester: Address
    parameters: TaskParameters
    public_key: ElGamalPublicKey
    questions: List[str]
    commgs: bytes


class WorkerClient:
    """An honest worker; adversarial variants override the hooks."""

    def __init__(
        self,
        label: str,
        chain: Chain,
        swarm: SwarmStore,
        answers: Optional[Sequence[int]] = None,
        answer_strategy: Optional[Callable[[DiscoveredTask], List[int]]] = None,
    ) -> None:
        self.label = label
        self.chain = chain
        self.swarm = swarm
        self.address = chain.register_account(label, 0)
        self._fixed_answers = list(answers) if answers is not None else None
        self._strategy = answer_strategy
        self.discovered: Optional[DiscoveredTask] = None
        self.ciphertext_bytes: Optional[bytes] = None
        self.blinding_key: Optional[bytes] = None
        self._commit_requested = False
        self._commit_confirmed = False

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------

    def discover(self, contract_name: str) -> DiscoveredTask:
        """Read the ``published`` event and fetch the questions from Swarm."""
        events = self.chain.events_named("published", contract_name)
        if not events:
            raise ProtocolError("no published task on contract %s" % contract_name)
        return self.discover_from_event(contract_name, events[0])

    def discover_from_event(self, contract_name: str, event) -> DiscoveredTask:
        """Discover a task from a ``published`` event already in hand.

        What a subscribed client does: it saw the event on the bus and
        needs no log rescan — which also keeps discovery working on a
        chain whose event log has been pruned (long simulation runs).
        """
        payload = event.payload
        blob = self.swarm.get(payload["task_digest"])
        description = json.loads(blob.decode("utf-8"))
        pubkey = ElGamalPublicKey(G1Point.from_bytes(payload["pubkey"]))
        self.discovered = DiscoveredTask(
            contract_name=contract_name,
            requester=payload["requester"],
            parameters=payload["parameters"],
            public_key=pubkey,
            questions=list(description["questions"]),
            commgs=payload["commgs"],
        )
        return self.discovered

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------

    def produce_answers(self) -> List[int]:
        """The worker's answers (fixed list, strategy callback, or error)."""
        if self.discovered is None:
            raise ProtocolError("discover the task before answering")
        if self._fixed_answers is not None:
            answers = list(self._fixed_answers)
        elif self._strategy is not None:
            answers = self._strategy(self.discovered)
        else:
            raise ProtocolError("worker %s has no answers configured" % self.label)
        expected = self.discovered.parameters.num_questions
        if len(answers) != expected:
            raise AnswerError(
                "worker %s produced %d answers for %d questions"
                % (self.label, len(answers), expected)
            )
        return answers

    def encrypt_answers(self, answers: Sequence[int]) -> bytes:
        """Encrypt the answer vector to the requester's key; returns bytes."""
        assert self.discovered is not None
        ciphertexts = self.discovered.public_key.encrypt_vector(list(answers))
        return b"".join(c.to_bytes() for c in ciphertexts)

    # ------------------------------------------------------------------
    # Reactive step function (the session engine's hook)
    # ------------------------------------------------------------------

    def on_event(self, event) -> List[str]:
        """React to one chain event of this worker's task.

        The worker-side half of the event-driven life cycle: the method
        updates the worker's observed view of the contract and returns
        the protocol steps that just became due (``"commit"`` on the
        task's publication, ``"reveal"`` once every slot committed and
        this worker's own commit was confirmed on-chain).  The caller —
        normally a :class:`~repro.core.session.HITSession` — decides
        *when* to submit each step, which is where straggler and dropout
        adversaries plug in.
        """
        steps: List[str] = []
        if event.name == "published":
            if self.discovered is not None and not self._commit_requested:
                self._commit_requested = True
                steps.append("commit")
        elif event.name == "committed":
            if event.payload["worker"] == self.address:
                self._commit_confirmed = True
        elif event.name == "all_committed":
            if self._commit_confirmed:
                steps.append("reveal")
        return steps

    # ------------------------------------------------------------------
    # Phase 2-a: commit
    # ------------------------------------------------------------------

    def send_commit(self) -> Transaction:
        """Encrypt, commit, and send the commitment on-chain."""
        answers = self.produce_answers()
        self.ciphertext_bytes = self.encrypt_answers(answers)
        commitment, self.blinding_key = make_commitment(self.ciphertext_bytes)
        return self._send_commit_digest(commitment.digest)

    def _send_commit_digest(self, digest: bytes) -> Transaction:
        assert self.discovered is not None
        return self.chain.send(
            self.address,
            self.discovered.contract_name,
            "commit",
            args=(digest,),
            payload=digest,
        )

    # ------------------------------------------------------------------
    # Phase 2-b: reveal
    # ------------------------------------------------------------------

    def send_reveal(self) -> Transaction:
        """Open the commitment to the encrypted answers on-chain."""
        if self.discovered is None or self.ciphertext_bytes is None:
            raise ProtocolError("commit before revealing")
        assert self.blinding_key is not None
        return self.chain.send(
            self.address,
            self.discovered.contract_name,
            "reveal",
            args=(self.ciphertext_bytes, self.blinding_key),
            payload=self.ciphertext_bytes + self.blinding_key,
        )

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def was_paid(self) -> bool:
        """Whether this worker received a task payment on the ledger."""
        return bool(self.chain.ledger.payments_to(self.address))

    def balance(self) -> int:
        return self.chain.ledger.balance_of(self.address)
