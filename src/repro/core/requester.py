"""The requester client (paper Fig. 5, requester side).

The requester manages one ElGamal key pair across all her tasks (the
paper notes this is safe because every protocol script is simulatable
without the secret key).  Her protocol duties:

1. *Publish*: push the question blob to Swarm, commit to the gold
   standards, deploy the HIT contract with the budget frozen.
2. *Evaluate*: after reveals, decrypt every submission off-chain, open
   the gold-standard commitment on-chain, and for each worker below the
   quality threshold send a PoQoEA rejection (or an out-of-range
   verifiable decryption).  Acceptable submissions need no transaction —
   the contract pays them by default at finalization, which is what makes
   the happy path cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.chain.chain import Chain
from repro.chain.transactions import Receipt, Transaction
from repro.core.hit_contract import CIPHERTEXT_BYTES, HITContract
from repro.core.task import HITTask
from repro.crypto.commitment import commit as make_commitment
from repro.crypto.elgamal import Ciphertext, ElGamalSecretKey, keygen
from repro.crypto.poqoea import QualityProof, prove_quality
from repro.crypto.vpke import DecryptionProof, prove_decryption
from repro.ledger.accounts import Address
from repro.storage.swarm import SwarmStore
from repro.utils.serialization import int_to_bytes


@dataclass
class EvaluationAction:
    """What the requester decided to do about one worker's submission."""

    worker: Address
    kind: str  # "accept" | "reject-quality" | "reject-outrange"
    quality: Optional[int] = None
    transaction: Optional[Transaction] = None


class RequesterClient:
    """An honest requester; adversarial variants subclass the hooks."""

    def __init__(
        self,
        label: str,
        task: HITTask,
        chain: Chain,
        swarm: SwarmStore,
        balance: Optional[int] = None,
        secret: Optional[int] = None,
    ) -> None:
        self.label = label
        self.task = task
        self.chain = chain
        self.swarm = swarm
        budget = task.parameters.budget
        self.address = chain.register_account(
            label, budget if balance is None else balance
        )
        self.public_key, self.secret_key = keygen(secret)
        self.contract_name: Optional[str] = None
        self._golden_key: Optional[bytes] = None
        self.observed_reveal_deadline: Optional[int] = None
        self.observed_finished = False

    # ------------------------------------------------------------------
    # Phase 1: publish
    # ------------------------------------------------------------------

    def prepare_publish(
        self, contract_name: Optional[str] = None
    ) -> Tuple[HITContract, Tuple, bytes]:
        """Build the deployment of this task without sending it.

        Pushes the question blob to Swarm and commits to the golds, then
        returns ``(contract, args, payload)`` ready for
        :meth:`repro.chain.chain.Chain.deploy` — or, batched with other
        tasks' deployments, for :meth:`~repro.chain.chain.Chain.deploy_many`.
        """
        name = contract_name or ("hit:" + self.label)
        task_digest = self.swarm.put(self.task.questions_blob())
        commitment, self._golden_key = make_commitment(self.task.golden_blob())

        params_json = self.task.parameters.to_json()
        pubkey_bytes = self.public_key.to_bytes()
        payload = (
            params_json.encode("utf-8")
            + pubkey_bytes
            + commitment.digest
            + task_digest
        )
        contract = HITContract(name)
        args = (params_json, pubkey_bytes, commitment.digest, task_digest)
        return contract, args, payload

    def publish(self, contract_name: Optional[str] = None) -> Receipt:
        """Deploy the HIT contract; returns the deployment receipt."""
        contract, args, payload = self.prepare_publish(contract_name)
        receipt = self.chain.deploy(
            contract, self.address, args=args, payload=payload
        )
        if receipt.succeeded:
            self.contract_name = contract.name
        return receipt

    # ------------------------------------------------------------------
    # Reactive step function (the session engine's hook)
    # ------------------------------------------------------------------

    def on_event(self, event) -> List[str]:
        """React to one chain event of this requester's task.

        The requester's duties are deadline-driven rather than
        event-driven (she evaluates when the reveal window closes and
        finalizes when the evaluation window closes, whether or not
        anything happened), so this method records the observed phase
        boundaries — ``observed_reveal_deadline`` from the contract's
        ``all_committed`` event, ``observed_finished`` from
        ``finalized``/``cancelled`` — and returns no immediate steps.
        The :class:`~repro.core.session.HITSession` state machine reads
        these observations to time ``evaluate_all`` and
        ``send_finalize``.
        """
        if event.name == "all_committed":
            self.observed_reveal_deadline = event.payload["reveal_deadline"]
        elif event.name in ("finalized", "cancelled"):
            self.observed_finished = True
        return []

    # ------------------------------------------------------------------
    # Phase 3: evaluate
    # ------------------------------------------------------------------

    def collect_submissions(self) -> Dict[Address, bytes]:
        """Read every worker's revealed ciphertext vector from the logs."""
        assert self.contract_name is not None, "publish first"
        submissions: Dict[Address, bytes] = {}
        for event in self.chain.events_named("revealed", self.contract_name):
            payload = event.payload
            submissions[payload["worker"]] = payload["ciphertexts"]
        return submissions

    def decrypt_submission(
        self, ciphertext_bytes: bytes
    ) -> Tuple[List[Ciphertext], List[Union[int, object]]]:
        """Split and decrypt one revealed vector."""
        count = len(ciphertext_bytes) // CIPHERTEXT_BYTES
        ciphertexts = [
            Ciphertext.from_bytes(
                ciphertext_bytes[i * CIPHERTEXT_BYTES : (i + 1) * CIPHERTEXT_BYTES]
            )
            for i in range(count)
        ]
        plaintexts = self.secret_key.decrypt_vector(
            ciphertexts, self.task.parameters.answer_range
        )
        return ciphertexts, plaintexts

    def send_golden(self) -> Transaction:
        """Open the gold-standard commitment on-chain."""
        assert self.contract_name is not None and self._golden_key is not None
        blob = self.task.golden_blob()
        return self.chain.send(
            self.address,
            self.contract_name,
            "golden",
            args=(blob, self._golden_key),
            payload=blob + self._golden_key,
        )

    def evaluate_all(self) -> List[EvaluationAction]:
        """Decide accept/reject for every submission and send the txs.

        Sends the ``golden`` opening first, then one ``evaluate`` or
        ``outrange`` transaction per rejected worker.  Accepted workers
        get no transaction (they are paid by default at finalize).
        """
        self.send_golden()
        actions: List[EvaluationAction] = []
        for worker, ciphertext_bytes in sorted(
            self.collect_submissions().items(), key=lambda item: item[0].hex()
        ):
            actions.append(self._evaluate_one(worker, ciphertext_bytes))
        return actions

    def evaluate_all_batched(self) -> List[EvaluationAction]:
        """Like :meth:`evaluate_all`, but all quality rejections ride one
        ``evaluate_batch`` transaction.

        The contract then verifies every rejected worker's VPKE proofs
        in a single random-linear-combination check instead of one
        6-ecMul check per proof.  Out-of-range disputes (rare) still go
        as individual ``outrange`` transactions, and accepted workers
        still cost nothing.
        """
        self.send_golden()
        actions: List[EvaluationAction] = []
        batch: List[Tuple[Address, int, QualityProof, Dict[int, bytes]]] = []
        batch_payload = b""
        # Outrange disputes go out during the scan; each quality
        # rejection is proved where the scan finds it and rides the one
        # batch sent at the end.
        for worker, ciphertext_bytes in sorted(
            self.collect_submissions().items(), key=lambda item: item[0].hex()
        ):
            kind, quality, ciphertexts, outrange_index = self._classify_submission(
                ciphertext_bytes
            )
            if kind == "reject-outrange":
                transaction = self._send_outrange(
                    worker, outrange_index, ciphertexts[outrange_index],
                    ciphertext_bytes,
                )
                actions.append(
                    EvaluationAction(worker, "reject-outrange", None, transaction)
                )
                continue
            if kind == "accept":
                actions.append(EvaluationAction(worker, "accept", quality, None))
                continue

            proved_quality, proof, gold_chunks, payload = (
                self._quality_rejection_material(
                    worker, ciphertexts, ciphertext_bytes
                )
            )
            batch.append((worker, proved_quality, proof, gold_chunks))
            batch_payload += payload
            actions.append(
                EvaluationAction(worker, "reject-quality", quality, None)
            )

        if batch:
            transaction = self.chain.send(
                self.address,
                self.contract_name,
                "evaluate_batch",
                args=(batch,),
                payload=batch_payload,
            )
            for action in actions:
                if action.kind == "reject-quality":
                    action.transaction = transaction
        return actions

    def _classify_submission(
        self, ciphertext_bytes: bytes
    ) -> Tuple[str, Optional[int], List[Ciphertext], Optional[int]]:
        """Decrypt one submission and decide its fate.

        Returns ``(kind, quality, ciphertexts, outrange_index)`` where
        ``kind`` is ``accept`` / ``reject-quality`` / ``reject-outrange``
        (quality is None for outrange; outrange_index is None otherwise).
        """
        ciphertexts, plaintexts = self.decrypt_submission(ciphertext_bytes)
        for index, plaintext in enumerate(plaintexts):
            if not isinstance(plaintext, int):
                return "reject-outrange", None, ciphertexts, index
        quality = self.task.quality_of(list(plaintexts))
        if quality >= self.task.parameters.quality_threshold:
            return "accept", quality, ciphertexts, None
        return "reject-quality", quality, ciphertexts, None

    def _quality_rejection_material(
        self,
        worker: Address,
        ciphertexts: Sequence[Ciphertext],
        full_vector: bytes,
    ) -> Tuple[int, QualityProof, Dict[int, bytes], bytes]:
        """The proof, gold-position chunks, and payload of one rejection."""
        quality, proof = self.make_quality_proof(ciphertexts)
        gold_chunks = {
            entry.index: full_vector[
                entry.index * CIPHERTEXT_BYTES
                : (entry.index + 1) * CIPHERTEXT_BYTES
            ]
            for entry in proof.entries
        }
        payload = worker.value + int_to_bytes(quality, 4) + proof.to_bytes()
        for chunk in gold_chunks.values():
            payload += chunk
        return quality, proof, gold_chunks, payload

    def _evaluate_one(
        self, worker: Address, ciphertext_bytes: bytes
    ) -> EvaluationAction:
        kind, quality, ciphertexts, outrange_index = self._classify_submission(
            ciphertext_bytes
        )
        if kind == "reject-outrange":
            # Out-of-range answers are disputed with a single verifiable
            # decryption of the offending position.
            transaction = self._send_outrange(
                worker, outrange_index, ciphertexts[outrange_index],
                ciphertext_bytes,
            )
            return EvaluationAction(worker, "reject-outrange", None, transaction)
        if kind == "accept":
            return EvaluationAction(worker, "accept", quality, None)
        transaction = self._send_quality_rejection(
            worker, ciphertexts, ciphertext_bytes
        )
        return EvaluationAction(worker, "reject-quality", quality, transaction)

    def _send_outrange(
        self,
        worker: Address,
        index: int,
        ciphertext: Ciphertext,
        full_vector: bytes,
    ) -> Transaction:
        claim, proof = prove_decryption(
            self.secret_key, ciphertext, self.task.parameters.answer_range
        )
        chunk = full_vector[index * CIPHERTEXT_BYTES : (index + 1) * CIPHERTEXT_BYTES]
        payload = (
            worker.value
            + int_to_bytes(index, 4)
            + (int_to_bytes(claim, 33) if isinstance(claim, int) else claim.to_bytes())
            + proof.to_bytes()
            + chunk
        )
        return self.chain.send(
            self.address,
            self.contract_name,
            "outrange",
            args=(worker, index, claim, proof, chunk),
            payload=payload,
        )

    def _send_quality_rejection(
        self,
        worker: Address,
        ciphertexts: Sequence[Ciphertext],
        full_vector: bytes,
    ) -> Transaction:
        quality, proof, gold_chunks, payload = self._quality_rejection_material(
            worker, ciphertexts, full_vector
        )
        return self.chain.send(
            self.address,
            self.contract_name,
            "evaluate",
            args=(worker, quality, proof, gold_chunks),
            payload=payload,
        )

    def make_quality_proof(
        self, ciphertexts: Sequence[Ciphertext]
    ) -> Tuple[int, QualityProof]:
        """Produce the PoQoEA proof for one submission (hook for attacks)."""
        return prove_quality(
            self.secret_key,
            list(ciphertexts),
            self.task.gold_indexes,
            self.task.gold_answers,
            list(self.task.parameters.answer_range),
        )

    def send_finalize(self) -> Transaction:
        """Poke the contract to settle (anyone may; usually the requester)."""
        assert self.contract_name is not None
        return self.chain.send(
            self.address, self.contract_name, "finalize", args=(), payload=b""
        )

    def send_cancel(self) -> Transaction:
        """Reclaim the budget of a task whose commit phase never filled."""
        assert self.contract_name is not None
        return self.chain.send(
            self.address, self.contract_name, "cancel", args=(), payload=b""
        )
