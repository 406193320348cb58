"""The HIT contract C_hit (paper Fig. 4), as a gas-metered simulated contract.

The contract is the on-chain referee of the protocol.  Its life cycle:

* **Publish (deploy)** — the requester deploys with the public task
  parameters, her ElGamal public key ``h``, the gold-standard commitment
  ``commgs``, and the Swarm digest of the question blob; the budget ``B``
  is frozen from her ledger balance.
* **Commit** — workers submit commitments to their encrypted answers.
  Duplicate commitments (the copy-paste attack) and double commits are
  rejected.  When ``K`` distinct commitments arrive the reveal window
  opens (one clock period).
* **Reveal** — committed workers open their commitments to the actual
  ciphertext vectors.  The contract stores only *per-question keccak
  hashes* of the ciphertexts (the paper's storage optimization) and emits
  the full ciphertexts as an event for off-chain consumption.
* **Evaluate** — the requester opens ``commgs`` to reveal ``(G, Gs)``
  (publicly auditable gold standards), then may reject a worker either
  with a PoQoEA proof (quality below Θ) or an out-of-range verifiable
  decryption.  Per Fig. 4, a *bogus* rejection attempt results in the
  worker being paid — cheating requesters pay full price.
* **Finalize** — after the evaluation window, every revealed worker not
  validly rejected is paid ``B/K``; leftover escrow returns to the
  requester.  If the requester never opened the golds, *everyone* is
  paid (the anti-false-reporting default).

Phase boundaries follow the synchronous model: the deadline for each
phase is fixed when the previous phase completes, so a lagging requester
or worker cannot stall the task.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.chain.contract import CallContext, Contract
from repro.crypto.commitment import Commitment, open_commitment
from repro.crypto.elgamal import Ciphertext, ElGamalPublicKey
from repro.crypto.keccak import keccak256_many
from repro.crypto.poqoea import QualityProof
from repro.crypto.vpke import (
    Claim,
    DecryptionProof,
    verify_decryption,
    verify_decryption_batch,
)
from repro.core.task import TaskParameters, parse_golden_blob
from repro.errors import ContractError
from repro.ledger.accounts import Address

# Phase constants (stored values; the effective phase is time-dependent).
PHASE_COMMIT = 1
PHASE_REVEAL = 2
PHASE_EVALUATE = 3
PHASE_DONE = 4


def effective_phase(
    finalized: Any, reveal_deadline: Optional[int], period: int
) -> int:
    """The live phase of a task from its storage and the clock.

    The one phase rule: the contract derives the phase it enforces from
    it, and the light client derives the phase it verifies from the
    same three provable inputs — the ``finalized`` flag, the
    ``reveal_deadline`` (``None`` until the commit phase fills), and the
    current clock ``period``.
    """
    if finalized:
        return PHASE_DONE
    if reveal_deadline is None:
        return PHASE_COMMIT
    if period <= reveal_deadline:
        return PHASE_REVEAL
    if period <= reveal_deadline + 1:
        return PHASE_EVALUATE
    return PHASE_DONE  # only finalize remains


CIPHERTEXT_BYTES = 128

#: Gas profile of one on-chain VPKE verification: the two Schnorr-variant
#: equations cost six ecMul and three ecAdd plus the Fiat–Shamir keccak
#: over the ~450-byte transcript.
_VPKE_TRANSCRIPT_BYTES = 452


class HITContract(Contract):
    """The smart contract of Fig. 4."""

    def __init__(self, name: str) -> None:
        super().__init__(name)

    # ------------------------------------------------------------------
    # Phase 1: publish (the deployment transaction)
    # ------------------------------------------------------------------

    def on_deploy(self, ctx: CallContext) -> None:
        params_json, pubkey_bytes, commgs_digest, task_digest = ctx.args
        parameters = TaskParameters.from_json(params_json)

        # Freeze the requester's budget; abort the publish on nofund.
        frozen = ctx.ledger.freeze(
            self.address, ctx.sender, parameters.budget, memo="task budget"
        )
        ctx.require(frozen, "requester cannot cover the budget B")
        ctx.meter.charge_value_transfer()

        # Parameter storage: N/B/K/range/Θ pack into two slots, the
        # public key takes two, commitments/digests one each.
        self._sstore(ctx, "params", params_json)
        self._sstore(ctx, "params2", (parameters.num_golds, parameters.quality_threshold))
        self._sstore(ctx, "requester", ctx.sender)
        self._sstore(ctx, "pubkey_x", pubkey_bytes[:32])
        self._sstore(ctx, "pubkey_y", pubkey_bytes[32:])
        self._sstore(ctx, "commgs", commgs_digest)
        self._sstore(ctx, "task_digest", task_digest)
        self._sstore(ctx, "phase", PHASE_COMMIT)

        self.emit(
            ctx,
            "published",
            data=ctx.payload,
            topics=(ctx.sender.value,),
            payload={
                "requester": ctx.sender,
                "parameters": parameters,
                "pubkey": pubkey_bytes,
                "commgs": commgs_digest,
                "task_digest": task_digest,
            },
        )

    # ------------------------------------------------------------------
    # Effective phase computation
    # ------------------------------------------------------------------

    def _parameters(self) -> TaskParameters:
        return TaskParameters.from_json(self._memory_read("params"))

    def _effective_phase(self, period: int) -> int:
        return effective_phase(
            self._memory_read("finalized"),
            self._memory_read("reveal_deadline"),
            period,
        )

    def _require_phase(self, ctx: CallContext, phase: int, action: str) -> None:
        ctx.meter.charge_sload(2)  # deadline + finalized flags
        current = self._effective_phase(ctx.period)
        ctx.require(
            current == phase,
            "%s is only valid in phase %d (current %d)" % (action, phase, current),
        )

    # ------------------------------------------------------------------
    # Phase 2-a: commit
    # ------------------------------------------------------------------

    def commit(self, ctx: CallContext) -> None:
        (digest,) = ctx.args
        ctx.require(isinstance(digest, bytes) and len(digest) == 32,
                    "commitments are 32-byte digests")
        self._require_phase(ctx, PHASE_COMMIT, "commit")
        ctx.require(ctx.sender != self._memory_read("requester"),
                    "the requester cannot pose as a worker")

        # Reject duplicated commitments (copy-paste) and double commits.
        duplicate_owner = self._sload(ctx, "comm:" + digest.hex())
        ctx.require(duplicate_owner is None, "duplicate commitment rejected")
        existing = self._sload(ctx, "comm_of:" + ctx.sender.hex())
        ctx.require(existing is None, "worker already committed")

        self._sstore(ctx, "comm:" + digest.hex(), ctx.sender)
        self._sstore(ctx, "comm_of:" + ctx.sender.hex(), digest)

        workers: List[Address] = list(self._memory_read("workers", []))
        workers.append(ctx.sender)
        self._sstore(ctx, "workers", workers)

        count = len(workers)
        self.emit(
            ctx,
            "committed",
            data=digest,
            topics=(ctx.sender.value,),
            payload={"worker": ctx.sender, "digest": digest, "count": count},
        )
        parameters = self._parameters()
        if count == parameters.num_workers:
            # The reveal window is the next clock period.
            self._sstore(ctx, "reveal_deadline", ctx.period + 1)
            self.emit(
                ctx,
                "all_committed",
                payload={"workers": workers, "reveal_deadline": ctx.period + 1},
            )

    # ------------------------------------------------------------------
    # Phase 2-b: reveal
    # ------------------------------------------------------------------

    def reveal(self, ctx: CallContext) -> None:
        ciphertext_bytes, blinding_key = ctx.args
        self._require_phase(ctx, PHASE_REVEAL, "reveal")
        commitment_digest = self._sload(ctx, "comm_of:" + ctx.sender.hex())
        ctx.require(commitment_digest is not None, "no commitment from this worker")
        ctx.require(
            self._memory_read("revealed:" + ctx.sender.hex()) is None,
            "worker already revealed",
        )

        # Check the commitment opening.
        ctx.meter.charge_keccak(len(ciphertext_bytes) + len(blinding_key))
        opened = open_commitment(
            Commitment(commitment_digest), ciphertext_bytes, blinding_key
        )
        ctx.require(opened, "commitment opening failed")

        parameters = self._parameters()
        expected = parameters.num_questions * CIPHERTEXT_BYTES
        ctx.require(
            len(ciphertext_bytes) == expected,
            "answer vector must encode %d ciphertexts" % parameters.num_questions,
        )

        # Store one keccak hash per question ciphertext (the paper's
        # storage optimization: hashes on-chain, bodies in the event log).
        # The equal-length chunks hash in one pass; gas is charged per
        # chunk, interleaved with the stores.
        digests = keccak256_many([
            ciphertext_bytes[start : start + CIPHERTEXT_BYTES]
            for start in range(0, expected, CIPHERTEXT_BYTES)
        ])
        for index, digest in enumerate(digests):
            ctx.meter.charge_keccak(CIPHERTEXT_BYTES)
            self._sstore(ctx, "cthash:%s:%d" % (ctx.sender.hex(), index), digest)

        self._sstore(ctx, "revealed:" + ctx.sender.hex(), True)
        self.emit(
            ctx,
            "revealed",
            data=ciphertext_bytes,
            topics=(ctx.sender.value,),
            payload={"worker": ctx.sender, "ciphertexts": ciphertext_bytes},
        )

    # ------------------------------------------------------------------
    # Phase 3: evaluate
    # ------------------------------------------------------------------

    def golden(self, ctx: CallContext) -> None:
        golden_blob, blinding_key = ctx.args
        self._require_phase(ctx, PHASE_EVALUATE, "golden")
        ctx.require(ctx.sender == self._memory_read("requester"),
                    "only the requester opens the gold standards")
        ctx.require(not self._memory_read("golden_opened"),
                    "gold standards already opened")

        commgs = self._sload(ctx, "commgs")
        ctx.meter.charge_keccak(len(golden_blob) + len(blinding_key))
        opened = open_commitment(Commitment(commgs), golden_blob, blinding_key)
        ctx.require(opened, "gold-standard opening failed")

        gold_indexes, gold_answers = parse_golden_blob(golden_blob)
        parameters = self._parameters()
        ctx.require(len(gold_indexes) == parameters.num_golds,
                    "gold set size disagrees with the published parameters")

        self._sstore(ctx, "golden_opened", True)
        self._sstore(ctx, "gold_indexes", gold_indexes)
        self._sstore(ctx, "gold_answers", gold_answers)
        self.emit(
            ctx,
            "golden_opened",
            data=golden_blob,
            payload={"G": gold_indexes, "Gs": gold_answers},
        )

    def _charge_vpke_verification(self, ctx: CallContext) -> None:
        """Gas for one on-chain VPKE verification (EIP-1108 prices)."""
        ctx.meter.charge_keccak(_VPKE_TRANSCRIPT_BYTES)
        ctx.meter.charge_ecmul(6)
        ctx.meter.charge_ecadd(3)

    def _charge_vpke_batch_verification(self, ctx: CallContext, count: int) -> None:
        """Gas for one random-linear-combination check over ``count`` proofs.

        Each proof still pays its Fiat–Shamir keccak, but the group work
        folds into one multi-scalar multiplication: 5 ecMul per proof
        (claim, c1, c2 and the two weighted commitments) plus 2 shared
        fixed-base terms for ``g`` and ``h``, against 6 ecMul + 3 ecAdd
        per proof sequentially.
        """
        if count == 0:
            return
        for _ in range(count):
            ctx.meter.charge_keccak(_VPKE_TRANSCRIPT_BYTES)
        ctx.meter.charge_ecmul(5 * count + 2)
        ctx.meter.charge_ecadd(6 * count + 1)

    def _public_key(self) -> ElGamalPublicKey:
        from repro.crypto.curve import G1Point

        pubkey_bytes = self._memory_read("pubkey_x") + self._memory_read("pubkey_y")
        return ElGamalPublicKey(G1Point.from_bytes(pubkey_bytes))

    def _check_ciphertext_against_stored_hash(
        self, ctx: CallContext, worker: Address, index: int, chunk: bytes
    ) -> Ciphertext:
        from repro.crypto.keccak import keccak256

        ctx.require(len(chunk) == CIPHERTEXT_BYTES, "ciphertexts are 128 bytes")
        stored = self._sload(ctx, "cthash:%s:%d" % (worker.hex(), index))
        ctx.require(stored is not None, "no stored hash for this position")
        ctx.meter.charge_keccak(CIPHERTEXT_BYTES)
        ctx.require(keccak256(chunk) == stored,
                    "ciphertext does not match the revealed submission")
        return Ciphertext.from_bytes(chunk)

    def evaluate(self, ctx: CallContext) -> None:
        """Reject (or inadvertently pay) a worker via a PoQoEA proof.

        Args: ``(worker, claimed_quality, proof, gold_ciphertexts)`` where
        ``gold_ciphertexts`` maps gold position -> the 128-byte ciphertext
        at that position of the worker's revealed vector.
        """
        worker, claimed_quality, proof, gold_ciphertexts = ctx.args
        self._require_phase(ctx, PHASE_EVALUATE, "evaluate")
        ctx.require(ctx.sender == self._memory_read("requester"),
                    "only the requester evaluates")
        ctx.require(bool(self._memory_read("golden_opened")),
                    "gold standards must be opened first")
        ctx.require(self._memory_read("revealed:" + worker.hex()) is not None,
                    "worker did not reveal")
        ctx.require(
            self._memory_read("adjudicated:" + worker.hex()) is None,
            "worker already adjudicated",
        )

        parameters = self._parameters()
        gold_indexes: List[int] = self._memory_read("gold_indexes")
        gold_answers: List[int] = self._memory_read("gold_answers")
        truth_by_index = dict(zip(gold_indexes, gold_answers))
        public_key = self._public_key()

        # Fig. 4: the worker is paid if χ ≥ Θ *or* the proof fails.
        def _proof_is_valid() -> bool:
            statements = self._screen_rejection(
                ctx, worker, claimed_quality, proof, gold_ciphertexts,
                truth_by_index, len(gold_indexes),
            )
            if statements is None:
                return False
            for claim, ciphertext, decryption_proof in statements:
                self._charge_vpke_verification(ctx)
                if not verify_decryption(
                    public_key, claim, ciphertext, decryption_proof
                ):
                    return False
            return True

        if claimed_quality >= parameters.quality_threshold or not _proof_is_valid():
            self._pay_worker(ctx, worker, parameters, verdict="paid-evaluate")
        else:
            self._sstore(ctx, "adjudicated:" + worker.hex(), "rejected-quality")
            self.emit(
                ctx,
                "evaluated",
                topics=(worker.value,),
                payload={"worker": worker, "quality": claimed_quality,
                         "verdict": "rejected"},
            )

    def evaluate_batch(self, ctx: CallContext) -> None:
        """Adjudicate many workers with one batched PoQoEA verification.

        Args: ``(rejections,)`` where ``rejections`` is a sequence of
        ``(worker, claimed_quality, proof, gold_ciphertexts)`` tuples,
        each shaped exactly like one :meth:`evaluate` call.

        Fig. 4 semantics are preserved per worker — a bogus rejection
        attempt pays that worker, a valid one rejects them — but all
        VPKE decryption proofs across the whole batch are verified in a
        single random-linear-combination check, so the group-operation
        gas is charged once for the batch (5 ecMul per proof + 2 shared
        fixed-base terms) instead of 6 ecMul + 3 ecAdd per proof.  If
        the combined check fails, the offending workers are localized
        with one per-worker batch check each (charged on top, exactly
        like the optimistic on-chain pattern).

        The whole transaction reverts if any named worker never
        revealed, was already adjudicated, or appears twice — those are
        caller errors, not proof defects.
        """
        (rejections,) = ctx.args
        self._require_phase(ctx, PHASE_EVALUATE, "evaluate_batch")
        ctx.require(ctx.sender == self._memory_read("requester"),
                    "only the requester evaluates")
        ctx.require(bool(self._memory_read("golden_opened")),
                    "gold standards must be opened first")

        parameters = self._parameters()
        gold_indexes: List[int] = self._memory_read("gold_indexes")
        gold_answers: List[int] = self._memory_read("gold_answers")
        truth_by_index = dict(zip(gold_indexes, gold_answers))
        public_key = self._public_key()

        seen_workers: set = set()
        for worker, _, _, _ in rejections:
            ctx.require(worker.hex() not in seen_workers,
                        "worker appears twice in the batch")
            seen_workers.add(worker.hex())
            ctx.require(self._memory_read("revealed:" + worker.hex()) is not None,
                        "worker did not reveal")
            ctx.require(
                self._memory_read("adjudicated:" + worker.hex()) is None,
                "worker already adjudicated",
            )

        # Structural screening (the cheap half of Fig. 3's verifier);
        # workers surviving it contribute their VPKE statements to the
        # combined check.
        pending: List[Tuple[Address, int, List[Tuple[Claim, Ciphertext,
                                                     DecryptionProof]]]] = []
        for worker, claimed_quality, proof, gold_ciphertexts in rejections:
            if claimed_quality >= parameters.quality_threshold:
                self._pay_worker(ctx, worker, parameters, verdict="paid-evaluate")
                continue
            statements = self._screen_rejection(
                ctx, worker, claimed_quality, proof, gold_ciphertexts,
                truth_by_index, len(gold_indexes),
            )
            if statements is None:
                self._pay_worker(ctx, worker, parameters, verdict="paid-evaluate")
            else:
                pending.append((worker, claimed_quality, statements))

        combined = [stmt for _, _, stmts in pending for stmt in stmts]
        self._charge_vpke_batch_verification(ctx, len(combined))
        if verify_decryption_batch(public_key, combined):
            verdict_of = {worker.hex(): True for worker, _, _ in pending}
        else:
            verdict_of = {}
            for worker, _, stmts in pending:
                self._charge_vpke_batch_verification(ctx, len(stmts))
                verdict_of[worker.hex()] = verify_decryption_batch(
                    public_key, stmts
                )

        rejected = 0
        for worker, claimed_quality, _ in pending:
            if not verdict_of[worker.hex()]:
                self._pay_worker(ctx, worker, parameters, verdict="paid-evaluate")
                continue
            rejected += 1
            self._sstore(ctx, "adjudicated:" + worker.hex(), "rejected-quality")
            self.emit(
                ctx,
                "evaluated",
                topics=(worker.value,),
                payload={"worker": worker, "quality": claimed_quality,
                         "verdict": "rejected"},
            )
        self.emit(
            ctx,
            "batch_evaluated",
            payload={
                "batch_size": len(rejections),
                "rejected": rejected,
                "proofs_verified": len(combined),
            },
        )

    def _screen_rejection(
        self,
        ctx: CallContext,
        worker: Address,
        claimed_quality: int,
        proof: Any,
        gold_ciphertexts: Dict[int, bytes],
        truth_by_index: Dict[int, int],
        num_golds: int,
    ) -> Optional[List[Tuple[Claim, Ciphertext, DecryptionProof]]]:
        """Everything :meth:`evaluate` checks *except* the VPKE proofs.

        Returns the VPKE statements still to be verified, or ``None``
        when the rejection is already bogus (which per Fig. 4 pays the
        worker).
        """
        if not isinstance(proof, QualityProof):
            return None
        seen: set = set()
        statements: List[Tuple[Claim, Ciphertext, DecryptionProof]] = []
        for entry in proof.entries:
            if entry.index in seen or entry.index not in truth_by_index:
                return None
            seen.add(entry.index)
            chunk = gold_ciphertexts.get(entry.index)
            if chunk is None:
                return None
            ciphertext = self._check_ciphertext_against_stored_hash(
                ctx, worker, entry.index, chunk
            )
            if entry.answer == truth_by_index[entry.index]:
                return None
            statements.append((entry.answer, ciphertext, entry.proof))
        if claimed_quality + len(statements) < num_golds:
            return None
        return statements

    def outrange(self, ctx: CallContext) -> None:
        """Reject a worker whose answer at ``index`` is outside the range.

        Args: ``(worker, index, claim, proof, ciphertext_bytes)``.  Per
        Fig. 4 the worker is paid if the revealed value is actually in
        range or the decryption proof fails.
        """
        worker, index, claim, proof, chunk = ctx.args
        self._require_phase(ctx, PHASE_EVALUATE, "outrange")
        ctx.require(ctx.sender == self._memory_read("requester"),
                    "only the requester disputes")
        ctx.require(bool(self._memory_read("golden_opened")),
                    "gold standards must be opened first")
        ctx.require(self._memory_read("revealed:" + worker.hex()) is not None,
                    "worker did not reveal")
        ctx.require(
            self._memory_read("adjudicated:" + worker.hex()) is None,
            "worker already adjudicated",
        )

        parameters = self._parameters()
        ciphertext = self._check_ciphertext_against_stored_hash(
            ctx, worker, index, chunk
        )
        self._charge_vpke_verification(ctx)

        claim_in_range = isinstance(claim, int) and claim in parameters.answer_range
        proof_valid = isinstance(proof, DecryptionProof) and verify_decryption(
            self._public_key(), claim, ciphertext, proof
        )
        if claim_in_range or not proof_valid:
            self._pay_worker(ctx, worker, parameters, verdict="paid-outrange")
        else:
            self._sstore(ctx, "adjudicated:" + worker.hex(), "rejected-outrange")
            self.emit(
                ctx,
                "outranged",
                topics=(worker.value,),
                payload={"worker": worker, "index": index, "value": claim},
            )

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def finalize(self, ctx: CallContext) -> None:
        """Settle the task after the evaluation window (callable by anyone).

        Pays every revealed, un-adjudicated worker (this covers both the
        honest default and the silent-requester case) and refunds the
        leftover escrow to the requester.
        """
        ctx.meter.charge_sload(2)
        ctx.require(not self._memory_read("finalized"), "already finalized")
        reveal_deadline = self._memory_read("reveal_deadline")
        ctx.require(reveal_deadline is not None, "task never filled its commits")
        ctx.require(
            ctx.period > reveal_deadline + 1,
            "the evaluation window is still open",
        )

        parameters = self._parameters()
        workers: List[Address] = list(self._memory_read("workers", []))
        for worker in workers:
            revealed = self._memory_read("revealed:" + worker.hex())
            adjudicated = self._memory_read("adjudicated:" + worker.hex())
            ctx.meter.charge_sload(2)
            if revealed and adjudicated is None:
                self._pay_worker(ctx, worker, parameters, verdict="paid-default")

        leftover = ctx.ledger.escrow_of(self.address)
        if leftover:
            requester = self._memory_read("requester")
            ctx.ledger.pay(self.address, requester, leftover, memo="budget refund")
            ctx.meter.charge_value_transfer()

        self._sstore(ctx, "finalized", True)
        self.emit(ctx, "finalized", payload={"workers": workers})

    def cancel(self, ctx: CallContext) -> None:
        """Refund a task whose commit phase never filled (extension).

        Fig. 4 leaves an unfilled task implicit; without this path a
        commit-phase griefing attack (e.g. a front-runner burning a
        worker slot with an unopenable copied commitment) would lock the
        requester's budget forever.  Only the requester may cancel, only
        while the commit phase is still open, and only after at least
        two full clock periods have passed since publication.
        """
        ctx.require(ctx.sender == self._memory_read("requester"),
                    "only the requester cancels")
        self._require_phase(ctx, PHASE_COMMIT, "cancel")
        ctx.require(ctx.period >= 2, "cancellation window not reached")

        leftover = ctx.ledger.escrow_of(self.address)
        if leftover:
            ctx.ledger.pay(self.address, ctx.sender, leftover, memo="cancelled")
            ctx.meter.charge_value_transfer()
        self._sstore(ctx, "finalized", True)
        self.emit(ctx, "cancelled", payload={"refund": leftover})

    def _pay_worker(
        self,
        ctx: CallContext,
        worker: Address,
        parameters: TaskParameters,
        verdict: str,
    ) -> None:
        ctx.ledger.pay(
            self.address, worker, parameters.reward_per_worker, memo=verdict
        )
        ctx.meter.charge_value_transfer()
        self._sstore(ctx, "adjudicated:" + worker.hex(), verdict)
        self.emit(
            ctx,
            "paid",
            topics=(worker.value,),
            payload={"worker": worker, "amount": parameters.reward_per_worker,
                     "verdict": verdict},
        )

    # ------------------------------------------------------------------
    # Off-chain observation helpers (gas-free; clients and tests)
    # ------------------------------------------------------------------

    def verdict_of(self, worker: Address) -> Optional[str]:
        return self._memory_read("adjudicated:" + worker.hex())

    def committed_workers(self) -> List[Address]:
        return list(self._memory_read("workers", []))

    def is_finalized(self) -> bool:
        return bool(self._memory_read("finalized"))
