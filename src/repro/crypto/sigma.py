"""The interactive sigma protocol underlying VPKE (3-move form).

:mod:`repro.crypto.vpke` ships the Fiat–Shamir-compiled proof the
contract verifies.  This module exposes the *interactive* protocol it
compiles from, because the paper's zero-knowledge argument is clearest
there:

* **move 1** (prover → verifier): commitments ``A = c1^x``, ``B = g^x``;
* **move 2** (verifier → prover): a random challenge ``C``;
* **move 3** (prover → verifier): the response ``Z = x + k·C``.

Three properties, each checkable in code:

* *completeness* — honest transcripts verify;
* *special soundness* — two accepting transcripts with the same first
  move and different challenges yield the secret key
  (:func:`extract_secret`), which is exactly why a cheating prover
  cannot answer more than one challenge;
* *honest-verifier zero-knowledge* — transcripts can be simulated in
  reverse (challenge first) with a distribution identical to real ones
  (:func:`simulate_transcript`), **without** programming any oracle —
  the interactive setting needs no such power.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.crypto.curve import CURVE_ORDER, G1Point, random_scalar
from repro.crypto.elgamal import Ciphertext, ElGamalPublicKey, ElGamalSecretKey
from repro.crypto.vpke import Claim, _claim_power, fold_dh_checks
from repro.errors import ProofError

_G = G1Point.generator()


@dataclass(frozen=True)
class SigmaTranscript:
    """A complete 3-move transcript ``(A, B, C, Z)``."""

    commitment_a: G1Point
    commitment_b: G1Point
    challenge: int
    response: int


class SigmaProver:
    """The prover's side of one interactive session."""

    def __init__(
        self, secret_key: ElGamalSecretKey, ciphertext: Ciphertext
    ) -> None:
        self._secret_key = secret_key
        self._ciphertext = ciphertext
        self._nonce: int = 0

    def move1(self) -> Tuple[G1Point, G1Point]:
        """First move: fresh commitments."""
        self._nonce = random_scalar()
        return (
            self._ciphertext.c1 * self._nonce,
            _G.mul_fixed(self._nonce),
        )

    def move3(self, challenge: int) -> int:
        """Third move: the response to the verifier's challenge."""
        if not self._nonce:
            raise ProofError("move1 must precede move3")
        return (self._nonce + self._secret_key.k * challenge) % CURVE_ORDER


def fresh_challenge() -> int:
    """The honest verifier's move 2: a uniform challenge."""
    return secrets.randbelow(CURVE_ORDER)


def verify_transcript(
    public_key: ElGamalPublicKey,
    claim: Claim,
    ciphertext: Ciphertext,
    transcript: SigmaTranscript,
) -> bool:
    """The verifier's final check (same two equations as VPKE)."""
    challenge = transcript.challenge
    lhs_dec = _claim_power(claim, challenge) + ciphertext.c1 * transcript.response
    rhs_dec = transcript.commitment_a + ciphertext.c2 * challenge
    if lhs_dec != rhs_dec:
        return False
    lhs_key = _G.mul_fixed(transcript.response)
    rhs_key = transcript.commitment_b + public_key.h.mul_fixed(challenge)
    return lhs_key == rhs_key


def verify_transcripts_batch(
    public_key: ElGamalPublicKey,
    statements: Sequence[Tuple[Claim, Ciphertext, SigmaTranscript]],
) -> bool:
    """Batch-verify many completed sigma transcripts with one MSM.

    Same random-linear-combination fold as the non-interactive
    :func:`repro.crypto.vpke.verify_decryption_batch` (shared via
    :func:`repro.crypto.vpke.fold_dh_checks`), but the challenge comes
    from the transcript (the verifier chose it) instead of the random
    oracle.  Equivalent to ``all(verify_transcript(...))`` up to
    ``2^-128`` soundness error.
    """
    return fold_dh_checks(
        public_key,
        [
            (claim, ciphertext, transcript.commitment_a,
             transcript.commitment_b, transcript.challenge,
             transcript.response)
            for claim, ciphertext, transcript in statements
        ],
    )


def run_interactive(
    secret_key: ElGamalSecretKey,
    ciphertext: Ciphertext,
    claim: Claim,
    challenge: int = None,
) -> SigmaTranscript:
    """Run one honest session and return the transcript."""
    prover = SigmaProver(secret_key, ciphertext)
    commitment_a, commitment_b = prover.move1()
    if challenge is None:
        challenge = fresh_challenge()
    response = prover.move3(challenge)
    return SigmaTranscript(commitment_a, commitment_b, challenge, response)


def extract_secret(
    first: SigmaTranscript, second: SigmaTranscript
) -> int:
    """Special soundness: two accepting transcripts sharing move 1 but
    with distinct challenges reveal the secret key.

    ``k = (Z1 - Z2) / (C1 - C2)`` — the knowledge extractor of the
    soundness proof.
    """
    if (
        first.commitment_a != second.commitment_a
        or first.commitment_b != second.commitment_b
    ):
        raise ProofError("transcripts must share the first move")
    if first.challenge == second.challenge:
        raise ProofError("challenges must differ for extraction")
    numerator = (first.response - second.response) % CURVE_ORDER
    denominator = (first.challenge - second.challenge) % CURVE_ORDER
    return numerator * pow(denominator, -1, CURVE_ORDER) % CURVE_ORDER


def simulate_transcript(
    public_key: ElGamalPublicKey,
    claim: Claim,
    ciphertext: Ciphertext,
    challenge: int = None,
) -> SigmaTranscript:
    """Honest-verifier ZK simulator: sample (C, Z) first, solve for
    (A, B).  The output distribution equals the real one on true
    statements — no random-oracle programming required interactively.
    """
    if challenge is None:
        challenge = fresh_challenge()
    response = random_scalar()
    commitment_a = (
        _claim_power(claim, challenge)
        + ciphertext.c1 * response
        - ciphertext.c2 * challenge
    )
    commitment_b = _G.mul_fixed(response) - public_key.h.mul_fixed(challenge)
    return SigmaTranscript(commitment_a, commitment_b, challenge, response)
