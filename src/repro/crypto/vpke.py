"""VPKE — verifiable decryption of exponential ElGamal (paper §V-C).

This is the workhorse primitive of Dragoon: the requester decrypts a
ciphertext ``(c1, c2)`` and proves the decryption correct with a Schnorr
variant for Diffie–Hellman tuples, Fiat–Shamir compiled.  Following the
paper exactly:

``ProvePKE_k((c1, c2))``
    Decrypt to ``m`` (or to the bare group element ``g^m`` when the
    plaintext is out of range).  Sample ``x``; compute ``A = c1^x``,
    ``B = g^x``, ``C = H(A‖B‖g‖h‖c1‖c2‖g^m)``, ``Z = x + k·C``.
    The proof is ``(A, B, Z)``.

``VerifyPKE_h(M, (c1, c2), (A, B, Z))``
    Recompute ``C'`` and check ``g^{M·C'} · c1^Z == A · c2^{C'}`` and
    ``g^Z == B · h^{C'}`` (with ``g^{M·C'}`` replaced by ``M^{C'}`` when
    ``M`` is a group element).

The second equation proves ``(g, h, B, ·)`` knowledge of ``k``; the first
transfers it onto the tuple ``(c1, c2/g^m)``, i.e. correct decryption.

Zero-knowledge: :func:`simulate_proof` forges accepting proofs for true
statements *without* ``k`` by programming the random oracle — this is the
simulator ``S_VPKE`` invoked by the paper's Lemma 1 and Theorem 1.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union

from repro.crypto.curve import CURVE_ORDER, G1Point, msm, random_scalar
from repro.crypto.elgamal import (
    Ciphertext,
    ElGamalPublicKey,
    ElGamalSecretKey,
    keygen,
)
from repro.crypto.random_oracle import RandomOracle, default_oracle
from repro.errors import ProofError

_G = G1Point.generator()

#: A claimed plaintext: an in-range integer or a bare group element.
Claim = Union[int, G1Point]


@dataclass(frozen=True)
class DecryptionProof:
    """The paper's VPKE proof ``pi = (A, B, Z)``."""

    commitment_a: G1Point
    commitment_b: G1Point
    response: int

    def to_bytes(self) -> bytes:
        return (
            self.commitment_a.to_bytes()
            + self.commitment_b.to_bytes()
            + self.response.to_bytes(32, "big")
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "DecryptionProof":
        if len(data) != 160:
            raise ValueError("VPKE proofs encode to 160 bytes")
        return cls(
            G1Point.from_bytes(data[:64]),
            G1Point.from_bytes(data[64:128]),
            int.from_bytes(data[128:], "big"),
        )


def _claim_point(claim: Claim) -> G1Point:
    """The group element the proof's hash input commits to (``g^m`` or M)."""
    if isinstance(claim, int):
        return _G.mul_fixed(claim)
    return claim


def _claim_power(claim: Claim, exponent: int) -> G1Point:
    """``g^{m * exponent}`` in one fixed-base multiplication by
    ``m * exponent mod r``, or ``M^exponent`` for a group element."""
    if isinstance(claim, int):
        return _G.mul_fixed(claim * exponent % CURVE_ORDER)
    return claim * exponent


def _transcript(
    claim: Claim,
    ciphertext: Ciphertext,
    public_key: ElGamalPublicKey,
    commitment_a: G1Point,
    commitment_b: G1Point,
) -> bytes:
    return (
        b"vpke"
        + commitment_a.to_bytes()
        + commitment_b.to_bytes()
        + _G.to_bytes()
        + public_key.to_bytes()
        + ciphertext.c1.to_bytes()
        + ciphertext.c2.to_bytes()
        + _claim_point(claim).to_bytes()
    )


def prove_decryption(
    secret_key: ElGamalSecretKey,
    ciphertext: Ciphertext,
    message_range: Iterable[int],
    oracle: Optional[RandomOracle] = None,
) -> Tuple[Claim, DecryptionProof]:
    """Decrypt and prove: returns ``(m, pi)`` or ``(g^m, pi)`` if out of range."""
    ro = oracle if oracle is not None else default_oracle()
    claim = secret_key.decrypt(ciphertext, message_range)
    public_key = secret_key.public_key

    x = random_scalar()
    commitment_a = ciphertext.c1 * x
    commitment_b = _G.mul_fixed(x)
    challenge = ro.query_int(
        _transcript(claim, ciphertext, public_key, commitment_a, commitment_b),
        CURVE_ORDER,
    )
    response = (x + secret_key.k * challenge) % CURVE_ORDER
    return claim, DecryptionProof(commitment_a, commitment_b, response)


def verify_decryption(
    public_key: ElGamalPublicKey,
    claim: Claim,
    ciphertext: Ciphertext,
    proof: DecryptionProof,
    oracle: Optional[RandomOracle] = None,
) -> bool:
    """Verify a VPKE proof that ``claim`` is the decryption of ``ciphertext``."""
    ro = oracle if oracle is not None else default_oracle()
    challenge = ro.query_int(
        _transcript(
            claim, ciphertext, public_key, proof.commitment_a, proof.commitment_b
        ),
        CURVE_ORDER,
    )
    # g^{m C'} · c1^Z == A · c2^{C'}   (correct decryption)
    lhs_dec = _claim_power(claim, challenge) + ciphertext.c1 * proof.response
    rhs_dec = proof.commitment_a + ciphertext.c2 * challenge
    if lhs_dec != rhs_dec:
        return False

    # g^Z == B · h^{C'}   (knowledge of the secret key)
    lhs_key = _G.mul_fixed(proof.response)
    rhs_key = proof.commitment_b + public_key.h.mul_fixed(challenge)
    return lhs_key == rhs_key


def simulate_proof(
    public_key: ElGamalPublicKey,
    claim: Claim,
    ciphertext: Ciphertext,
    oracle: Optional[RandomOracle] = None,
) -> DecryptionProof:
    """Forge an accepting proof for a *true* statement without the key.

    This is the zero-knowledge simulator ``S_VPKE``: sample the challenge
    and response first, solve for the commitments, then program the random
    oracle so the Fiat–Shamir challenge comes out right.  Only sound to
    call on true statements; the forged proof is indistinguishable from an
    honest one.
    """
    from repro.crypto.rng import entropy

    ro = oracle if oracle is not None else default_oracle()
    challenge = entropy.randbelow(CURVE_ORDER)
    response = random_scalar()

    commitment_a = (
        _claim_power(claim, challenge)
        + ciphertext.c1 * response
        - ciphertext.c2 * challenge
    )
    commitment_b = _G.mul_fixed(response) - public_key.h.mul_fixed(challenge)

    transcript = _transcript(
        claim, ciphertext, public_key, commitment_a, commitment_b
    )
    ro.program(transcript, challenge.to_bytes(32, "big"))
    return DecryptionProof(commitment_a, commitment_b, response)


def verify_decryption_batch(
    public_key: ElGamalPublicKey,
    statements: "list[tuple[Claim, Ciphertext, DecryptionProof]]",
    oracle: Optional[RandomOracle] = None,
) -> bool:
    """Small-exponent batch verification of many VPKE proofs.

    An extension beyond the paper: a PoQoEA proof carries one VPKE proof
    per mismatch, and the verifier's two group equations per proof can
    be folded into one random linear combination with independent
    128-bit weights ``u_i`` (decryption equation) and ``v_i`` (key
    equation):

        sum_i [ u_i·(C_i·M_i + Z_i·c1_i − A_i − C_i·c2_i)
              + v_i·(Z_i·G − B_i − C_i·h) ]  ==  O

    The whole sum is evaluated as a *single* multi-scalar
    multiplication (:func:`repro.crypto.curve.msm`): the ``G`` and ``h``
    terms collapse to one point each, and the remaining ``5n`` terms go
    through the Pippenger bucket method instead of ``6n`` independent
    double-and-add multiplications.  An integer claim's ``M_i = g^m``
    joins the ``G`` term as ``u_i·C_i·m``, so it adds no term of its
    own.  Soundness error is ``2^-128`` per run by the standard
    small-exponent argument.
    """
    ro = oracle if oracle is not None else default_oracle()
    checks = []
    for claim, ciphertext, proof in statements:
        challenge = ro.query_int(
            _transcript(
                claim, ciphertext, public_key,
                proof.commitment_a, proof.commitment_b,
            ),
            CURVE_ORDER,
        )
        checks.append(
            (claim, ciphertext, proof.commitment_a, proof.commitment_b,
             challenge, proof.response)
        )
    return fold_dh_checks(public_key, checks)


def fold_dh_checks(
    public_key: ElGamalPublicKey,
    checks: "list[tuple[Claim, Ciphertext, G1Point, G1Point, int, int]]",
) -> bool:
    """One MSM over many DH-tuple verification equations.

    Each check ``(claim, ciphertext, A, B, challenge, response)`` stands
    for the VPKE verifier's two equations; where the challenge came from
    (Fiat–Shamir or an interactive verifier) is the caller's business.
    This is the single sign-sensitive implementation of the fold both
    :func:`verify_decryption_batch` and
    :func:`repro.crypto.sigma.verify_transcripts_batch` ride on.
    """
    if not checks:
        return True
    points: "list[G1Point]" = []
    scalars: "list[int]" = []
    generator_scalar = 0
    pubkey_scalar = 0
    from repro.crypto.rng import entropy

    for claim, ciphertext, commitment_a, commitment_b, challenge, response in checks:
        dec_weight = entropy.getrandbits(128) | 1
        key_weight = entropy.getrandbits(128) | 1
        if isinstance(claim, int):
            generator_scalar += dec_weight * challenge * claim
        else:
            points.append(claim)
            scalars.append(dec_weight * challenge)
        points.extend(
            (ciphertext.c1, ciphertext.c2, commitment_a, commitment_b)
        )
        scalars.extend(
            (
                dec_weight * response,
                -dec_weight * challenge,
                -dec_weight,
                -key_weight,
            )
        )
        generator_scalar += key_weight * response
        pubkey_scalar -= key_weight * challenge
    points.extend((_G, public_key.h))
    scalars.extend((generator_scalar, pubkey_scalar))
    return msm(points, scalars).is_infinity


def self_test() -> None:
    """Quick prove/verify round trip (used by examples as a sanity check)."""
    pk, sk = keygen()
    ciphertext = pk.encrypt(1)
    claim, proof = prove_decryption(sk, ciphertext, range(2))
    if claim != 1 or not verify_decryption(pk, claim, ciphertext, proof):
        raise ProofError("VPKE self-test failed")
