"""Cryptographic substrate: everything Dragoon's protocol layer builds on.

All primitives are implemented from scratch in pure Python:

* :mod:`repro.crypto.keccak` — keccak-256 (Ethereum's hash).
* :mod:`repro.crypto.random_oracle` — programmable global random oracle.
* :mod:`repro.crypto.field` / :mod:`repro.crypto.curve` — BN-128 G1.
* :mod:`repro.crypto.tower` / :mod:`repro.crypto.g2` /
  :mod:`repro.crypto.pairing` — the full pairing (for the SNARK baseline).
* :mod:`repro.crypto.elgamal` — exponential ElGamal for short plaintexts.
* :mod:`repro.crypto.schnorr` — Schnorr & Chaum–Pedersen sigma protocols.
* :mod:`repro.crypto.vpke` — verifiable decryption (paper §V-C).
* :mod:`repro.crypto.poqoea` — proof of quality of encrypted answers
  (paper §V-A, the core contribution).
* :mod:`repro.crypto.commitment` — ROM hash commitments.
"""

from repro.crypto.keccak import keccak256, keccak256_hex, keccak_to_int
from repro.crypto.random_oracle import RandomOracle, default_oracle
from repro.crypto.field import FIELD_MODULUS, CURVE_ORDER, Fq, Fr, make_prime_field
from repro.crypto.curve import (
    G1Point,
    GENERATOR,
    fixed_base_cache_info,
    msm,
    precompute_base,
    random_scalar,
)
from repro.crypto.elgamal import (
    Ciphertext,
    ElGamalPublicKey,
    ElGamalSecretKey,
    keygen,
)
from repro.crypto.commitment import Commitment, commit, open_commitment, generate_key
from repro.crypto.schnorr import (
    SchnorrProof,
    schnorr_prove,
    schnorr_verify,
    schnorr_verify_batch,
    ChaumPedersenProof,
    chaum_pedersen_prove,
    chaum_pedersen_verify,
    chaum_pedersen_verify_batch,
)
from repro.crypto.vpke import (
    DecryptionProof,
    prove_decryption,
    verify_decryption,
    verify_decryption_batch,
    simulate_proof,
)
from repro.crypto.poqoea import (
    QualityProof,
    MismatchEntry,
    QualityStatement,
    compute_quality,
    prove_quality,
    verify_quality,
    verify_quality_proofs_batch,
    simulate_quality_proof,
    sample_gold_standard,
)

__all__ = [
    "keccak256",
    "keccak256_hex",
    "keccak_to_int",
    "RandomOracle",
    "default_oracle",
    "FIELD_MODULUS",
    "CURVE_ORDER",
    "Fq",
    "Fr",
    "make_prime_field",
    "G1Point",
    "GENERATOR",
    "fixed_base_cache_info",
    "msm",
    "precompute_base",
    "random_scalar",
    "Ciphertext",
    "ElGamalPublicKey",
    "ElGamalSecretKey",
    "keygen",
    "Commitment",
    "commit",
    "open_commitment",
    "generate_key",
    "SchnorrProof",
    "schnorr_prove",
    "schnorr_verify",
    "schnorr_verify_batch",
    "ChaumPedersenProof",
    "chaum_pedersen_prove",
    "chaum_pedersen_verify",
    "chaum_pedersen_verify_batch",
    "DecryptionProof",
    "prove_decryption",
    "verify_decryption",
    "verify_decryption_batch",
    "simulate_proof",
    "QualityProof",
    "MismatchEntry",
    "QualityStatement",
    "compute_quality",
    "prove_quality",
    "verify_quality",
    "verify_quality_proofs_batch",
    "simulate_quality_proof",
    "sample_gold_standard",
]
