"""The programmable random oracle: defaults, programming, consistency."""

import pytest

from repro.crypto.commitment import commit, open_commitment
from repro.crypto.elgamal import keygen
from repro.crypto.keccak import keccak256
from repro.crypto.random_oracle import (
    OracleConsistencyError,
    RandomOracle,
    default_oracle,
)
from repro.crypto.vpke import prove_decryption, simulate_proof, verify_decryption
from repro.errors import CryptoError


def test_unprogrammed_query_is_keccak():
    oracle = RandomOracle()
    assert oracle.query(b"hello") == keccak256(b"hello")


def test_query_int_reduces_mod():
    oracle = RandomOracle()
    assert oracle.query_int(b"x", 97) == int.from_bytes(keccak256(b"x"), "big") % 97


def test_programming_overrides_answer():
    oracle = RandomOracle()
    answer = b"\x42" * 32
    oracle.program(b"point", answer)
    assert oracle.query(b"point") == answer
    assert oracle.is_programmed(b"point")


def test_programming_requires_32_bytes():
    oracle = RandomOracle()
    with pytest.raises(CryptoError):
        oracle.program(b"point", b"short")


def test_cannot_reprogram_observed_point():
    oracle = RandomOracle()
    oracle.query(b"seen")
    with pytest.raises(OracleConsistencyError):
        oracle.program(b"seen", b"\x01" * 32)


def test_reprogramming_same_answer_is_idempotent():
    oracle = RandomOracle()
    answer = b"\x07" * 32
    oracle.program(b"p", answer)
    oracle.program(b"p", answer)  # no error
    assert oracle.query(b"p") == answer


def test_conflicting_programming_rejected():
    oracle = RandomOracle()
    oracle.program(b"p", b"\x01" * 32)
    with pytest.raises(OracleConsistencyError):
        oracle.program(b"p", b"\x02" * 32)


def test_programming_observed_point_with_its_real_answer_is_fine():
    oracle = RandomOracle()
    real = oracle.query(b"q")
    oracle.program(b"q", real)
    assert oracle.query(b"q") == real


def test_reset_clears_programming():
    oracle = RandomOracle()
    oracle.program(b"p", b"\x01" * 32)
    oracle.reset()
    assert not oracle.is_programmed(b"p")
    assert oracle.query(b"p") == keccak256(b"p")


def test_default_oracle_is_singleton():
    assert default_oracle() is default_oracle()


def test_the_default_oracle_records_nothing():
    """The process-wide oracle answers every commitment, opening and
    Fiat–Shamir transcript of a node's life; it must not keep them."""
    oracle = default_oracle()
    public_key, secret_key = keygen()
    for index in range(300):
        message = b"answer-%d" % index
        commitment, key = commit(message)
        assert open_commitment(commitment, message, key)
    for index in range(20):
        ciphertext = public_key.encrypt(index % 4)
        claim, proof = prove_decryption(secret_key, ciphertext, range(4))
        assert verify_decryption(public_key, claim, ciphertext, proof)
    assert oracle.query(b"x") == keccak256(b"x")
    assert oracle._observed == set()
    assert oracle.programmed_count == 0


def test_the_default_oracle_refuses_programming():
    """A simulator must bring its own oracle: programming the shared one
    would change the answers every honest party gets."""
    oracle = default_oracle()
    with pytest.raises(CryptoError, match="pass a RandomOracle"):
        oracle.program(b"point", b"\x01" * 32)
    assert not oracle.is_programmed(b"point")
    assert oracle.query(b"point") == keccak256(b"point")
    public_key, _ = keygen()
    with pytest.raises(CryptoError, match="pass a RandomOracle"):
        simulate_proof(public_key, 1, public_key.encrypt(1))


def test_programmed_count():
    oracle = RandomOracle()
    assert oracle.programmed_count == 0
    oracle.program(b"a", b"\x00" * 32)
    oracle.program(b"b", b"\x00" * 32)
    assert oracle.programmed_count == 2
