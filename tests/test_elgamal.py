"""Exponential ElGamal: correctness, homomorphism, range behaviour."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import curve
from repro.crypto.curve import G1Point
from repro.crypto.elgamal import Ciphertext, ElGamalSecretKey, keygen
from repro.errors import DecryptionError, InvalidScalar


@given(st.integers(min_value=0, max_value=16))
@settings(max_examples=15, deadline=None)
def test_encrypt_decrypt_roundtrip(message):
    pk, sk = keygen(secret=12345)
    ciphertext = pk.encrypt(message)
    assert sk.decrypt(ciphertext, range(17)) == message


def test_decrypt_out_of_range_returns_group_element(keypair):
    pk, sk = keypair
    ciphertext = pk.encrypt(99)
    result = sk.decrypt(ciphertext, range(2))
    assert isinstance(result, G1Point)
    assert result == G1Point.generator() * 99


def test_public_key_matches_secret(keypair):
    pk, sk = keypair
    assert pk.h == G1Point.generator() * sk.k


def test_encryption_is_randomized(keypair):
    pk, _ = keypair
    assert pk.encrypt(1) != pk.encrypt(1)


def test_fixed_randomness_is_deterministic(keypair):
    pk, _ = keypair
    assert pk.encrypt(1, randomness=42) == pk.encrypt(1, randomness=42)


def test_negative_message_rejected(keypair):
    pk, _ = keypair
    with pytest.raises(InvalidScalar):
        pk.encrypt(-1)


def test_homomorphic_addition(keypair):
    pk, sk = keypair
    combined = pk.encrypt(3) + pk.encrypt(4)
    assert sk.decrypt(combined, range(10)) == 7


def test_homomorphic_scaling(keypair):
    pk, sk = keypair
    scaled = pk.encrypt(3).scale(5)
    assert sk.decrypt(scaled, range(20)) == 15


def test_rerandomization_preserves_plaintext(keypair):
    pk, sk = keypair
    original = pk.encrypt(2)
    refreshed = pk.rerandomize(original)
    assert refreshed != original
    assert sk.decrypt(refreshed, range(3)) == 2


def test_vector_encryption_roundtrip(keypair):
    pk, sk = keypair
    messages = [0, 1, 1, 0, 1]
    ciphertexts = pk.encrypt_vector(messages)
    assert sk.decrypt_vector(ciphertexts, range(2)) == messages


def test_ciphertext_serialization_roundtrip(keypair):
    pk, _ = keypair
    ciphertext = pk.encrypt(1)
    data = ciphertext.to_bytes()
    assert len(data) == 128
    assert Ciphertext.from_bytes(data) == ciphertext


def test_ciphertext_bad_length_rejected():
    with pytest.raises(ValueError):
        Ciphertext.from_bytes(b"\x00" * 64)


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=10, deadline=None)
def test_bsgs_decryption(message):
    pk, sk = keygen(secret=999)
    ciphertext = pk.encrypt(message)
    assert sk.decrypt_bsgs(ciphertext, 5000) == message


def test_bsgs_zero(keypair):
    pk, sk = keypair
    assert sk.decrypt_bsgs(pk.encrypt(0), 100) == 0


def test_bsgs_out_of_bound_raises(keypair):
    pk, sk = keypair
    with pytest.raises(DecryptionError):
        sk.decrypt_bsgs(pk.encrypt(500), 100)


def test_bsgs_on_homomorphic_sum(keypair):
    """The aggregate-statistics use case: decrypt a sum of many answers."""
    pk, sk = keypair
    total = pk.encrypt(0)
    for bit in [1, 0, 1, 1, 1, 0, 1]:
        total = total + pk.encrypt(bit)
    assert sk.decrypt_bsgs(total, 16) == 5


def test_secret_key_range_validation():
    from repro.crypto.elgamal import ElGamalSecretKey
    from repro.crypto.field import CURVE_ORDER

    with pytest.raises(InvalidScalar):
        ElGamalSecretKey(0)
    with pytest.raises(InvalidScalar):
        ElGamalSecretKey(CURVE_ORDER)


def test_public_key_equality_and_hash():
    pk1, _ = keygen(secret=7)
    pk2, _ = keygen(secret=7)
    pk3, _ = keygen(secret=8)
    assert pk1 == pk2
    assert pk1 != pk3
    assert len({pk1, pk2, pk3}) == 2


class _Multiplications:
    """Counts the scalar multiplications behind ``G1Point``: variable-base
    (``G1Point * k``, through ``curve.ec_mul``) and fixed-base
    (``G1Point.mul_fixed``, through ``curve.mul_fixed``)."""

    def __init__(self, monkeypatch) -> None:
        self.variable = self.fixed = 0
        ec_mul, mul_fixed = curve.ec_mul, curve.mul_fixed

        def counted_ec_mul(point, scalar):
            self.variable += 1
            return ec_mul(point, scalar)

        def counted_mul_fixed(point, scalar):
            self.fixed += 1
            return mul_fixed(point, scalar)

        monkeypatch.setattr(curve, "ec_mul", counted_ec_mul)
        monkeypatch.setattr(curve, "mul_fixed", counted_mul_fixed)


def test_public_key_costs_one_multiplication_per_key(monkeypatch):
    expected = G1Point.generator() * 0x5EC12E7
    sk = ElGamalSecretKey(0x5EC12E7)
    counted = _Multiplications(monkeypatch)
    first, second = sk.public_key, sk.public_key
    assert first is second
    assert first.h == expected
    assert (counted.variable, counted.fixed) == (0, 1)


def test_decrypt_vector_costs_one_variable_base_multiplication_each(
    keypair, monkeypatch
):
    pk, sk = keypair
    ciphertexts = pk.encrypt_vector([0, 3, 1, 3, 2])
    counted = _Multiplications(monkeypatch)
    assert sk.decrypt_vector(ciphertexts, range(4)) == [0, 3, 1, 3, 2]
    assert counted.variable == 5


def test_key_pickled_without_a_cached_public_key_still_loads():
    """A key pickled before ``public_key`` was cached (as in checkpoints
    written by older versions) carries no cached value; it computes one."""
    sk = ElGamalSecretKey(0xC0FFEE)
    assert "public_key" not in vars(sk)
    restored = pickle.loads(pickle.dumps(sk))
    assert restored.public_key.h == G1Point.generator() * 0xC0FFEE
