"""Exponential ElGamal: correctness, homomorphism, range behaviour."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import curve, elgamal
from repro.crypto.curve import CURVE_ORDER, G1Point, random_scalar
from repro.crypto.elgamal import Ciphertext, ElGamalSecretKey, keygen
from repro.crypto.rng import deterministic_entropy
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


# ---------------------------------------------------------------------------
# The vector kernels against the per-message formulas
# ---------------------------------------------------------------------------


def _reference_encrypt(pk, message, randomness):
    """One message at a time, each product normalized on its own:
    ``(g^r, g^m + h^r)`` from two fixed-base multiplications per base."""
    g = G1Point.generator().affine
    return Ciphertext(
        G1Point(curve.mul_fixed(g, randomness)),
        G1Point(
            curve.ec_add(
                curve.mul_fixed(g, message), curve.mul_fixed(pk.h.affine, randomness)
            )
        ),
    )


def _reference_decrypt(sk, ciphertext, message_range):
    """``c2 - c1 * k`` normalized, then a scan of the range."""
    masked = ciphertext.c2 - ciphertext.c1 * sk.k
    for candidate in message_range:
        if G1Point.generator().mul_fixed(candidate) == masked:
            return candidate
    return masked


def test_encrypt_vector_draws_and_encrypts_as_one_message_at_a_time(keypair):
    pk, _ = keypair
    messages = [0, 1, 3, 0, 2, 1, 1, 0, 3, 2]
    with deterministic_entropy(0x5EED):
        ciphertexts = pk.encrypt_vector(messages)
    with deterministic_entropy(0x5EED):
        expected = [_reference_encrypt(pk, m, random_scalar()) for m in messages]
    assert ciphertexts == expected


def test_encrypt_vector_normalizes_around_points_at_infinity(keypair, monkeypatch):
    """``c1`` at infinity (``r = 0``), ``c2`` at infinity
    (``r = -m / k``), both at once, and ``m = 0``, in one vector."""
    pk, sk = keypair
    messages = [2, 3, 0, 0, 1]
    scalars = [0, -3 * pow(sk.k, -1, CURVE_ORDER) % CURVE_ORDER, 0, 0x1234, 0x77]
    drawn = iter(scalars)
    monkeypatch.setattr(elgamal, "random_scalar", lambda: next(drawn))
    ciphertexts = pk.encrypt_vector(messages)
    expected = [_reference_encrypt(pk, m, r) for m, r in zip(messages, scalars)]
    assert ciphertexts == expected
    assert ciphertexts[0].c1.is_infinity and ciphertexts[1].c2.is_infinity
    assert ciphertexts[2].c1.is_infinity and ciphertexts[2].c2.is_infinity
    for message, r, ciphertext in zip(messages, scalars, expected):
        assert pk.encrypt(message, randomness=r) == ciphertext


def test_decrypt_vector_matches_the_per_message_scan(keypair):
    """In range, ``m = 0``, masked points at infinity, and out of range,
    including ``-1`` whose negation ``g^1`` is a candidate: the bare
    ``G1Point`` comes back."""
    pk, sk = keypair
    messages = [0, 1, 2, 99, 0, CURVE_ORDER - 1, 2, 1]
    randomness = [5, 6, 0, 7, 0, 8, -2 * pow(sk.k, -1, CURVE_ORDER), 9]
    ciphertexts = [pk.encrypt(m, randomness=r) for m, r in zip(messages, randomness)]
    expected = [_reference_decrypt(sk, c, range(3)) for c in ciphertexts]
    assert expected == [
        0, 1, 2, G1Point.generator() * 99, 0, -G1Point.generator(), 2, 1,
    ]
    assert sk.decrypt_vector(ciphertexts, range(3)) == expected
    assert sk.decrypt_vector(ciphertexts, iter(range(3))) == expected
    assert [sk.decrypt(c, range(3)) for c in ciphertexts] == expected


class _Inversions:
    """Counts field inversions in the curve arithmetic (``curve.inv_mod``)."""

    def __init__(self, monkeypatch) -> None:
        self.count = 0
        inv_mod = curve.inv_mod

        def counted_inv_mod(value, modulus):
            self.count += 1
            return inv_mod(value, modulus)

        monkeypatch.setattr(curve, "inv_mod", counted_inv_mod)


def test_encrypt_vector_costs_one_inversion(keypair, monkeypatch):
    pk, _ = keypair
    pk.encrypt_vector([1])  # the generator's and the key's tables are warm
    inversions = _Inversions(monkeypatch)
    ciphertexts = pk.encrypt_vector([1, 0, 1, 1, 0, 1, 0, 0, 1, 1])
    assert inversions.count == 1
    assert len(ciphertexts) == 10


def test_decrypt_vector_computes_each_candidate_once(keypair, monkeypatch):
    pk, sk = keypair
    messages = [0, 3, 1, 3, 2, 9, 2, 1]
    ciphertexts = pk.encrypt_vector(messages)
    counted = _Multiplications(monkeypatch)
    plaintexts = sk.decrypt_vector(ciphertexts, range(4))
    assert plaintexts[:5] + plaintexts[6:] == [0, 3, 1, 3, 2, 2, 1]
    assert plaintexts[5] == G1Point.generator() * 9
    assert counted.fixed <= 4
