"""BN-128 G1: group laws, scalar arithmetic, serialization."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import curve
from repro.crypto.curve import (
    CURVE_ORDER,
    G1Point,
    GENERATOR,
    ec_add,
    ec_mul,
    is_on_curve,
    random_scalar,
    validate_scalar,
)
from repro.errors import InvalidPoint, InvalidScalar

scalars = st.integers(min_value=0, max_value=CURVE_ORDER - 1)
small_scalars = st.integers(min_value=0, max_value=2**64)

G = G1Point.generator()


def test_generator_on_curve():
    assert is_on_curve((1, 2))
    assert G.x == 1 and G.y == 2


def test_generator_has_curve_order():
    assert (G * CURVE_ORDER).is_infinity
    assert not (G * (CURVE_ORDER - 1)).is_infinity


def test_identity_laws():
    infinity = G1Point.infinity()
    assert G + infinity == G
    assert infinity + G == G
    assert (G - G).is_infinity
    assert (infinity + infinity).is_infinity


@given(small_scalars, small_scalars)
@settings(max_examples=20, deadline=None)
def test_scalar_distributivity(a, b):
    assert G * a + G * b == G * (a + b)


@given(small_scalars)
@settings(max_examples=20, deadline=None)
def test_negation(a):
    p = G * a
    assert (p + (-p)).is_infinity


@given(st.integers(min_value=1, max_value=300))
@settings(max_examples=10, deadline=None)
def test_small_multiples_match_repeated_addition(n):
    accumulated = G1Point.infinity()
    for _ in range(n):
        accumulated = accumulated + G
    assert accumulated == G * n


def test_double_matches_add():
    assert G.double() == G + G
    assert (G * 7).double() == G * 14


def test_scalar_reduced_mod_order():
    assert G * (CURVE_ORDER + 5) == G * 5
    assert (G * 0).is_infinity


def test_commutativity_of_addition():
    p, q = G * 11, G * 29
    assert p + q == q + p


def test_associativity_of_addition():
    p, q, r = G * 3, G * 5, G * 9
    assert (p + q) + r == p + (q + r)


def test_off_curve_point_rejected():
    with pytest.raises(InvalidPoint):
        G1Point((1, 3))
    with pytest.raises(InvalidPoint):
        G1Point((0, 1))


def test_serialization_roundtrip():
    p = G * 123456789
    assert G1Point.from_bytes(p.to_bytes()) == p
    assert len(p.to_bytes()) == 64


def test_infinity_serialization():
    infinity = G1Point.infinity()
    assert infinity.to_bytes() == b"\x00" * 64
    assert G1Point.from_bytes(b"\x00" * 64).is_infinity


def test_infinity_has_no_coordinates():
    with pytest.raises(InvalidPoint):
        _ = G1Point.infinity().x


def test_from_x_lifts_onto_curve():
    p = G * 42
    lifted = G1Point.from_x(p.x, y_parity=p.y % 2)
    assert lifted == p


def test_hash_to_group_deterministic_and_on_curve():
    a = G1Point.hash_to_group(b"dragoon")
    b = G1Point.hash_to_group(b"dragoon")
    c = G1Point.hash_to_group(b"other")
    assert a == b
    assert a != c
    assert is_on_curve(a.affine)


def test_hash_to_group_retries_only_on_non_residues(monkeypatch):
    """Regression: the try-and-increment loop once swallowed *every*
    exception, so a genuine fault in the lifting path (here injected
    into the square root) presented as an infinite loop instead of an
    error.  Only :class:`NonResidueError` may send the loop around."""
    import repro.crypto.curve as curve_module

    calls = []

    def faulting_sqrt(value, modulus):
        calls.append(value)
        raise OSError("injected fault in the lifting path")

    monkeypatch.setattr(curve_module, "sqrt_mod", faulting_sqrt)
    with pytest.raises(OSError, match="injected fault"):
        G1Point.hash_to_group(b"dragoon")
    assert len(calls) == 1  # raised on the first candidate, no spin


def test_hash_to_group_still_retries_past_real_non_residues(monkeypatch):
    """The ~half of candidates with no square root must still retry."""
    import repro.crypto.curve as curve_module
    from repro.errors import NonResidueError

    real_sqrt = curve_module.sqrt_mod
    attempts = []

    def counting_sqrt(value, modulus):
        attempts.append(value)
        if len(attempts) == 1:
            raise NonResidueError("forced first-candidate miss")
        return real_sqrt(value, modulus)

    monkeypatch.setattr(curve_module, "sqrt_mod", counting_sqrt)
    point = G1Point.hash_to_group(b"dragoon")
    assert len(attempts) >= 2  # the loop went around
    assert is_on_curve(point.affine)


def test_points_hashable():
    assert len({G, G * 2, G + G}) == 2


def test_low_level_helpers_match_class_ops():
    p, q = (G * 5).affine, (G * 7).affine
    assert ec_add(p, q) == (G * 12).affine
    assert ec_mul(p, 3) == (G * 15).affine


def test_random_scalar_in_range():
    for _ in range(10):
        s = random_scalar()
        assert 0 < s < CURVE_ORDER


def test_validate_scalar():
    assert validate_scalar(5) == 5
    with pytest.raises(InvalidScalar):
        validate_scalar(-1)
    with pytest.raises(InvalidScalar):
        validate_scalar(CURVE_ORDER)
    with pytest.raises(InvalidScalar):
        validate_scalar("5")


def test_generator_constant_matches():
    assert GENERATOR == G1Point.generator()


def test_parent_cache_stats_count_hits_and_misses():
    curve.reset_fixed_base_cache_stats()
    base = G * 0x51A7
    assert base.mul_fixed(3) == base * 3  # first use: miss (table built)
    assert base.mul_fixed(5) == base * 5  # second use: hit
    stats = curve.fixed_base_cache_stats()
    assert stats["misses"] >= 1
    assert stats["hits"] >= 1
    assert stats["population"] >= 1
    assert stats["limit"] >= 1
