"""BN-128 G1: group laws, scalar arithmetic, serialization."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import curve
from repro.crypto.curve import (
    CURVE_ORDER,
    FIELD_MODULUS,
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


# ---------------------------------------------------------------------------
# The scalar-multiplication kernels against binary double-and-add
# ---------------------------------------------------------------------------


def _ladder(point, scalar):
    """Binary double-and-add, the variable-base path before the GLV
    kernel, kept here as the oracle for every multiplication path."""
    scalar %= CURVE_ORDER
    if point is None or scalar == 0:
        return None
    result, addend = curve._INFINITY_J, (point[0], point[1], 1)
    while scalar:
        if scalar & 1:
            result = curve._jacobian_add(result, addend)
        addend = curve._jacobian_double(addend)
        scalar >>= 1
    return curve._from_jacobian(result)


R = CURVE_ORDER
EDGE_SCALARS = [
    0, 1, 2, -1, R - 1, R, R + 5, 2 * R - 1, 2**256 - 1,
    curve._LAMBDA, R - curve._LAMBDA,
    # A table of 64 full-scalar windows ended this one's recoding by
    # adding a multiple equal to the accumulator (its H = 0 case); the
    # GLV-half table cannot meet that case (see the test below).
    3 * 2**253 - R,
]


def _random_points(count, seed):
    rng = random.Random(seed)
    return [_ladder((1, 2), rng.randrange(1, R)) for _ in range(count)]


def _scalars_with_every_split_sign(seed):
    """Seeded random scalars whose GLV halves take all four sign pairs."""
    rng = random.Random(seed)
    by_signs = {}
    while len(by_signs) < 4:
        scalar = rng.randrange(R)
        k1, k2 = curve._glv_split(scalar)
        by_signs.setdefault((k1 < 0, k2 < 0), []).append(scalar)
    return [scalar for group in by_signs.values() for scalar in group[:2]]


POINTS = [None, (1, 2)] + _random_points(2, seed=2101)
SCALARS = EDGE_SCALARS + _scalars_with_every_split_sign(seed=2102)


@pytest.mark.parametrize("point", POINTS, ids=["infinity", "G", "P1", "P2"])
def test_every_multiplication_path_matches_the_ladder(point):
    table = curve.FixedBaseTable(point)
    for scalar in SCALARS:
        expected = _ladder(point, scalar)
        assert ec_mul(point, scalar) == expected, scalar
        assert (G1Point(point) * scalar).affine == expected, scalar
        assert (scalar * G1Point(point)).affine == expected, scalar
        assert G1Point(point).mul_fixed(scalar).affine == expected, scalar
        assert table.multiply(scalar) == expected, scalar


@given(
    st.integers(min_value=1, max_value=R - 1),
    st.integers(min_value=-(2**300), max_value=2**300),
)
@settings(max_examples=25, deadline=None)
def test_variable_and_fixed_base_match_the_ladder(exponent, scalar):
    point = _ladder((1, 2), exponent)
    expected = _ladder(point, scalar)
    assert ec_mul(point, scalar) == expected
    assert curve.FixedBaseTable(point).multiply(scalar) == expected


def test_split_halves_recombine_and_stay_short():
    for scalar in [s % R for s in SCALARS]:
        k1, k2 = curve._glv_split(scalar)
        assert (k1 + k2 * curve._LAMBDA - scalar) % R == 0
        assert abs(k1) < 2**126 and abs(k2) < 2**126


def test_fixed_base_additions_never_meet_their_accumulator():
    """The premises of ``FixedBaseTable``'s argument that its additions
    need no ``H = 0`` branch: a GLV half's digits fit ``NUM_WINDOWS``
    windows with a top digit of at most 4, so an entry and the
    accumulator differ by less than 2^126.2 in each coordinate, while
    every non-zero lattice vector has a coordinate of at least 2^126.79."""
    a1, b1, a2, b2 = curve._GLV_A1, curve._GLV_B1, curve._GLV_A2, curve._GLV_B2
    half_bound = max(abs(a1) + abs(a2), abs(b1) + abs(b2)) // 2 + 1
    assert half_bound <= 2**curve._GLV_HALF_BITS == 2**126
    top_weight = 16 ** (curve.FixedBaseTable.NUM_WINDOWS - 1)
    top_digit = (half_bound - 1) // top_weight + 1  # with the carry from below
    assert top_digit <= 4
    below_top = 8 * (top_weight - 1) // 15  # the most the lower digits sum to
    gap = max(top_digit * top_weight + below_top, half_bound)
    assert gap < 2**126.2
    # A lattice vector (x, y) = i (a1, b1) + j (a2, b2) with both
    # coordinates below `shortest` has |i|, |j| < 1 by Cramer's rule.
    assert abs(a1 * b2 - a2 * b1) == R
    shortest = R // max(abs(a1) + abs(b1), abs(a2) + abs(b2))
    assert gap < shortest


def _cube_roots_of_unity(modulus):
    for candidate in range(2, 100):
        root = pow(candidate, (modulus - 1) // 3, modulus)
        if root != 1:
            return {root, root * root % modulus}
    raise AssertionError("no cube root of unity found")


def _short_lattice_basis(order, lam):
    """Gallant-Lambert-Vanstone's reduced basis of
    {(a, b) : a + b * lam = 0 (mod order)}: run the extended Euclidean
    algorithm on (order, lam) until the remainder drops below
    sqrt(order), and read the basis off the remainders around there."""
    rows = [(order, 0), (lam, 1)]  # (remainder, t): remainder = t * lam (mod order)
    while rows[-1][0]:
        (r0, t0), (r1, t1) = rows[-2], rows[-1]
        quotient = r0 // r1
        rows.append((r0 - quotient * r1, t0 - quotient * t1))
    last = max(i for i, (rem, _) in enumerate(rows) if rem >= math.isqrt(order))
    first = (rows[last + 1][0], -rows[last + 1][1])
    second = min(
        (rows[last][0], -rows[last][1]),
        (rows[last + 2][0], -rows[last + 2][1]),
        key=lambda vector: vector[0] ** 2 + vector[1] ** 2,
    )
    return first, second


def test_glv_constants_derive_from_the_moduli():
    beta, lam = curve._BETA, curve._LAMBDA
    assert beta in _cube_roots_of_unity(FIELD_MODULUS)
    assert lam in _cube_roots_of_unity(R)
    assert pow(beta, 3, FIELD_MODULUS) == 1
    assert (lam * lam + lam + 1) % R == 0
    # phi(G) = (beta * 1, 2) is lambda * G, not lambda^2 * G.
    assert _ladder((1, 2), lam) == (beta, 2)
    basis = ((curve._GLV_A1, curve._GLV_B1), (curve._GLV_A2, curve._GLV_B2))
    assert basis == _short_lattice_basis(R, lam)
    for a, b in basis:
        assert (a + b * lam) % R == 0
    (a1, b1), (a2, b2) = basis
    assert abs(a1 * b2 - a2 * b1) == R  # the vectors span the whole lattice


def test_lru_cache_keeps_a_base_in_use(monkeypatch):
    """The generator, used between 20 fresh bases, keeps its table: the
    cache evicts the least recently used table, not all of them."""
    built = []

    class CountingTable(curve.FixedBaseTable):
        def __init__(self, base):
            built.append(base)
            super().__init__(base)

    monkeypatch.setattr(curve, "FixedBaseTable", CountingTable)
    monkeypatch.setattr(curve, "_FIXED_BASE_CACHE", {})
    for index in range(20):
        assert G.mul_fixed(index + 2) == G * (index + 2)
        fresh = G * (7_000 + index)
        assert fresh.mul_fixed(3) == fresh * 3
    assert built.count(G.affine) == 1
    assert len(built) == 21
    assert curve.fixed_base_cache_info() == (16, 16)
