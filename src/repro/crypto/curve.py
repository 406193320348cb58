"""BN-128 G1: the elliptic-curve group underlying all of Dragoon's crypto.

The curve is ``y^2 = x^3 + 3`` over the prime field of
:data:`~repro.crypto.field.FIELD_MODULUS`, with prime group order
:data:`~repro.crypto.field.CURVE_ORDER` — the "alt_bn128" G1 exposed by
Ethereum's EIP-196/EIP-1108 precompiles, which is exactly why the paper
instantiates every public-key primitive over it.

Internally the hot paths work on raw ints in Jacobian projective
coordinates.  Both scalar multiplications use the curve's endomorphism
phi(x, y) = (BETA * x, y) = LAMBDA * (x, y) (Gallant, Lambert and
Vanstone, CRYPTO 2001) to split the scalar into two halves below 2^126.  A
variable-base multiplication (``ec_mul``, ``G1Point * k``) recodes each
half in width-5 NAF and walks both at once, so it costs ~126 doublings and
~42 mixed additions instead of the ~254 doublings and ~127 additions of
binary double-and-add.  A fixed-base multiplication (:func:`mul_fixed`)
reads a cached :class:`FixedBaseTable`, with rows for one half and their
phi images, and does no doubling at all.  Both keep their precomputed
multiples in affine form, normalized with one inversion (Montgomery's
trick), so every addition in their loops is a mixed Jacobian-plus-affine
addition.  :meth:`FixedBaseTable.multiply_jacobian` leaves its result in
Jacobian form, so a caller with many results (an ElGamal answer vector)
normalizes them all with one inversion.

The public API is :class:`G1Point`, an immutable affine point with operator
overloading, plus module-level helpers mirroring the precompile interface
(``ec_add``, ``ec_mul``).
"""

from __future__ import annotations

import secrets
from typing import List, Optional, Sequence, Tuple

from repro.crypto.field import CURVE_ORDER, FIELD_MODULUS, inv_mod, sqrt_mod
from repro.crypto.keccak import keccak256
from repro.errors import InvalidPoint, InvalidScalar, NonResidueError
from repro.obs import registry as _obs
from repro.utils.serialization import decode_point, encode_point

# Hot-path counters + scrape-time cache gauges.  Instruments only count;
# they never feed the DRBG or any codec input, so seeded runs are
# byte-identical with or without a scrape.
_MSM_CALLS = _obs.REGISTRY.counter(
    "msm_calls_total", "Multi-scalar multiplications performed"
)
_MSM_TERMS = _obs.REGISTRY.counter(
    "msm_terms_total", "Scalar/point terms summed across all MSM calls"
)
_obs.REGISTRY.gauge(
    "fixed_base_cache_population",
    "Fixed-base window tables currently cached",
    sampler=lambda: len(_FIXED_BASE_CACHE),
)
_obs.REGISTRY.gauge(
    "fixed_base_cache_limit",
    "Configured fixed-base table cache capacity",
    sampler=lambda: _FIXED_BASE_CACHE_LIMIT,
)
_obs.REGISTRY.counter(
    "fixed_base_cache_hits_total",
    "Fixed-base table lookups served from the cache (one per mul_fixed"
    " call, one per table for a whole ElGamal vector)",
    sampler=lambda: _FIXED_BASE_CACHE_HITS,
)
_obs.REGISTRY.counter(
    "fixed_base_cache_misses_total",
    "Fixed-base table lookups that had to build a table",
    sampler=lambda: _FIXED_BASE_CACHE_MISSES,
)

_P = FIELD_MODULUS
_B = 3

Affine = Optional[Tuple[int, int]]
_Jacobian = Tuple[int, int, int]

_INFINITY_J: _Jacobian = (1, 1, 0)


def is_on_curve(point: Affine) -> bool:
    """Whether an affine point satisfies y^2 = x^3 + 3 (infinity counts)."""
    if point is None:
        return True
    x, y = point
    if not (0 <= x < _P and 0 <= y < _P):
        return False
    return (y * y - (x * x * x + _B)) % _P == 0


# ---------------------------------------------------------------------------
# Jacobian arithmetic on raw integers (internal, performance-sensitive)
# ---------------------------------------------------------------------------


def _to_jacobian(point: Affine) -> _Jacobian:
    if point is None:
        return _INFINITY_J
    return (point[0], point[1], 1)


def _from_jacobian(point: _Jacobian) -> Affine:
    x, y, z = point
    if z == 0:
        return None
    z_inv = inv_mod(z, _P)
    z_inv_sq = z_inv * z_inv % _P
    return (x * z_inv_sq % _P, y * z_inv_sq * z_inv % _P)


def _jacobian_double(point: _Jacobian) -> _Jacobian:
    x, y, z = point
    if z == 0 or y == 0:
        return _INFINITY_J
    ysq = y * y % _P
    s = 4 * x * ysq % _P
    m = 3 * x * x % _P  # a = 0 for BN-128, so no a*z^4 term
    nx = (m * m - 2 * s) % _P
    ny = (m * (s - nx) - 8 * ysq * ysq) % _P
    nz = 2 * y * z % _P
    return (nx, ny, nz)


def _jacobian_add(p: _Jacobian, q: _Jacobian) -> _Jacobian:
    x1, y1, z1 = p
    x2, y2, z2 = q
    if z1 == 0:
        return q
    if z2 == 0:
        return p
    z1sq = z1 * z1 % _P
    z2sq = z2 * z2 % _P
    u1 = x1 * z2sq % _P
    u2 = x2 * z1sq % _P
    s1 = y1 * z2sq * z2 % _P
    s2 = y2 * z1sq * z1 % _P
    if u1 == u2:
        if s1 != s2:
            return _INFINITY_J
        return _jacobian_double(p)
    h = (u2 - u1) % _P
    r = (s2 - s1) % _P
    hsq = h * h % _P
    hcu = hsq * h % _P
    v = u1 * hsq % _P
    nx = (r * r - hcu - 2 * v) % _P
    ny = (r * (v - nx) - s1 * hcu) % _P
    nz = h * z1 * z2 % _P
    return (nx, ny, nz)


def _batch_inverse(values: Sequence[int]) -> List[int]:
    """Inverses of non-zero field elements with one inversion (Montgomery's trick)."""
    if not values:
        return []
    prefix = []
    running = 1
    for value in values:
        prefix.append(running)
        running = running * value % _P
    inverse = inv_mod(running, _P)
    inverses = [0] * len(values)
    for index in range(len(values) - 1, -1, -1):
        inverses[index] = inverse * prefix[index] % _P
        inverse = inverse * values[index] % _P
    return inverses


def _batch_to_affine(points: Sequence[_Jacobian]) -> List[Affine]:
    """Jacobian points to affine with one inversion; infinity maps to ``None``."""
    inverses = _batch_inverse([z or 1 for _, _, z in points])
    affine: List[Affine] = []
    for (x, y, z), z_inv in zip(points, inverses):
        if z:
            z_inv_sq = z_inv * z_inv % _P
            affine.append((x * z_inv_sq % _P, y * z_inv_sq * z_inv % _P))
        else:
            affine.append(None)
    return affine


def _batch_affine_add(
    pairs: Sequence[Tuple[Tuple[int, int], Tuple[int, int]]]
) -> List[Tuple[int, int]]:
    """``p + q`` for affine pairs with ``p != +-q``, sharing one inversion."""
    inverses = _batch_inverse([(q[0] - p[0]) % _P for p, q in pairs])
    sums = []
    for ((x1, y1), (x2, y2)), inverse in zip(pairs, inverses):
        slope = (y2 - y1) * inverse % _P
        x3 = (slope * slope - x1 - x2) % _P
        sums.append((x3, (slope * (x1 - x3) - y1) % _P))
    return sums


def _jacobian_matches(point: _Jacobian, affine: Affine) -> bool:
    """Whether a Jacobian point equals an affine one, without an inversion:
    ``x * Z^2 == X`` and ``y * Z^3 == Y``."""
    X, Y, Z = point
    if affine is None or not Z:
        return affine is None and not Z
    x, y = affine
    zz = Z * Z % _P
    return (x * zz - X) % _P == 0 and (y * zz * Z - Y) % _P == 0


# The GLV endomorphism.  _BETA is a cube root of unity mod p and _LAMBDA one
# mod r, paired so that phi(x, y) = (_BETA * x, y) equals _LAMBDA * (x, y) on
# G1.  (A1, B1) and (A2, B2) are a reduced basis of the lattice
# {(a, b) : a + b * _LAMBDA = 0 mod r}; rounding against it splits any
# scalar into halves below 2^126.  tests/test_curve.py derives all six from
# FIELD_MODULUS and CURVE_ORDER.
_BETA = 2203960485148121921418603742825762020974279258880205651966
_LAMBDA = 4407920970296243842393367215006156084916469457145843978461
_GLV_A1 = 9931322734385697763
_GLV_B1 = -147946756881789319000765030803803410728
_GLV_A2 = 147946756881789319010696353538189108491
_GLV_B2 = 9931322734385697763
_HALF_ORDER = CURVE_ORDER // 2
_WNAF_WIDTH = 5
#: Bits of a GLV half: rounding leaves each within half the basis's summed
#: coordinates, (|A1| + |A2|) / 2 = (|B1| + |B2|) / 2 < 2^125.8.
_GLV_HALF_BITS = (
    max(abs(_GLV_A1) + abs(_GLV_A2), abs(_GLV_B1) + abs(_GLV_B2)) // 2 + 1
).bit_length()


def _glv_split(scalar: int) -> Tuple[int, int]:
    """``(k1, k2)`` with ``k1 + k2 * _LAMBDA = scalar (mod r)``, both below 2^126."""
    c1 = (scalar * _GLV_B2 + _HALF_ORDER) // CURVE_ORDER
    c2 = (-scalar * _GLV_B1 + _HALF_ORDER) // CURVE_ORDER
    return (
        scalar - c1 * _GLV_A1 - c2 * _GLV_A2,
        -c1 * _GLV_B1 - c2 * _GLV_B2,
    )


def _wnaf(scalar: int) -> List[int]:
    """Width-5 NAF digits of ``scalar >= 0``, least significant first.

    Every digit is 0 or odd in (-16, 16), and any non-zero digit is
    followed by at least four zeros.
    """
    full = 1 << _WNAF_WIDTH
    half = full >> 1
    digits = []
    while scalar:
        if scalar & 1:
            digit = scalar & (full - 1)
            if digit >= half:
                digit -= full
            scalar -= digit
        else:
            digit = 0
        digits.append(digit)
        scalar >>= 1
    return digits


def _odd_multiples(point: Tuple[int, int]) -> List[_Jacobian]:
    """``P, 3P, 5P, ..., 15P`` in Jacobian form."""
    base = (point[0], point[1], 1)
    twice = _jacobian_double(base)
    multiples = [base]
    for _ in range((1 << (_WNAF_WIDTH - 2)) - 1):
        multiples.append(_jacobian_add(multiples[-1], twice))
    return multiples


def _glv_mul(point: Tuple[int, int], scalar: int) -> _Jacobian:
    """``scalar * point`` for a finite point and ``0 < scalar < r``.

    ``scalar = k1 + k2 * LAMBDA``, so the result is ``k1 * P + k2 * phi(P)``:
    one pass of doublings over the longer half's NAF, adding odd multiples
    of ``P`` and of ``phi(P)`` (read off ``P``'s as ``(BETA * x, y)``, with
    ``y`` negated where the digit's sign and its half's sign differ).
    Doubling and mixed addition are written out in the loop on local ints.

    The addition needs no branch for ``H = 0`` (accumulator equal to
    ``+-T``, the multiple being added): both are ``(a + b * LAMBDA) * P``
    for integer pairs whose difference stays below 2^126 + 32, shorter than
    any non-zero vector of the lattice (2^126.8), so they coincide only as
    integer pairs, which the NAF's zero runs rule out.  For the same reason
    the accumulator is at infinity only before its first addition.
    """
    P = _P
    k1, k2 = _glv_split(scalar)
    odd = _batch_to_affine(_odd_multiples(point))
    phi_odd = [(_BETA * x % P, y) for x, y in odd]
    digits1, digits2 = _wnaf(abs(k1)), _wnaf(abs(k2))
    # steps[i]: the affine points added after the doubling at bit i.
    steps: list = [()] * max(len(digits1), len(digits2))
    for half, digits, multiples in ((k1, digits1, odd), (k2, digits2, phi_odd)):
        for position, digit in enumerate(digits):
            if digit:
                x, y = multiples[abs(digit) >> 1]
                if (digit < 0) != (half < 0):
                    y = P - y
                steps[position] += ((x, y),)

    X, Y, Z = _INFINITY_J
    for adds in reversed(steps):
        if Z:
            ysq = Y * Y % P
            s = 4 * X * ysq % P
            m = 3 * X * X % P
            X3 = (m * m - 2 * s) % P
            Z = 2 * Y * Z % P
            Y = (m * (s - X3) - 8 * ysq * ysq) % P
            X = X3
        for x2, y2 in adds:
            if not Z:
                X, Y, Z = x2, y2, 1
                continue
            zz = Z * Z % P
            H = (x2 * zz - X) % P
            R = (y2 * zz * Z - Y) % P
            HH = H * H % P
            HHH = H * HH % P
            V = X * HH % P
            X3 = (R * R - HHH - 2 * V) % P
            Y = (R * (V - X3) - Y * HHH) % P
            X = X3
            Z = Z * H % P
    return (X, Y, Z)


# ---------------------------------------------------------------------------
# Affine helpers mirroring the Ethereum precompile interface
# ---------------------------------------------------------------------------


def ec_add(p: Affine, q: Affine) -> Affine:
    """Affine point addition (the EIP-196 ecAdd operation)."""
    return _from_jacobian(_jacobian_add(_to_jacobian(p), _to_jacobian(q)))


def ec_mul(p: Affine, scalar: int) -> Affine:
    """Affine scalar multiplication (the EIP-196 ecMul operation)."""
    scalar %= CURVE_ORDER
    if p is None or scalar == 0:
        return None
    return _from_jacobian(_glv_mul(p, scalar))


def ec_neg(p: Affine) -> Affine:
    """Affine point negation."""
    if p is None:
        return None
    x, y = p
    return (x, (-y) % _P)


# ---------------------------------------------------------------------------
# Public point class
# ---------------------------------------------------------------------------


class G1Point:
    """An immutable point of BN-128 G1 with group-operation overloads.

    ``G1Point.generator()`` is the fixed base point (1, 2).  Construction
    validates curve membership; use arithmetic operators for group ops::

        g = G1Point.generator()
        h = g * 42
        assert h - g == g * 41
    """

    __slots__ = ("_affine",)

    def __init__(self, affine: Affine) -> None:
        if not is_on_curve(affine):
            raise InvalidPoint("point is not on BN-128: %r" % (affine,))
        self._affine = affine

    # -- constructors -------------------------------------------------------

    @classmethod
    def generator(cls) -> "G1Point":
        return cls((1, 2))

    @classmethod
    def infinity(cls) -> "G1Point":
        return cls(None)

    @classmethod
    def from_bytes(cls, data: bytes) -> "G1Point":
        return cls(decode_point(data))

    @classmethod
    def from_x(cls, x: int, y_parity: int = 0) -> "G1Point":
        """Lift an x-coordinate onto the curve, choosing y by parity."""
        y = sqrt_mod(x * x * x + _B, _P)
        if y % 2 != y_parity % 2:
            y = _P - y
        return cls((x, y))

    @classmethod
    def hash_to_group(cls, data: bytes) -> "G1Point":
        """Deterministically map bytes to a curve point (try-and-increment).

        Only a candidate x whose ``x^3 + b`` is a non-residue (~half of
        them) sends the loop around again; any other exception out of the
        lifting path is a real bug and propagates instead of presenting
        as an infinite loop.
        """
        counter = 0
        while True:
            candidate = int.from_bytes(
                keccak256(data + counter.to_bytes(4, "big")), "big"
            ) % _P
            try:
                return cls.from_x(candidate, y_parity=0)
            except NonResidueError:
                counter += 1

    # -- accessors -----------------------------------------------------------

    @property
    def affine(self) -> Affine:
        return self._affine

    @property
    def is_infinity(self) -> bool:
        return self._affine is None

    @property
    def x(self) -> int:
        if self._affine is None:
            raise InvalidPoint("the point at infinity has no coordinates")
        return self._affine[0]

    @property
    def y(self) -> int:
        if self._affine is None:
            raise InvalidPoint("the point at infinity has no coordinates")
        return self._affine[1]

    def to_bytes(self) -> bytes:
        return encode_point(self._affine)

    # -- group operations -----------------------------------------------------

    def __add__(self, other: "G1Point") -> "G1Point":
        if not isinstance(other, G1Point):
            return NotImplemented
        return G1Point(ec_add(self._affine, other._affine))

    def __sub__(self, other: "G1Point") -> "G1Point":
        if not isinstance(other, G1Point):
            return NotImplemented
        return G1Point(ec_add(self._affine, ec_neg(other._affine)))

    def __mul__(self, scalar: int) -> "G1Point":
        if not isinstance(scalar, int):
            return NotImplemented
        return G1Point(ec_mul(self._affine, scalar))

    def mul_fixed(self, scalar: int) -> "G1Point":
        """Scalar multiplication via a cached fixed-base window table.

        Equivalent to ``self * scalar`` but amortizes precomputation
        across calls — use for bases that recur (the generator, public
        keys).
        """
        return G1Point(mul_fixed(self._affine, scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "G1Point":
        return G1Point(ec_neg(self._affine))

    def double(self) -> "G1Point":
        return G1Point(_from_jacobian(_jacobian_double(_to_jacobian(self._affine))))

    # -- value semantics --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, G1Point):
            return NotImplemented
        return self._affine == other._affine

    def __hash__(self) -> int:
        return hash(self._affine)

    def __repr__(self) -> str:
        if self._affine is None:
            return "G1Point(infinity)"
        return "G1Point(x=%d..., y=%d...)" % (self.x % 10**6, self.y % 10**6)


class FixedBaseTable:
    """Precomputed signed 4-bit-window multiples of a fixed base point.

    Scalar multiplication against a fixed base (the generator, a public
    key) recurs throughout the protocol.  A multiplication splits the
    scalar into its two GLV halves, ``scalar = k1 + k2 * LAMBDA`` with
    both below 2^126, so the table needs rows for a half only: row ``w``
    holds ``d * 16^w * P`` for ``d = 1..8`` in affine form, and its phi
    row the same multiples of ``phi(P) = LAMBDA * P``, read off as
    ``(BETA * x, y)``.  Each half is recoded into digits in ``[-7, 8]``
    and one entry is added per non-zero digit (``y`` negated where the
    digit's sign and its half's sign differ): ~60 mixed additions and no
    doublings.

    A build is one chain of ~130 doublings (``2^i * P``), normalized
    with one inversion, plus the rows' 3, 5, 6 and 7 multiples as
    ``1 + 2``, ``1 + 4``, ``2 + 4`` and ``8 - 1``: affine additions that
    share one more inversion.  That is ~1.6 ms against the ~5.9 ms of
    a table of 64 full-scalar windows (python 3.11, 2-vCPU VM), so it
    pays off after a handful of uses; :func:`mul_fixed` caches tables
    per base point.

    The additions need no branch for ``H = 0`` (accumulator equal to
    ``+-T``, the entry being added).  Both are ``(a + b * LAMBDA) * P``
    for integer pairs: the accumulator's are partial sums of the halves'
    digits (k1's windows first, then k2's, each from the bottom), and
    digits below a window sum to less than its weight, while a half's
    top digit is at most 4, so the two pairs differ by less than 2^126.2
    in each coordinate.  Every non-zero vector of the lattice has a
    coordinate of at least ``r / max(|A1| + |B1|, |A2| + |B2|)``, about
    2^126.8 (Cramer's rule on the basis), so the points coincide only as
    integer pairs, which the recoding rules out.  For the same reason the
    accumulator is at infinity only before its first addition.
    """

    WINDOW_BITS = 4
    #: Enough windows for a GLV half plus the recoding's carry.
    NUM_WINDOWS = (_GLV_HALF_BITS + WINDOW_BITS) // WINDOW_BITS

    def __init__(self, base: Affine) -> None:
        self.base = base
        self._rows: List[List[Tuple[int, int]]] = []
        self._phi_rows: List[List[Tuple[int, int]]] = []
        if base is None:
            return
        P = _P
        chain = [_to_jacobian(base)]
        for _ in range(self.WINDOW_BITS * self.NUM_WINDOWS - 1):
            chain.append(_jacobian_double(chain[-1]))
        powers = _batch_to_affine(chain)
        windows = [powers[start:start + 4] for start in range(0, len(powers), 4)]
        between = _batch_affine_add([
            pair
            for one, two, four, eight in windows
            for pair in (
                (one, two), (one, four), (two, four), ((one[0], P - one[1]), eight)
            )
        ])
        for index, (one, two, four, eight) in enumerate(windows):
            three, five, six, seven = between[4 * index:4 * index + 4]
            row = [one, two, three, four, five, six, seven, eight]
            self._rows.append(row)
            self._phi_rows.append([(_BETA * x % P, y) for x, y in row])

    def multiply(self, scalar: int) -> Affine:
        return _from_jacobian(self.multiply_jacobian(scalar))

    def multiply_jacobian(self, scalar: int) -> _Jacobian:
        """:meth:`multiply` left in Jacobian form, for a caller that
        normalizes many results with one inversion."""
        scalar %= CURVE_ORDER
        if not scalar or not self._rows:
            return _INFINITY_J
        P = _P
        adds = []
        for half, rows in zip(_glv_split(scalar), (self._rows, self._phi_rows)):
            negative = half < 0
            half = abs(half)
            window = 0
            while half:
                digit = half & 0xF
                half >>= 4
                if digit > 8:
                    digit -= 16
                    half += 1
                if digit:
                    x, y = rows[window][abs(digit) - 1]
                    adds.append((x, P - y) if (digit < 0) != negative else (x, y))
                window += 1
        entries = iter(adds)
        X, Y = next(entries)
        Z = 1
        for x2, y2 in entries:
            zz = Z * Z % P
            H = (x2 * zz - X) % P
            R = (y2 * zz * Z - Y) % P
            HH = H * H % P
            HHH = H * HH % P
            V = X * HH % P
            X3 = (R * R - HHH - 2 * V) % P
            Y = (R * (V - X3) - Y * HHH) % P
            X = X3
            Z = Z * H % P
        return (X, Y, Z)


#: Tables kept by :func:`mul_fixed`, least recently used first; that one
#: goes when a new base arrives at the limit.
_FIXED_BASE_CACHE: dict = {}
_FIXED_BASE_CACHE_LIMIT = 16
_FIXED_BASE_CACHE_HITS = 0
_FIXED_BASE_CACHE_MISSES = 0


def fixed_base_cache_info() -> Tuple[int, int]:
    """``(population, limit)`` of the fixed-base table cache."""
    return len(_FIXED_BASE_CACHE), _FIXED_BASE_CACHE_LIMIT


def fixed_base_cache_stats() -> dict:
    """Cache effectiveness counters for this process.

    ``hits``/``misses`` count table lookups since process start (or
    :func:`reset_fixed_base_cache_stats`): one per :func:`mul_fixed`
    call, and one per table for a whole ElGamal vector.  The
    ``fixed_base_cache_*`` metric families, which ``node_status`` reads,
    sample the same counters.
    """
    return {
        "population": len(_FIXED_BASE_CACHE),
        "limit": _FIXED_BASE_CACHE_LIMIT,
        "hits": _FIXED_BASE_CACHE_HITS,
        "misses": _FIXED_BASE_CACHE_MISSES,
    }


def reset_fixed_base_cache_stats() -> None:
    """Zero the hit/miss counters (the cache itself is untouched)."""
    global _FIXED_BASE_CACHE_HITS, _FIXED_BASE_CACHE_MISSES
    _FIXED_BASE_CACHE_HITS = 0
    _FIXED_BASE_CACHE_MISSES = 0


def _fixed_base_table(base: Affine) -> FixedBaseTable:
    """The cached table of ``base`` (built on a miss): one cache lookup.

    Infinity gets an empty table, neither cached nor counted.
    """
    global _FIXED_BASE_CACHE_HITS, _FIXED_BASE_CACHE_MISSES
    if base is None:
        return FixedBaseTable(None)
    table = _FIXED_BASE_CACHE.pop(base, None)
    if table is None:
        _FIXED_BASE_CACHE_MISSES += 1
        if len(_FIXED_BASE_CACHE) >= _FIXED_BASE_CACHE_LIMIT:
            del _FIXED_BASE_CACHE[next(iter(_FIXED_BASE_CACHE))]
        table = FixedBaseTable(base)
    else:
        _FIXED_BASE_CACHE_HITS += 1
    # Re-inserting moves the base to the end: the dict's order is recency.
    _FIXED_BASE_CACHE[base] = table
    return table


def mul_fixed(base: Affine, scalar: int) -> Affine:
    """Scalar multiplication with per-base precomputation (LRU-cached)."""
    return _fixed_base_table(base).multiply(scalar)


def precompute_base(base: "G1Point | Affine") -> None:
    """Warm the fixed-base table for ``base`` ahead of the hot path."""
    _fixed_base_table(base.affine if isinstance(base, G1Point) else base)


# ---------------------------------------------------------------------------
# Multi-scalar multiplication (Pippenger bucket method)
# ---------------------------------------------------------------------------


def _msm_window_bits(count: int, max_bits: int) -> int:
    """The window width minimizing ``windows * (count + 2^c)`` additions."""
    best_c, best_cost = 1, None
    for c in range(1, 17):
        windows = (max_bits + c - 1) // c
        cost = windows * (count + (1 << c))
        if best_cost is None or cost < best_cost:
            best_c, best_cost = c, cost
    return best_c


def _msm_jacobian(points: Sequence[_Jacobian], scalars: Sequence[int]) -> _Jacobian:
    entries = [
        (point, scalar)
        for point, scalar in zip(points, scalars)
        if scalar and point[2]
    ]
    if not entries:
        return _INFINITY_J
    max_bits = max(scalar.bit_length() for _, scalar in entries)
    window_bits = _msm_window_bits(len(entries), max_bits)
    num_windows = (max_bits + window_bits - 1) // window_bits
    mask = (1 << window_bits) - 1

    result = _INFINITY_J
    for window in range(num_windows - 1, -1, -1):
        if result[2]:
            for _ in range(window_bits):
                result = _jacobian_double(result)
        shift = window * window_bits
        buckets: list = [None] * (mask + 1)
        for point, scalar in entries:
            digit = (scalar >> shift) & mask
            if digit:
                held = buckets[digit]
                buckets[digit] = (
                    point if held is None else _jacobian_add(held, point)
                )
        # Sum d * bucket[d] via the running-sum trick.
        running = _INFINITY_J
        accumulator = _INFINITY_J
        for digit in range(mask, 0, -1):
            held = buckets[digit]
            if held is not None:
                running = _jacobian_add(running, held)
            accumulator = _jacobian_add(accumulator, running)
        result = _jacobian_add(result, accumulator)
    return result


def msm(points: Sequence["G1Point"], scalars: Sequence[int]) -> "G1Point":
    """Multi-scalar multiplication ``sum_i scalars[i] * points[i]``.

    The workhorse of batch verification: one Pippenger pass over ``n``
    terms costs far fewer point additions than ``n`` double-and-add
    multiplications, and the advantage grows with the batch.  Scalars are
    reduced modulo the curve order (pass ``order - x`` to subtract).
    """
    if len(points) != len(scalars):
        raise InvalidScalar("msm needs one scalar per point")
    _MSM_CALLS.inc()
    _MSM_TERMS.inc(len(points))
    reduced = [scalar % CURVE_ORDER for scalar in scalars]
    jacobians = [_to_jacobian(point.affine) for point in points]
    return G1Point(_from_jacobian(_msm_jacobian(jacobians, reduced)))


def random_scalar() -> int:
    """A uniformly random non-zero scalar in [1, CURVE_ORDER).

    Drawn from :data:`repro.crypto.rng.entropy`, so a simulation running
    under :func:`repro.crypto.rng.deterministic_entropy` gets the same
    scalars every run.
    """
    from repro.crypto.rng import entropy

    while True:
        value = entropy.randbelow(CURVE_ORDER)
        if value != 0:
            return value


def validate_scalar(scalar: int) -> int:
    """Check a scalar is in [0, CURVE_ORDER) and return it."""
    if not isinstance(scalar, int) or not 0 <= scalar < CURVE_ORDER:
        raise InvalidScalar("scalar out of range: %r" % (scalar,))
    return scalar


GENERATOR = G1Point.generator()
