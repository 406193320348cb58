"""The BN-128 optimal-ate pairing, implemented from scratch.

This is what the SNARK baseline's verifier actually computes, and what the
Ethereum pairing precompile charges ~34k gas per pairing for (EIP-1108).
Implemented in the classic py_ecc / libff style:

1. *Twist* G2 points (over Fp2) into Fp12, and *cast* G1 points into Fp12.
2. Run the Miller loop for the ate loop count of the BN parameter.
3. Apply the two Frobenius-twisted correction steps.
4. Final exponentiation by ``(p^12 - 1) / r``.

A pure-Python pairing is slow (order of seconds); the benchmark layer
accounts for this explicitly — what matters for the reproduction is the
*ratio* between pairing-based generic verification and Dragoon's concrete
verification, which this preserves.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.crypto.curve import G1Point
from repro.crypto.field import CURVE_ORDER, FIELD_MODULUS
from repro.crypto.g2 import Point, point_add, point_double
from repro.crypto.tower import FQ2, FQ12
from repro.errors import InvalidPoint
from repro.obs import registry as _obs

_PAIRING_CALLS = _obs.REGISTRY.counter(
    "pairing_calls_total", "multi_pairing evaluations (one final exp each)"
)
_PAIRING_PAIRS = _obs.REGISTRY.counter(
    "pairing_pairs_total", "(G1, G2) pairs folded into Miller products"
)

_P = FIELD_MODULUS

ATE_LOOP_COUNT = 29793968203157093288
LOG_ATE_LOOP_COUNT = 63

_FINAL_EXPONENT = (_P**12 - 1) // CURVE_ORDER

_W = FQ12([0, 1] + [0] * 10)  # the Fp12 generator w
_W2 = _W * _W
_W3 = _W2 * _W

Fq12Point = Optional[Tuple[FQ12, FQ12]]


def twist(point: Point) -> Fq12Point:
    """Map a G2 point over Fp2 into the curve over Fp12 (untwist map)."""
    if point is None:
        return None
    x, y = point
    # Unpack Fp2 coefficients: a + b*i with i^2 = -1, re-expressed in the
    # basis where w^6 = 9 + i, i.e. i = w^6 - 9.
    xc = (x.coeffs[0] - 9 * x.coeffs[1], x.coeffs[1])
    yc = (y.coeffs[0] - 9 * y.coeffs[1], y.coeffs[1])
    nx = FQ12([xc[0]] + [0] * 5 + [xc[1]] + [0] * 5)
    ny = FQ12([yc[0]] + [0] * 5 + [yc[1]] + [0] * 5)
    return (nx * _W2, ny * _W3)


def cast_g1_to_fq12(point: G1Point) -> Fq12Point:
    """Embed a G1 point into the Fp12 curve."""
    if point.is_infinity:
        return None
    return (FQ12.from_int(point.x), FQ12.from_int(point.y))


def _linefunc(p1: Fq12Point, p2: Fq12Point, target: Fq12Point) -> FQ12:
    """Evaluate the line through p1 and p2 at ``target``."""
    if p1 is None or p2 is None or target is None:
        raise InvalidPoint("line function is undefined at infinity")
    x1, y1 = p1
    x2, y2 = p2
    xt, yt = target
    if x1 != x2:
        slope = (y2 - y1) / (x2 - x1)
        return slope * (xt - x1) - (yt - y1)
    if y1 == y2:
        slope = (3 * x1 * x1) / (2 * y1)
        return slope * (xt - x1) - (yt - y1)
    return xt - x1


def miller_loop_raw(q: Fq12Point, p: Fq12Point) -> FQ12:
    """The ate Miller loop *without* the final exponentiation.

    Raw Miller values multiply: the product over many pairs can be
    carried to a single shared final exponentiation, which is how the
    precompile-style :func:`multi_pairing` check amortizes its cost.
    """
    if q is None or p is None:
        return FQ12.one()
    r = q
    f = FQ12.one()
    for i in range(LOG_ATE_LOOP_COUNT, -1, -1):
        f = f * f * _linefunc(r, r, p)
        r = point_double(r)
        if ATE_LOOP_COUNT & (2**i):
            f = f * _linefunc(r, q, p)
            r = point_add(r, q)
    # Frobenius-twisted correction steps.
    q1 = (q[0] ** _P, q[1] ** _P)
    nq2 = (q1[0] ** _P, -(q1[1] ** _P))
    f = f * _linefunc(r, q1, p)
    r = point_add(r, q1)
    f = f * _linefunc(r, nq2, p)
    return f


def miller_loop(q: Fq12Point, p: Fq12Point) -> FQ12:
    """The ate Miller loop followed by the final exponentiation."""
    return miller_loop_raw(q, p) ** _FINAL_EXPONENT


def pairing(q: Point, p: G1Point) -> FQ12:
    """The optimal-ate pairing e(P, Q) with P in G1 and Q in G2.

    Returns an element of the order-``r`` subgroup of Fp12*.  Bilinearity:
    ``pairing(Q, a*P) == pairing(Q, P) ** a``.
    """
    if q is not None:
        x, y = q
        if not isinstance(x, FQ2) or not isinstance(y, FQ2):
            raise InvalidPoint("G2 argument must be over Fp2")
    return miller_loop(twist(q), cast_g1_to_fq12(p))


def multi_pairing(pairs: "list[tuple[G1Point, Point]]") -> FQ12:
    """The product ``prod_i e(Pi, Qi)`` as one Miller-loop product.

    Each pair contributes only its (raw) Miller loop; the expensive
    final exponentiation is applied *once* to the accumulated product.
    This is exactly how the Ethereum pairing precompile evaluates a
    check over many pairs, and it is the combined path batched Groth16
    verification rides on: ``k`` pairings cost ``k`` Miller loops plus a
    single final exponentiation instead of ``k``.
    """
    _PAIRING_CALLS.inc()
    _PAIRING_PAIRS.inc(len(pairs))
    accumulator = FQ12.one()
    for g1_point, g2_point in pairs:
        if g2_point is not None:
            x, y = g2_point
            if not isinstance(x, FQ2) or not isinstance(y, FQ2):
                raise InvalidPoint("G2 argument must be over Fp2")
        accumulator = accumulator * miller_loop_raw(
            twist(g2_point), cast_g1_to_fq12(g1_point)
        )
    return accumulator ** _FINAL_EXPONENT


def pairing_check(pairs: "list[tuple[G1Point, Point]]") -> bool:
    """Whether the product of pairings over ``pairs`` equals one.

    This mirrors the Ethereum pairing precompile's interface: it receives
    a list of (G1, G2) pairs and accepts iff ``prod e(Pi, Qi) == 1``,
    evaluated via :func:`multi_pairing` (one shared final exponentiation).
    """
    return multi_pairing(pairs) == FQ12.one()
