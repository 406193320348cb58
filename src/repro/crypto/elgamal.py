"""Exponential ElGamal over BN-128 G1 — Dragoon's answer encryption.

The paper (§V-C) encrypts each multiple-choice answer ``m`` as

    Enc_h(m; r) = (g^r,  g^m · h^r)

so decryption recovers ``g^m`` and then brute-forces the *short* answer
range to find ``m``.  Short plaintexts are exactly what makes verifiable
decryption cheap: the Schnorr-style proof in :mod:`repro.crypto.vpke`
attests the relation on ``g^m`` directly.

An answer vector is one unit of work, and a single message is the
one-element vector.  :meth:`ElGamalPublicKey.encrypt_vector` looks up the
generator's and the key's fixed-base tables once, forms every ``g^r`` and
``g^m h^r`` in Jacobian form and normalizes the whole vector with one
inversion.  :meth:`ElGamalSecretKey.decrypt_vector` forms each
``c2 / c1^k`` from one variable-base multiplication, leaves it Jacobian,
and matches it against candidates ``g^m`` by cross-multiplying, each
candidate computed at most once per call.  If the plaintext is outside
the declared range, decryption returns the raw group element ``g^m`` —
precisely the behaviour the paper's ``outrange`` dispute path needs.
Aggregates beyond the answer range decode by baby-step/giant-step
(:meth:`ElGamalSecretKey.decrypt_bsgs`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.crypto import curve
from repro.crypto.curve import CURVE_ORDER, G1Point, random_scalar
from repro.errors import DecryptionError, InvalidScalar

Plaintext = int
#: A decryption result: either an in-range integer or a bare group element.
DecryptResult = Union[int, G1Point]


@dataclass(frozen=True)
class Ciphertext:
    """An ElGamal ciphertext ``(c1, c2) = (g^r, g^m h^r)``."""

    c1: G1Point
    c2: G1Point

    def to_bytes(self) -> bytes:
        return self.c1.to_bytes() + self.c2.to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Ciphertext":
        if len(data) != 128:
            raise ValueError("ciphertext encoding must be 128 bytes")
        return cls(G1Point.from_bytes(data[:64]), G1Point.from_bytes(data[64:]))

    def __add__(self, other: "Ciphertext") -> "Ciphertext":
        """Homomorphic addition of plaintexts."""
        if not isinstance(other, Ciphertext):
            return NotImplemented
        return Ciphertext(self.c1 + other.c1, self.c2 + other.c2)

    def scale(self, factor: int) -> "Ciphertext":
        """Homomorphic multiplication of the plaintext by ``factor``."""
        return Ciphertext(self.c1 * factor, self.c2 * factor)


class ElGamalPublicKey:
    """The public half ``h = g^k``; encrypts and re-randomizes."""

    def __init__(self, h: G1Point) -> None:
        self.h = h
        self._g = G1Point.generator()

    def encrypt(self, message: int, randomness: Optional[int] = None) -> Ciphertext:
        """Encrypt a (small) integer message."""
        return self._encrypt([message], [randomness])[0]

    def encrypt_vector(self, messages: Sequence[int]) -> List[Ciphertext]:
        """Encrypt a sequence of messages with independent randomness."""
        return self._encrypt(messages, [None] * len(messages))

    def _encrypt(
        self, messages: Sequence[int], randomness: Sequence[Optional[int]]
    ) -> List[Ciphertext]:
        """The vector kernel: ``(g^r, g^m h^r)`` per message, drawing each
        missing ``r`` in message order, one inversion for the lot."""
        scalars = []
        for message, r in zip(messages, randomness):
            if not isinstance(message, int) or message < 0:
                raise InvalidScalar("ElGamal messages must be non-negative ints")
            scalars.append(r if r is not None else random_scalar())
        g_table = curve._fixed_base_table(self._g.affine)
        h_table = curve._fixed_base_table(self.h.affine)
        points = []
        for message, r in zip(messages, scalars):
            points.append(g_table.multiply_jacobian(r))
            points.append(
                curve._jacobian_add(
                    g_table.multiply_jacobian(message), h_table.multiply_jacobian(r)
                )
            )
        affine = curve._batch_to_affine(points)
        return [
            Ciphertext(G1Point(affine[index]), G1Point(affine[index + 1]))
            for index in range(0, len(affine), 2)
        ]

    def rerandomize(
        self, ciphertext: Ciphertext, randomness: Optional[int] = None
    ) -> Ciphertext:
        """Refresh a ciphertext's randomness without changing the plaintext."""
        r = randomness if randomness is not None else random_scalar()
        return Ciphertext(
            ciphertext.c1 + self._g.mul_fixed(r),
            ciphertext.c2 + self.h.mul_fixed(r),
        )

    def to_bytes(self) -> bytes:
        return self.h.to_bytes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ElGamalPublicKey):
            return NotImplemented
        return self.h == other.h

    def __hash__(self) -> int:
        return hash(("elgamal-pk", self.h))


class ElGamalSecretKey:
    """The secret exponent ``k``; decrypts short-range plaintexts."""

    def __init__(self, k: int) -> None:
        if not 0 < k < CURVE_ORDER:
            raise InvalidScalar("secret key out of range")
        self.k = k
        self._g = G1Point.generator()
        self._bsgs_cache: Dict[int, Dict[G1Point, int]] = {}

    @functools.cached_property
    def public_key(self) -> ElGamalPublicKey:
        """``g^k``, computed once per key through the generator's table.

        Cached on the instance, so a key unpickled from an older
        checkpoint (which carries no cached value) computes it on first
        use.
        """
        return ElGamalPublicKey(self._g.mul_fixed(self.k))

    def shared_point(self, ciphertext: Ciphertext) -> G1Point:
        """The masked plaintext ``g^m = c2 / c1^k``."""
        return ciphertext.c2 - ciphertext.c1 * self.k

    def decrypt(
        self, ciphertext: Ciphertext, message_range: Iterable[int]
    ) -> DecryptResult:
        """Decrypt, searching ``message_range`` for the plaintext.

        Returns the integer plaintext when it lies in the range, or the
        bare group element ``g^m`` otherwise (the paper's out-of-range
        dispute evidence).
        """
        return self._decrypt([ciphertext], message_range)[0]

    def decrypt_bsgs(self, ciphertext: Ciphertext, max_message: int) -> int:
        """Decrypt via baby-step/giant-step over ``[0, max_message]``.

        Useful for aggregate plaintexts (e.g. homomorphic sums) that can
        exceed the per-answer range.  Raises if the plaintext is larger.
        """
        masked = self.shared_point(ciphertext)
        if masked.is_infinity:
            return 0
        baby_count = max(1, int(max_message**0.5) + 1)
        table = self._bsgs_cache.get(baby_count)
        if table is None:
            table = {}
            step = G1Point.infinity()
            for j in range(baby_count):
                table[step] = j
                step = step + self._g
            self._bsgs_cache[baby_count] = table
        giant_stride = self._g * baby_count
        current = masked
        for i in range(baby_count + 1):
            j = table.get(current)
            if j is not None:
                message = i * baby_count + j
                if message <= max_message:
                    return message
            current = current - giant_stride
        raise DecryptionError(
            "plaintext not found in [0, %d]" % max_message
        )

    def decrypt_vector(
        self, ciphertexts: Sequence[Ciphertext], message_range: Iterable[int]
    ) -> List[DecryptResult]:
        """Decrypt a vector of ciphertexts against a common range."""
        return self._decrypt(ciphertexts, message_range)

    def _decrypt(
        self, ciphertexts: Sequence[Ciphertext], message_range: Iterable[int]
    ) -> List[DecryptResult]:
        """The vector kernel: each ``c2 / c1^k`` stays Jacobian and is
        normalized only when no candidate matches it."""
        tried: List[Tuple[int, curve.Affine]] = []
        pending = iter(message_range)
        results: List[DecryptResult] = []
        for ciphertext in ciphertexts:
            masked = curve._jacobian_add(
                curve._to_jacobian(ciphertext.c2.affine),
                curve._to_jacobian(
                    curve.ec_neg(curve.ec_mul(ciphertext.c1.affine, self.k))
                ),
            )
            for message, point in self._candidates(tried, pending):
                if curve._jacobian_matches(masked, point):
                    results.append(message)
                    break
            else:
                results.append(G1Point(curve._from_jacobian(masked)))
        return results

    def _candidates(
        self, tried: List[Tuple[int, curve.Affine]], pending: Iterator[int]
    ) -> Iterator[Tuple[int, curve.Affine]]:
        """``(m, g^m)`` in range order: those already computed, then new
        ones drawn from ``pending`` and kept in ``tried``."""
        yield from tried
        for message in pending:
            tried.append((message, curve.mul_fixed(self._g.affine, message)))
            yield tried[-1]


def keygen(secret: Optional[int] = None) -> Tuple[ElGamalPublicKey, ElGamalSecretKey]:
    """Generate an ElGamal key pair (deterministic when ``secret`` given)."""
    k = secret if secret is not None else random_scalar()
    sk = ElGamalSecretKey(k)
    return sk.public_key, sk

