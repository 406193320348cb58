"""Byte-level serialization helpers.

The on-chain cost model charges per calldata byte, so the protocol layer
needs deterministic, compact encodings for integers, curve points, and
ciphertexts.  Points are encoded uncompressed as 64 bytes (32-byte x, then
32-byte y), matching how Ethereum's BN-128 precompiles consume them; the
point at infinity is encoded as 64 zero bytes.
"""

from __future__ import annotations

from typing import Optional, Tuple

WORD_SIZE = 32

AffinePoint = Optional[Tuple[int, int]]


def int_to_bytes(value: int, length: int = WORD_SIZE) -> bytes:
    """Encode a non-negative integer big-endian into ``length`` bytes."""
    if value < 0:
        raise ValueError("cannot encode negative integer: %d" % value)
    return value.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Decode a big-endian byte string into a non-negative integer."""
    return int.from_bytes(data, "big")


def encode_point(point: AffinePoint) -> bytes:
    """Encode an affine point as 64 bytes (zeroes for infinity)."""
    if point is None:
        return b"\x00" * (2 * WORD_SIZE)
    x, y = point
    return int_to_bytes(x) + int_to_bytes(y)


def decode_point(data: bytes) -> AffinePoint:
    """Decode a 64-byte string into an affine point (or None for infinity)."""
    if len(data) != 2 * WORD_SIZE:
        raise ValueError("point encoding must be 64 bytes, got %d" % len(data))
    x = bytes_to_int(data[:WORD_SIZE])
    y = bytes_to_int(data[WORD_SIZE:])
    if x == 0 and y == 0:
        return None
    return (x, y)


def encode_ciphertext(ciphertext: Tuple[AffinePoint, AffinePoint]) -> bytes:
    """Encode an ElGamal ciphertext (c1, c2) as 128 bytes."""
    c1, c2 = ciphertext
    return encode_point(c1) + encode_point(c2)


def decode_ciphertext(data: bytes) -> Tuple[AffinePoint, AffinePoint]:
    """Decode 128 bytes into an ElGamal ciphertext (c1, c2)."""
    if len(data) != 4 * WORD_SIZE:
        raise ValueError("ciphertext encoding must be 128 bytes")
    return (decode_point(data[: 2 * WORD_SIZE]), decode_point(data[2 * WORD_SIZE :]))


def hex_digest(data: bytes) -> str:
    """Render a byte string as lowercase hex (convenience for logs/tests)."""
    return data.hex()
