"""Keccak-256 implemented from scratch (the Ethereum hash function).

This is original Keccak with multi-rate padding (``0x01 .. 0x80``), *not*
NIST SHA3-256 (which pads with ``0x06``).  Ethereum commits to keccak-256
everywhere (transaction hashes, event topics, the ``keccak256`` opcode), and
Dragoon instantiates its random oracle and commitments with it, so we
implement the real thing and test it against the well-known vectors and,
with SHA3's pad byte, against :func:`hashlib.sha3_256` (same permutation,
same 136-byte rate).

The implementation is a sponge over keccak-f[1600]: 25 lanes of 64 bits,
24 rounds of theta / rho / pi / chi / iota, rate 1088 bits (136 bytes) and
capacity 512 bits for the 256-bit output.  It is the hottest code in the
repository (every commitment, oracle query, transaction, block, header
and state-trie node hash lands here), so :func:`_sponge` is written for
CPython: the 25 lanes live in local variables for the whole call, each
round spells out every lane with its rotation constant inlined, a block
is absorbed with one ``struct`` unpack and the digest squeezed with one
pack.
"""

from __future__ import annotations

import struct

_LANE_MASK = (1 << 64) - 1
_RATE_BYTES = 136  # 1088-bit rate for Keccak-256

#: An absorbed block is 17 little-endian lanes; the digest is the first 4.
_ABSORB = struct.Struct("<17Q").unpack_from
_SQUEEZE = struct.Struct("<4Q").pack

_ROUND_CONSTANTS = (
    0x0000000000000001,
    0x0000000000008082,
    0x800000000000808A,
    0x8000000080008000,
    0x000000000000808B,
    0x0000000080000001,
    0x8000000080008081,
    0x8000000000008009,
    0x000000000000008A,
    0x0000000000000088,
    0x0000000080008009,
    0x000000008000000A,
    0x000000008000808B,
    0x800000000000008B,
    0x8000000000008089,
    0x8000000000008003,
    0x8000000000008002,
    0x8000000000000080,
    0x000000000000800A,
    0x800000008000000A,
    0x8000000080008081,
    0x8000000000008080,
    0x0000000080000001,
    0x8000000080008008,
)


def _sponge(data: bytes, pad: int) -> bytes:
    """Pad ``data``, absorb it through keccak-f[1600], squeeze 32 bytes.

    ``pad`` is the first padding byte: ``0x01`` for keccak-256, ``0x06``
    for SHA3-256.  The pad closes with ``0x80``, folded into a single
    ``pad | 0x80`` byte when only one byte of the block is left.

    Lane (x, y) of the state is ``a{x + 5y}``; ``c``/``d`` are theta's
    column parities and corrections, and ``b`` is the state after rho
    and pi: ``b[y, 2x + 3y] = rotl(a[x, y] ^ d[x], r[x, y])``.  Chi
    then writes the next ``a`` row by row, with iota on lane 0.  The
    rotation offsets inlined below are, for x = 0..4 and y = 0..4::

        r[0, y] =  0 36  3 41 18    r[3, y] = 28 55 25 21 56
        r[1, y] =  1 44 10 45  2    r[4, y] = 27 20 39  8 14
        r[2, y] = 62  6 43 15 61
    """
    fill = _RATE_BYTES - len(data) % _RATE_BYTES
    if fill == 1:
        tail = bytes((pad | 0x80,))
    else:
        tail = bytes((pad,)) + bytes(fill - 2) + b"\x80"
    # One copy of the message, however large (snapshots hash megabytes).
    padded = b"".join((data, tail))
    mask = _LANE_MASK
    a0 = a1 = a2 = a3 = a4 = a5 = a6 = a7 = a8 = a9 = a10 = a11 = a12 = 0
    a13 = a14 = a15 = a16 = a17 = a18 = a19 = a20 = a21 = a22 = a23 = a24 = 0
    for offset in range(0, len(padded), _RATE_BYTES):
        (m0, m1, m2, m3, m4, m5, m6, m7, m8,
         m9, m10, m11, m12, m13, m14, m15, m16) = _ABSORB(padded, offset)
        a0 ^= m0
        a1 ^= m1
        a2 ^= m2
        a3 ^= m3
        a4 ^= m4
        a5 ^= m5
        a6 ^= m6
        a7 ^= m7
        a8 ^= m8
        a9 ^= m9
        a10 ^= m10
        a11 ^= m11
        a12 ^= m12
        a13 ^= m13
        a14 ^= m14
        a15 ^= m15
        a16 ^= m16
        for round_constant in _ROUND_CONSTANTS:
            # theta
            c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
            c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
            c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
            c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
            c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
            d0 = c4 ^ ((c1 << 1 | c1 >> 63) & mask)
            d1 = c0 ^ ((c2 << 1 | c2 >> 63) & mask)
            d2 = c1 ^ ((c3 << 1 | c3 >> 63) & mask)
            d3 = c2 ^ ((c4 << 1 | c4 >> 63) & mask)
            d4 = c3 ^ ((c0 << 1 | c0 >> 63) & mask)
            # rho + pi
            b0 = a0 ^ d0
            lane = a6 ^ d1
            b1 = (lane << 44 | lane >> 20) & mask
            lane = a12 ^ d2
            b2 = (lane << 43 | lane >> 21) & mask
            lane = a18 ^ d3
            b3 = (lane << 21 | lane >> 43) & mask
            lane = a24 ^ d4
            b4 = (lane << 14 | lane >> 50) & mask
            lane = a3 ^ d3
            b5 = (lane << 28 | lane >> 36) & mask
            lane = a9 ^ d4
            b6 = (lane << 20 | lane >> 44) & mask
            lane = a10 ^ d0
            b7 = (lane << 3 | lane >> 61) & mask
            lane = a16 ^ d1
            b8 = (lane << 45 | lane >> 19) & mask
            lane = a22 ^ d2
            b9 = (lane << 61 | lane >> 3) & mask
            lane = a1 ^ d1
            b10 = (lane << 1 | lane >> 63) & mask
            lane = a7 ^ d2
            b11 = (lane << 6 | lane >> 58) & mask
            lane = a13 ^ d3
            b12 = (lane << 25 | lane >> 39) & mask
            lane = a19 ^ d4
            b13 = (lane << 8 | lane >> 56) & mask
            lane = a20 ^ d0
            b14 = (lane << 18 | lane >> 46) & mask
            lane = a4 ^ d4
            b15 = (lane << 27 | lane >> 37) & mask
            lane = a5 ^ d0
            b16 = (lane << 36 | lane >> 28) & mask
            lane = a11 ^ d1
            b17 = (lane << 10 | lane >> 54) & mask
            lane = a17 ^ d2
            b18 = (lane << 15 | lane >> 49) & mask
            lane = a23 ^ d3
            b19 = (lane << 56 | lane >> 8) & mask
            lane = a2 ^ d2
            b20 = (lane << 62 | lane >> 2) & mask
            lane = a8 ^ d3
            b21 = (lane << 55 | lane >> 9) & mask
            lane = a14 ^ d4
            b22 = (lane << 39 | lane >> 25) & mask
            lane = a15 ^ d0
            b23 = (lane << 41 | lane >> 23) & mask
            lane = a21 ^ d1
            b24 = (lane << 2 | lane >> 62) & mask
            # chi + iota
            a0 = b0 ^ (~b1 & b2) ^ round_constant
            a1 = b1 ^ (~b2 & b3)
            a2 = b2 ^ (~b3 & b4)
            a3 = b3 ^ (~b4 & b0)
            a4 = b4 ^ (~b0 & b1)
            a5 = b5 ^ (~b6 & b7)
            a6 = b6 ^ (~b7 & b8)
            a7 = b7 ^ (~b8 & b9)
            a8 = b8 ^ (~b9 & b5)
            a9 = b9 ^ (~b5 & b6)
            a10 = b10 ^ (~b11 & b12)
            a11 = b11 ^ (~b12 & b13)
            a12 = b12 ^ (~b13 & b14)
            a13 = b13 ^ (~b14 & b10)
            a14 = b14 ^ (~b10 & b11)
            a15 = b15 ^ (~b16 & b17)
            a16 = b16 ^ (~b17 & b18)
            a17 = b17 ^ (~b18 & b19)
            a18 = b18 ^ (~b19 & b15)
            a19 = b19 ^ (~b15 & b16)
            a20 = b20 ^ (~b21 & b22)
            a21 = b21 ^ (~b22 & b23)
            a22 = b22 ^ (~b23 & b24)
            a23 = b23 ^ (~b24 & b20)
            a24 = b24 ^ (~b20 & b21)
    return _SQUEEZE(a0, a1, a2, a3)


def keccak256(data: bytes) -> bytes:
    """Compute the 32-byte keccak-256 digest of ``data``."""
    return _sponge(data, 0x01)


def keccak256_hex(data: bytes) -> str:
    """Hex-encoded keccak-256 digest (convenience)."""
    return keccak256(data).hex()


def keccak_to_int(data: bytes) -> int:
    """Interpret the keccak-256 digest of ``data`` as a big-endian integer."""
    return int.from_bytes(keccak256(data), "big")
