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
and state-trie node hash lands here), so both kernels are written for
CPython, with the lanes in local variables for the whole call and every
rotation constant inlined:

* :func:`_sponge` hashes one message with 64-bit lanes.  A block is
  absorbed with one ``struct`` unpack and the digest squeezed with one
  pack.  :func:`keccak256` always runs it.
* :func:`_sponge_wide` hashes many messages of any lengths in one pass
  (the parallel-instances technique of Bertoni, Daemen, Peeters and
  Van Assche, "Keccak implementation overview", 2012): each lane is one
  Python int that holds that lane of every state, 64 bits apart, so one
  big-int operation advances all of them, and a pass over 16 one-block
  messages costs about what two single-message permutations do, not
  sixteen.  Each block step absorbs the next block of every message
  still live; a finished message's digest is squeezed at once and its
  slot dropped, so later steps run only as wide as what is left.
  :func:`keccak256_many` sends every batch of two or more messages
  here; :func:`_sponge` runs only for :func:`keccak256` and for a batch
  of one, since it is the faster of the two on a single message.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

_LANE_MASK = (1 << 64) - 1
_RATE_BYTES = 136  # 1088-bit rate for Keccak-256

#: An absorbed block is 17 little-endian lanes; the digest is the first 4.
_ABSORB = struct.Struct("<17Q").unpack_from
_SQUEEZE = struct.Struct("<4Q").pack

#: The distinct rotation offsets of rho and theta (for the wide kernel's
#: per-lane masks).
_ROTATIONS = (1, 2, 3, 6, 8, 10, 14, 15, 18, 20, 21, 25, 27, 28, 36, 39, 41,
              43, 44, 45, 55, 56, 61, 62)

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


def _tail(length: int, pad: int) -> bytes:
    """The padding that fills a ``length``-byte message to whole blocks.

    ``pad`` is the first padding byte: ``0x01`` for keccak-256, ``0x06``
    for SHA3-256.  The pad closes with ``0x80``, folded into a single
    ``pad | 0x80`` byte when only one byte of the block is left.
    """
    fill = _RATE_BYTES - length % _RATE_BYTES
    if fill == 1:
        return bytes((pad | 0x80,))
    return bytes((pad,)) + bytes(fill - 2) + b"\x80"


def _sponge(data: bytes, pad: int) -> bytes:
    """Pad ``data``, absorb it through keccak-f[1600], squeeze 32 bytes.

    ``pad`` is the first padding byte (see :func:`_tail`).

    Lane (x, y) of the state is ``a{x + 5y}``; ``c``/``d`` are theta's
    column parities and corrections, and ``b`` is the state after rho
    and pi: ``b[y, 2x + 3y] = rotl(a[x, y] ^ d[x], r[x, y])``.  Chi
    then writes the next ``a`` row by row, with iota on lane 0.  The
    rotation offsets inlined below are, for x = 0..4 and y = 0..4::

        r[0, y] =  0 36  3 41 18    r[3, y] = 28 55 25 21 56
        r[1, y] =  1 44 10 45  2    r[4, y] = 27 20 39  8 14
        r[2, y] = 62  6 43 15 61
    """
    # One copy of the message, however large (snapshots hash megabytes).
    padded = b"".join((data, _tail(len(data), pad)))
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


def _sponge_wide(messages: Sequence[bytes], pad: int) -> List[bytes]:
    """``[_sponge(m, pad) for m in messages]`` in one keccak-f[1600] pass.

    The messages may have any lengths.  They take their places longest
    first: message ``j`` of that order sits at bits ``64j .. 64j + 63``
    of each lane int ``a{i}``, so each XOR/AND below acts on every live
    state at once.  A rotation is two shifts masked to each 64-bit lane
    (``hi{r}`` keeps bits ``r .. 63`` of every lane, ``lo{r}`` bits
    ``0 .. r - 1``) and chi's NOT is an XOR with ``ones``, which keeps
    every int non-negative.

    Block step ``s`` absorbs block ``s`` of every message still live:
    the blocks are joined side by side (only the last one of each
    message is a padded copy, so nothing is held past the batch's own
    bytes) and each lane is read with one ``int.from_bytes`` over a
    strided ``memoryview``.  A message's digest is squeezed right after
    its last block; its slot is then masked off every lane int,
    ``ones`` and the round constants, so the later steps run only as
    wide as the messages left.  The rotation masks stay full width: an
    AND of two non-negative ints costs the narrower one.
    """
    count = len(messages)
    lengths = [len(data) for data in messages]
    order = sorted(range(count), key=lengths.__getitem__, reverse=True)
    ordered = [messages[index] for index in order]
    # Each message's last block: its offset, and the block padded.
    ends = [lengths[index] // _RATE_BYTES * _RATE_BYTES for index in order]
    lasts = [
        b"".join((data[end:], _tail(len(data), pad)))
        for data, end in zip(ordered, ends)
    ]
    digests: List[bytes] = [b""] * count
    from_bytes = int.from_bytes
    unit = from_bytes(b"\x01\x00\x00\x00\x00\x00\x00\x00" * count, "little")
    ones = unit * _LANE_MASK
    (lo1, lo2, lo3, lo6, lo8, lo10, lo14, lo15, lo18, lo20, lo21, lo25,
     lo27, lo28, lo36, lo39, lo41, lo43, lo44, lo45, lo55, lo56, lo61,
     lo62) = lows = [unit * ((1 << r) - 1) for r in _ROTATIONS]
    (hi1, hi2, hi3, hi6, hi8, hi10, hi14, hi15, hi18, hi20, hi21, hi25,
     hi27, hi28, hi36, hi39, hi41, hi43, hi44, hi45, hi55, hi56, hi61,
     hi62) = [ones ^ low for low in lows]
    round_constants = [unit * constant for constant in _ROUND_CONSTANTS]
    live = count
    a0 = a1 = a2 = a3 = a4 = a5 = a6 = a7 = a8 = a9 = a10 = a11 = a12 = 0
    a13 = a14 = a15 = a16 = a17 = a18 = a19 = a20 = a21 = a22 = a23 = a24 = 0
    for offset in range(0, ends[0] + 1, _RATE_BYTES):
        # Messages [0, going) go on past this block; [going, live) end.
        going = live
        while going and ends[going - 1] == offset:
            going -= 1
        pieces = [data[offset:offset + _RATE_BYTES] for data in ordered[:going]]
        pieces += lasts[going:live]
        words = memoryview(b"".join(pieces)).cast("Q")
        (m0, m1, m2, m3, m4, m5, m6, m7, m8,
         m9, m10, m11, m12, m13, m14, m15, m16) = [
            from_bytes(words[index::17].tobytes(), "little")
            for index in range(17)
        ]
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
        for round_constant in round_constants:
            # theta
            c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
            c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
            c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
            c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
            c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
            d0 = c4 ^ ((c1 << 1) & hi1 | (c1 >> 63) & lo1)
            d1 = c0 ^ ((c2 << 1) & hi1 | (c2 >> 63) & lo1)
            d2 = c1 ^ ((c3 << 1) & hi1 | (c3 >> 63) & lo1)
            d3 = c2 ^ ((c4 << 1) & hi1 | (c4 >> 63) & lo1)
            d4 = c3 ^ ((c0 << 1) & hi1 | (c0 >> 63) & lo1)
            # rho + pi
            b0 = a0 ^ d0
            lane = a6 ^ d1
            b1 = (lane << 44) & hi44 | (lane >> 20) & lo44
            lane = a12 ^ d2
            b2 = (lane << 43) & hi43 | (lane >> 21) & lo43
            lane = a18 ^ d3
            b3 = (lane << 21) & hi21 | (lane >> 43) & lo21
            lane = a24 ^ d4
            b4 = (lane << 14) & hi14 | (lane >> 50) & lo14
            lane = a3 ^ d3
            b5 = (lane << 28) & hi28 | (lane >> 36) & lo28
            lane = a9 ^ d4
            b6 = (lane << 20) & hi20 | (lane >> 44) & lo20
            lane = a10 ^ d0
            b7 = (lane << 3) & hi3 | (lane >> 61) & lo3
            lane = a16 ^ d1
            b8 = (lane << 45) & hi45 | (lane >> 19) & lo45
            lane = a22 ^ d2
            b9 = (lane << 61) & hi61 | (lane >> 3) & lo61
            lane = a1 ^ d1
            b10 = (lane << 1) & hi1 | (lane >> 63) & lo1
            lane = a7 ^ d2
            b11 = (lane << 6) & hi6 | (lane >> 58) & lo6
            lane = a13 ^ d3
            b12 = (lane << 25) & hi25 | (lane >> 39) & lo25
            lane = a19 ^ d4
            b13 = (lane << 8) & hi8 | (lane >> 56) & lo8
            lane = a20 ^ d0
            b14 = (lane << 18) & hi18 | (lane >> 46) & lo18
            lane = a4 ^ d4
            b15 = (lane << 27) & hi27 | (lane >> 37) & lo27
            lane = a5 ^ d0
            b16 = (lane << 36) & hi36 | (lane >> 28) & lo36
            lane = a11 ^ d1
            b17 = (lane << 10) & hi10 | (lane >> 54) & lo10
            lane = a17 ^ d2
            b18 = (lane << 15) & hi15 | (lane >> 49) & lo15
            lane = a23 ^ d3
            b19 = (lane << 56) & hi56 | (lane >> 8) & lo56
            lane = a2 ^ d2
            b20 = (lane << 62) & hi62 | (lane >> 2) & lo62
            lane = a8 ^ d3
            b21 = (lane << 55) & hi55 | (lane >> 9) & lo55
            lane = a14 ^ d4
            b22 = (lane << 39) & hi39 | (lane >> 25) & lo39
            lane = a15 ^ d0
            b23 = (lane << 41) & hi41 | (lane >> 23) & lo41
            lane = a21 ^ d1
            b24 = (lane << 2) & hi2 | (lane >> 62) & lo2
            # chi + iota
            a0 = b0 ^ (b1 ^ ones) & b2 ^ round_constant
            a1 = b1 ^ (b2 ^ ones) & b3
            a2 = b2 ^ (b3 ^ ones) & b4
            a3 = b3 ^ (b4 ^ ones) & b0
            a4 = b4 ^ (b0 ^ ones) & b1
            a5 = b5 ^ (b6 ^ ones) & b7
            a6 = b6 ^ (b7 ^ ones) & b8
            a7 = b7 ^ (b8 ^ ones) & b9
            a8 = b8 ^ (b9 ^ ones) & b5
            a9 = b9 ^ (b5 ^ ones) & b6
            a10 = b10 ^ (b11 ^ ones) & b12
            a11 = b11 ^ (b12 ^ ones) & b13
            a12 = b12 ^ (b13 ^ ones) & b14
            a13 = b13 ^ (b14 ^ ones) & b10
            a14 = b14 ^ (b10 ^ ones) & b11
            a15 = b15 ^ (b16 ^ ones) & b17
            a16 = b16 ^ (b17 ^ ones) & b18
            a17 = b17 ^ (b18 ^ ones) & b19
            a18 = b18 ^ (b19 ^ ones) & b15
            a19 = b19 ^ (b15 ^ ones) & b16
            a20 = b20 ^ (b21 ^ ones) & b22
            a21 = b21 ^ (b22 ^ ones) & b23
            a22 = b22 ^ (b23 ^ ones) & b24
            a23 = b23 ^ (b24 ^ ones) & b20
            a24 = b24 ^ (b20 ^ ones) & b21

        if going == live:
            continue
        # Squeeze the messages that ended here, then drop their slots.
        done = live - going
        squeezed = bytearray(32 * done)
        view = memoryview(squeezed).cast("Q")
        for index, state in enumerate((a0, a1, a2, a3)):
            view[index::4] = memoryview(
                (state >> 64 * going).to_bytes(8 * done, "little")
            ).cast("Q")
        for position, start in zip(order[going:live], range(0, 32 * done, 32)):
            digests[position] = bytes(squeezed[start:start + 32])
        live = going
        if not live:
            break  # that was the longest message's last block
        ones = (1 << 64 * live) - 1
        round_constants = [constant & ones for constant in round_constants]
        (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15,
         a16, a17, a18, a19, a20, a21, a22, a23, a24) = [
            lane & ones for lane in (
                a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13,
                a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24,
            )
        ]
    return digests


def _sponge_many(messages: Sequence[bytes], pad: int) -> List[bytes]:
    """``[_sponge(m, pad) for m in messages]``, two or more in one pass.

    A batch of two or more messages, of any lengths, goes through one
    :func:`_sponge_wide` pass; a lone message goes to :func:`_sponge`,
    the faster of the two on a single message.
    """
    if len(messages) < 2:
        return [_sponge(data, pad) for data in messages]
    return _sponge_wide(messages, pad)


def keccak256(data: bytes) -> bytes:
    """Compute the 32-byte keccak-256 digest of ``data``."""
    return _sponge(data, 0x01)


def keccak256_many(messages: Sequence[bytes]) -> List[bytes]:
    """``[keccak256(m) for m in messages]``, hashed side by side.

    The digests are the same bytes :func:`keccak256` returns; two or
    more messages, of any lengths, share one permutation pass (see
    :func:`_sponge_wide`), which is what makes a batch of independent
    messages, such as one level of state-trie nodes or a sync's new
    blocks and events, cheap.
    """
    return _sponge_many(messages, 0x01)


def keccak256_hex(data: bytes) -> str:
    """Hex-encoded keccak-256 digest (convenience)."""
    return keccak256(data).hex()


def keccak_to_int(data: bytes) -> int:
    """Interpret the keccak-256 digest of ``data`` as a big-endian integer."""
    return int.from_bytes(keccak256(data), "big")
