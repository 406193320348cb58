"""keccak-256 against the well-known Ethereum vectors and edge cases,
and both sponges against an independent oracle: ``hashlib.sha3_256``
runs the same keccak-f[1600] at the same 136-byte rate and differs only
in its first pad byte (``0x06`` where keccak has ``0x01``).  The batched
``keccak256_many`` is checked against ``keccak256``, the reference, on
batches of equal and of ragged lengths, and pinned to one wide pass per
batch whose memory stays within the batch's own bytes."""

import hashlib
import random
import threading
import tracemalloc

import pytest

from repro.crypto import keccak
from repro.crypto.keccak import (
    keccak256,
    keccak256_hex,
    keccak256_many,
    keccak_to_int,
)

#: SHA3-256's first pad byte; keccak-256 uses 0x01.
SHA3_PAD = 0x06

KNOWN_VECTORS = [
    (b"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"),
    (b"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"),
    (b"hello", "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8"),
    (
        b"The quick brown fox jumps over the lazy dog",
        "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
    ),
]


@pytest.mark.parametrize("message,expected", KNOWN_VECTORS)
def test_known_vectors(message, expected):
    assert keccak256(message).hex() == expected


def test_output_is_32_bytes():
    assert len(keccak256(b"x")) == 32


def test_hex_helper_matches_bytes():
    assert keccak256_hex(b"abc") == keccak256(b"abc").hex()


def test_int_helper_is_big_endian():
    assert keccak_to_int(b"abc") == int.from_bytes(keccak256(b"abc"), "big")


def test_differs_from_sha3_256():
    """Keccak padding (0x01) differs from NIST SHA3 padding (0x06)."""
    import hashlib

    assert keccak256(b"") != hashlib.sha3_256(b"").digest()


@pytest.mark.parametrize("length", [0, 1, 135, 136, 137, 271, 272, 273, 1000])
def test_rate_boundary_lengths(length):
    """Messages straddling the 136-byte rate must hash deterministically
    and distinctly from their neighbours."""
    base = bytes(range(256)) * 4
    digest = keccak256(base[:length])
    assert digest == keccak256(base[:length])
    if length:
        assert digest != keccak256(base[: length - 1])


def test_single_bit_avalanche():
    a = keccak256(b"\x00" * 64)
    b = keccak256(b"\x00" * 63 + b"\x01")
    differing_bits = bin(int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).count("1")
    assert differing_bits > 80  # expect ~128 of 256 bits to flip


def test_no_trivial_collisions_on_prefixes():
    digests = {keccak256(b"msg-%d" % i) for i in range(200)}
    assert len(digests) == 200


def test_sponge_matches_sha3_at_every_length_to_three_rates_plus_one():
    """Every length 0..3*136+1: one to four absorbed blocks, and 135 /
    271 / 407, where the whole pad folds into a single byte."""
    message = random.Random(1600).randbytes(3 * 136 + 1)
    for length in range(len(message) + 1):
        data = message[:length]
        expected = hashlib.sha3_256(data).digest()
        assert keccak._sponge(data, SHA3_PAD) == expected, length


@pytest.mark.parametrize("length", [1000, 4096, 5000, 8191])
def test_sponge_matches_sha3_on_seeded_multi_kilobyte_inputs(length):
    data = random.Random(length).randbytes(length)
    assert keccak._sponge(data, SHA3_PAD) == hashlib.sha3_256(data).digest()


def test_accepts_any_bytes_like_input():
    data = random.Random(7).randbytes(300)
    for view in (bytearray(data), memoryview(data)):
        assert keccak256(view) == keccak256(data)


# ---------------------------------------------------------------------------
# keccak256_many: many messages side by side, checked against keccak256
# ---------------------------------------------------------------------------


def test_many_matches_keccak256_at_every_length_in_one_mixed_batch():
    """Lengths 0..409 in one call: groups of 136 one-, two- and
    three-block messages and a group of two four-block ones, shuffled so
    each group's digests must land back at their own positions."""
    rng = random.Random(409)
    message = rng.randbytes(410)
    batch = [message[:length] for length in range(len(message))]
    rng.shuffle(batch)
    assert keccak256_many(batch) == [keccak256(data) for data in batch]


@pytest.mark.parametrize("size", range(1, 71))
def test_many_matches_keccak256_on_equal_length_batches(size):
    rng = random.Random(size)
    length = rng.choice((0, 1, 32, 65, 67, 135, 136, 200, 271))
    batch = [rng.randbytes(length) for _ in range(size)]
    assert keccak256_many(batch) == [keccak256(data) for data in batch]


def test_many_mixes_block_counts_and_lone_lengths_in_one_call():
    """Shared and unshared padded lengths side by side: three 8-block
    messages, a lone 4 KB one, five 1-block messages and lone 2- and
    3-block ones."""
    rng = random.Random(8)
    lengths = [1000, 67, 1080, 4096, 67, 135, 1050, 0, 136, 65, 300]
    batch = [rng.randbytes(length) for length in lengths]
    assert keccak256_many(batch) == [keccak256(data) for data in batch]


def test_many_accepts_bytes_like_input_and_an_empty_batch():
    data = random.Random(9).randbytes(300)
    views = [bytearray(data), memoryview(data), data, bytearray(data[:10])]
    assert keccak256_many(views) == [keccak256(bytes(view)) for view in views]
    assert keccak256_many([]) == []


def test_batched_sponge_matches_sha3_at_every_length_to_three_rates_plus_one():
    """The batched path with SHA3's pad byte against the oracle, at every
    length 0..3*136+1 in one call (every group two or more wide)."""
    message = random.Random(1601).randbytes(3 * 136 + 1)
    batch = [message[:length] for length in range(len(message) + 1)]
    assert keccak._sponge_many(batch, SHA3_PAD) == [
        hashlib.sha3_256(data).digest() for data in batch
    ]


@pytest.mark.parametrize("length", [1000, 4096, 8191])
def test_wide_sponge_matches_sha3_on_seeded_multi_kilobyte_inputs(length):
    rng = random.Random(length)
    batch = [rng.randbytes(length) for _ in range(3)]
    assert keccak._sponge_wide(batch, SHA3_PAD) == [
        hashlib.sha3_256(data).digest() for data in batch
    ]


# ---------------------------------------------------------------------------
# Ragged batches: any lengths side by side in one wide pass
# ---------------------------------------------------------------------------

#: Lengths at and around the 136-byte rate, whole multiples of it, and
#: long tails, drawn from alongside uniform lengths up to 5,000 bytes.
RAGGED_LENGTHS = (0, 1, 135, 136, 137, 271, 272, 273, 136 * 7, 136 * 30, 5000)


def ragged_batch(seed: int, size: int):
    rng = random.Random(seed)
    return [
        rng.randbytes(
            rng.choice(RAGGED_LENGTHS) if rng.random() < 0.5
            else rng.randrange(5001)
        )
        for _ in range(size)
    ]


@pytest.mark.parametrize("size", [2, 3, 4, 7, 16, 33, 64, 65, 70])
def test_many_matches_keccak256_on_seeded_ragged_batches(size):
    batch = ragged_batch(size, size)
    assert len({len(data) // 136 for data in batch}) > 1
    assert keccak256_many(batch) == [keccak256(data) for data in batch]


@pytest.mark.parametrize("size", [2, 3, 5, 8, 13, 21, 34, 55, 70])
def test_batched_sponge_matches_sha3_on_seeded_ragged_batches(size):
    batch = ragged_batch(1000 + size, size)
    assert len({len(data) // 136 for data in batch}) > 1
    assert keccak._sponge_many(batch, SHA3_PAD) == [
        hashlib.sha3_256(data).digest() for data in batch
    ]


def test_a_batch_of_distinct_block_counts_is_one_wide_pass(monkeypatch):
    """1, 2, 3, 8 and 37 padded blocks: one ``_sponge_wide`` call over
    all five messages, and no message hashed alone by ``_sponge``."""
    batch = [random.Random(length).randbytes(length)
             for length in (0, 136, 300, 1000, 5000)]
    expected = [keccak256(data) for data in batch]
    calls = []
    wide, single = keccak._sponge_wide, keccak._sponge

    def counted_wide(messages, pad):
        calls.append(("_sponge_wide", len(messages)))
        return wide(messages, pad)

    def counted_single(data, pad):
        calls.append(("_sponge", 1))
        return single(data, pad)

    monkeypatch.setattr(keccak, "_sponge_wide", counted_wide)
    monkeypatch.setattr(keccak, "_sponge", counted_single)
    assert keccak256_many(batch) == expected
    assert calls == [("_sponge_wide", 5)]


def test_a_long_message_beside_short_ones_stays_within_the_batch_s_bytes():
    """One 256 KB message beside 63 one-byte ones hashes to the oracle's
    digests.  Padding every message to the longest would hold 64 times
    256 KB (16 MB); the wide pass holds one step's blocks and the lane
    ints (a traced peak near 110 KB at 64 slots), so the call's peak
    stays within twice the batch's own bytes.

    tracemalloc slows this kernel about a hundredfold, and tracing all
    1,928 permutations would take tens of seconds, so tracing stops after
    the call's first second, which covers whatever it set up before its
    first permutation and its widest steps; the rest runs untraced."""
    rng = random.Random(2)
    batch = [rng.randbytes(256 << 10)] + [rng.randbytes(1) for _ in range(63)]
    own = sum(len(data) for data in batch)
    peaks = []

    def stop_tracing():
        if tracemalloc.is_tracing():
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    timer = threading.Timer(1.0, stop_tracing)
    tracemalloc.start()
    timer.start()
    try:
        digests = keccak._sponge_many(batch, SHA3_PAD)
    finally:
        timer.cancel()
        timer.join(timeout=10)
        stop_tracing()
    assert digests == [hashlib.sha3_256(data).digest() for data in batch]
    assert len(peaks) == 1
    assert peaks[0] <= 2 * own
