"""The crypto layer's entropy source — swappable for deterministic runs.

Every random draw the protocol makes (ElGamal encryption randomness,
commitment blinding keys, simulated sigma-protocol transcripts, batch
verification weights, fresh secret keys) flows through the module-level
:data:`entropy` object.  By default it draws from the operating system
via :mod:`secrets`, exactly as before.

The workload simulator (:mod:`repro.sim`) needs more: a seeded
:class:`~repro.sim.scenario.Scenario` run must be byte-for-byte
reproducible, *including gas* — and gas depends on the zero-byte count
of ciphertext calldata (EIP-2028 pricing), i.e. on the encryption
randomness itself.  :func:`deterministic_entropy` therefore swaps a
seeded stream in for the duration of a run::

    with deterministic_entropy(seed=7):
        report = run_scenario(scenario)   # same seed -> same bytes

Persistence (checkpoint/resume) needs more still: a resumed run must
*continue* the entropy stream where the checkpoint left off, not restart
it — otherwise every post-resume ciphertext (and therefore every gas
number) diverges from the uninterrupted run.  The deterministic mode is
therefore a counter-mode DRBG (:class:`DeterministicStream`) whose whole
position is three numbers — the seed digest, a block counter, and a
byte offset — exposed through :meth:`EntropySource.save_state` /
:meth:`EntropySource.restore_state` and persisted by
:mod:`repro.store`.

This is a simulation device, not a cryptographic mode: never run with
deterministic entropy when the secrets matter.
"""

from __future__ import annotations

import hashlib
import secrets
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

_BLOCK_BYTES = 32
_DOMAIN = b"dragoon-entropy:"


class DeterministicStream:
    """A seeded counter-mode byte stream (SHA-256 over ``digest || ctr``).

    The stream's exact position is ``(seed_digest, counter, offset)``:
    ``counter`` blocks of 32 bytes have been generated and ``offset``
    bytes of the current block consumed.  :meth:`state` captures the
    position, :meth:`from_state` reopens the stream mid-byte — which is
    what lets a resumed simulation continue drawing the same bytes an
    uninterrupted run would have drawn.
    """

    def __init__(self, seed: int) -> None:
        self.seed_digest = hashlib.sha256(
            _DOMAIN + str(seed).encode("utf-8")
        ).digest()
        self._counter = 0  # blocks generated so far
        self._block = b""
        self._offset = 0  # bytes consumed of the current block

    # -- position ------------------------------------------------------------

    def state(self) -> Dict[str, object]:
        """The stream position as plain data (JSON/codec friendly)."""
        return {
            "seed_digest": self.seed_digest.hex(),
            "counter": self._counter,
            "offset": self._offset,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "DeterministicStream":
        """Reopen a stream exactly where :meth:`state` captured it."""
        stream = cls.__new__(cls)
        stream.seed_digest = bytes.fromhex(state["seed_digest"])
        stream._counter = int(state["counter"])
        stream._offset = int(state["offset"])
        if stream._counter > 0:
            stream._block = stream._generate(stream._counter - 1)
        else:
            stream._block = b""
        return stream

    # -- generation ----------------------------------------------------------

    def _generate(self, index: int) -> bytes:
        return hashlib.sha256(
            self.seed_digest + index.to_bytes(8, "big")
        ).digest()

    def take(self, length: int) -> bytes:
        """The next ``length`` bytes of the stream."""
        parts = []
        remaining = length
        while remaining > 0:
            if self._offset >= len(self._block):
                self._block = self._generate(self._counter)
                self._counter += 1
                self._offset = 0
            chunk = self._block[self._offset : self._offset + remaining]
            self._offset += len(chunk)
            remaining -= len(chunk)
            parts.append(chunk)
        return b"".join(parts)

    # -- the draw API the crypto layer uses -----------------------------------

    def getrandbits(self, bits: int) -> int:
        if bits <= 0:
            return 0
        nbytes = (bits + 7) // 8
        value = int.from_bytes(self.take(nbytes), "big")
        return value >> (8 * nbytes - bits)

    def randbelow(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = bound.bit_length()
        while True:  # rejection sampling: uniform and unbiased
            value = self.getrandbits(bits)
            if value < bound:
                return value


class EntropySource:
    """OS entropy by default; a seeded deterministic stream otherwise."""

    def __init__(self) -> None:
        self._stream: Optional[DeterministicStream] = None

    @property
    def deterministic(self) -> bool:
        return self._stream is not None

    def randbelow(self, bound: int) -> int:
        """A uniform integer in [0, bound)."""
        if self._stream is not None:
            return self._stream.randbelow(bound)
        return secrets.randbelow(bound)

    def getrandbits(self, bits: int) -> int:
        if self._stream is not None:
            return self._stream.getrandbits(bits)
        return secrets.randbits(bits)

    def token_bytes(self, length: int) -> bytes:
        if self._stream is not None:
            return self._stream.take(length)
        return secrets.token_bytes(length)

    # -- persistence hooks ----------------------------------------------------

    def save_state(self) -> Optional[Dict[str, object]]:
        """The deterministic stream position, or ``None`` in OS mode.

        Checkpoints store this next to the chain state so a resumed run
        continues the entropy stream instead of restarting it.
        """
        if self._stream is None:
            return None
        return self._stream.state()

    def restore_state(self, state: Optional[Dict[str, object]]) -> None:
        """Reposition the source: a saved stream state, or ``None`` for
        OS entropy."""
        self._stream = (
            None if state is None else DeterministicStream.from_state(state)
        )


#: The process-wide entropy source every crypto module draws from.
entropy = EntropySource()


@contextmanager
def deterministic_entropy(
    seed: int, state: Optional[Dict[str, object]] = None
) -> Iterator[None]:
    """Route all crypto randomness through a stream seeded with ``seed``.

    Pass ``state`` (from :meth:`EntropySource.save_state`) to *continue*
    a previously checkpointed stream instead of restarting it — the
    resume path of :mod:`repro.sim.runner`.  Nests safely: the previous
    source (OS entropy or an outer seeded stream) is restored on exit,
    even on error.
    """
    previous = entropy._stream
    entropy._stream = (
        DeterministicStream(seed)
        if state is None
        else DeterministicStream.from_state(state)
    )
    try:
        yield
    finally:
        entropy._stream = previous
