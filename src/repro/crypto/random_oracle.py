"""A programmable global random oracle built on keccak-256.

The paper analyses Dragoon in the (global, programmable) random-oracle
model [45].  For the *real* protocol the oracle is just keccak-256; for the
*ideal-world simulator* and the zero-knowledge tests we additionally need
the ability to *program* the oracle: fix the output on a chosen input so
that a simulated Fiat–Shamir transcript verifies.

:class:`RandomOracle` supports both: un-programmed queries fall through to
keccak-256, while ``program(query, answer)`` installs an override.  A
consistency guard refuses to program a point that has already been queried
(that is exactly the event whose probability the ROM proof bounds).

The process-wide :func:`default_oracle` answers every commitment, opening
and Fiat–Shamir transcript of the real protocol, so it is plain keccak-256:
it records no query (a long-lived node would otherwise keep every one it
ever answered) and refuses to be programmed.  Simulators and tests that
program pass their own :class:`RandomOracle`.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.crypto.keccak import keccak256
from repro.errors import CryptoError


class OracleConsistencyError(CryptoError):
    """Raised when programming would contradict an answer already given."""


class RandomOracle:
    """A programmable random oracle with keccak-256 as the default table."""

    def __init__(self) -> None:
        self._programmed: Dict[bytes, bytes] = {}
        self._observed: Set[bytes] = set()

    def query(self, data: bytes) -> bytes:
        """Return the oracle's 32-byte answer on ``data``."""
        self._observed.add(data)
        override = self._programmed.get(data)
        if override is not None:
            return override
        return keccak256(data)

    def query_int(self, data: bytes, modulus: Optional[int] = None) -> int:
        """Return the oracle's answer as an integer, optionally mod ``modulus``."""
        value = int.from_bytes(self.query(data), "big")
        if modulus is not None:
            value %= modulus
        return value

    def program(self, data: bytes, answer: bytes) -> None:
        """Fix the oracle's answer on ``data`` (simulator capability).

        Raises :class:`OracleConsistencyError` if ``data`` was already
        queried with a different answer — a simulator that hits this event
        has lost, mirroring the negligible failure case of the ROM proof.
        """
        if len(answer) != 32:
            raise CryptoError("random-oracle answers must be 32 bytes")
        if data in self._observed and self.query(data) != answer:
            raise OracleConsistencyError(
                "cannot reprogram an already-observed oracle point"
            )
        existing = self._programmed.get(data)
        if existing is not None and existing != answer:
            raise OracleConsistencyError("conflicting programming of oracle point")
        self._programmed[data] = answer

    def is_programmed(self, data: bytes) -> bool:
        """Whether ``data`` has a programmed (non-keccak) answer."""
        return data in self._programmed

    @property
    def programmed_count(self) -> int:
        return len(self._programmed)

    def reset(self) -> None:
        """Forget all programming and observations (fresh oracle)."""
        self._programmed.clear()
        self._observed.clear()


class _KeccakOracle(RandomOracle):
    """Plain keccak-256: remembers nothing, so it cannot be programmed."""

    def query(self, data: bytes) -> bytes:
        return keccak256(data)

    def program(self, data: bytes, answer: bytes) -> None:
        raise CryptoError(
            "the default oracle is plain keccak-256 and cannot be "
            "programmed; pass a RandomOracle to program one"
        )


_DEFAULT_ORACLE = _KeccakOracle()


def default_oracle() -> RandomOracle:
    """The process-wide default oracle: plain keccak-256, unprogrammable."""
    return _DEFAULT_ORACLE
