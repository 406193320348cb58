"""Exception hierarchy for the Dragoon reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.  Sub-hierarchies
mirror the package layout: crypto, ledger, chain, protocol, baseline.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Crypto layer
# ---------------------------------------------------------------------------


class CryptoError(ReproError):
    """Base class for failures in the cryptographic substrate."""


class InvalidPoint(CryptoError):
    """A point is not on the expected curve or not in the expected subgroup."""


class InvalidScalar(CryptoError):
    """A scalar is outside the valid range for the group order."""


class NonResidueError(CryptoError):
    """A field element has no square root (not a quadratic residue).

    Raised by :func:`repro.crypto.field.sqrt_mod`; the *expected* failure
    mode of try-and-increment hashing (``G1Point.hash_to_group``), which
    catches exactly this class — any other exception out of the lifting
    path is a genuine bug and must propagate."""


class DecryptionError(CryptoError):
    """A ciphertext could not be decrypted to a plaintext in range."""


class ProofError(CryptoError):
    """A proof could not be generated for the claimed statement."""


# ---------------------------------------------------------------------------
# Ledger layer
# ---------------------------------------------------------------------------


class LedgerError(ReproError):
    """Base class for ledger failures."""


class UnknownAccount(LedgerError):
    """The referenced account has never been registered on the ledger."""


class InsufficientFunds(LedgerError):
    """A freeze or transfer exceeds the available balance."""


class EscrowError(LedgerError):
    """A contract tried to pay out more than it holds in escrow."""


# ---------------------------------------------------------------------------
# Chain layer
# ---------------------------------------------------------------------------


class ChainError(ReproError):
    """Base class for blockchain-simulation failures."""


class OutOfGas(ChainError):
    """A transaction exceeded its gas limit."""


class InvalidTransaction(ChainError):
    """A transaction is malformed or violates chain rules."""


class ContractError(ChainError):
    """A contract call reverted."""


# ---------------------------------------------------------------------------
# Protocol layer
# ---------------------------------------------------------------------------


class ProtocolError(ReproError):
    """Base class for HIT-protocol failures."""


class TaskSpecError(ProtocolError):
    """A HIT task specification is internally inconsistent."""


class AnswerError(ProtocolError):
    """A worker answer is malformed for the task it targets."""


# ---------------------------------------------------------------------------
# Reporting pipeline
# ---------------------------------------------------------------------------


class ReportError(ReproError):
    """A failure in the telemetry analytics pipeline (:mod:`repro.reporting`).

    Raised for unusable inputs the pipeline must not silently paper
    over: a trace record with an unknown schema version, a metrics
    snapshot that does not round-trip canonically, a sweep spec whose
    axes name no known scenario knob, or report artifacts that disagree
    with their manifest."""


# ---------------------------------------------------------------------------
# RPC boundary
# ---------------------------------------------------------------------------


class RpcError(ReproError):
    """A failure at the JSON-RPC boundary (see :mod:`repro.rpc`).

    Raised client-side for transport problems and for server errors that
    do not map back onto a concrete library exception; ``code`` carries
    the JSON-RPC error code, ``data`` the server's structured detail.
    """

    def __init__(self, message: str, code: int = 0, data: object = None) -> None:
        super().__init__(message)
        self.code = code
        self.data = data


# ---------------------------------------------------------------------------
# Baseline (generic zk-proof) layer
# ---------------------------------------------------------------------------


class BaselineError(ReproError):
    """Base class for generic-ZKP baseline failures."""


class ConstraintError(BaselineError):
    """An R1CS constraint system is unsatisfied or malformed."""


class SetupError(BaselineError):
    """A SNARK trusted setup is inconsistent with the circuit."""
