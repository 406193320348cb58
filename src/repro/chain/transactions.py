"""Transactions, receipts, and event logs for the chain simulator."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.crypto.keccak import keccak256, keccak256_many
from repro.ledger.accounts import Address


class _NonceCounter:
    """The process-wide transaction nonce source.

    A plain counter rather than :func:`itertools.count` so persistence
    can *read* and *set* the position: a resumed node must hand out the
    same nonces the uninterrupted run would have (nonces feed
    ``tx_hash`` and therefore block hashes and the ``state_root``).
    """

    def __init__(self, start: int = 0) -> None:
        self.position = start

    def take(self) -> int:
        value = self.position
        self.position += 1
        return value


_TX_COUNTER = _NonceCounter()


def _draw_nonce() -> int:
    return _TX_COUNTER.take()


def nonce_position() -> int:
    """The nonce the next transaction will be stamped with."""
    return _TX_COUNTER.position


def set_nonce_position(position: int) -> None:
    """Fast-forward the nonce counter (checkpoint restore)."""
    _TX_COUNTER.position = position


@contextmanager
def scoped_tx_nonces(start: int = 0) -> Iterator[None]:
    """Run with a private nonce counter starting at ``start``.

    Seeded simulations run under this scope so two runs of the same
    scenario — in the same process or across processes — stamp
    identical nonces, which is what makes their block hashes and
    ``state_root`` comparable byte for byte.  Nests safely.
    """
    global _TX_COUNTER
    previous = _TX_COUNTER
    _TX_COUNTER = _NonceCounter(start)
    try:
        yield
    finally:
        _TX_COUNTER = previous


@dataclass(frozen=True)
class Event:
    """An emitted contract event (the simulator's analogue of a LOG).

    Per the paper's on-chain optimization, bulky payloads (answer
    ciphertexts) are carried in event data rather than contract storage;
    clients read them from receipts exactly as an Ethereum client would
    read logs.
    """

    contract: Address
    name: str
    topics: Tuple[bytes, ...] = ()
    data: bytes = b""
    payload: Optional[Any] = None  # decoded convenience copy for clients

    def __repr__(self) -> str:
        return "Event(%s from %s, %d data bytes)" % (
            self.name,
            self.contract,
            len(self.data),
        )


@dataclass(frozen=True)
class Transaction:
    """A signed message to a contract method.

    ``payload`` is the ABI-style byte encoding (its size is what calldata
    gas is charged on); ``args`` carries the decoded Python values so the
    simulated contract does not need an ABI decoder.
    """

    sender: Address
    contract: str  # contract instance name on the chain
    method: str
    payload: bytes = b""
    args: Tuple[Any, ...] = ()
    value: int = 0
    gas_limit: int = 30_000_000
    nonce: int = field(default_factory=_draw_nonce)

    def tx_hash(self) -> bytes:
        return self._digest

    @cached_property
    def _digest(self) -> bytes:
        # Every hashed field is frozen, so the digest is computed once
        # per object; ``dataclasses.replace`` builds a new object.
        return keccak256(self._material())

    def _material(self) -> bytes:
        return b"".join((
            self.sender.value,
            self.contract.encode(),
            self.method.encode(),
            self.payload,
            self.value.to_bytes(16, "big"),
            self.nonce.to_bytes(8, "big"),
        ))

    def __repr__(self) -> str:
        return "Transaction(%s -> %s.%s, %d bytes)" % (
            self.sender,
            self.contract,
            self.method,
            len(self.payload),
        )


def tx_hashes(transactions: Sequence[Transaction]) -> List[bytes]:
    """``[tx.tx_hash() for tx in transactions]``, hashed side by side.

    The transactions not hashed yet go through one
    :func:`~repro.crypto.keccak.keccak256_many` call, and each digest is
    kept on its transaction where :meth:`Transaction.tx_hash` finds it,
    so every transaction is still hashed once.
    """
    fresh = [tx for tx in transactions if "_digest" not in vars(tx)]
    if fresh:
        digests = keccak256_many([tx._material() for tx in fresh])
        for transaction, digest in zip(fresh, digests):
            vars(transaction)["_digest"] = digest
    return [transaction._digest for transaction in transactions]


@dataclass
class Receipt:
    """The result of executing a transaction in a block."""

    transaction: Transaction
    status: bool
    gas_used: int
    gas_breakdown: Dict[str, int] = field(default_factory=dict)
    events: Tuple[Event, ...] = ()
    revert_reason: str = ""
    block_number: int = -1

    @property
    def succeeded(self) -> bool:
        return self.status
