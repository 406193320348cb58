"""Blocks: one per clock period, carrying ordered transactions."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from repro.chain.transactions import Receipt, Transaction, tx_hashes
from repro.crypto.keccak import keccak256


@dataclass(frozen=True)
class Block:
    """An immutable block: the transactions delivered in one clock period."""

    number: int
    parent_hash: bytes
    transactions: Tuple[Transaction, ...]
    receipts: Tuple[Receipt, ...]

    def block_hash(self) -> bytes:
        return self._digest

    @cached_property
    def _digest(self) -> bytes:
        # Computed once per block: the hashed fields are frozen and so
        # is every transaction in the tuple, whose digests not taken yet
        # are hashed together.
        return keccak256(b"".join((
            self.number.to_bytes(8, "big"),
            self.parent_hash,
            *tx_hashes(self.transactions),
        )))

    @property
    def gas_used(self) -> int:
        return sum(receipt.gas_used for receipt in self.receipts)

    def __repr__(self) -> str:
        return "Block(#%d, %d txs, %d gas)" % (
            self.number,
            len(self.transactions),
            self.gas_used,
        )


GENESIS_HASH = keccak256(b"dragoon-genesis")
