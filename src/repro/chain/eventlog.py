"""The chain's event bus: a cursor-based log with filtered subscriptions.

Ethereum clients do not get handed receipts — they *watch* the log.
This module gives the simulator the same inversion: every successfully
emitted :class:`~repro.chain.transactions.Event` is appended to one
append-only :class:`EventLog` together with the block that carried it,
and clients read through :class:`Subscription` cursors (``eth_getLogs``
with a block cursor, in Ethereum terms).  The session engine
(:mod:`repro.core.session`) is built entirely on this API: sessions
never touch receipts, they react to what the log shows them.

The log is an observation layer only: it charges no gas (the emitting
transaction already paid ``charge_log``) and cannot influence execution.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

from repro.chain.transactions import Event
from repro.errors import ChainError
from repro.ledger.accounts import Address


@dataclass(frozen=True)
class EventRecord:
    """One log entry: an event plus where (and in what order) it landed."""

    sequence: int  # global, monotone across the whole chain
    block_number: int
    event: Event


class EventFilter:
    """Which events a subscriber wants to see (contract / name / topic).

    All given criteria must match; an empty filter matches everything.
    ``contract`` is the emitting contract's address (use
    :meth:`for_contract` to build one from an instance name).
    """

    def __init__(
        self,
        contract: Optional[Address] = None,
        names: Optional[Iterable[str]] = None,
        topic: Optional[bytes] = None,
    ) -> None:
        self.contract = contract
        self.names = frozenset(names) if names is not None else None
        self.topic = topic

    @classmethod
    def for_contract(
        cls, contract_name: str, names: Optional[Iterable[str]] = None
    ) -> "EventFilter":
        """A filter on one contract instance, by its chain name."""
        return cls(
            contract=Address.from_label("contract:" + contract_name), names=names
        )

    def matches(self, event: Event) -> bool:
        if self.contract is not None and event.contract != self.contract:
            return False
        if self.names is not None and event.name not in self.names:
            return False
        if self.topic is not None and self.topic not in event.topics:
            return False
        return True

    def __repr__(self) -> str:
        return "EventFilter(contract=%s, names=%s)" % (self.contract, self.names)


class EventLog:
    """Append-only record of every successfully emitted event.

    Sequence numbers are global and never reused, but the *storage* can
    be compacted: long-running simulations call :meth:`prune` to drop
    records that every live subscription has already consumed, so an
    open-ended serve loop holds memory proportional to its in-flight
    traffic, not its whole history.  Pruned records disappear from the
    full-log views (:meth:`__iter__`, :meth:`in_block`,
    ``Chain.events``); cursors keep their absolute positions.
    """

    def __init__(self) -> None:
        self._records: List[EventRecord] = []
        #: Sequence number of ``_records[0]`` (> 0 once pruned).
        self._base = 0
        #: Live subscriptions, in creation order: a ``WeakSet`` iterates
        #: in address order, so checkpoints would pickle differently.
        self._subscriptions = weakref.WeakKeyDictionary()

    def __getstate__(self) -> dict:
        """Pickle support (checkpoint/resume): weak references cannot be
        pickled, so live subscriptions travel as a strong list and the
        weak mapping is rebuilt on restore.  Subscriptions are shared
        with their owners through the pickle memo, so a restored
        session's cursor and the restored log agree on position."""
        state = dict(self.__dict__)
        state["_subscriptions"] = list(self._subscriptions)
        return state

    def __setstate__(self, state: dict) -> None:
        subscriptions = state.pop("_subscriptions")
        self.__dict__.update(state)
        self._subscriptions = weakref.WeakKeyDictionary(
            dict.fromkeys(subscriptions)
        )

    def append(self, block_number: int, event: Event) -> EventRecord:
        """Record one emitted event (called by the chain, never clients)."""
        record = EventRecord(len(self), block_number, event)
        self._records.append(record)
        return record

    def __len__(self) -> int:
        """One past the highest sequence number ever assigned."""
        return self._base + len(self._records)

    def __iter__(self) -> Iterator[EventRecord]:
        """The *retained* records, oldest first (pruned ones are gone)."""
        return iter(self._records)

    @property
    def pruned(self) -> int:
        """How many records have been dropped from storage so far."""
        return self._base

    def _check_cursor(self, cursor: int) -> int:
        """The storage index for ``cursor``, refusing a pruned position.

        A cursor below the prune base has *lost* events; silently
        clamping to 0 (the pre-fix behaviour) resumed past the gap
        without a trace, while the RPC page path refused loudly — the
        same read through two doors gave different answers.  Both doors
        now raise the same :class:`~repro.errors.ChainError`.
        """
        if cursor < self._base:
            raise ChainError(
                "cursor %d precedes the pruned base %d — events were "
                "compacted away; restart from a fresh subscription"
                % (cursor, self._base)
            )
        return cursor - self._base

    def since(
        self, cursor: int, filter: Optional[EventFilter] = None
    ) -> List[EventRecord]:
        """All retained records at sequence >= ``cursor`` passing the filter.

        Raises :class:`~repro.errors.ChainError` if ``cursor`` precedes
        the prune base (records it should have seen are gone).
        """
        records = self._records[self._check_cursor(cursor):]
        if filter is None:
            return list(records)
        return [record for record in records if filter.matches(record.event)]

    def iter_since(self, cursor: int) -> Iterator[EventRecord]:
        """Lazily iterate retained records at sequence >= ``cursor``.

        The paged-read building block (the RPC server's ``chain_events``):
        unlike :meth:`since` it copies nothing, so taking one page from a
        long log costs the page, not the tail.  Like :meth:`since`, a
        cursor behind the prune base raises instead of skipping the gap.
        """
        for index in range(self._check_cursor(cursor), len(self._records)):
            yield self._records[index]

    def in_block(self, block_number: int) -> List[EventRecord]:
        """The retained records emitted by block ``block_number``."""
        return [
            record
            for record in self._records
            if record.block_number == block_number
        ]

    def subscribe(
        self, filter: Optional[EventFilter] = None, from_start: bool = False
    ) -> "Subscription":
        """Open a cursor; by default it starts at the log's current end."""
        subscription = Subscription(
            self, filter, cursor=self._base if from_start else len(self)
        )
        self._subscriptions[subscription] = None
        return subscription

    def prune(self, through: Optional[int] = None) -> int:
        """Drop records every live subscription has already consumed.

        Returns how many records were dropped.  The safe floor is the
        minimum cursor across live subscriptions (a garbage-collected
        subscription no longer pins anything); pass ``through`` to drop
        less — only records below that sequence number.  Pruning never
        touches records a live cursor still has to deliver, so
        :meth:`Subscription.poll` semantics are unaffected.
        """
        floor = min(
            (subscription.cursor for subscription in self._subscriptions),
            default=len(self),
        )
        if through is not None:
            floor = min(floor, through)
        drop = min(max(0, floor - self._base), len(self._records))
        if drop:
            del self._records[:drop]
            self._base += drop
        return drop


class Subscription:
    """A client's private cursor into the event log.

    Each :meth:`poll` returns the matching records the cursor has not yet
    seen and advances past *everything* it scanned, so two subscribers
    never interfere and no record is delivered twice.
    """

    def __init__(
        self, log: EventLog, filter: Optional[EventFilter], cursor: int
    ) -> None:
        self._log = log
        self.filter = filter
        self.cursor = cursor

    def poll(self) -> List[EventRecord]:
        """New matching records since the last poll (may be empty)."""
        records = self._log.since(self.cursor, self.filter)
        self.cursor = len(self._log)
        return records
