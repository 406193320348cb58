"""The block write-ahead log and snapshot files.

Durability follows the classic recipe: a periodic **snapshot** of the
full canonical state plus an append-only **WAL** of per-block effect
records between snapshots.  Recovery = load the last snapshot, replay
the WAL on top, stop at the first torn record (a crash mid-append);
the result must reach the same ``state_root`` as the lost process —
that is the contract :mod:`tests.test_persistence` pins.

WAL records are *physical* (effects, not causes): each sealed block is
journalled together with exactly what it changed — ledger balances and
escrow, contract storage upserts/deletes, newly deployed contracts, gas
tallies, the clock, the event-log compaction base, the process-wide
transaction-nonce position, and the deterministic-entropy position.
Replay applies effects; it never re-executes transactions, so recovery
cannot diverge from what the crashed node actually computed.  What a
block changed is :class:`StateBaseline`'s diff, which the state trie
syncs from too; it compares values as the codec encodes them.

Framing: ``[4-byte length][4-byte checksum][payload]`` per record,
payload encoded by :mod:`repro.store.codec`.  A torn tail
(short read or checksum mismatch) ends replay cleanly — everything
before it is intact by construction.

Snapshots (and the manifest and checkpoints above them) are written
through :func:`atomic_write` — temp file, fsync, rename — and embed
both the Merkle-trie ``state_root`` (the cross-run identity anchor)
and an ``encoding_hash`` over the embedded canonical bytes;
:func:`load_snapshot` re-hashes the stored encoding and refuses a
corrupted file.  The digest is a local integrity check that no header
or light client reads, so it is sha256, like the WAL frame checksum:
a snapshot starts with the magic ``DRGSNAP2``.  Snapshots written
before carry ``DRGSNAP1`` and a keccak-256 digest; they still load.

Durability bounds, precisely: against a **process kill** the loss is at
most the un-sealed tail of the current block (WAL appends are flushed
per block); against **OS crash / power loss** the guarantee anchors at
the last snapshot, because WAL appends are not fsynced per block — the
journalling cost would be dominated by the sync, and the simulator's
recovery story targets killed processes, not failing disks.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.chain.blocks import Block
from repro.chain.chain import Chain
from repro.chain.contract import snapshot_value
from repro.chain.transactions import nonce_position
from repro.crypto.keccak import keccak256
from repro.crypto.rng import entropy
from repro.errors import ReproError
from repro.store import codec

WAL_MAGIC = b"DRGWAL01"
#: The magic :func:`save_snapshot` writes: a sha256 ``encoding_hash``.
SNAPSHOT_MAGIC = b"DRGSNAP2"
#: The earlier magic, read but never written: a keccak-256 digest.
KECCAK_SNAPSHOT_MAGIC = b"DRGSNAP1"


def _frame_checksum(payload: bytes) -> bytes:
    """Framing integrity only (torn-write detection), so the fast C
    hash is the right tool; keccak stays reserved for state roots."""
    return hashlib.sha256(payload).digest()[:4]


def _encoding_hash(magic: bytes, encoded_state: bytes) -> bytes:
    """A snapshot's integrity digest over its embedded encoding, as its
    magic names it: sha256 for :data:`SNAPSHOT_MAGIC`, keccak-256 for
    :data:`KECCAK_SNAPSHOT_MAGIC`."""
    if magic == SNAPSHOT_MAGIC:
        return hashlib.sha256(encoded_state).digest()
    return keccak256(encoded_state)


def atomic_write(path: str, blob: bytes) -> None:
    """Write ``blob`` atomically: temp file, fsync, rename.

    The one recipe every durable artifact (snapshot, manifest,
    checkpoint) goes through, so the fsync policy lives in one place."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


class StoreError(ReproError):
    """Raised on unreadable snapshots or unusable state directories."""


# ---------------------------------------------------------------------------
# The write-ahead log
# ---------------------------------------------------------------------------


class BlockStore:
    """An append-only, checksummed record log (the node's WAL)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = None

    # -- writing ---------------------------------------------------------------

    def _open_for_append(self):
        if self._handle is None:
            fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
            if not fresh:
                # A previous process may have died mid-append, leaving a
                # torn record.  Appending after it would strand every
                # later record behind the tear (replay stops there), so
                # cut the log back to its last intact record first.
                end = len(WAL_MAGIC)
                for end, _payload in self._frames():
                    pass
                if end < os.path.getsize(self.path):
                    with open(self.path, "r+b") as handle:
                        handle.truncate(end)
            self._handle = open(self.path, "ab")
            if fresh:
                self._handle.write(WAL_MAGIC)
                self._handle.flush()
        return self._handle

    def _frames(self) -> Iterator[Tuple[int, bytes]]:
        """``(end offset, payload)`` of each intact record, in order,
        stopping silently at a torn or corrupted tail."""
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            data = handle.read()
        if data and not data.startswith(WAL_MAGIC):
            raise StoreError("%s is not a Dragoon WAL" % self.path)
        pos = len(WAL_MAGIC)
        while pos + 8 <= len(data):
            end = pos + 8 + int.from_bytes(data[pos : pos + 4], "big")
            checksum, payload = data[pos + 4 : pos + 8], data[pos + 8 : end]
            if end > len(data) or _frame_checksum(payload) != checksum:
                return  # torn tail: a crash interrupted this append
            yield end, payload
            pos = end

    def append(self, record: Dict[str, Any]) -> None:
        """Journal one record, flushed before returning.

        Flushed, not fsynced: appends survive a process kill (the page
        cache outlives the process) but not a power loss — per-block
        fsync would dominate the journalling cost.  Full power-loss
        durability is anchored at snapshot boundaries, which do fsync
        (see :func:`atomic_write`); the loss bound is documented in the
        module docstring."""
        payload = codec.encode(record)
        handle = self._open_for_append()
        handle.write(len(payload).to_bytes(4, "big"))
        handle.write(_frame_checksum(payload))
        handle.write(payload)
        handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def reset(self) -> None:
        """Empty the log (called right after a successful snapshot)."""
        self.close()
        with open(self.path, "wb") as handle:
            handle.write(WAL_MAGIC)

    # -- reading ---------------------------------------------------------------

    def records(self) -> Iterator[Dict[str, Any]]:
        """Yield intact records in order; stop silently at a torn tail."""
        for _end, payload in self._frames():
            yield codec.decode(payload)

    def __len__(self) -> int:
        return sum(1 for _ in self.records())


# ---------------------------------------------------------------------------
# The state differ and per-block effect records
# ---------------------------------------------------------------------------

_ABSENT = object()

#: ``(sets, dels)``: the live value of every key that is new or whose
#: encoding changed, and the keys that are gone.  A :data:`StateDiff`
#: holds one per namespace of :func:`_namespaces`, plus ``"entries"``
#: (new ledger entries by index: append-only, so counted, not walked).
Delta = Tuple[Dict[Any, Any], List[Any]]
StateDiff = Dict[str, Delta]


def same_encoding(old: Any, new: Any) -> bool:
    """Whether ``codec.encode(old) == codec.encode(new)``: unlike ``==``,
    types must match and dict order counts, so ``1`` and ``True``
    differ.  A shared object is the same without a look inside."""
    if old is new:
        return True
    kind = type(old)
    if kind is not type(new):
        return False
    if kind is list or kind is tuple:
        return len(old) == len(new) and all(map(same_encoding, old, new))
    if kind is dict:
        return same_encoding(list(old.items()), list(new.items()))
    return codec.encode(old) == codec.encode(new)


def _delta(live: Dict[Any, Any], base: Dict[Any, Any]) -> Delta:
    sets = {
        key: value
        for key, value in live.items()
        if not same_encoding(base.get(key, _ABSENT), value)
    }
    return sets, [key for key in base if key not in live]


def _namespaces(chain: Chain) -> Dict[str, Dict[Any, Any]]:
    """The chain's diffable state, one flat dict per namespace."""
    ledger = chain.ledger
    contracts = chain._contracts
    return {
        "meta": {
            "schema": codec.SCHEMA_VERSION,
            "period": chain.clock.period,
            "scheduler": codec.scheduler_kind(chain),
            "fees": ledger._fees_collected,
            "event_base": chain.event_log.pruned,
        },
        "registry": {address: address.label for address in chain.registry},
        "balances": ledger._balances,
        "escrow": ledger._escrow,
        "gas": chain.gas_by_sender,
        "contracts": {name: type(c).__name__ for name, c in contracts.items()},
        "storage": {
            (name, slot): value
            for name, contract in contracts.items()
            for slot, value in contract.storage.items()
        },
    }


class StateBaseline:
    """The chain as of the last capture: the one "what changed?" differ.

    :func:`block_record` diffs the WAL's baseline once per sealed block;
    :class:`~repro.store.trie.ChainStateTrie` diffs its own per read, and
    on a header-tracking node per sealed block too.
    Values are copied with :func:`~repro.chain.contract.snapshot_value`,
    deep over mutable containers, so a stored list mutated in place, or
    a key removed outside any transaction, still shows in the next diff.
    """

    def __init__(self, chain: Optional[Chain] = None) -> None:
        #: namespace -> {key: copy of its value at the last capture}
        self.namespaces: Dict[str, Dict[Any, Any]] = {}
        self.entry_count = 0
        if chain is not None:
            self.capture(chain)

    def capture(self, chain: Chain) -> None:
        """Catch up with ``chain``."""
        self.advance(self.diff(chain))

    def diff(self, chain: Chain) -> StateDiff:
        """The live chain against this baseline; changes neither."""
        diff = {
            name: _delta(live, self.namespaces.get(name, {}))
            for name, live in _namespaces(chain).items()
        }
        entries = chain.ledger._entries
        count = self.entry_count
        diff["entries"] = (
            dict(enumerate(entries[count:], count)),
            list(range(len(entries), count)),
        )
        return diff

    def advance(self, diff: StateDiff) -> None:
        """Move the baseline past ``diff``."""
        for name, (sets, dels) in diff.items():
            if name == "entries":
                self.entry_count += len(sets) - len(dels)
                continue
            base = self.namespaces.setdefault(name, {})
            for key, value in sets.items():
                base[key] = snapshot_value(value)
            for key in dels:
                del base[key]


def runtime_state() -> Dict[str, Any]:
    """The process-global counters a resumed run must continue from."""
    return {
        "nonce_position": nonce_position(),
        "rng": entropy.save_state(),
    }


def block_record(
    chain: Chain,
    block: Block,
    baseline: StateBaseline,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One WAL record: the block plus everything it changed since
    ``baseline``, which then advances past it.

    ``extra`` carries facade-level durable state (e.g.
    :meth:`repro.dragoon.Dragoon.node_state` — requester keys and the
    task-name serial) so a crash between snapshots loses none of it:
    recovery takes the last journalled value, not the snapshot's."""
    diff = baseline.diff(chain)
    storage: Dict[str, Dict[str, Any]] = {}
    sets, dels = diff["storage"]
    for (name, slot), value in sets.items():
        storage.setdefault(name, {"set": {}, "del": []})["set"][slot] = value
    for name, slot in dels:
        if name in chain._contracts:  # a removed contract has no record
            storage.setdefault(name, {"set": {}, "del": []})["del"].append(slot)
    record: Dict[str, Any] = {
        "kind": "block",
        "schema": codec.SCHEMA_VERSION,
        "block": codec.block_to_data(block),
        "period": chain.clock.period,
        "event_base": chain.event_log.pruned,
        "ledger": {
            "balances": diff["balances"][0],
            "escrow": diff["escrow"][0],
            "fees": chain.ledger._fees_collected,
            "entries": [
                codec.ledger_entry_to_data(entry)
                for entry in diff["entries"][0].values()
            ],
        },
        "contracts": {
            "new": [
                {"type": kind, "name": name}
                for name, kind in diff["contracts"][0].items()
            ],
            "storage": storage,
        },
        "gas": diff["gas"][0],
        "registry": list(diff["registry"][0]),
        "runtime": runtime_state(),
    }
    if extra is not None:
        record["extra"] = extra
    baseline.advance(diff)
    return record


def prune_record(chain: Chain) -> Dict[str, Any]:
    """Journal an event-log compaction so it survives a crash."""
    return {
        "kind": "prune",
        "schema": codec.SCHEMA_VERSION,
        "event_base": chain.event_log.pruned,
    }


def apply_record(chain: Chain, record: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """Replay one WAL record onto ``chain``; returns its runtime state
    (for the last-record-wins restore of the global counters)."""
    if record.get("schema") != codec.SCHEMA_VERSION:
        raise StoreError(
            "WAL record schema %r (this build reads %d)"
            % (record.get("schema"), codec.SCHEMA_VERSION)
        )
    kind = record["kind"]
    if kind == "prune":
        chain.event_log.prune(through=record["event_base"])
        return None
    if kind != "block":
        raise StoreError("unknown WAL record kind %r" % (kind,))

    block = codec.block_from_data(record["block"])
    if block.number != chain.height:
        raise StoreError(
            "WAL block #%d cannot extend a chain at height %d"
            % (block.number, chain.height)
        )
    # Compaction that happened between the previous block and this one.
    if record["event_base"] > chain.event_log.pruned:
        chain.event_log.prune(through=record["event_base"])
    for address in record["registry"]:
        chain.registry._granted[address.value] = address
    for item in record["contracts"]["new"]:
        contract = codec.CONTRACT_TYPES[item["type"]](item["name"])
        chain._contracts[contract.name] = contract
    for name, delta in record["contracts"]["storage"].items():
        storage = chain._contracts[name].storage
        storage.update(delta["set"])
        for key in delta["del"]:
            storage.pop(key, None)
    ledger = chain.ledger
    ledger._balances.update(record["ledger"]["balances"])
    ledger._escrow.update(record["ledger"]["escrow"])
    ledger._fees_collected = record["ledger"]["fees"]
    for item in record["ledger"]["entries"]:
        ledger._entries.append(codec.ledger_entry_from_data(item))
    chain.gas_by_sender.update(record["gas"])
    chain.blocks.append(block)
    # Re-log the block's events exactly as execution did: successful
    # receipts only, in receipt order, attributed to this block.
    for receipt in block.receipts:
        if receipt.status:
            for event in receipt.events:
                chain.event_log.append(block.number, event)
    chain.clock._period = record["period"]
    return record["runtime"]


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


def save_snapshot(
    path: str, chain: Chain, extra: Optional[Dict[str, Any]] = None
) -> bytes:
    """Atomically write the full canonical state; returns its root.

    The envelope carries two digests since schema v2: ``state_root`` is
    the Merkle trie root (what headers, checkpoints, and light clients
    compare against) and ``encoding_hash`` pins the exact bytes of the
    canonical encoding stored in this file (the on-disk integrity
    check ``load_snapshot`` verifies before decoding).  The file starts
    with :data:`SNAPSHOT_MAGIC` (``DRGSNAP2``), whose ``encoding_hash``
    is sha256; :func:`load_snapshot` also reads ``DRGSNAP1`` files,
    whose digest is keccak-256.
    """
    state = codec.chain_state_to_data(chain)
    encoded_state = codec.encode(state)
    root = codec.state_root(chain)
    blob = SNAPSHOT_MAGIC + codec.encode(
        {
            "schema": codec.SCHEMA_VERSION,
            "state_root": root,
            "encoding_hash": _encoding_hash(SNAPSHOT_MAGIC, encoded_state),
            "height": chain.height,
            "runtime": runtime_state(),
            "extra": extra or {},
            "state": encoded_state,
        }
    )
    atomic_write(path, blob)
    return root


def load_snapshot(path: str) -> Tuple[Chain, Dict[str, Any]]:
    """Load and integrity-check a snapshot; returns ``(chain, meta)``
    where meta carries ``state_root``, ``runtime``, and ``extra``."""
    with open(path, "rb") as handle:
        blob = handle.read()
    magic = blob[: len(SNAPSHOT_MAGIC)]
    if magic not in (SNAPSHOT_MAGIC, KECCAK_SNAPSHOT_MAGIC):
        raise StoreError("%s is not a Dragoon snapshot" % path)
    envelope = codec.decode(blob[len(magic) :])
    if envelope["schema"] != codec.SCHEMA_VERSION:
        raise StoreError(
            "snapshot schema %r (this build reads %d)"
            % (envelope["schema"], codec.SCHEMA_VERSION)
        )
    encoded_state = envelope["state"]
    if _encoding_hash(magic, encoded_state) != envelope["encoding_hash"]:
        raise StoreError("snapshot %s fails its encoding_hash check" % path)
    chain = codec.decode_chain_state(encoded_state)
    meta = {
        "state_root": envelope["state_root"],
        "height": envelope["height"],
        "runtime": envelope["runtime"],
        "extra": envelope["extra"],
    }
    return chain, meta
