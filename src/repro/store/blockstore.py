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
cannot diverge from what the crashed node actually computed.

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
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.chain.blocks import Block
from repro.chain.chain import Chain
from repro.chain.contract import snapshot_storage
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
                end = self._intact_end()
                if end < os.path.getsize(self.path):
                    with open(self.path, "r+b") as handle:
                        handle.truncate(end)
            self._handle = open(self.path, "ab")
            if fresh:
                self._handle.write(WAL_MAGIC)
                self._handle.flush()
        return self._handle

    def _intact_end(self) -> int:
        """The byte offset just past the last intact record."""
        with open(self.path, "rb") as handle:
            data = handle.read()
        if not data.startswith(WAL_MAGIC):
            raise StoreError("%s is not a Dragoon WAL" % self.path)
        pos = len(WAL_MAGIC)
        while pos + 8 <= len(data):
            length = int.from_bytes(data[pos : pos + 4], "big")
            checksum = data[pos + 4 : pos + 8]
            end = pos + 8 + length
            if end > len(data) or _frame_checksum(data[pos + 8 : end]) != checksum:
                break
            pos = end
        return pos

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
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            data = handle.read()
        if not data:
            return
        if not data.startswith(WAL_MAGIC):
            raise StoreError("%s is not a Dragoon WAL" % self.path)
        pos = len(WAL_MAGIC)
        while pos + 8 <= len(data):
            length = int.from_bytes(data[pos : pos + 4], "big")
            checksum = data[pos + 4 : pos + 8]
            start = pos + 8
            end = start + length
            if end > len(data):
                return  # torn tail: the crash interrupted this append
            payload = data[start:end]
            if _frame_checksum(payload) != checksum:
                return  # corrupted tail record
            yield codec.decode(payload)
            pos = end

    def __len__(self) -> int:
        return sum(1 for _ in self.records())


# ---------------------------------------------------------------------------
# Per-block effect records
# ---------------------------------------------------------------------------


class StateBaseline:
    """What the chain looked like after the previous sealed block.

    The differ compares the live chain against this to produce one
    block's physical effect record, then refreshes.  Captures are
    proportional to live state and taken once per block, which a
    simulation chain easily affords.  Contract storage is captured with
    :func:`~repro.chain.contract.snapshot_storage` (deep over mutable
    containers): a shallow ``dict(storage)`` would alias a stored list
    or dict mutated in place, making it compare equal to itself and
    vanish from the WAL delta.
    """

    def __init__(self, chain: Chain) -> None:
        self.capture(chain)

    def capture(self, chain: Chain) -> None:
        self.ledger_balances = dict(chain.ledger._balances)
        self.ledger_escrow = dict(chain.ledger._escrow)
        self.ledger_fees = chain.ledger._fees_collected
        self.ledger_entry_count = len(chain.ledger._entries)
        self.gas_by_sender = dict(chain.gas_by_sender)
        self.contract_names = list(chain._contracts)
        self.contract_storage = {
            name: snapshot_storage(contract.storage)
            for name, contract in chain._contracts.items()
        }
        self.registry_size = len(chain.registry)


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
    """One WAL record: the block plus everything it changed.

    ``extra`` carries facade-level durable state (e.g.
    :meth:`repro.dragoon.Dragoon.node_state` — requester keys and the
    task-name serial) so a crash between snapshots loses none of it:
    recovery takes the last journalled value, not the snapshot's."""
    ledger = chain.ledger
    balance_sets = {
        address: balance
        for address, balance in ledger._balances.items()
        if baseline.ledger_balances.get(address) != balance
    }
    escrow_sets = {
        address: held
        for address, held in ledger._escrow.items()
        if baseline.ledger_escrow.get(address) != held
    }
    gas_sets = {
        address: gas
        for address, gas in chain.gas_by_sender.items()
        if baseline.gas_by_sender.get(address) != gas
    }
    new_contracts = [
        {"type": type(chain._contracts[name]).__name__, "name": name}
        for name in chain._contracts
        if name not in baseline.contract_storage
    ]
    storage_deltas: Dict[str, Dict[str, Any]] = {}
    for name, contract in chain._contracts.items():
        before = baseline.contract_storage.get(name, {})
        sets = {
            key: value
            for key, value in contract.storage.items()
            if key not in before or before[key] != value
        }
        dels = [key for key in before if key not in contract.storage]
        if sets or dels:
            storage_deltas[name] = {"set": sets, "del": dels}
    new_entries = [
        codec.ledger_entry_to_data(entry)
        for entry in chain.ledger._entries[baseline.ledger_entry_count :]
    ]
    new_registrations = list(chain.registry)[baseline.registry_size :]
    record: Dict[str, Any] = {
        "kind": "block",
        "schema": codec.SCHEMA_VERSION,
        "block": codec.block_to_data(block),
        "period": chain.clock.period,
        "event_base": chain.event_log.pruned,
        "ledger": {
            "balances": balance_sets,
            "escrow": escrow_sets,
            "fees": ledger._fees_collected,
            "entries": new_entries,
        },
        "contracts": {"new": new_contracts, "storage": storage_deltas},
        "gas": gas_sets,
        "registry": new_registrations,
        "runtime": runtime_state(),
    }
    if extra is not None:
        record["extra"] = extra
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
