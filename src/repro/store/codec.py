"""The canonical node-state codec: every stateful object, one byte form.

Persistence needs two properties pickle cannot give:

* **Determinism** — the same node state must always encode to the same
  bytes, because the encoding feeds the 32-byte ``state_root`` (the
  Merkle trie root over canonically encoded keys and values), the
  integrity anchor the whole subsystem hangs off: snapshots embed it,
  ``NodeStore.load`` verifies it, and the crash-recovery contract is
  "snapshot + WAL replay reaches the same state_root as the live
  chain".
* **A versioned schema** — a state directory written by one revision
  must either load or fail loudly under another, never misparse.

The value layer is a tagged, length-prefixed binary form over the plain
Python data the chain state is made of (ints of any size, bytes, str,
bool, None, float, list/tuple, dict in iteration order) plus typed tags
for the domain objects that actually live in chain state: ledger
:class:`~repro.ledger.accounts.Address`es,
:class:`~repro.core.task.TaskParameters` (event payloads), curve points
and ciphertexts, and the PoQoEA / VPKE proof objects carried by
``evaluate`` transaction args.  Dict entries keep *iteration* order —
chain state is built deterministically, so iteration order is itself
reproducible state (and must round-trip exactly: a resumed run iterates
those dicts).

On top of that, :func:`encode_chain_state` / :func:`decode_chain_state`
define the schema of a whole :class:`~repro.chain.chain.Chain` — blocks
(transactions, receipts, events), ledger, registry, contract storage,
the event log *with its prune base offset*, per-sender gas, the clock,
and the process-wide transaction-nonce position — and
:func:`state_root` hashes it.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple

from repro.chain.blocks import Block
from repro.chain.chain import Chain
from repro.chain.contract import Contract
from repro.chain.eventlog import EventRecord
from repro.chain.network import FifoScheduler, ReverseScheduler, Scheduler
from repro.chain.transactions import Event, Receipt, Transaction
from repro.core.hit_contract import HITContract
from repro.core.task import TaskParameters
from repro.crypto.curve import G1Point
from repro.crypto.elgamal import Ciphertext
from repro.crypto.keccak import keccak256
from repro.crypto.poqoea import MismatchEntry, QualityProof
from repro.crypto.vpke import DecryptionProof
from repro.errors import ReproError
from repro.ledger.accounts import Address
from repro.ledger.ledger import Ledger, LedgerEntry

#: Bump on any change to the encoding or the chain-state schema.
#: v2: ``state_root`` moved from a flat hash of the canonical encoding
#: to the Merkle trie root (``repro.store.trie``); snapshot envelopes
#: carry both the trie root and an ``encoding_hash`` integrity digest
#: (sha256 under the ``DRGSNAP2`` magic, keccak-256 under the older
#: ``DRGSNAP1``; the envelope's magic, not this version, names it).
#: The version is itself a trie leaf, so a bump moves every root.
SCHEMA_VERSION = 2


class CodecError(ReproError):
    """Raised on malformed encodings or unencodable values."""


# ---------------------------------------------------------------------------
# Varints
# ---------------------------------------------------------------------------


def _write_varint(out: List[bytes], value: int) -> None:
    if value < 0:
        raise CodecError("varints are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(bytes((byte | 0x80,)))
        else:
            out.append(bytes((byte,)))
            return


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


# ---------------------------------------------------------------------------
# The tagged value layer
# ---------------------------------------------------------------------------

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"i"
_TAG_FLOAT = b"f"
_TAG_BYTES = b"b"
_TAG_STR = b"s"
_TAG_LIST = b"l"
_TAG_TUPLE = b"t"
_TAG_DICT = b"d"
_TAG_ADDRESS = b"A"
_TAG_PARAMS = b"P"
_TAG_POINT = b"G"
_TAG_CIPHERTEXT = b"C"
_TAG_VPKE_PROOF = b"D"
_TAG_QUALITY_PROOF = b"Q"


def _encode_into(out: List[bytes], value: Any) -> None:
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif type(value) is int:
        out.append(_TAG_INT)
        _write_varint(out, _zigzag(value))
    elif type(value) is float:
        out.append(_TAG_FLOAT)
        out.append(struct.pack(">d", value))
    elif type(value) is bytes:
        out.append(_TAG_BYTES)
        _write_varint(out, len(value))
        out.append(value)
    elif type(value) is str:
        raw = value.encode("utf-8")
        out.append(_TAG_STR)
        _write_varint(out, len(raw))
        out.append(raw)
    elif type(value) is list:
        out.append(_TAG_LIST)
        _write_varint(out, len(value))
        for item in value:
            _encode_into(out, item)
    elif type(value) is tuple:
        out.append(_TAG_TUPLE)
        _write_varint(out, len(value))
        for item in value:
            _encode_into(out, item)
    elif type(value) is dict:
        out.append(_TAG_DICT)
        _write_varint(out, len(value))
        for key, item in value.items():
            _encode_into(out, key)
            _encode_into(out, item)
    elif type(value) is Address:
        out.append(_TAG_ADDRESS)
        out.append(value.value)
        _encode_into(out, value.label)
    elif type(value) is TaskParameters:
        out.append(_TAG_PARAMS)
        _encode_into(out, value.to_json())
    elif type(value) is G1Point:
        out.append(_TAG_POINT)
        out.append(value.to_bytes())
    elif type(value) is Ciphertext:
        out.append(_TAG_CIPHERTEXT)
        out.append(value.to_bytes())
    elif type(value) is DecryptionProof:
        out.append(_TAG_VPKE_PROOF)
        out.append(value.to_bytes())
    elif type(value) is QualityProof:
        out.append(_TAG_QUALITY_PROOF)
        _write_varint(out, len(value.entries))
        for entry in value.entries:
            _encode_into(out, entry.index)
            _encode_into(out, entry.answer)
            _encode_into(out, entry.proof)
    else:
        raise CodecError(
            "no canonical encoding for %s" % type(value).__name__
        )


def _zigzag(value: int) -> int:
    """Map signed to unsigned (arbitrary precision): 0,-1,1,-2 -> 0,1,2,3."""
    return (value << 1) if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _decode_from(data: bytes, pos: int) -> Tuple[Any, int]:
    if pos >= len(data):
        raise CodecError("truncated value")
    tag = data[pos : pos + 1]
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_INT:
        raw, pos = _read_varint(data, pos)
        return _unzigzag(raw), pos
    if tag == _TAG_FLOAT:
        return struct.unpack(">d", data[pos : pos + 8])[0], pos + 8
    if tag == _TAG_BYTES:
        length, pos = _read_varint(data, pos)
        if pos + length > len(data):
            raise CodecError("truncated bytes")
        return data[pos : pos + length], pos + length
    if tag == _TAG_STR:
        length, pos = _read_varint(data, pos)
        if pos + length > len(data):
            raise CodecError("truncated string")
        return data[pos : pos + length].decode("utf-8"), pos + length
    if tag in (_TAG_LIST, _TAG_TUPLE):
        count, pos = _read_varint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_from(data, pos)
            items.append(item)
        return (tuple(items) if tag == _TAG_TUPLE else items), pos
    if tag == _TAG_DICT:
        count, pos = _read_varint(data, pos)
        result: Dict[Any, Any] = {}
        for _ in range(count):
            key, pos = _decode_from(data, pos)
            value, pos = _decode_from(data, pos)
            result[key] = value
        return result, pos
    if tag == _TAG_ADDRESS:
        value = data[pos : pos + 20]
        label, pos = _decode_from(data, pos + 20)
        return Address(value, label), pos
    if tag == _TAG_PARAMS:
        raw, pos = _decode_from(data, pos)
        return TaskParameters.from_json(raw), pos
    if tag == _TAG_POINT:
        return G1Point.from_bytes(data[pos : pos + 64]), pos + 64
    if tag == _TAG_CIPHERTEXT:
        return Ciphertext.from_bytes(data[pos : pos + 128]), pos + 128
    if tag == _TAG_VPKE_PROOF:
        return DecryptionProof.from_bytes(data[pos : pos + 160]), pos + 160
    if tag == _TAG_QUALITY_PROOF:
        count, pos = _read_varint(data, pos)
        entries = []
        for _ in range(count):
            index, pos = _decode_from(data, pos)
            answer, pos = _decode_from(data, pos)
            proof, pos = _decode_from(data, pos)
            entries.append(MismatchEntry(index, answer, proof))
        return QualityProof(tuple(entries)), pos
    raise CodecError("unknown tag 0x%02x at offset %d" % (tag[0], pos - 1))


def encode(value: Any) -> bytes:
    """Canonically encode one value (the building block of everything)."""
    out: List[bytes] = []
    _encode_into(out, value)
    return b"".join(out)


def decode(data: bytes) -> Any:
    """Decode one value; rejects trailing garbage."""
    value, pos = _decode_from(data, 0)
    if pos != len(data):
        raise CodecError("%d trailing bytes after value" % (len(data) - pos))
    return value


# ---------------------------------------------------------------------------
# Chain-object schemas
# ---------------------------------------------------------------------------


def transaction_to_data(transaction: Transaction) -> Dict[str, Any]:
    return {
        "sender": transaction.sender,
        "contract": transaction.contract,
        "method": transaction.method,
        "payload": transaction.payload,
        "args": transaction.args,
        "value": transaction.value,
        "gas_limit": transaction.gas_limit,
        "nonce": transaction.nonce,
    }


def transaction_from_data(data: Dict[str, Any]) -> Transaction:
    return Transaction(
        sender=data["sender"],
        contract=data["contract"],
        method=data["method"],
        payload=data["payload"],
        args=data["args"],
        value=data["value"],
        gas_limit=data["gas_limit"],
        nonce=data["nonce"],
    )


def event_to_data(event: Event) -> Dict[str, Any]:
    return {
        "contract": event.contract,
        "name": event.name,
        "topics": event.topics,
        "data": event.data,
        "payload": event.payload,
    }


def event_from_data(data: Dict[str, Any]) -> Event:
    return Event(
        contract=data["contract"],
        name=data["name"],
        topics=data["topics"],
        data=data["data"],
        payload=data["payload"],
    )


def receipt_to_data(receipt: Receipt) -> Dict[str, Any]:
    """A standalone receipt with its transaction inlined.

    Blocks encode receipts with a transaction *index* (the sealed
    objects share identity); a receipt travelling alone — an RPC
    ``tx_deploy`` response, a contract-test comparison — carries the
    transaction itself.
    """
    return {
        "transaction": transaction_to_data(receipt.transaction),
        **_receipt_outcome(receipt),
    }


def receipt_from_data(data: Dict[str, Any]) -> Receipt:
    return _receipt(data, transaction_from_data(data["transaction"]))


def _receipt_outcome(receipt: Receipt) -> Dict[str, Any]:
    """A receipt's fields after its transaction (inlined or indexed)."""
    return {
        "status": receipt.status,
        "gas_used": receipt.gas_used,
        "gas_breakdown": receipt.gas_breakdown,
        "events": [event_to_data(event) for event in receipt.events],
        "revert_reason": receipt.revert_reason,
        "block_number": receipt.block_number,
    }


def _receipt(data: Dict[str, Any], transaction: Transaction) -> Receipt:
    return Receipt(
        transaction=transaction,
        status=data["status"],
        gas_used=data["gas_used"],
        gas_breakdown=data["gas_breakdown"],
        events=tuple(event_from_data(item) for item in data["events"]),
        revert_reason=data["revert_reason"],
        block_number=data["block_number"],
    )


def block_to_data(block: Block) -> Dict[str, Any]:
    """A block with receipts referencing transactions *by index* (the
    live objects share identity; the encoding shares the reference)."""
    # Receipts are sealed positionally aligned with transactions, so an
    # identity map resolves the index in O(1); the equality scan is only
    # a fallback for hand-built blocks (state_root re-encodes every
    # block, so this sits on the snapshot/checkpoint hot path).
    index_of = {
        id(transaction): index
        for index, transaction in enumerate(block.transactions)
    }

    def _tx_index(receipt: Receipt) -> int:
        index = index_of.get(id(receipt.transaction))
        if index is None:  # not the sealed object: equality fallback
            index = block.transactions.index(receipt.transaction)
        return index

    return {
        "number": block.number,
        "parent_hash": block.parent_hash,
        "transactions": [
            transaction_to_data(transaction) for transaction in block.transactions
        ],
        "receipts": [
            {"tx": _tx_index(receipt), **_receipt_outcome(receipt)}
            for receipt in block.receipts
        ],
    }


def block_from_data(data: Dict[str, Any]) -> Block:
    transactions = tuple(
        transaction_from_data(item) for item in data["transactions"]
    )
    receipts = tuple(
        _receipt(item, transactions[item["tx"]]) for item in data["receipts"]
    )
    return Block(
        number=data["number"],
        parent_hash=data["parent_hash"],
        transactions=transactions,
        receipts=receipts,
    )


# Contract classes a decoded chain may instantiate, by class name.  A
# new persistent contract type registers here (and bumps the schema if
# its storage layout is not self-describing).
CONTRACT_TYPES: Dict[str, type] = {
    "Contract": Contract,
    "HITContract": HITContract,
}

_SCHEDULER_TYPES: Dict[str, type] = {
    "Scheduler": Scheduler,
    "FifoScheduler": FifoScheduler,
    "ReverseScheduler": ReverseScheduler,
}


def contract_to_data(contract: Contract) -> Dict[str, Any]:
    kind = type(contract).__name__
    if kind not in CONTRACT_TYPES:
        raise CodecError(
            "contract type %s is not registered for persistence "
            "(add it to repro.store.codec.CONTRACT_TYPES)" % kind
        )
    return {"type": kind, "name": contract.name, "storage": contract.storage}


def contract_from_data(data: Dict[str, Any]) -> Contract:
    contract = CONTRACT_TYPES[data["type"]](data["name"])
    contract.storage = data["storage"]
    return contract


def ledger_entry_to_data(entry: LedgerEntry) -> Dict[str, Any]:
    """The one LedgerEntry mapping both snapshot and WAL paths share —
    a drift between them would make crash recovery and snapshot loads
    reach different state roots for the same state."""
    return {
        "kind": entry.kind,
        "source": entry.source,
        "destination": entry.destination,
        "amount": entry.amount,
        "memo": entry.memo,
    }


def ledger_entry_from_data(data: Dict[str, Any]) -> LedgerEntry:
    return LedgerEntry(
        kind=data["kind"],
        source=data["source"],
        destination=data["destination"],
        amount=data["amount"],
        memo=data["memo"],
    )


def ledger_to_data(ledger: Ledger) -> Dict[str, Any]:
    return {
        "balances": dict(ledger._balances),
        "escrow": dict(ledger._escrow),
        "fees": ledger._fees_collected,
        "entries": [
            ledger_entry_to_data(entry) for entry in ledger._entries
        ],
    }


def ledger_from_data(data: Dict[str, Any]) -> Ledger:
    ledger = Ledger()
    ledger._balances = dict(data["balances"])
    ledger._escrow = dict(data["escrow"])
    ledger._fees_collected = data["fees"]
    ledger._entries = [
        ledger_entry_from_data(item) for item in data["entries"]
    ]
    return ledger


def eventlog_to_data(chain: Chain) -> Dict[str, Any]:
    """The retained records plus the prune base: compaction carries to
    disk — pruned records are genuinely absent from the encoding."""
    return {
        "base": chain.event_log.pruned,
        "records": [event_record_to_data(record) for record in chain.event_log],
    }


def event_record_to_data(record: EventRecord) -> Dict[str, Any]:
    return {
        "sequence": record.sequence,
        "block": record.block_number,
        "event": event_to_data(record.event),
    }


def scheduler_kind(chain: Chain) -> str:
    """The chain's scheduler type name, refusing one that cannot persist."""
    kind = type(chain.scheduler).__name__
    if kind not in _SCHEDULER_TYPES:
        raise CodecError(
            "scheduler %s holds live callbacks and cannot be persisted" % kind
        )
    return kind


def chain_state_to_data(chain: Chain) -> Dict[str, Any]:
    """The full durable state of one chain as plain data."""
    return {
        "schema": SCHEMA_VERSION,
        "period": chain.clock.period,
        "scheduler": scheduler_kind(chain),
        "blocks": [block_to_data(block) for block in chain.blocks],
        "ledger": ledger_to_data(chain.ledger),
        "registry": [address for address in chain.registry],
        "contracts": [
            contract_to_data(contract)
            for contract in chain._contracts.values()
        ],
        "event_log": eventlog_to_data(chain),
        "gas_by_sender": dict(chain.gas_by_sender),
    }


def chain_from_data(data: Dict[str, Any]) -> Chain:
    """Rebuild a live chain (mempool empty: WAL entries cover sealed
    blocks only — an in-flight mempool is client state, not node state)."""
    if data["schema"] != SCHEMA_VERSION:
        raise CodecError(
            "state schema %r (this build reads %d)"
            % (data["schema"], SCHEMA_VERSION)
        )
    chain = Chain(
        ledger=ledger_from_data(data["ledger"]),
        scheduler=_SCHEDULER_TYPES[data["scheduler"]](),
    )
    chain.clock._period = data["period"]
    for address in data["registry"]:
        chain.registry._granted[address.value] = address
    for item in data["contracts"]:
        contract = contract_from_data(item)
        chain._contracts[contract.name] = contract
    chain.blocks = [block_from_data(item) for item in data["blocks"]]
    log = chain.event_log
    log._base = data["event_log"]["base"]
    log._records = [
        EventRecord(
            sequence=item["sequence"],
            block_number=item["block"],
            event=event_from_data(item["event"]),
        )
        for item in data["event_log"]["records"]
    ]
    chain.gas_by_sender = dict(data["gas_by_sender"])
    return chain


def encode_chain_state(chain: Chain) -> bytes:
    """The canonical byte form of the whole node state."""
    return encode(chain_state_to_data(chain))


def decode_chain_state(data: bytes) -> Chain:
    return chain_from_data(decode(data))


def state_root(chain: Chain) -> bytes:
    """The 32-byte integrity anchor: the chain's Merkle trie root.

    The incremental :mod:`repro.store.trie` root (through schema v1, a
    flat keccak of :func:`encode_chain_state`): a pure function of chain
    state, byte-identical across seeded and interrupt/resume runs, that
    an unchanged chain re-reads for one diff walk, and under which every
    key is provable to a light client.  Imported lazily: codec is the
    trie's value encoder, so a module-level import would cycle.
    """
    from repro.store import trie

    return trie.chain_state_trie(chain).root(chain)
