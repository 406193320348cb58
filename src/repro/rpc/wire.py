"""The RPC wire format: JSON-RPC envelopes over the canonical codec.

The node's request/response surface is JSON-RPC 2.0 shaped — a JSON
object with ``method``/``params``/``id`` in, ``result`` or ``error``
out — but the *values* that cross the wire are not re-modelled in JSON.
Every rich value (addresses, proofs, ciphertexts, whole blocks) travels
as the hex of its :mod:`repro.store.codec` encoding, the same canonical
byte form the persistence layer hashes into ``state_root``.  One codec,
three jobs: disk, integrity anchor, wire.

Error taxonomy
--------------

Errors map **from** :mod:`repro.errors` onto JSON-RPC codes and back:

========================  =======  =====================================
code                      constant  meaning
========================  =======  =====================================
-32700                    PARSE_ERROR        request is not valid JSON
-32600                    INVALID_REQUEST    envelope is malformed
-32601                    METHOD_NOT_FOUND   unknown method name
-32602                    INVALID_PARAMS     wrong param types/shapes
-32603                    INTERNAL_ERROR     unexpected server fault
-32001                    OVERSIZED_REQUEST  request exceeds the size cap
-32002                    UNAUTHORIZED       method needs an auth token
-32020 .. -32027          family codes       one per library error family
-32000                    NODE_ERROR         other :class:`ReproError`
========================  =======  =====================================

Batch envelopes and push frames
-------------------------------

A JSON array of request objects is a **batch**: the node answers with
an array of responses in request order (``-32600`` for an empty one).
Server-push subscriptions reuse the same codec: each pushed frame is a
JSON-RPC *notification* (no ``id``) named :data:`PUSH_METHOD`, one
frame per line of an ``application/x-ndjson`` stream, carrying the
subscription id plus the same wire-shaped event records a
``chain_events`` page returns.

A family-coded error carries ``data = {"family", "kind"}`` where
``kind`` is the concrete exception class name; :func:`error_to_exception`
re-raises the *same* library exception client-side, so code written
against the in-process clients keeps its ``except`` clauses unchanged
over the wire.  Anything that cannot be mapped surfaces as
:class:`repro.errors.RpcError`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple, Type

from repro import errors as _errors
from repro.errors import ReproError, RpcError
from repro.storage.swarm import SwarmError
from repro.store.blockstore import StoreError
from repro.store import codec
from repro.store.codec import CodecError

#: Bump on any incompatible change to the method set or the wire format.
#: (Value-level compatibility is governed separately by
#: ``repro.store.codec.SCHEMA_VERSION``, which ``rpc_version`` reports.)
PROTOCOL_VERSION = 1

# -- JSON-RPC error codes -----------------------------------------------------

PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603
NODE_ERROR = -32000
OVERSIZED_REQUEST = -32001
UNAUTHORIZED = -32002

#: Method name of a server-push notification frame.
PUSH_METHOD = "rpc_push"

#: Methods that only read node state.  The server dispatches them under
#: the shared side of its lock, and a client transport may resend them
#: after a connection failure: a lost response costs nothing.  A failed
#: *mutation* (tx_send, chain_mine, ...) must surface instead, since the
#: server may have processed it and a blind resend would submit it twice.
READ_METHODS = frozenset(
    {
        "rpc_version",
        "chain_head",
        "chain_block",
        "chain_events",
        "chain_gas",
        "chain_balance",
        "chain_payments",
        "chain_contract",
        "chain_state_root",
        "chain_header",
        "get_proof",
        "node_status",
        "node_metrics",
        "swarm_get",
    }
)

#: Library error families, most specific first (the server walks this
#: list with ``isinstance``, so a subclass — e.g. ``OutOfGas`` — lands
#: on its family's code with its concrete class name in ``data.kind``).
ERROR_FAMILIES: List[Tuple[Type[ReproError], int, str]] = [
    (_errors.CryptoError, -32020, "crypto"),
    (_errors.LedgerError, -32021, "ledger"),
    (_errors.ChainError, -32022, "chain"),
    (_errors.ProtocolError, -32023, "protocol"),
    (_errors.BaselineError, -32024, "baseline"),
    (CodecError, -32025, "codec"),
    (StoreError, -32026, "store"),
    (SwarmError, -32027, "swarm"),
]

#: Concrete classes a wire error may reconstruct into, by class name.
_RECONSTRUCTABLE: Dict[str, Type[ReproError]] = {
    name: value
    for name, value in vars(_errors).items()
    if isinstance(value, type) and issubclass(value, ReproError)
}
_RECONSTRUCTABLE["CodecError"] = CodecError
_RECONSTRUCTABLE["StoreError"] = StoreError
_RECONSTRUCTABLE["SwarmError"] = SwarmError
_RECONSTRUCTABLE.pop("RpcError", None)  # never nests: it wraps, not rides


class WireError(RpcError):
    """A value that could not be packed/unpacked for the wire."""


# -- value packing ------------------------------------------------------------


def pack(value: Any) -> str:
    """Hex of the canonical codec encoding (the wire form of any value)."""
    try:
        return codec.encode(value).hex()
    except CodecError as exc:
        raise WireError("value cannot cross the wire: %s" % exc) from exc


def unpack(text: Any) -> Any:
    """Inverse of :func:`pack`; rejects anything but canonical hex."""
    if not isinstance(text, str):
        raise WireError("packed value must be a hex string")
    try:
        raw = bytes.fromhex(text)
    except ValueError:
        raise WireError("packed value is not valid hex") from None
    try:
        return codec.decode(raw)
    except CodecError as exc:
        raise WireError("packed value is not canonical: %s" % exc) from exc


# -- envelopes ----------------------------------------------------------------


def serialize(value: Any) -> bytes:
    """One envelope value (or batch list of them) to wire bytes."""
    return json.dumps(value, sort_keys=True).encode("utf-8")


def request_value(
    method: str,
    params: Optional[Dict[str, Any]],
    request_id: Any,
    auth: Optional[str] = None,
) -> Dict[str, Any]:
    """One JSON-RPC request as a value (batches collect these)."""
    envelope: Dict[str, Any] = {
        "jsonrpc": "2.0",
        "id": request_id,
        "method": method,
    }
    if params:
        envelope["params"] = params
    if auth is not None:
        envelope["auth"] = auth
    return envelope


def request(
    method: str,
    params: Optional[Dict[str, Any]],
    request_id: int,
    auth: Optional[str] = None,
) -> bytes:
    """Serialize one JSON-RPC request."""
    return serialize(request_value(method, params, request_id, auth=auth))


def result_value(request_id: Any, result: Any) -> Dict[str, Any]:
    return {"jsonrpc": "2.0", "id": request_id, "result": result}


def error_value(
    request_id: Any, code: int, message: str, data: Any = None
) -> Dict[str, Any]:
    error: Dict[str, Any] = {"code": code, "message": message}
    if data is not None:
        error["data"] = data
    return {"jsonrpc": "2.0", "id": request_id, "error": error}


def success(request_id: Any, result: Any) -> bytes:
    return serialize(result_value(request_id, result))


def failure(
    request_id: Any, code: int, message: str, data: Any = None
) -> bytes:
    return serialize(error_value(request_id, code, message, data))


# -- server-push frames -------------------------------------------------------


def push_value(
    subscription_id: int, records: list, cursor: int, head: int
) -> Dict[str, Any]:
    """One push notification (no ``id`` — the server initiates it)."""
    return {
        "jsonrpc": "2.0",
        "method": PUSH_METHOD,
        "params": {
            "subscription": subscription_id,
            "records": records,
            "cursor": cursor,
            "head": head,
        },
    }


def is_push(envelope: Any) -> bool:
    """Is this parsed frame a server-push notification?"""
    return (
        isinstance(envelope, dict)
        and envelope.get("method") == PUSH_METHOD
        and "id" not in envelope
    )


def frame(value: Any) -> bytes:
    """One NDJSON frame: the serialized envelope plus its newline.

    ``json.dumps`` never emits a raw newline, so the delimiter is
    unambiguous; a reader splits the stream on ``\\n`` and parses each
    line on its own.
    """
    return serialize(value) + b"\n"


def exception_to_error(exc: ReproError) -> Tuple[int, str, Dict[str, Any]]:
    """Map a library exception to ``(code, message, data)`` for the wire."""
    for family, code, label in ERROR_FAMILIES:
        if isinstance(exc, family):
            return code, str(exc), {
                "family": label,
                "kind": type(exc).__name__,
            }
    return NODE_ERROR, str(exc), {"family": "repro", "kind": type(exc).__name__}


def error_to_exception(error: Dict[str, Any]) -> ReproError:
    """Rebuild the client-side exception for one wire error object."""
    code = error.get("code", 0)
    message = error.get("message", "rpc error")
    data = error.get("data")
    kind = data.get("kind") if isinstance(data, dict) else None
    cls = _RECONSTRUCTABLE.get(kind) if kind else None
    if cls is not None:
        try:
            return cls(message)
        except TypeError:  # exotic constructor signature: fall through
            pass
    return RpcError(message, code=code, data=data)
