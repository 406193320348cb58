"""Out-of-process clients: the in-process APIs, re-based on JSON-RPC.

The design inverts nothing: :class:`RpcChain` implements the slice of
the :class:`~repro.chain.chain.Chain` surface the protocol clients and
the session engine actually touch (account registration, transaction
submission, deployment, event subscription, ledger reads, block
production), backed by RPC calls instead of attribute access.
:class:`RpcRequesterClient` and :class:`RpcWorkerClient` are then the
*same* classes as their in-process parents — every key, commitment,
ciphertext, and proof is still produced client-side; only the chain
boundary moved.  A :class:`~repro.core.session.SessionEngine`
constructed over an :class:`RpcChain` therefore drives full HIT
sessions over the wire, which is exactly what the equivalence contract
in ``tests/rpc/`` pins: same receipts, same gas, same ``state_root`` as
the in-process path, byte for byte.

Transports are pluggable: :class:`LoopbackTransport` hands the encoded
request straight to an in-process :class:`~repro.rpc.server.RpcNode`
(every test still exercises the full parse/validate/dispatch pipeline),
:class:`HttpTransport` speaks to a real socket via stdlib
``http.client``, and :class:`AsyncHttpTransport` speaks the same bytes
from inside an asyncio application.  Sessions carry an optional ``auth``
token that rides every envelope (the node checks it only on admin and
submission methods).  :class:`PushSubscription` (blocking) and
:class:`AsyncSubscription` (awaitable) consume a ``chain_subscribe``
NDJSON stream — events arrive because the node pushed them, not because
anybody polled.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import urllib.parse
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.chain.blocks import Block
from repro.chain.eventlog import EventFilter, EventRecord
from repro.chain.transactions import Event, Receipt, Transaction
from repro.core.requester import RequesterClient
from repro.core.worker import WorkerClient
from repro.errors import ReproError, RpcError
from repro.ledger.accounts import Address
from repro.ledger.ledger import LedgerEntry
from repro.store import codec
from repro.rpc import wire

#: One chain_events page requested by the client-side cursors.
EVENT_PAGE = 256

# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------


class LoopbackTransport:
    """In-memory transport: full wire encoding, no socket.

    The fast path for tests and benchmarks — requests still round-trip
    through JSON and the canonical codec, so an encoding bug cannot hide
    behind shared memory.
    """

    def __init__(self, node) -> None:
        self.node = node
        self.requests_sent = 0

    def request(self, raw: bytes, idempotent: bool = False) -> bytes:
        self.requests_sent += 1
        return self.node.handle(raw)

    def close(self) -> None:
        pass


class HttpTransport:
    """A persistent HTTP/1.1 connection to a node's ``/rpc`` endpoint."""

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise RpcError("HttpTransport needs an http://host:port URL")
        self.url = url
        self._path = parsed.path or "/rpc"
        # Connects on the first request, and again after close(); its
        # connect() sets TCP_NODELAY, so Nagle never holds a request's
        # body for the server's delayed ACK.
        self._connection = http.client.HTTPConnection(
            parsed.hostname, parsed.port or 80, timeout=timeout
        )
        self.requests_sent = 0

    def request(self, raw: bytes, idempotent: bool = False) -> bytes:
        self.requests_sent += 1
        attempts = 2 if idempotent else 1
        for attempt in range(attempts):
            try:
                self._connection.request(
                    "POST",
                    self._path,
                    body=raw,
                    headers={"Content-Type": "application/json"},
                )
                return self._connection.getresponse().read()
            except (http.client.HTTPException, ConnectionError, OSError) as exc:
                # A dropped keep-alive connection gets one reconnect —
                # but only for pure reads: a mutation may already have
                # executed server-side, and resending it blind would
                # apply it twice.  Everything else surfaces as RpcError.
                self.close()
                if attempt == attempts - 1:
                    raise RpcError(
                        "rpc transport failure against %s: %s" % (self.url, exc)
                    ) from exc
        raise AssertionError("unreachable")

    def close(self) -> None:
        self._connection.close()


class AsyncHttpTransport:
    """A persistent HTTP/1.1 connection spoken from inside an event loop.

    Byte-for-byte the same protocol as :class:`HttpTransport` — same
    envelopes, same idempotent-reconnect policy — so async applications
    (and the subscription benchmark's hundred-client fan-out) talk to
    the node without their own HTTP plumbing.
    """

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise RpcError("AsyncHttpTransport needs an http://host:port URL")
        self.url = url
        self._path = parsed.path or "/rpc"
        self._host = parsed.hostname
        self._port = parsed.port or 80
        self._timeout = timeout
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self.requests_sent = 0

    async def _connect(self) -> None:
        if self._writer is None:
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self._host, self._port),
                timeout=self._timeout,
            )
            sock = self._writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    async def request(self, raw: bytes, idempotent: bool = False) -> bytes:
        self.requests_sent += 1
        attempts = 2 if idempotent else 1
        for attempt in range(attempts):
            try:
                await self._connect()
                head = (
                    "POST %s HTTP/1.1\r\n"
                    "Host: %s:%d\r\n"
                    "Content-Type: application/json\r\n"
                    "Content-Length: %d\r\n"
                    "\r\n" % (self._path, self._host, self._port, len(raw))
                )
                self._writer.write(head.encode("latin-1") + raw)
                await self._writer.drain()
                return await asyncio.wait_for(
                    self._read_response_body(), timeout=self._timeout
                )
            except (
                ConnectionError,
                OSError,
                asyncio.IncompleteReadError,
                asyncio.TimeoutError,
            ) as exc:
                # Same policy as HttpTransport: a dropped keep-alive
                # connection earns one reconnect for pure reads only.
                await self.close()
                if attempt == attempts - 1:
                    raise RpcError(
                        "rpc transport failure against %s: %s" % (self.url, exc)
                    ) from exc
        raise AssertionError("unreachable")

    async def _read_response_body(self) -> bytes:
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        length = None
        keep_alive = True
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                keep_alive = False
        if length is None:
            raise ConnectionError("response carries no Content-Length")
        body = await self._reader.readexactly(length)
        if not keep_alive:
            await self.close()
        return body

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            await _close_writer(writer)


async def _close_writer(writer: asyncio.StreamWriter) -> None:
    """Close one stream and wait for it; a peer already gone is fine."""
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


def filter_params(filter: Optional[EventFilter]) -> Dict[str, Any]:
    """An :class:`EventFilter` as ``chain_events``/``chain_subscribe`` params."""
    params: Dict[str, Any] = {}
    if filter is not None:
        if filter.contract is not None:
            params["contract"] = wire.pack(filter.contract)
        if filter.names is not None:
            params["names"] = sorted(filter.names)
        if filter.topic is not None:
            params["topic"] = filter.topic.hex()
    return params


def record_from_wire(item: Dict[str, Any]) -> EventRecord:
    """One wire-shaped event record back into an :class:`EventRecord`."""
    return EventRecord(
        sequence=item["sequence"],
        block_number=item["block"],
        event=codec.event_from_data(wire.unpack(item["event"])),
    )


def _unwrap_response(envelope: Any) -> Any:
    if not isinstance(envelope, dict):
        raise RpcError("rpc response must be a JSON object")
    if "error" in envelope:
        raise wire.error_to_exception(envelope["error"])
    if "result" not in envelope:
        raise RpcError("rpc response carries neither result nor error")
    return envelope["result"]


def _unwrap_batch(raw: bytes, expected: int) -> List[Any]:
    """Batch responses to per-member outcomes (results or exceptions).

    An error member becomes the reconstructed exception *object* in the
    list rather than a raise, so one failing member cannot hide the
    other members' results; callers decide what to raise.
    """
    try:
        envelopes = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RpcError("unparseable rpc response: %s" % exc) from exc
    if isinstance(envelopes, dict):
        # The whole batch was rejected with one error envelope.
        raise wire.error_to_exception(
            envelopes.get("error", {"message": "batch rejected"})
        )
    if not isinstance(envelopes, list) or len(envelopes) != expected:
        raise RpcError(
            "batch of %d requests answered with %r" % (expected, envelopes)
        )
    outcomes: List[Any] = []
    for envelope in envelopes:
        try:
            outcomes.append(_unwrap_response(envelope))
        except ReproError as exc:
            outcomes.append(exc)
    return outcomes


class RpcSession:
    """Envelope bookkeeping over one transport: ids, errors, unwrapping.

    ``auth`` (optional) rides every request envelope; the node ignores
    it on open methods and requires it on admin/submission ones.
    """

    def __init__(self, transport, auth: Optional[str] = None) -> None:
        self.transport = transport
        self.auth = auth
        self._next_id = 0

    def call(self, method: str, /, **params: Any) -> Any:
        self._next_id += 1
        raw = self.transport.request(
            wire.request(method, params or None, self._next_id, auth=self.auth),
            idempotent=method in wire.READ_METHODS,
        )
        try:
            envelope = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RpcError("unparseable rpc response: %s" % exc) from exc
        return _unwrap_response(envelope)

    def call_batch(
        self, calls: List[Tuple[str, Dict[str, Any]]]
    ) -> List[Any]:
        """One round trip for many requests; outcomes in request order.

        Each outcome is the unwrapped ``result`` or the reconstructed
        exception object for that member (see :func:`_unwrap_batch`).
        """
        if not calls:
            return []
        batch = []
        idempotent = True
        for method, params in calls:
            self._next_id += 1
            idempotent = idempotent and method in wire.READ_METHODS
            batch.append(
                wire.request_value(
                    method, params or None, self._next_id, auth=self.auth
                )
            )
        raw = self.transport.request(
            wire.serialize(batch), idempotent=idempotent
        )
        return _unwrap_batch(raw, len(calls))

    def version(self) -> Dict[str, Any]:
        """The server's version report, compatibility-checked."""
        report = self.call("rpc_version")
        if report.get("protocol") != wire.PROTOCOL_VERSION:
            raise RpcError(
                "server speaks rpc protocol %r, this client speaks %d"
                % (report.get("protocol"), wire.PROTOCOL_VERSION)
            )
        if report.get("schema") != codec.SCHEMA_VERSION:
            raise RpcError(
                "server encodes value schema %r, this client reads %d"
                % (report.get("schema"), codec.SCHEMA_VERSION)
            )
        return report


class AsyncRpcSession:
    """:class:`RpcSession` for awaitable transports (one per transport)."""

    def __init__(
        self, transport: AsyncHttpTransport, auth: Optional[str] = None
    ) -> None:
        self.transport = transport
        self.auth = auth
        self._next_id = 0

    async def call(self, method: str, /, **params: Any) -> Any:
        self._next_id += 1
        raw = await self.transport.request(
            wire.request(method, params or None, self._next_id, auth=self.auth),
            idempotent=method in wire.READ_METHODS,
        )
        try:
            envelope = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RpcError("unparseable rpc response: %s" % exc) from exc
        return _unwrap_response(envelope)

    async def call_batch(
        self, calls: List[Tuple[str, Dict[str, Any]]]
    ) -> List[Any]:
        """Awaitable :meth:`RpcSession.call_batch`; same outcome contract."""
        if not calls:
            return []
        batch = []
        idempotent = True
        for method, params in calls:
            self._next_id += 1
            idempotent = idempotent and method in wire.READ_METHODS
            batch.append(
                wire.request_value(
                    method, params or None, self._next_id, auth=self.auth
                )
            )
        raw = await self.transport.request(
            wire.serialize(batch), idempotent=idempotent
        )
        return _unwrap_batch(raw, len(calls))


# ---------------------------------------------------------------------------
# Server-push subscriptions
# ---------------------------------------------------------------------------


def _subscribe_request(
    filter: Optional[EventFilter],
    from_start: bool,
    cursor: Optional[int],
    auth: Optional[str],
) -> bytes:
    params: Dict[str, Any] = filter_params(filter)
    if from_start:
        params["from_start"] = True
    if cursor is not None:
        params["cursor"] = cursor
    return wire.request("chain_subscribe", params or None, 1, auth=auth)


def _parse_subscribe_ack(line: bytes) -> Tuple[int, int]:
    """The stream's first frame: the subscribe result (or its error)."""
    if not line:
        raise RpcError("subscription stream closed before the ack")
    envelope = json.loads(line.decode("utf-8"))
    result = _unwrap_response(envelope)
    return result["subscription"], result["cursor"]


def _parse_push_frame(line: bytes) -> Tuple[List[EventRecord], int, int]:
    """One stream line to ``(records, cursor, head)``; errors re-raise."""
    envelope = json.loads(line.decode("utf-8"))
    if isinstance(envelope, dict) and "error" in envelope:
        raise wire.error_to_exception(envelope["error"])
    if not wire.is_push(envelope):
        raise RpcError("unexpected frame on subscription stream: %r" % envelope)
    params = envelope["params"]
    return (
        [record_from_wire(item) for item in params["records"]],
        params["cursor"],
        params["head"],
    )


class PushSubscription:
    """A blocking consumer of one server-push event stream.

    Opens its own connection to an :class:`~repro.rpc.aserver.AsyncRpcServer`,
    sends ``chain_subscribe``, and then just *reads*: the server writes a
    frame whenever matching events land, so there is no poll loop on
    either side.  Closing the connection (``close()`` or letting the
    object die) is the unsubscribe.

    ``next_records(timeout)`` blocks until one pushed frame arrives and
    returns its records; ``socket.timeout`` surfaces if nothing arrives
    in time (the chain simply had no matching writes).
    """

    def __init__(
        self,
        url: str,
        filter: Optional[EventFilter] = None,
        from_start: bool = False,
        cursor: Optional[int] = None,
        auth: Optional[str] = None,
        timeout: float = 30.0,
    ) -> None:
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise RpcError("PushSubscription needs an http://host:port URL")
        self.filter = filter
        raw = _subscribe_request(filter, from_start, cursor, auth)
        self._sock = socket.create_connection(
            (parsed.hostname, parsed.port or 80), timeout=timeout
        )
        self._stream = self._sock.makefile("rb")
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            head = (
                "POST %s HTTP/1.1\r\n"
                "Host: %s\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: %d\r\n"
                "\r\n" % (parsed.path or "/rpc", parsed.hostname, len(raw))
            )
            self._sock.sendall(head.encode("latin-1") + raw)
            status = self._stream.readline().decode("latin-1")
            while True:  # headers end at the blank line
                line = self._stream.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            if " 200 " not in status:
                raise RpcError("subscription refused: %s" % status.strip())
            self.subscription_id, self.cursor = _parse_subscribe_ack(
                self._stream.readline()
            )
        except BaseException:
            self.close()
            raise

    def next_records(
        self, timeout: Optional[float] = None
    ) -> List[EventRecord]:
        """Block until the server pushes the next frame; return its records."""
        if timeout is not None:
            self._sock.settimeout(timeout)
        line = self._stream.readline()
        if not line:
            raise RpcError("subscription stream closed by the server")
        records, self.cursor, _head = _parse_push_frame(line)
        return records

    def close(self) -> None:
        try:
            self._stream.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "PushSubscription":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class AsyncSubscription:
    """Awaitable twin of :class:`PushSubscription` for asyncio consumers.

    A hundred of these cost one event loop and a hundred sockets — the
    shape the subscription benchmark measures.
    """

    def __init__(self, reader, writer, subscription_id: int, cursor: int) -> None:
        self._reader = reader
        self._writer = writer
        self.subscription_id = subscription_id
        self.cursor = cursor

    @classmethod
    async def open(
        cls,
        url: str,
        filter: Optional[EventFilter] = None,
        from_start: bool = False,
        cursor: Optional[int] = None,
        auth: Optional[str] = None,
        timeout: float = 30.0,
    ) -> "AsyncSubscription":
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise RpcError("AsyncSubscription needs an http://host:port URL")
        raw = _subscribe_request(filter, from_start, cursor, auth)
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(parsed.hostname, parsed.port or 80),
            timeout=timeout,
        )
        try:
            head = (
                "POST %s HTTP/1.1\r\n"
                "Host: %s\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: %d\r\n"
                "\r\n" % (parsed.path or "/rpc", parsed.hostname, len(raw))
            )
            writer.write(head.encode("latin-1") + raw)
            await writer.drain()
            status = (await reader.readline()).decode("latin-1")
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            if " 200 " not in status:
                raise RpcError("subscription refused: %s" % status.strip())
            sid, acked = _parse_subscribe_ack(await reader.readline())
        except BaseException:
            await _close_writer(writer)
            raise
        return cls(reader, writer, sid, acked)

    async def next_records(self) -> List[EventRecord]:
        line = await self._reader.readline()
        if not line:
            raise RpcError("subscription stream closed by the server")
        records, self.cursor, _head = _parse_push_frame(line)
        return records

    async def close(self) -> None:
        await _close_writer(self._writer)


# ---------------------------------------------------------------------------
# The Chain mirror
# ---------------------------------------------------------------------------


class RemoteClock:
    """Mirror of :class:`~repro.chain.clock.Clock`: ``period`` reads."""

    def __init__(self, session: RpcSession) -> None:
        self._session = session

    @property
    def period(self) -> int:
        return self._session.call("chain_head")["period"]


class RemoteMempool:
    """Mirror of the mempool's depth: ``len()`` is all it answers."""

    def __init__(self, session: RpcSession) -> None:
        self._session = session

    def __len__(self) -> int:
        return self._session.call("chain_head")["mempool"]


class RemoteLedger:
    """Mirror of the ledger reads clients perform (balances, payments)."""

    def __init__(self, session: RpcSession) -> None:
        self._session = session

    def balance_of(self, address: Address) -> int:
        return self._session.call("chain_balance", address=wire.pack(address))[
            "balance"
        ]

    def payments_to(self, address: Address) -> List[LedgerEntry]:
        entries = wire.unpack(
            self._session.call("chain_payments", address=wire.pack(address))[
                "entries"
            ]
        )
        return [codec.ledger_entry_from_data(item) for item in entries]


class RemoteSubscription:
    """A client-held cursor over the node's event log.

    Unlike an in-process :class:`~repro.chain.eventlog.Subscription`,
    the node does not know this cursor exists — compaction
    (``node_prune``) can outrun it, in which case the next poll raises
    a :class:`~repro.errors.ChainError` naming the gap rather than
    silently skipping events (pinned by ``tests/rpc/test_rpc_events.py``).
    """

    def __init__(
        self,
        session: RpcSession,
        filter: Optional[EventFilter],
        cursor: int,
    ) -> None:
        self._session = session
        self.filter = filter
        self.cursor = cursor

    def poll(self) -> List[EventRecord]:
        """New matching records since the last poll (pages to the head)."""
        records: List[EventRecord] = []
        while True:
            page = self._session.call(
                "chain_events",
                cursor=self.cursor,
                limit=EVENT_PAGE,
                **filter_params(self.filter),
            )
            records.extend(
                record_from_wire(item) for item in page["records"]
            )
            self.cursor = page["cursor"]
            if page["cursor"] >= page["head"]:
                return records


class RpcChain:
    """The :class:`~repro.chain.chain.Chain` surface, spoken over RPC.

    Implements exactly the slice the protocol clients and the session
    engine use, down to a read-only ``mempool`` whose ``len()`` (the
    ``chain_head`` pending count) the service loop's stop rule reads.
    Pending transactions themselves and store attachment stay the
    node's business.
    """

    def __init__(self, transport, auth: Optional[str] = None) -> None:
        self.rpc = RpcSession(transport, auth=auth)
        self.clock = RemoteClock(self.rpc)
        self.ledger = RemoteLedger(self.rpc)
        self.mempool = RemoteMempool(self.rpc)

    # -- accounts ---------------------------------------------------------------

    def register_account(self, label: str, balance: int = 0) -> Address:
        result = self.rpc.call("tx_register", label=label, balance=balance)
        return wire.unpack(result["address"])

    # -- transaction submission -------------------------------------------------

    def send(
        self,
        sender: Address,
        contract: str,
        method: str,
        args: Tuple[Any, ...] = (),
        payload: bytes = b"",
        value: int = 0,
    ) -> Transaction:
        result = self.rpc.call(
            "tx_send",
            sender=wire.pack(sender),
            contract=contract,
            method=method,
            args=wire.pack(tuple(args)),
            payload=payload.hex(),
            value=value,
        )
        transaction = Transaction(
            sender=sender,
            contract=contract,
            method=method,
            payload=payload,
            args=tuple(args),
            value=value,
            nonce=result["nonce"],
        )
        if transaction.tx_hash().hex() != result["tx_hash"]:
            raise RpcError(
                "node stamped tx %s but this client derives %s — the "
                "transaction was altered in transit"
                % (result["tx_hash"], transaction.tx_hash().hex())
            )
        return transaction

    # -- contracts ----------------------------------------------------------------

    def deploy(
        self,
        contract,
        deployer: Address,
        args: Tuple[Any, ...] = (),
        payload: bytes = b"",
        value: int = 0,
    ) -> Receipt:
        result = self.rpc.call(
            "tx_deploy",
            type=type(contract).__name__,
            name=contract.name,
            deployer=wire.pack(deployer),
            args=wire.pack(tuple(args)),
            payload=payload.hex(),
            value=value,
        )
        return codec.receipt_from_data(wire.unpack(result["receipt"]))

    def deploy_many(
        self,
        deployments: Iterable[Tuple[Any, Address, Tuple[Any, ...], bytes]],
    ) -> List[Receipt]:
        result = self.rpc.call(
            "tx_deploy_many",
            deployments=[
                {
                    "type": type(contract).__name__,
                    "name": contract.name,
                    "deployer": wire.pack(deployer),
                    "args": wire.pack(tuple(args)),
                    "payload": payload.hex(),
                }
                for contract, deployer, args, payload in deployments
            ],
        )
        return [
            codec.receipt_from_data(wire.unpack(item))
            for item in result["receipts"]
        ]

    def contract(self, name: str):
        """A point-in-time replica of the named contract.

        The replica is a real instance of the contract's class
        (resolved through :data:`repro.store.codec.CONTRACT_TYPES`)
        with the node's current storage, so observation helpers like
        ``HITContract.verdict_of`` work unchanged; it is *not* live —
        refetch after mining to observe new state.
        """
        result = self.rpc.call("chain_contract", name=name)
        contract = codec.CONTRACT_TYPES[result["type"]](result["name"])
        contract.storage = wire.unpack(result["storage"])
        return contract

    # -- block production ---------------------------------------------------------

    def mine_block(self) -> Block:
        result = self.rpc.call("chain_mine")
        return codec.block_from_data(wire.unpack(result["block"]))

    # -- observation ---------------------------------------------------------------

    def subscribe(
        self, filter: Optional[EventFilter] = None, from_start: bool = False
    ) -> RemoteSubscription:
        head = self.rpc.call("chain_head")
        cursor = head["events_pruned"] if from_start else head["events"]
        return RemoteSubscription(self.rpc, filter, cursor)

    def events_named(
        self, name: str, contract: Optional[str] = None
    ) -> List[Event]:
        filter = (
            EventFilter.for_contract(contract, names=[name])
            if contract
            else EventFilter(names=[name])
        )
        subscription = self.subscribe(filter, from_start=True)
        return [record.event for record in subscription.poll()]

    @property
    def height(self) -> int:
        return self.rpc.call("chain_head")["height"]

    @property
    def blocks(self) -> List[Block]:
        """Every sealed block, fetched one RPC page at a time.

        An observation convenience mirroring ``Chain.blocks`` for
        outcome assembly (``session_outcomes`` reads it once per call);
        event subscriptions are the scalable read path.
        """
        return [
            codec.block_from_data(
                wire.unpack(self.rpc.call("chain_block", number=number)["block"])
            )
            for number in range(self.height)
        ]

    @property
    def total_gas(self) -> int:
        return self.rpc.call("chain_gas")["total"]

    def state_root(self) -> bytes:
        """The node's current canonical state root (integrity checks)."""
        return bytes.fromhex(
            self.rpc.call("chain_state_root")["state_root"]
        )

    # -- light-client surface -------------------------------------------------

    def header(self, index: Optional[int] = None) -> Dict[str, Any]:
        """One commitment header (default: newest), decoded.

        Returns ``{"index", "count", "header", "header_hash"}`` with
        ``header`` as a plain field dict — :class:`repro.lightclient.
        LightClient` does the chaining and verification; this is just
        the fetch.
        """
        params = {} if index is None else {"index": index}
        result = self.rpc.call("chain_header", **params)
        return {
            "index": result["index"],
            "count": result["count"],
            "header": wire.unpack(result["header"]),
            "header_hash": bytes.fromhex(result["header_hash"]),
        }

    def get_proof(self, key: bytes) -> Dict[str, Any]:
        """A state proof for one trie key, with its anchoring header."""
        result = self.rpc.call("get_proof", key=key.hex())
        return {
            "key": bytes.fromhex(result["key"]),
            "proof": wire.unpack(result["proof"]),
            "header_index": result["header_index"],
            "header": wire.unpack(result["header"]),
            "header_hash": bytes.fromhex(result["header_hash"]),
        }

    def payment_indexes(self, address: Address) -> List[int]:
        """Journal positions of ``pay`` entries to ``address`` (untrusted
        hints for ``entry/<index>`` proofs)."""
        return list(self.rpc.call("chain_payments", address=wire.pack(address))["indexes"])


class RpcSwarm:
    """Mirror of :class:`~repro.storage.swarm.SwarmStore` over the node's
    gateway (real deployments talk to Swarm directly; the node proxies)."""

    def __init__(self, transport, auth: Optional[str] = None) -> None:
        self.rpc = RpcSession(transport, auth=auth)

    def put(self, content: bytes) -> bytes:
        return bytes.fromhex(
            self.rpc.call("swarm_put", data=content.hex())["digest"]
        )

    def get(self, digest: bytes) -> bytes:
        return bytes.fromhex(
            self.rpc.call("swarm_get", digest=digest.hex())["data"]
        )


# ---------------------------------------------------------------------------
# The protocol clients, re-based
# ---------------------------------------------------------------------------


class RpcRequesterClient(RequesterClient):
    """A requester whose chain and Swarm live behind a node's RPC surface.

    Identical protocol behaviour to the in-process parent — keys,
    commitments, and proofs are produced locally; only submissions and
    observations cross the wire.
    """

    def __init__(
        self,
        label: str,
        task,
        transport,
        balance: Optional[int] = None,
        secret: Optional[int] = None,
        auth: Optional[str] = None,
    ) -> None:
        super().__init__(
            label,
            task,
            RpcChain(transport, auth=auth),
            RpcSwarm(transport, auth=auth),
            balance=balance,
            secret=secret,
        )


class RpcWorkerClient(WorkerClient):
    """A worker whose chain and Swarm live behind a node's RPC surface."""

    def __init__(
        self,
        label: str,
        transport,
        answers: Optional[List[int]] = None,
        answer_strategy: Optional[Callable] = None,
        auth: Optional[str] = None,
    ) -> None:
        super().__init__(
            label,
            RpcChain(transport, auth=auth),
            RpcSwarm(transport, auth=auth),
            answers=answers,
            answer_strategy=answer_strategy,
        )
