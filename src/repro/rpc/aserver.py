"""The asyncio front-end: persistent connections, batches, server push.

:class:`AsyncRpcServer` is the node's one HTTP front-end (``node
rpc-serve`` in the CLI): it serves an
:class:`~repro.rpc.server.RpcNode` — method registry, validation,
locks, counters — behind an asyncio event loop, so the loopback
transport and a real socket run the same dispatch code:

* **persistent connections** — one task per connection on one loop, so
  hundreds of idle subscribers cost file descriptors, not threads;
* **off-loop dispatch** — requests execute on a small thread pool while
  the loop keeps multiplexing sockets, and because the node's dispatch
  lock is reader-writer, concurrent ``chain_head``/balance/event reads
  proceed in parallel instead of serializing behind block production;
* **batch envelopes** — a JSON array of requests costs one round trip
  (the node answers arrays natively, so loopback accepts them too);
* **server-push subscriptions** — ``chain_subscribe`` turns the
  connection into an ``application/x-ndjson`` stream: the subscribe ack,
  then one :data:`repro.rpc.wire.PUSH_METHOD` notification frame per
  event batch, pushed when writes land (no client polling anywhere).
  Closing the connection unsubscribes; a cursor that falls behind the
  prune base gets a loud error frame, exactly like a ``chain_events``
  poll would.

The wire format is HTTP/1.1 on the request side — ``POST /rpc``,
``GET /health`` and ``GET /metrics`` — so the blocking
:class:`~repro.rpc.client.HttpTransport`, curl, and the whole contract
suite speak to it; ``curl -N`` can even consume a subscription stream.

Push pump design: every subscription is its own task blocked on an
:class:`asyncio.Event`; the node's write listener (registered via
:meth:`RpcNode.add_write_listener` while the server runs and removed
when it stops, fired by *any* mutating dispatch, loopback included)
wakes them through ``call_soon_threadsafe``.  Each
woken task pages ``RpcNode.read_events`` off-loop under the shared read
lock and writes frames on the loop, so a slow subscriber only ever
stalls itself.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import count
from typing import Any, Dict, Optional, Set, Tuple

from repro.errors import ReproError
from repro.obs import registry as _obs
from repro.obs.registry import render_prometheus
from repro.rpc import wire
from repro.rpc.server import RpcNode, _BadParams, parse_event_filter

_SUBSCRIBERS = _obs.REGISTRY.gauge(
    "rpc_subscribers", "Open push subscriptions on the async front-end"
)
_PUSH_FRAMES = _obs.REGISTRY.counter(
    "rpc_push_frames_total", "Event notification frames pushed to subscribers"
)

#: Method the async front-end adds on top of the node registry.
SUBSCRIBE_METHOD = "chain_subscribe"
#: Upper bound on one pushed frame's record batch.
PUSH_PAGE = 256
#: Cap on one HTTP header section.
MAX_HEADER_BYTES = 16 * 1024
#: Prometheus text exposition content type (format v0.0.4).
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _Subscriber:
    """One streaming connection's push state."""

    __slots__ = ("sid", "filter", "cursor", "writer", "wake", "closed")

    def __init__(self, sid: int, filter, cursor: int, writer) -> None:
        self.sid = sid
        self.filter = filter
        self.cursor = cursor
        self.writer = writer
        self.wake = asyncio.Event()
        self.closed = False


class AsyncRpcServer:
    """An asyncio JSON-RPC server around one :class:`RpcNode`.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`),
    :meth:`start` serves from a background thread running its own loop
    (tests, embedding — use as a context manager), and
    :meth:`serve_forever` runs the loop on the calling thread until
    SIGINT/SIGTERM or :meth:`shutdown` (the CLI's ``node rpc-serve``).
    """

    def __init__(
        self,
        node: RpcNode,
        host: str = "127.0.0.1",
        port: int = 0,
        dispatch_threads: int = 8,
        ready_callback: Optional[Any] = None,
    ) -> None:
        self.node = node
        self._host = host
        self._port = port
        self._dispatch_threads = dispatch_threads
        self._ready_callback = ready_callback
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._stop: Optional[asyncio.Event] = None
        # Set by shutdown() from any thread, before or during serving;
        # the loop honours it once _stop exists, so an early call is
        # never lost.
        self._stop_requested = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._bound: Optional[Tuple[str, int]] = None
        self._startup_error: Optional[BaseException] = None
        self._subscribers: Set[_Subscriber] = set()
        self._connections: Set[Any] = set()
        self._conn_tasks: Set[Any] = set()
        self._next_sid = count(1)
        self.pushed_frames = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._bound[0] if self._bound else self._host

    @property
    def port(self) -> int:
        return self._bound[1] if self._bound else self._port

    @property
    def url(self) -> str:
        return "http://%s:%d/rpc" % (self.host, self.port)

    def start(self) -> "AsyncRpcServer":
        """Serve from a daemon thread running a private event loop."""
        self._thread = threading.Thread(
            target=self._run_blocking, name="rpc-aserve", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10)
        if self._startup_error is not None:
            raise self._startup_error
        if self._bound is None:
            raise RuntimeError("async rpc server failed to bind in time")
        return self

    def serve_forever(self) -> None:
        """Run the loop on the calling thread until stopped (the CLI)."""
        self._run_blocking(install_signal_handlers=True)
        if self._startup_error is not None:
            raise self._startup_error

    def shutdown(self) -> None:
        """Stop the loop from any thread; idempotent.

        Safe before serving starts: the request is recorded, and a loop
        still coming up exits as soon as it is ready.
        """
        self._stop_requested.set()
        loop = self._loop
        if loop is not None and not loop.is_closed() and self._stop is not None:
            try:
                loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # the loop stopped on its own between the checks
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def __enter__(self) -> "AsyncRpcServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def _run_blocking(self, install_signal_handlers: bool = False) -> None:
        try:
            asyncio.run(self._main(install_signal_handlers))
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
        finally:
            self._ready.set()

    async def _main(self, install_signal_handlers: bool) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        if self._stop_requested.is_set():
            self._stop.set()  # shutdown() ran before _stop existed
        self._pool = ThreadPoolExecutor(
            max_workers=self._dispatch_threads,
            thread_name_prefix="rpc-dispatch",
        )
        if install_signal_handlers:
            import signal

            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._loop.add_signal_handler(signum, self._stop.set)
                except (NotImplementedError, RuntimeError):
                    pass  # non-main thread or exotic platform: Ctrl-C only
        server = await asyncio.start_server(
            self._serve_connection, self._host, self._port
        )
        self._bound = server.sockets[0].getsockname()[:2]
        self._ready.set()
        if self._ready_callback is not None:
            self._ready_callback(self)  # the CLI's "listening on" line
        # Only while serving: the node would otherwise hold this server
        # (and its loop state) alive for as long as the node lives.
        self.node.add_write_listener(self._on_node_write)
        try:
            async with server:
                await self._stop.wait()
        finally:
            self.node.remove_write_listener(self._on_node_write)
            # Drain connections gracefully: closing their transports
            # EOFs every pending read, so handler tasks exit on their
            # own instead of being cancelled under the loop teardown.
            for subscriber in list(self._subscribers):
                subscriber.closed = True
                subscriber.wake.set()
            for writer in list(self._connections):
                writer.close()
            if self._conn_tasks:
                try:
                    await asyncio.wait_for(
                        asyncio.gather(
                            *list(self._conn_tasks), return_exceptions=True
                        ),
                        timeout=5,
                    )
                except asyncio.TimeoutError:
                    pass
            # Join the dispatch threads: one that has answered may not
            # yet have dropped its work item, which holds the node.
            self._pool.shutdown(wait=True)
            self._loop = None

    def _on_node_write(self) -> None:
        """Node write listener: wake every subscription task (any thread)."""
        loop = self._loop
        if loop is not None and self._subscribers:
            try:
                loop.call_soon_threadsafe(self._wake_subscribers)
            except RuntimeError:
                pass  # loop already closed mid-shutdown

    def _wake_subscribers(self) -> None:
        for subscriber in self._subscribers:
            subscriber.wake.set()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(writer)
        self._conn_tasks.add(task)
        try:
            await self._handle_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # hard loop teardown beat the graceful drain to it
        finally:
            self._connections.discard(writer)
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _handle_connection(self, reader, writer) -> None:
        try:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                import socket as _socket

                sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
            while True:
                request = await self._read_http_request(reader, writer)
                if request is None:
                    return
                verb, path, headers, body = request
                if verb == "GET":
                    if not await self._respond_health(writer, path):
                        return
                    continue
                if path not in ("/", "/rpc"):
                    await self._respond(
                        writer, 404,
                        wire.failure(None, wire.INVALID_REQUEST,
                                     "no such endpoint %r" % path),
                        close=True,
                    )
                    return
                try:
                    envelope = json.loads(body.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    self.node.note_rejected()
                    await self._respond(
                        writer, 200,
                        wire.failure(None, wire.PARSE_ERROR,
                                     "parse error: %s" % exc),
                    )
                    continue
                if (
                    isinstance(envelope, dict)
                    and envelope.get("method") == SUBSCRIBE_METHOD
                ):
                    await self._serve_subscription(reader, writer, envelope)
                    return  # the stream owned the connection
                response = await asyncio.get_running_loop().run_in_executor(
                    self._pool, self.node.respond, envelope
                )
                await self._respond(writer, 200, wire.serialize(response))
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            pass  # client went away mid-request; nothing to answer

    async def _read_http_request(self, reader, writer):
        """One request off the keep-alive connection, or None to close."""
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or parts[0] not in ("POST", "GET"):
            await self._respond(
                writer, 400,
                wire.failure(None, wire.INVALID_REQUEST,
                             "malformed request line"),
                close=True,
            )
            return None
        verb, path = parts[0], parts[1]
        headers: Dict[str, str] = {}
        header_bytes = 0
        while True:
            line = await reader.readline()
            header_bytes += len(line)
            if header_bytes > MAX_HEADER_BYTES:
                await self._respond(
                    writer, 431,
                    wire.failure(None, wire.INVALID_REQUEST,
                                 "header section too large"),
                    close=True,
                )
                return None
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if verb == "GET":
            return verb, path, headers, b""
        try:
            length = int(headers.get("content-length", ""))
        except ValueError:
            length = -1
        if length < 0:
            await self._respond(
                writer, 411,
                wire.failure(None, wire.INVALID_REQUEST,
                             "a non-negative Content-Length is required"),
                close=True,
            )
            return None
        if length > self.node.max_request_bytes:
            # From the header alone — never buffer an oversized body.
            self.node.note_rejected()
            await self._respond(
                writer, 413,
                wire.failure(
                    None, wire.OVERSIZED_REQUEST,
                    "request of %d bytes exceeds the %d-byte cap"
                    % (length, self.node.max_request_bytes),
                ),
                close=True,
            )
            return None
        body = await reader.readexactly(length) if length else b""
        return verb, path, headers, body

    async def _respond_health(self, writer, path: str) -> bool:
        if path == "/metrics":
            # Auth-exempt like /health: a read-only operational surface
            # carrying counts and durations, never payloads or tokens.
            await self._respond(
                writer, 200,
                render_prometheus().encode("utf-8"),
                content_type=METRICS_CONTENT_TYPE,
            )
            return True
        if path != "/health":
            await self._respond(
                writer, 404,
                wire.failure(None, wire.INVALID_REQUEST,
                             "no such endpoint %r" % path),
                close=True,
            )
            return False
        body = json.dumps(
            {
                "ok": True,
                "height": self.node.chain.height,
                "protocol": wire.PROTOCOL_VERSION,
                "subscribers": len(self._subscribers),
            }
        ).encode("utf-8")
        await self._respond(writer, 200, body)
        return True

    async def _respond(
        self,
        writer,
        status: int,
        body: bytes,
        close: bool = False,
        content_type: str = "application/json",
    ) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  411: "Length Required", 413: "Payload Too Large",
                  431: "Request Header Fields Too Large"}.get(status, "Error")
        head = (
            "HTTP/1.1 %d %s\r\n"
            "Content-Type: %s\r\n"
            "Content-Length: %d\r\n"
            "%s"
            "\r\n" % (
                status, reason, content_type, len(body),
                "Connection: close\r\n" if close else "",
            )
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        if close:
            writer.write_eof()

    # ------------------------------------------------------------------
    # Subscriptions (server push)
    # ------------------------------------------------------------------

    async def _serve_subscription(self, reader, writer, envelope) -> None:
        request_id = envelope.get("id")
        params = envelope.get("params", {})
        if not isinstance(params, dict):
            self.node.note_rejected()
            await self._respond(
                writer, 200,
                wire.failure(request_id, wire.INVALID_REQUEST,
                             "params must be an object"),
            )
            return
        try:
            filter = parse_event_filter(params)
            from_start = params.get("from_start", False)
            if not isinstance(from_start, bool):
                raise _BadParams("from_start must be a bool")
            cursor = params.get("cursor")
            if cursor is not None and (
                isinstance(cursor, bool) or not isinstance(cursor, int)
                or cursor < 0
            ):
                raise _BadParams("cursor must be an int >= 0")
        except _BadParams as exc:
            self.node.note_rejected()
            await self._respond(
                writer, 200,
                wire.failure(request_id, wire.INVALID_PARAMS, str(exc)),
            )
            return
        loop = asyncio.get_running_loop()
        if cursor is None:
            cursor = await loop.run_in_executor(
                self._pool, self.node.event_head, from_start
            )
        subscriber = _Subscriber(
            next(self._next_sid), filter, cursor, writer
        )
        # The ack rides the stream itself: status line, then NDJSON
        # frames until the client closes (closing unsubscribes).
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1"))
        writer.write(wire.frame(wire.result_value(
            request_id,
            {"subscription": subscriber.sid, "cursor": cursor},
        )))
        await writer.drain()
        self._subscribers.add(subscriber)
        _SUBSCRIBERS.inc()
        self.node._served.bump()
        eof_task = asyncio.create_task(self._drain_until_eof(reader))
        subscriber.wake.set()  # deliver anything already behind the cursor
        try:
            while not subscriber.closed:
                wake_task = asyncio.create_task(subscriber.wake.wait())
                done, _ = await asyncio.wait(
                    {eof_task, wake_task},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if eof_task in done:
                    wake_task.cancel()
                    break
                subscriber.wake.clear()
                if not await self._push_pages(subscriber):
                    break
        finally:
            subscriber.closed = True
            if subscriber in self._subscribers:
                self._subscribers.discard(subscriber)
                _SUBSCRIBERS.dec()
            eof_task.cancel()

    async def _drain_until_eof(self, reader) -> None:
        """Consume (and ignore) anything the subscriber sends until EOF."""
        try:
            while await reader.read(4096):
                pass
        except (ConnectionError, OSError):
            pass

    async def _push_pages(self, subscriber: _Subscriber) -> bool:
        """Push every outstanding page to one subscriber.

        Returns False when the subscription must end (disconnect, or a
        cursor compacted away — which gets a loud error frame first).
        """
        loop = asyncio.get_running_loop()
        while True:
            try:
                records, cursor, head = await loop.run_in_executor(
                    self._pool,
                    self.node.read_events,
                    subscriber.filter,
                    subscriber.cursor,
                    PUSH_PAGE,
                )
            except ReproError as exc:
                code, message, data = wire.exception_to_error(exc)
                try:
                    subscriber.writer.write(wire.frame(
                        wire.error_value(None, code, message, data)
                    ))
                    await subscriber.writer.drain()
                except (ConnectionError, OSError):
                    pass
                return False
            subscriber.cursor = cursor
            if records:
                try:
                    subscriber.writer.write(wire.frame(wire.push_value(
                        subscriber.sid, records, cursor, head
                    )))
                    await subscriber.writer.drain()
                except (ConnectionError, OSError):
                    return False
                self.pushed_frames += 1
                _PUSH_FRAMES.inc()
            if cursor >= head:
                return True
