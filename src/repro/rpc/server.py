"""The JSON-RPC node front-end: one loaded chain behind a request loop.

:class:`RpcNode` is the transport-agnostic core — a method registry plus
a single-writer lock around one :class:`~repro.chain.chain.Chain` (and
its Swarm store and optional :class:`~repro.store.nodestore.NodeStore`).
Every byte that reaches :meth:`RpcNode.handle` goes through the full
parse → validate → dispatch pipeline, so the in-memory loopback
transport used by fast tests exercises exactly the code paths a socket
does; :class:`~repro.rpc.aserver.AsyncRpcServer` adds the HTTP skin for
out-of-process clients (``node rpc-serve`` in the CLI).

The method set (versioned by :data:`repro.rpc.wire.PROTOCOL_VERSION`):

* **chain queries** — ``chain_head``, ``chain_block``, ``chain_events``
  (cursor-based :class:`~repro.chain.eventlog.EventFilter` paging),
  ``chain_gas``, ``chain_balance``, ``chain_payments``,
  ``chain_contract``, ``chain_state_root``, and the light-client pair
  ``chain_header`` / ``get_proof`` (hash-chained state commitments and
  Merkle membership proofs against them);
* **transaction submission** — ``tx_register``, ``tx_deploy`` /
  ``tx_deploy_many``, and ``tx_send`` (which carries the protocol's
  ``commit`` / ``reveal`` / ``golden`` / ``evaluate`` /
  ``evaluate_batch`` / ``outrange`` / ``finalize`` / ``cancel`` phase
  messages), plus ``chain_mine`` to advance the clock;
* **node admin** — ``rpc_version``, ``node_status``,
  ``node_checkpoint``, ``node_prune``;
* **swarm gateway** — ``swarm_put`` / ``swarm_get`` (task blobs are
  off-chain content; the node proxies its content-addressed store).

Safety contract (pinned by ``tests/rpc/test_rpc_fuzz.py``): a rejected
request — malformed JSON, unknown method, wrong param types, oversized
body, replayed nonce, missing auth token — never changes node state;
``state_root`` is byte-identical before and after.  Handlers therefore
validate *every* param before touching the chain, and mutations go
through chain methods whose revert semantics already guarantee
atomicity.

Concurrency discipline: the chain is a single-writer state machine, so
mutating methods serialize behind one exclusive lock — but pure reads
(``chain_head``, balances, event pages) only need a *consistent* view,
and they dominate a population-scale workload.  Dispatch therefore runs
under a reader-writer lock (:class:`_RWLock`): any number of concurrent
readers, writers exclusive, writers preferred so a read storm cannot
starve block production.  Request counters are atomics so the hot path
takes the node lock exactly once.

Batch envelopes (JSON-RPC 2.0 arrays) are handled at this layer, so
loopback and the socket front-end accept them alike.
Token authorization (:class:`RpcAuth`) guards admin methods
(``chain_mine``, ``node_checkpoint``, ``node_prune``) and submissions
(``tx_*``, ``swarm_put``); a node constructed without ``auth`` stays
open, preserving the PR-5 behaviour for local tooling.
"""

from __future__ import annotations

import contextlib
import json
import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.chain.chain import Chain
from repro.chain.eventlog import EventFilter
from repro.chain.transactions import nonce_position
from repro.errors import ChainError, InvalidTransaction, ReproError
from repro.ledger.accounts import Address
from repro.obs import registry as _obs
from repro.obs.tracing import span_clock, trace_span
from repro.obs.logging import get_logger
from repro.storage.swarm import SwarmStore
from repro.store import codec
from repro.store import trie as state_trie
from repro.store.blockstore import StoreError
from repro.rpc import wire
from repro.rpc.wire import READ_METHODS, WireError

_RPC_REQUESTS = _obs.REGISTRY.counter(
    "rpc_requests_total",
    "Successfully dispatched RPC requests, by method",
    labelnames=("method",),
)
_RPC_REJECTED = _obs.REGISTRY.counter(
    "rpc_rejected_total",
    "RPC requests refused at any pipeline stage (parse, auth, params, error)",
)
_RPC_REQUEST_SECONDS = _obs.REGISTRY.histogram(
    "rpc_request_seconds",
    "Dispatch wall time (lock wait + handler) per served request",
    labelnames=("method",),
)
_RPC_PROOFS = _obs.REGISTRY.counter(
    "rpc_proofs_served_total",
    "State proofs served over get_proof",
)
_RPC_LISTENER_ERRORS = _obs.REGISTRY.counter(
    "rpc_listener_errors_total",
    "Write-listener callbacks that raised (push pump faults)",
)

_log = get_logger("rpc")


#: Default request-size cap; oversized bodies are rejected before parse.
MAX_REQUEST_BYTES = 2 * 1024 * 1024
#: Hard ceiling on one ``chain_events`` page.
MAX_EVENT_PAGE = 512
#: Hard ceiling on requests per batch envelope.
MAX_BATCH_REQUESTS = 128

#: Methods only an admin token may call once auth is configured.
ADMIN_METHODS = frozenset({"chain_mine", "node_checkpoint", "node_prune"})
#: Methods a submit (or admin) token may call once auth is configured.
SUBMIT_METHODS = frozenset(
    {"tx_register", "tx_send", "tx_deploy", "tx_deploy_many", "swarm_put"}
)

_MISSING = object()


class _RWLock:
    """A writer-preferring reader-writer lock.

    Readers share; a writer excludes everyone.  Waiting writers block
    *new* readers, so a steady stream of cheap reads cannot starve block
    production.  Not re-entrant — dispatch never nests lock scopes.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextlib.contextmanager
    def read(self):
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextlib.contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class _AtomicCounter:
    """A lock-guarded counter: bumping it never touches the node lock."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def bump(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class RpcAuth:
    """Token-based authorization for the node's guarded methods.

    Two roles: **admin** tokens may call everything, including
    ``chain_mine`` / ``node_checkpoint`` / ``node_prune``; **submit**
    tokens may additionally-to-reads call the transaction-submission
    methods (``tx_*``, ``swarm_put``).  Pure reads never need a token.
    The token rides the envelope as a top-level ``"auth"`` member, so
    every transport carries it identically.
    """

    def __init__(
        self,
        admin_tokens: Iterable[str] = (),
        submit_tokens: Iterable[str] = (),
    ) -> None:
        self.admin_tokens = frozenset(admin_tokens)
        self.submit_tokens = frozenset(submit_tokens)
        if not (self.admin_tokens or self.submit_tokens):
            raise ValueError("RpcAuth with no tokens would lock everyone out")

    def permits(self, method: str, token: Optional[str]) -> bool:
        if method in ADMIN_METHODS:
            return token in self.admin_tokens
        if method in SUBMIT_METHODS:
            return token in self.admin_tokens or token in self.submit_tokens
        return True


class _BadParams(Exception):
    """Internal: a param failed validation (maps to INVALID_PARAMS)."""


def _param(
    params: Dict[str, Any],
    name: str,
    kinds: Tuple[type, ...],
    default: Any = _MISSING,
) -> Any:
    """Fetch one JSON-level param with a strict type check."""
    if name not in params:
        if default is _MISSING:
            raise _BadParams("missing param %r" % name)
        return default
    value = params[name]
    # bool is an int subclass; an int-typed param must not accept True.
    if isinstance(value, bool) and bool not in kinds:
        raise _BadParams("param %r must be %s, got bool" % (name, kinds))
    if not isinstance(value, kinds):
        raise _BadParams(
            "param %r must be %s, got %s"
            % (name, "/".join(k.__name__ for k in kinds), type(value).__name__)
        )
    return value


def _packed(
    params: Dict[str, Any],
    name: str,
    expected: Optional[type] = None,
    default: Any = _MISSING,
) -> Any:
    """Fetch one codec-packed param, optionally pinning its decoded type."""
    text = _param(params, name, (str,), default=default)
    if not isinstance(text, str):
        return text  # the absent-param default (e.g. None)
    try:
        value = wire.unpack(text)
    except WireError as exc:
        raise _BadParams("param %r: %s" % (name, exc)) from None
    if expected is not None and type(value) is not expected:
        raise _BadParams(
            "param %r must decode to %s, got %s"
            % (name, expected.__name__, type(value).__name__)
        )
    return value


def _hex_bytes(
    params: Dict[str, Any], name: str, default: Any = _MISSING
) -> Any:
    """Fetch one plain-hex bytes param."""
    text = _param(params, name, (str,), default=default)
    if not isinstance(text, str):
        return text
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise _BadParams("param %r is not valid hex" % name) from None


def parse_event_filter(params: Dict[str, Any]):
    """The shared ``contract``/``names``/``topic`` filter params.

    Used by ``chain_events`` and by the async server's subscription
    open; raises the same :class:`_BadParams` either way, so a bad
    filter maps to ``INVALID_PARAMS`` on both paths.
    """
    contract = _packed(params, "contract", Address, default=None)
    names = _param(params, "names", (list,), default=None)
    topic = _hex_bytes(params, "topic", default=None)
    if names is not None and not all(isinstance(name, str) for name in names):
        raise _BadParams("names must be a list of strings")
    if contract is None and names is None and topic is None:
        return None
    return EventFilter(contract=contract, names=names, topic=topic)


class RpcNode:
    """One node — chain, swarm, optional store — behind a method registry.

    Dispatch runs under a reader-writer lock: mutating methods hold it
    exclusively (the chain is a single-writer state machine, so writes
    serialize exactly like transactions in a block), while the read
    methods in :data:`READ_METHODS` share it and proceed concurrently.
    """

    def __init__(
        self,
        chain: Optional[Chain] = None,
        swarm: Optional[SwarmStore] = None,
        store=None,
        max_request_bytes: int = MAX_REQUEST_BYTES,
        auth: Optional[RpcAuth] = None,
    ) -> None:
        self.chain = chain if chain is not None else Chain()
        self.swarm = swarm if swarm is not None else SwarmStore()
        self.store = store
        self.max_request_bytes = max_request_bytes
        self.auth = auth
        self._served = _AtomicCounter()
        self._rejected = _AtomicCounter()
        self._lock = _RWLock()
        self._write_listeners: List[Callable[[], None]] = []
        self._listeners_edit = threading.Lock()
        #: A node that serves proofs also serves the headers they
        #: anchor to: enable the hash-chained header timeline and mint
        #: the genesis-anchored link for the state as loaded.  Plain
        #: (node-less) chains never pay for this — the flag defaults
        #: off in :class:`~repro.store.trie.ChainStateTrie`.
        self._state_tracker = state_trie.chain_state_trie(self.chain)
        self._state_tracker.track_headers = True
        self._state_tracker.ensure_header(self.chain)

    # ------------------------------------------------------------------
    # The request pipeline
    # ------------------------------------------------------------------

    @property
    def requests_served(self) -> int:
        return self._served.value

    @property
    def requests_rejected(self) -> int:
        return self._rejected.value

    def note_rejected(self) -> None:
        """Count a rejection decided outside :meth:`handle` (e.g. the
        HTTP layer refusing an oversized body from its header alone)."""
        self._rejected.bump()

    def add_write_listener(self, listener: Callable[[], None]) -> None:
        """Call ``listener`` after every successful mutating dispatch.

        The async front-end hangs its subscription pump here, so pushes
        are event-driven even when the write arrived through another
        transport sharing this node (loopback, say).  Listeners run on
        the dispatching thread, outside the lock — they must be cheap
        and thread-safe (the async server's is ``call_soon_threadsafe``).
        """
        with self._listeners_edit:
            self._write_listeners = self._write_listeners + [listener]

    def remove_write_listener(self, listener: Callable[[], None]) -> None:
        """Stop calling ``listener``; the async server drops its own on
        shutdown, so the node does not keep a stopped server alive.
        Both edits replace the list under a lock instead of mutating
        it: a dispatch iterating the old list on another thread is
        undisturbed, and concurrent edits lose nothing."""
        with self._listeners_edit:
            self._write_listeners = [
                held for held in self._write_listeners if held != listener
            ]

    def _notify_write(self) -> None:
        for listener in self._write_listeners:
            try:
                listener()
            except Exception as exc:
                # A dead listener must not fail the request — but a
                # silently dead push pump is undiagnosable.  Count it
                # (scrapeable as rpc_listener_errors_total) and leave
                # a debug trace.
                _RPC_LISTENER_ERRORS.inc()
                _log.debug(
                    "write listener error",
                    error="%s: %s" % (type(exc).__name__, exc),
                )

    def handle(self, raw: bytes) -> bytes:
        """One request (or batch) in, one response out — never an exception."""
        if len(raw) > self.max_request_bytes:
            self._rejected.bump()
            return wire.failure(
                None,
                wire.OVERSIZED_REQUEST,
                "request of %d bytes exceeds the %d-byte cap"
                % (len(raw), self.max_request_bytes),
            )
        try:
            envelope = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._rejected.bump()
            return wire.failure(None, wire.PARSE_ERROR, "parse error: %s" % exc)
        return wire.serialize(self.respond(envelope))

    def respond(self, envelope: Any) -> Any:
        """One parsed envelope — single or batch — to its response value.

        The transport-independent core: :meth:`handle` hands it the
        parsed body, the asyncio server calls it from an executor
        thread.  A batch (a JSON array) maps to an array of responses
        in request order; each member counts toward the served/rejected
        totals on its own.
        """
        if isinstance(envelope, list):
            if not envelope:
                self._rejected.bump()
                return wire.error_value(
                    None, wire.INVALID_REQUEST, "batch must not be empty"
                )
            if len(envelope) > MAX_BATCH_REQUESTS:
                self._rejected.bump()
                return wire.error_value(
                    None,
                    wire.INVALID_REQUEST,
                    "batch of %d requests exceeds the %d-request cap"
                    % (len(envelope), MAX_BATCH_REQUESTS),
                )
            return [self._respond_one(member) for member in envelope]
        return self._respond_one(envelope)

    def _respond_one(self, envelope: Any) -> Dict[str, Any]:
        response, served = self._dispatch(envelope)
        (self._served if served else self._rejected).bump()
        if not served:
            _RPC_REJECTED.inc()
        return response

    def _dispatch(self, envelope: Any) -> Tuple[Dict[str, Any], bool]:
        if not isinstance(envelope, dict):
            return wire.error_value(
                None, wire.INVALID_REQUEST,
                "request must be a JSON object (or a batch of them)",
            ), False
        request_id = envelope.get("id")
        if not (request_id is None or isinstance(request_id, (int, str))):
            request_id = None
        if envelope.get("jsonrpc") != "2.0":
            return wire.error_value(
                request_id, wire.INVALID_REQUEST,
                'request needs "jsonrpc": "2.0"',
            ), False
        method = envelope.get("method")
        if not isinstance(method, str):
            return wire.error_value(
                request_id, wire.INVALID_REQUEST, "method must be a string"
            ), False
        params = envelope.get("params", {})
        if not isinstance(params, dict):
            return wire.error_value(
                request_id, wire.INVALID_REQUEST, "params must be an object"
            ), False
        handler = self._methods.get(method)
        if handler is None:
            return wire.error_value(
                request_id, wire.METHOD_NOT_FOUND, "no method %r" % method
            ), False
        token = envelope.get("auth")
        if token is not None and not isinstance(token, str):
            return wire.error_value(
                request_id, wire.INVALID_REQUEST, "auth must be a string token"
            ), False
        if self.auth is not None and not self.auth.permits(method, token):
            return wire.error_value(
                request_id,
                wire.UNAUTHORIZED,
                "method %r needs an authorized token" % method,
            ), False
        is_read = method in READ_METHODS
        lock = self._lock.read() if is_read else self._lock.write()
        started = span_clock()
        try:
            with trace_span("rpc.dispatch", method=method):
                with lock:
                    result = handler(self, params)
            if not is_read:
                self._notify_write()
        except _BadParams as exc:
            return wire.error_value(
                request_id, wire.INVALID_PARAMS, str(exc)
            ), False
        except ReproError as exc:
            code, message, data = wire.exception_to_error(exc)
            return wire.error_value(request_id, code, message, data), False
        except Exception as exc:  # a handler bug must not kill the server
            return wire.error_value(
                request_id,
                wire.INTERNAL_ERROR,
                "internal error: %s: %s" % (type(exc).__name__, exc),
            ), False
        _RPC_REQUESTS.inc(method=method)
        _RPC_REQUEST_SECONDS.observe(span_clock() - started, method=method)
        return wire.result_value(request_id, result), True

    # -- the async front-end's read-side helpers -----------------------

    def read_events(
        self, filter, cursor: int, limit: int = MAX_EVENT_PAGE
    ) -> Tuple[List[Any], int, int]:
        """One filtered event page under the shared lock, for push.

        Returns ``(records, next_cursor, head)`` where each record is
        already wire-shaped (the same dicts ``chain_events`` returns).
        Raises :class:`ChainError` if ``cursor`` fell behind the prune
        base — the pushing server forwards that to the subscriber.
        """
        with self._lock.read():
            return self._events_page(filter, cursor, limit)

    def event_head(self, from_start: bool) -> int:
        """The cursor a fresh subscription starts at (shared lock)."""
        with self._lock.read():
            log = self.chain.event_log
            return log.pruned if from_start else len(log)

    # ------------------------------------------------------------------
    # Admin
    # ------------------------------------------------------------------

    def _rpc_version(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "protocol": wire.PROTOCOL_VERSION,
            "schema": codec.SCHEMA_VERSION,
            "methods": sorted(self._methods),
        }

    def _node_status(self, params: Dict[str, Any]) -> Dict[str, Any]:
        # No state_root here: hashing it re-encodes the entire chain
        # under the node lock, which a routine status probe must not
        # cost.  `chain_state_root` is the explicit, priced request.
        chain = self.chain
        return {
            "state_dir": self.store.state_dir if self.store else None,
            "height": chain.height,
            "period": chain.clock.period,
            "accounts": len(chain.registry),
            "contracts": len(chain._contracts),
            "events": len(chain.event_log),
            "events_pruned": chain.event_log.pruned,
            "mempool": len(chain.mempool),
            "next_nonce": nonce_position(),
            "total_gas": chain.total_gas,
            "requests_served": self.requests_served,
            "requests_rejected": self.requests_rejected,
            # Read through the registry's sampled gauges — the same
            # source ``/metrics`` and ``node_metrics`` scrape, so the
            # three surfaces can never disagree about the cache.
            "fixed_base_cache": {
                "population": int(
                    _obs.REGISTRY.read("fixed_base_cache_population")
                ),
                "limit": int(_obs.REGISTRY.read("fixed_base_cache_limit")),
                "hits": int(
                    _obs.REGISTRY.read("fixed_base_cache_hits_total")
                ),
                "misses": int(
                    _obs.REGISTRY.read("fixed_base_cache_misses_total")
                ),
            },
        }

    def _node_metrics(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Every registered metric family as plain data.

        The structured twin of ``GET /metrics``: the same registry
        snapshot (samplers invoked), shaped for RPC clients instead of a
        Prometheus scraper.
        """
        return {"families": _obs.REGISTRY.collect()}

    def _node_checkpoint(self, params: Dict[str, Any]) -> Dict[str, Any]:
        if self.store is None:
            raise StoreError(
                "no state directory attached — start the node with one "
                "(`node rpc-serve --state-dir ...`) to checkpoint"
            )
        root = self.store.save(self.chain)
        return {"state_root": root.hex(), "height": self.chain.height}

    def _node_prune(self, params: Dict[str, Any]) -> Dict[str, Any]:
        through = _param(params, "through", (int,), default=None)
        dropped = self.chain.event_log.prune(through=through)
        if dropped and self.store is not None:
            self.store.note_prune(self.chain)
        return {"dropped": dropped, "pruned": self.chain.event_log.pruned}

    # ------------------------------------------------------------------
    # Chain queries
    # ------------------------------------------------------------------

    def _chain_head(self, params: Dict[str, Any]) -> Dict[str, Any]:
        blocks = self.chain.blocks
        return {
            "height": self.chain.height,
            "period": self.chain.clock.period,
            "block_hash": blocks[-1].block_hash().hex() if blocks else None,
            "events": len(self.chain.event_log),
            "events_pruned": self.chain.event_log.pruned,
            "mempool": len(self.chain.mempool),
        }

    def _chain_block(self, params: Dict[str, Any]) -> Dict[str, Any]:
        number = _param(params, "number", (int,))
        if not 0 <= number < self.chain.height:
            raise ChainError(
                "no block %d (height is %d)" % (number, self.chain.height)
            )
        return {"block": wire.pack(codec.block_to_data(self.chain.blocks[number]))}

    def _chain_events(self, params: Dict[str, Any]) -> Dict[str, Any]:
        cursor = _param(params, "cursor", (int,), default=0)
        limit = _param(params, "limit", (int,), default=MAX_EVENT_PAGE)
        if cursor < 0:
            raise _BadParams("cursor must be >= 0")
        if not 1 <= limit <= MAX_EVENT_PAGE:
            raise _BadParams("limit must be in 1..%d" % MAX_EVENT_PAGE)
        filter = parse_event_filter(params)
        records, next_cursor, head = self._events_page(filter, cursor, limit)
        return {
            "records": records,
            "cursor": next_cursor,
            "head": head,
            "pruned": self.chain.event_log.pruned,
        }

    def _events_page(
        self, filter, cursor: int, limit: int
    ) -> Tuple[List[Dict[str, Any]], int, int]:
        """The paging loop itself; the caller holds (a side of) the lock."""
        log = self.chain.event_log
        if cursor < log.pruned:
            # Refuse rather than silently resume past the gap: a reader
            # whose cursor fell behind a compaction has *lost* events.
            raise ChainError(
                "cursor %d precedes the pruned base %d — events were "
                "compacted away; restart from a fresh subscription"
                % (cursor, log.pruned)
            )
        records: List[Dict[str, Any]] = []
        next_cursor = cursor
        exhausted = True
        for record in log.iter_since(cursor):
            if filter is not None and not filter.matches(record.event):
                next_cursor = record.sequence + 1
                continue
            if len(records) == limit:
                exhausted = False
                break
            records.append(
                {
                    "sequence": record.sequence,
                    "block": record.block_number,
                    "event": wire.pack(codec.event_to_data(record.event)),
                }
            )
            next_cursor = record.sequence + 1
        if exhausted:
            next_cursor = len(log)
        return records, next_cursor, len(log)

    def _chain_gas(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "total": self.chain.total_gas,
            "by_sender": wire.pack(dict(self.chain.gas_by_sender)),
        }

    def _chain_balance(self, params: Dict[str, Any]) -> Dict[str, Any]:
        address = _packed(params, "address", Address)
        return {"balance": self.chain.ledger.balance_of(address)}

    def _chain_payments(self, params: Dict[str, Any]) -> Dict[str, Any]:
        address = _packed(params, "address", Address)
        matches = [
            (index, entry)
            for index, entry in enumerate(self.chain.ledger._entries)
            if entry.kind == "pay" and entry.destination == address
        ]
        return {
            "entries": wire.pack(
                [codec.ledger_entry_to_data(entry) for _, entry in matches]
            ),
            # Journal positions of the entries above: untrusted hints a
            # light client turns into entry/<index> proof requests.
            "indexes": [index for index, _ in matches],
        }

    def _chain_contract(self, params: Dict[str, Any]) -> Dict[str, Any]:
        name = _param(params, "name", (str,))
        contract = self.chain.contract(name)
        return {
            "type": type(contract).__name__,
            "name": contract.name,
            "address": wire.pack(contract.address),
            "storage": wire.pack(contract.storage),
        }

    def _chain_state_root(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return {"state_root": codec.state_root(self.chain).hex()}

    def _chain_header(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """One link of the node's header chain (default: the newest).

        ``ensure_header`` first, so the blocks sealed since the last
        read get their headers, and out-of-block mutations (an account
        registered, a log pruned) are committed to a fetchable header,
        before a client asks what the latest commitment is.
        """
        self._state_tracker.ensure_header(self.chain)
        headers = self._state_tracker.headers
        index = _param(params, "index", (int,), default=len(headers) - 1)
        if not 0 <= index < len(headers):
            raise _BadParams(
                "header index %d out of range 0..%d"
                % (index, len(headers) - 1)
            )
        header = headers[index]
        return {
            "index": index,
            "count": len(headers),
            "header": wire.pack(state_trie.header_to_data(header)),
            "header_hash": header.header_hash().hex(),
        }

    def _get_proof(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """A membership/non-membership proof for one state-trie key.

        The proof is anchored: the response carries the header whose
        ``state_root`` the proof folds to, so a light client verifies
        against its own header chain, never against a bare root the
        node could have invented.
        """
        key = _hex_bytes(params, "key")
        index, header, proof = self._state_tracker.anchored_proof(
            self.chain, key
        )
        _RPC_PROOFS.inc()
        return {
            "key": key.hex(),
            "proof": wire.pack(proof),
            "header_index": index,
            "header": wire.pack(state_trie.header_to_data(header)),
            "header_hash": header.header_hash().hex(),
        }

    # ------------------------------------------------------------------
    # Transaction submission
    # ------------------------------------------------------------------

    def _tx_register(self, params: Dict[str, Any]) -> Dict[str, Any]:
        label = _param(params, "label", (str,))
        balance = _param(params, "balance", (int,), default=0)
        if balance < 0:
            raise _BadParams("balance must be >= 0")
        address = self.chain.register_account(label, balance)
        return {"address": wire.pack(address)}

    def _tx_send(self, params: Dict[str, Any]) -> Dict[str, Any]:
        sender = _packed(params, "sender", Address)
        contract = _param(params, "contract", (str,))
        method = _param(params, "method", (str,))
        args = _packed(params, "args", tuple, default=())
        if not isinstance(args, tuple):
            raise _BadParams("args must decode to a tuple")
        payload = _hex_bytes(params, "payload", default=b"")
        value = _param(params, "value", (int,), default=0)
        nonce = _param(params, "nonce", (int,), default=None)
        if value < 0:
            raise _BadParams("value must be >= 0")
        if method.startswith("_") or not method:
            raise InvalidTransaction("method %r is not callable" % method)
        if not self.chain.registry.is_granted(sender):
            raise InvalidTransaction(
                "sender %s is not a registered identity" % sender
            )
        if nonce is not None and nonce != nonce_position():
            # Replay/gap protection: an explicit nonce must be exactly
            # the next one this node will stamp.
            raise InvalidTransaction(
                "replayed or out-of-order nonce %d (next is %d)"
                % (nonce, nonce_position())
            )
        transaction = self.chain.send(
            sender, contract, method, args=args, payload=payload, value=value
        )
        return {
            "nonce": transaction.nonce,
            "tx_hash": transaction.tx_hash().hex(),
        }

    def _deployment_from_params(
        self, params: Dict[str, Any]
    ) -> Tuple[Any, Address, tuple, bytes]:
        kind = _param(params, "type", (str,))
        name = _param(params, "name", (str,))
        deployer = _packed(params, "deployer", Address)
        args = _packed(params, "args", tuple, default=())
        payload = _hex_bytes(params, "payload", default=b"")
        contract_cls = codec.CONTRACT_TYPES.get(kind)
        if contract_cls is None:
            raise InvalidTransaction(
                "unknown contract type %r (deployable: %s)"
                % (kind, ", ".join(sorted(codec.CONTRACT_TYPES)))
            )
        if not self.chain.registry.is_granted(deployer):
            raise InvalidTransaction(
                "deployer %s is not a registered identity" % deployer
            )
        return contract_cls(name), deployer, args, payload

    def _tx_deploy(self, params: Dict[str, Any]) -> Dict[str, Any]:
        contract, deployer, args, payload = self._deployment_from_params(params)
        value = _param(params, "value", (int,), default=0)
        if value < 0:
            raise _BadParams("value must be >= 0")
        receipt = self.chain.deploy(
            contract, deployer, args=args, payload=payload, value=value
        )
        return {"receipt": wire.pack(codec.receipt_to_data(receipt))}

    def _tx_deploy_many(self, params: Dict[str, Any]) -> Dict[str, Any]:
        items = _param(params, "deployments", (list,))
        if not items:
            raise _BadParams("deployments must be a non-empty list")
        deployments = []
        for item in items:
            if not isinstance(item, dict):
                raise _BadParams("each deployment must be an object")
            deployments.append(self._deployment_from_params(item))
        receipts = self.chain.deploy_many(deployments)
        return {
            "receipts": [
                wire.pack(codec.receipt_to_data(receipt)) for receipt in receipts
            ]
        }

    def _chain_mine(self, params: Dict[str, Any]) -> Dict[str, Any]:
        block = self.chain.mine_block()
        return {
            "block": wire.pack(codec.block_to_data(block)),
            "period": self.chain.clock.period,
            "height": self.chain.height,
        }

    # ------------------------------------------------------------------
    # Swarm gateway
    # ------------------------------------------------------------------

    def _swarm_put(self, params: Dict[str, Any]) -> Dict[str, Any]:
        data = _hex_bytes(params, "data")
        return {"digest": self.swarm.put(data).hex()}

    def _swarm_get(self, params: Dict[str, Any]) -> Dict[str, Any]:
        digest = _hex_bytes(params, "digest")
        return {"data": self.swarm.get(digest).hex()}

    #: The method registry: wire name to handler function, called with
    #: the node and the params.  Class-level, so a node holds no bound
    #: methods of itself and dies with its last reference.
    _methods: Dict[str, Callable[["RpcNode", Dict[str, Any]], Any]] = {
        "rpc_version": _rpc_version,
        "chain_head": _chain_head,
        "chain_block": _chain_block,
        "chain_events": _chain_events,
        "chain_gas": _chain_gas,
        "chain_balance": _chain_balance,
        "chain_payments": _chain_payments,
        "chain_contract": _chain_contract,
        "chain_state_root": _chain_state_root,
        "chain_header": _chain_header,
        "get_proof": _get_proof,
        "chain_mine": _chain_mine,
        "tx_register": _tx_register,
        "tx_send": _tx_send,
        "tx_deploy": _tx_deploy,
        "tx_deploy_many": _tx_deploy_many,
        "node_status": _node_status,
        "node_metrics": _node_metrics,
        "node_checkpoint": _node_checkpoint,
        "node_prune": _node_prune,
        "swarm_put": _swarm_put,
        "swarm_get": _swarm_get,
    }
