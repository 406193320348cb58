"""Method-level behaviour of the RPC node, over every transport."""

from __future__ import annotations

import gc
import json
import sys
import threading
import weakref

import pytest

from repro.core.hit_contract import HITContract
from repro.errors import ChainError, RpcError
from repro.ledger.accounts import Address
from repro.lightclient import LightClient
from repro.rpc import (
    AsyncRpcServer,
    HttpTransport,
    LoopbackTransport,
    RpcChain,
    RpcNode,
    RpcSession,
    RpcSwarm,
    wire,
)
from repro.store import NodeStore, codec, trie
from repro.storage.swarm import SwarmError
from tests.rpc.conftest import run_one_hit


def test_version_reports_protocol_schema_and_methods(rpc_setup):
    node, transport = rpc_setup
    chain = RpcChain(transport)
    report = chain.rpc.version()  # raises on any mismatch
    assert report["protocol"] == wire.PROTOCOL_VERSION
    assert report["schema"] == codec.SCHEMA_VERSION
    assert set(report["methods"]) == set(node._methods)
    assert "chain_events" in report["methods"]


def test_head_block_and_mining(rpc_setup):
    node, transport = rpc_setup
    chain = RpcChain(transport)
    head = chain.rpc.call("chain_head")
    assert head == {
        "height": 0, "period": 0, "block_hash": None,
        "events": 0, "events_pruned": 0, "mempool": 0,
    }
    block = chain.mine_block()
    assert block.number == 0
    assert chain.height == 1
    assert chain.clock.period == 1
    fetched = chain.blocks[0]
    assert fetched.block_hash() == node.chain.blocks[0].block_hash()
    with pytest.raises(Exception) as err:
        chain.rpc.call("chain_block", number=7)
    assert "no block 7" in str(err.value)


def test_register_send_and_ledger_reads(rpc_setup):
    node, transport = rpc_setup
    chain = RpcChain(transport)
    alice = chain.register_account("alice", 250)
    assert alice == Address.from_label("alice")
    assert chain.ledger.balance_of(alice) == 250
    # Registration is idempotent, like the in-process registry.
    again = chain.register_account("alice", 10)
    assert again == alice
    assert chain.ledger.balance_of(alice) == 250
    assert chain.ledger.payments_to(alice) == []
    assert chain.total_gas == 0


def test_contract_replica_and_gas_after_a_hit(rpc_setup):
    node, transport = rpc_setup
    outcomes = run_one_hit(transport)
    replica = RpcChain(transport).contract("hit:alice")
    assert type(replica).__name__ == "HITContract"
    assert replica.address == Address.from_label("contract:hit:alice")
    assert replica.storage == node.chain.contract("hit:alice").storage
    assert replica.verdict_of(outcomes[0].workers[1].address) is not None
    gas = RpcChain(transport).rpc.call("chain_gas")
    assert gas["total"] == node.chain.total_gas > 0
    by_sender = wire.unpack(gas["by_sender"])
    assert by_sender == node.chain.gas_by_sender


def test_transaction_round_trip_preserves_hash(rpc_setup):
    node, transport = rpc_setup
    chain = RpcChain(transport)
    outcomes = run_one_hit(transport, seed=3)
    requester = outcomes[0].requester
    transaction = chain.send(
        requester.address, "hit:alice", "finalize", args=(), payload=b""
    )
    # The client-side reconstruction hashed identically to the node's
    # stamp (send() verifies), and the mined receipt carries it.
    block = chain.mine_block()
    assert block.transactions[-1].tx_hash() == transaction.tx_hash()


def test_mempool_depth_rides_chain_head(loopback_node):
    """``len(RpcChain.mempool)`` is the node's pending count, read from
    ``chain_head`` — the service loop's stop rule over the wire."""
    node, transport = loopback_node
    chain = RpcChain(transport)
    requester = run_one_hit(transport, seed=3)[0].requester
    assert len(chain.mempool) == 0  # the loop stopped at quiescence
    chain.send(requester.address, "hit:alice", "finalize")
    assert len(chain.mempool) == len(node.chain.mempool) == 1
    chain.mine_block()
    assert len(chain.mempool) == 0


def test_faulting_constructor_reverts_over_rpc(loopback_node):
    """``tx_deploy`` of a HIT contract without its constructor args: the
    deployment reverts into a failed receipt sealed in its block, not an
    internal error that leaves the contract half deployed."""
    node, transport = loopback_node
    chain = RpcChain(transport)
    alice = chain.register_account("alice", 500)
    root = chain.state_root()
    for attempt in (1, 2):  # the name stays free after a revert
        receipt = chain.deploy(HITContract("hit:broken"), alice)
        assert not receipt.succeeded
        assert receipt.revert_reason.startswith(
            "invalid call: ValueError: not enough values to unpack"
        )
        assert chain.height == attempt
    with pytest.raises(ChainError):
        node.chain.contract("hit:broken")
    assert chain.ledger.balance_of(alice) == 500
    assert chain.state_root() == codec.state_root(node.chain) != root
    light = LightClient(chain)
    assert light.prove(trie.contract_key("hit:broken")) == (False, None)
    assert light.balance_of(alice) == 500


def test_swarm_gateway_round_trips_and_misses(rpc_setup):
    _, transport = rpc_setup
    swarm = RpcSwarm(transport)
    digest = swarm.put(b"question blob")
    assert swarm.get(digest) == b"question blob"
    with pytest.raises(SwarmError):
        swarm.get(b"\x00" * 32)


def test_node_status_and_checkpoint_with_store(tmp_path):
    store = NodeStore.init(str(tmp_path / "node"))
    chain, _ = store.load(apply_runtime=False)
    chain.attach_store(store)
    node = RpcNode(chain=chain, store=store)
    transport = LoopbackTransport(node)
    rpc_chain = RpcChain(transport)
    rpc_chain.register_account("alice", 50)
    rpc_chain.mine_block()
    status = rpc_chain.rpc.call("node_status")
    assert status["state_dir"] == str(tmp_path / "node")
    assert status["height"] == 1
    assert status["accounts"] == 1
    result = rpc_chain.rpc.call("node_checkpoint")
    assert result["height"] == 1
    # The snapshot on disk reaches the live chain's root.
    reloaded, meta = NodeStore.open(str(tmp_path / "node")).load()
    assert meta["state_root"].hex() == result["state_root"]
    assert codec.state_root(reloaded) == codec.state_root(node.chain)


def test_checkpoint_without_store_is_a_store_error():
    node = RpcNode()
    chain = RpcChain(LoopbackTransport(node))
    with pytest.raises(Exception) as err:
        chain.rpc.call("node_checkpoint")
    assert "state directory" in str(err.value)


def test_client_refuses_incompatible_server_version(monkeypatch):
    node = RpcNode()
    transport = LoopbackTransport(node)
    original = RpcNode._methods["rpc_version"]
    monkeypatch.setitem(
        RpcNode._methods, "rpc_version",
        lambda node, params: {**original(node, params), "protocol": 999},
    )
    with pytest.raises(RpcError) as err:
        RpcChain(transport).rpc.version()
    assert "protocol" in str(err.value)


# ---------------------------------------------------------------------------
# Server lifecycle
# ---------------------------------------------------------------------------


def _serve_forever_on_a_thread(server):
    runner = threading.Thread(target=server.serve_forever, daemon=True)
    runner.start()
    return runner


def test_shutdown_stops_a_serve_forever_server():
    """``shutdown()`` from another thread stops a ``serve_forever()``
    loop — the exact shape of the CLI's signal path — and is safe to
    call twice."""
    server = AsyncRpcServer(RpcNode())
    runner = _serve_forever_on_a_thread(server)
    server._ready.wait(timeout=10)
    assert server._bound is not None, "serve_forever never started serving"
    transport = HttpTransport(server.url)
    assert RpcChain(transport).height == 0
    transport.close()
    server.shutdown()
    runner.join(timeout=10)
    assert not runner.is_alive(), "serve_forever did not stop"
    server.shutdown()  # idempotent: a second call must not deadlock


def test_a_stopped_servers_node_is_freed_by_reference_counting():
    """Neither the node's method table nor the server's write listener
    ties the node into a reference cycle: once the server's context
    exits, dropping the node frees its chain with the cycle collector
    off."""
    gc.collect()
    gc.disable()
    try:
        node = RpcNode()
        with AsyncRpcServer(node, dispatch_threads=1) as server:
            transport = HttpTransport(server.url)
            chain = RpcChain(transport)
            chain.register_account("alice", 10)
            chain.mine_block()
            transport.close()
        live = weakref.ref(node.chain)
        del node, server, chain
        assert live() is None
    finally:
        gc.enable()


def test_concurrent_write_listener_edits_lose_nothing():
    """Servers on other threads add and remove their listeners while
    dispatches read the list: eight threads churning listeners under a
    tiny switch interval must leave exactly the ones they kept."""
    node = RpcNode()
    kept = [[] for _ in range(8)]

    def churn(mine):
        for _ in range(100):
            stays, goes = (lambda: None), (lambda: None)
            node.add_write_listener(stays)
            node.add_write_listener(goes)
            node.remove_write_listener(goes)
            mine.append(stays)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn, args=(m,)) for m in kept]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    expected = {id(listener) for mine in kept for listener in mine}
    assert len(expected) == 800
    assert {id(listener) for listener in node._write_listeners} == expected


def test_shutdown_before_serving_does_not_deadlock():
    """The CLI can die between constructing and serving; shutdown()
    must return promptly with no loop to stop."""
    server = AsyncRpcServer(RpcNode())
    server.shutdown()


def test_shutdown_before_the_loop_is_up_is_not_lost():
    """Regression: a ``shutdown()`` that ran before ``serve_forever()``'s
    loop existed was silently dropped, and the server then served
    forever.  The request must stick: the loop exits as soon as it is
    up, whether shutdown() came first or raced the loop's start."""
    early = AsyncRpcServer(RpcNode())
    early.shutdown()
    runner = _serve_forever_on_a_thread(early)
    runner.join(timeout=10)
    assert not runner.is_alive(), "an early shutdown() was lost"
    for _ in range(10):
        racing = AsyncRpcServer(RpcNode())
        runner = _serve_forever_on_a_thread(racing)
        racing.shutdown()
        runner.join(timeout=10)
        assert not runner.is_alive(), "a racing shutdown() was lost"


class _FlagRecorder:
    """Answers every request with ``null`` and records the
    ``idempotent`` flag the session passed for its method."""

    def __init__(self) -> None:
        self.flags = {}

    def request(self, raw: bytes, idempotent: bool = False) -> bytes:
        envelope = json.loads(raw)
        self.flags[envelope["method"]] = idempotent
        return wire.success(envelope["id"], None)


def test_the_client_resends_exactly_the_server_read_methods():
    """One read-method set: every method the server dispatches as a
    read may be resent after a dropped connection (``node_metrics``
    included), and no write may."""
    from repro.rpc.server import ADMIN_METHODS, READ_METHODS, SUBMIT_METHODS

    transport = _FlagRecorder()
    session = RpcSession(transport)
    for method in sorted(READ_METHODS | ADMIN_METHODS | SUBMIT_METHODS):
        session.call(method)
    resent = {method for method, flag in transport.flags.items() if flag}
    assert resent == READ_METHODS
    assert "node_metrics" in resent


def test_headers_read_after_a_run_of_mines_match_a_read_after_each():
    """A node mints the header of a sealed block on the next read.  Read
    once after three ``chain_mine``s, it serves the same headers and
    proofs as a node read after every mine: the anchor plus one header
    per sealed block."""
    answers = []
    for read_after_each in (False, True):
        session = RpcSession(LoopbackTransport(RpcNode()))
        session.call("tx_register", label="alice", balance=100)
        for mined in range(3):
            session.call("chain_mine")
            if read_after_each:
                session.call("chain_header")
            if mined == 0:
                session.call("tx_register", label="bob", balance=5)
        count = session.call("chain_header")["count"]
        keys = [
            trie.account_key(Address.from_label(label)) for label in ("alice", "bob")
        ] + [trie.block_key(number) for number in range(3)]
        answers.append((
            [session.call("chain_header", index=index) for index in range(count)],
            [session.call("get_proof", key=key.hex()) for key in keys],
        ))
    assert answers[0] == answers[1]
    assert len(answers[0][0]) == 4
