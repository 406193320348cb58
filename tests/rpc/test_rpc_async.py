"""The asyncio front-end: auth, push, and churn.

Two contracts pinned here, on top of the whole ``rpc_setup``-based
suite already running against :class:`AsyncRpcServer`:

* **auth** — admin and submission methods refuse without a token and
  work with one, over both the blocking and the asyncio client
  transport, and a refusal never moves ``state_root``;
* **push** — a ``chain_subscribe`` stream delivers every event exactly
  once, in order, because the server pushed it (zero ``chain_events``
  polls anywhere), survives concurrent subscribers, and ends loudly
  when the cursor is compacted away.  Mid-stream disconnects and
  connection churn must never wedge the server.
"""

from __future__ import annotations

import asyncio
import gc
import socket
import time
import warnings

import pytest

from repro.errors import RpcError
from repro.store import codec
from repro.rpc import (
    AsyncHttpTransport,
    AsyncRpcServer,
    AsyncRpcSession,
    AsyncSubscription,
    HttpTransport,
    PushSubscription,
    RpcAuth,
    RpcChain,
    RpcNode,
    RpcSession,
)
from tests.rpc.conftest import run_one_hit, socket_transport


# ---------------------------------------------------------------------------
# Auth: token-gated admin and submission methods
# ---------------------------------------------------------------------------


@pytest.fixture(params=["http", "async"])
def authed_server(request):
    node = RpcNode(
        auth=RpcAuth(admin_tokens=("root-token",), submit_tokens=("sub-token",))
    )
    with AsyncRpcServer(node) as server:
        transport = socket_transport(request.param, server.url)
        yield node, transport
        transport.close()


def test_auth_refuses_untokened_writes_and_root_stays_put(authed_server):
    node, transport = authed_server
    open_session = RpcSession(transport)
    root_before = codec.state_root(node.chain)
    for method, params in [
        ("chain_mine", {}),
        ("tx_register", {"label": "eve", "balance": 5}),
        ("node_prune", {"through": 0}),
    ]:
        with pytest.raises(RpcError) as err:
            open_session.call(method, **params)
        assert err.value.code == -32002
    # Wrong tier: a submit token cannot reach admin methods.
    submit_session = RpcSession(transport, auth="sub-token")
    with pytest.raises(RpcError) as err:
        submit_session.call("chain_mine")
    assert err.value.code == -32002
    assert codec.state_root(node.chain) == root_before


def test_auth_admits_each_tier_to_its_methods(authed_server):
    node, transport = authed_server
    # Reads stay open — no token needed.
    assert RpcSession(transport).call("chain_head")["height"] == 0
    # A submit token covers submissions; the admin token covers both.
    submit_chain = RpcChain(transport, auth="sub-token")
    submit_chain.register_account("alice", balance=100)
    admin_chain = RpcChain(transport, auth="root-token")
    admin_chain.register_account("bob", balance=100)
    admin_chain.mine_block()
    assert node.chain.height == 1


def test_batch_members_are_auth_checked_individually(authed_server):
    node, transport = authed_server
    session = RpcSession(transport)  # no token
    outcomes = session.call_batch(
        [("chain_head", {}), ("chain_mine", {}), ("chain_state_root", {})]
    )
    assert outcomes[0]["height"] == 0
    assert isinstance(outcomes[1], RpcError) and outcomes[1].code == -32002
    assert "state_root" in outcomes[2]
    assert node.chain.height == 0


# ---------------------------------------------------------------------------
# Push subscriptions
# ---------------------------------------------------------------------------


def drain_stream(subscription, node, timeout: float = 5.0):
    """Read pushed frames until the cursor reaches the node's head."""
    records = []
    while subscription.cursor < node.event_head(from_start=False):
        records.extend(subscription.next_records(timeout=timeout))
    return records


def test_push_stream_delivers_every_event_exactly_once(async_server):
    node, server = async_server
    subscription = PushSubscription(server.url, from_start=True)
    transport = HttpTransport(server.url)
    run_one_hit(transport)
    pushed = drain_stream(subscription, node)
    subscription.close()
    # Ground truth straight off the node's event log.
    expected = list(range(len(node.chain.event_log)))
    assert [record.sequence for record in pushed] == expected
    assert len(pushed) >= 8
    transport.close()


def test_push_stream_is_pushed_not_polled(async_server):
    """The subscriber issues zero requests after subscribing."""
    node, server = async_server
    subscription = PushSubscription(server.url, from_start=True)
    transport = HttpTransport(server.url)
    run_one_hit(transport)
    served_after_scenario = node.requests_served
    pushed = drain_stream(subscription, node)
    assert pushed
    # Draining the stream costs the node no further requests: frames
    # were pushed by the server, not pulled by the client.
    assert node.requests_served == served_after_scenario
    subscription.close()
    transport.close()


def test_concurrent_subscribers_all_see_the_same_stream(async_server):
    node, server = async_server
    subscriptions = [
        PushSubscription(server.url, from_start=True) for _ in range(8)
    ]
    transport = HttpTransport(server.url)
    run_one_hit(transport)
    streams = [
        [record.sequence for record in drain_stream(sub, node)]
        for sub in subscriptions
    ]
    for subscription in subscriptions:
        subscription.close()
    expected = list(range(len(node.chain.event_log)))
    assert all(stream == expected for stream in streams)
    transport.close()


def test_pruned_cursor_ends_the_stream_loudly(async_server):
    node, server = async_server
    transport = HttpTransport(server.url)
    run_one_hit(transport)
    session = RpcSession(transport)
    head = session.call("chain_head")["events"]
    session.call("node_prune", through=head)
    # Subscribe from the compacted-away origin: the server must answer
    # with an error frame, not silently skip to the prune base.
    subscription = PushSubscription(server.url, cursor=0)
    with pytest.raises(Exception) as err:
        subscription.next_records(timeout=5)
    assert "compacted away" in str(err.value)
    subscription.close()
    transport.close()


def _resource_warnings(action) -> list:
    """The ResourceWarnings ``action`` leaves once its garbage is collected."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        action()
        gc.collect()
    return [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_a_refused_subscription_closes_its_connection(async_server):
    """An error ack (here, a negative cursor) raises and leaks nothing,
    from the blocking and the awaitable consumer alike."""
    _, server = async_server

    def blocking():
        with pytest.raises(RpcError):
            PushSubscription(server.url, cursor=-1)

    async def awaitable():
        with pytest.raises(RpcError):
            await AsyncSubscription.open(server.url, cursor=-1)

    assert _resource_warnings(blocking) == []
    assert _resource_warnings(lambda: asyncio.run(awaitable())) == []


def test_mid_stream_disconnect_unsubscribes(async_server):
    node, server = async_server
    transport = HttpTransport(server.url)
    subscription = PushSubscription(server.url, from_start=True)
    deadline = 50
    while len(server._subscribers) < 1 and deadline:
        deadline -= 1
        time.sleep(0.05)
    assert len(server._subscribers) == 1
    subscription.close()  # rude exit: no unsubscribe message exists
    run_one_hit(transport)  # writes keep flowing; server must not wedge
    deadline = 100
    while server._subscribers and deadline:
        deadline -= 1
        time.sleep(0.05)
    assert not server._subscribers
    assert RpcSession(transport).call("chain_head")["height"] >= 1
    transport.close()


# ---------------------------------------------------------------------------
# The async client classes
# ---------------------------------------------------------------------------


def test_async_transport_and_batch_session(async_server):
    node, server = async_server

    async def scenario():
        transport = AsyncHttpTransport(server.url)
        session = AsyncRpcSession(transport)
        head = await session.call("chain_head")
        outcomes = await session.call_batch(
            [("chain_head", {}), ("nonsense", {}), ("chain_state_root", {})]
        )
        await transport.close()
        return head, outcomes

    head, outcomes = asyncio.run(scenario())
    assert head["height"] == 0
    assert outcomes[0]["height"] == 0
    assert isinstance(outcomes[1], RpcError) and outcomes[1].code == -32601
    assert "state_root" in outcomes[2]


def test_async_subscription_consumes_pushes(async_server):
    node, server = async_server
    transport = HttpTransport(server.url)

    async def consume():
        subscription = await AsyncSubscription.open(server.url, from_start=True)
        records = []
        while subscription.cursor < node.event_head(from_start=False):
            records.extend(
                await asyncio.wait_for(subscription.next_records(), timeout=5)
            )
        await subscription.close()
        return records

    run_one_hit(transport)
    records = asyncio.run(consume())
    assert [record.sequence for record in records] == list(
        range(len(node.chain.event_log))
    )
    transport.close()


@pytest.mark.parametrize("kind", ["http", "async"])
@pytest.mark.parametrize("lost", ["after a request", "before connecting"])
def test_a_lost_server_is_an_rpc_error(kind, lost):
    """A write to a server that is gone raises RpcError, whether the
    keep-alive connection dropped or the connect itself is refused."""
    with AsyncRpcServer(RpcNode()) as server:
        transport = socket_transport(kind, server.url)
        if lost == "after a request":
            assert RpcSession(transport).call("chain_head")["height"] == 0
    with pytest.raises(RpcError):
        RpcSession(transport).call("chain_mine")
    transport.close()


def test_http_transport_connections_send_without_nagle(async_server):
    _, server = async_server
    transport = HttpTransport(server.url)
    RpcSession(transport).call("chain_head")
    sock = transport._connection.sock
    assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    transport.close()


# ---------------------------------------------------------------------------
# Churn: rude clients must never wedge the server
# ---------------------------------------------------------------------------


def test_connection_churn_under_load(async_server):
    node, server = async_server
    for round_number in range(20):
        sock = socket.create_connection((server.host, server.port), timeout=5)
        if round_number % 3 == 0:
            sock.close()  # connect-and-vanish
        elif round_number % 3 == 1:
            sock.sendall(b"POST /rpc HTTP/1.1\r\nContent-Length: 50\r\n\r\n")
            sock.close()  # die mid-body
        else:
            sock.sendall(b"gibberish\r\n\r\n")
            sock.close()  # not even HTTP
    # The server still answers cleanly after all of that.
    transport = HttpTransport(server.url)
    root_before = codec.state_root(node.chain)
    assert RpcSession(transport).call("chain_head")["height"] == 0
    assert codec.state_root(node.chain) == root_before
    transport.close()


def test_oversized_request_is_refused_from_the_header(async_server):
    node, server = async_server
    sock = socket.create_connection((server.host, server.port), timeout=5)
    sock.sendall(
        b"POST /rpc HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
        % (node.max_request_bytes + 1)
    )
    response = sock.recv(65536).decode("latin-1", "replace")
    sock.close()
    assert " 413 " in response.splitlines()[0]
    assert "-32001" in response
