"""The malformed-request fuzz harness: rejection never corrupts state.

The server's safety contract is stronger than "returns an error": a
rejected request must leave the node's canonical state *byte-identical*
— ``state_root`` unchanged — because a deployed node faces the open
internet, not well-behaved clients.  Every case here (unparseable JSON,
broken envelopes, unknown methods, hypothesis-generated wrong param
types and shapes, oversized bodies, replayed nonces, raw socket
garbage) asserts both halves: an error comes back, and the state root
does not move.

Wrong-typed params must also never surface as ``INTERNAL_ERROR``: the
param validators are the contract, an unhandled ``TypeError`` inside a
handler would mean a validation hole.
"""

from __future__ import annotations

import json
import socket

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chain.transactions import scoped_tx_nonces
from repro.crypto.rng import deterministic_entropy
from repro.errors import ChainError, InvalidTransaction
from repro.rpc import (
    AsyncRpcServer,
    HttpTransport,
    LoopbackTransport,
    RpcChain,
    RpcNode,
    wire,
)
from repro.store import codec
from tests.rpc.conftest import run_one_hit

# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def seeded_node(max_request_bytes: int = 64 * 1024):
    """A node with real state to corrupt: one settled HIT on the chain."""
    node = RpcNode(max_request_bytes=max_request_bytes)
    transport = LoopbackTransport(node)
    run_one_hit(transport, seed=5)
    return node, transport


def response_for(node: RpcNode, raw: bytes) -> dict:
    before = codec.state_root(node.chain)
    response = json.loads(node.handle(raw).decode("utf-8"))
    if "error" in response:
        assert codec.state_root(node.chain) == before, (
            "rejected request moved the state root: %r" % (raw[:200],)
        )
    return response


def call_raw(node: RpcNode, method, params=None, **envelope_overrides) -> dict:
    envelope = {"jsonrpc": "2.0", "id": 1, "method": method}
    if params is not None:
        envelope["params"] = params
    envelope.update(envelope_overrides)
    return response_for(node, json.dumps(envelope).encode("utf-8"))


# ---------------------------------------------------------------------------
# Envelope-level garbage
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "raw",
    [
        b"",
        b"{",
        b"not json at all",
        b"\xff\xfe\x00garbage",
        b'{"jsonrpc": "2.0", "method": ',
        b"[1, 2, 3",
    ],
)
def test_unparseable_bytes_are_parse_errors(raw):
    node, _ = seeded_node()
    response = response_for(node, raw)
    assert response["error"]["code"] == wire.PARSE_ERROR


@pytest.mark.parametrize(
    "envelope",
    [
        [],  # an empty batch is an error per JSON-RPC 2.0
        42,
        "chain_head",
        None,
        {},  # no jsonrpc, no method
        {"id": 1, "method": "chain_head"},  # missing jsonrpc
        {"jsonrpc": "1.0", "id": 1, "method": "chain_head"},
        {"jsonrpc": "2.0", "id": 1},  # missing method
        {"jsonrpc": "2.0", "id": 1, "method": 5},
        {"jsonrpc": "2.0", "id": 1, "method": "chain_head", "params": [1]},
        {"jsonrpc": "2.0", "id": 1, "method": "chain_head", "params": "x"},
        {"jsonrpc": "2.0", "id": 1, "method": "chain_head", "auth": 5},
    ],
)
def test_broken_envelopes_are_invalid_requests(envelope):
    node, _ = seeded_node()
    response = response_for(node, json.dumps(envelope).encode("utf-8"))
    assert response["error"]["code"] == wire.INVALID_REQUEST


# ---------------------------------------------------------------------------
# Batch envelopes
# ---------------------------------------------------------------------------


def test_batch_maps_requests_to_responses_in_order():
    node, _ = seeded_node()
    batch = [
        {"jsonrpc": "2.0", "id": 1, "method": "chain_head"},
        {"jsonrpc": "2.0", "id": 2, "method": "no_such_method"},
        {"jsonrpc": "2.0", "id": 3, "method": "chain_gas"},
        "not an object",
    ]
    before = codec.state_root(node.chain)
    responses = json.loads(
        node.handle(json.dumps(batch).encode("utf-8")).decode("utf-8")
    )
    assert isinstance(responses, list) and len(responses) == 4
    assert responses[0]["id"] == 1 and "result" in responses[0]
    assert responses[1]["error"]["code"] == wire.METHOD_NOT_FOUND
    assert responses[2]["id"] == 3 and "result" in responses[2]
    assert responses[3]["error"]["code"] == wire.INVALID_REQUEST
    assert codec.state_root(node.chain) == before


def test_batch_members_count_individually():
    node, _ = seeded_node()
    served, rejected = node.requests_served, node.requests_rejected
    batch = [
        {"jsonrpc": "2.0", "id": 1, "method": "chain_head"},
        {"jsonrpc": "2.0", "id": 2, "method": "nope"},
    ]
    node.handle(json.dumps(batch).encode("utf-8"))
    assert node.requests_served == served + 1
    assert node.requests_rejected == rejected + 1


def test_oversized_batch_is_one_invalid_request():
    from repro.rpc.server import MAX_BATCH_REQUESTS

    node, _ = seeded_node()
    batch = [
        {"jsonrpc": "2.0", "id": i, "method": "chain_head"}
        for i in range(MAX_BATCH_REQUESTS + 1)
    ]
    response = response_for(node, json.dumps(batch).encode("utf-8"))
    assert response["error"]["code"] == wire.INVALID_REQUEST
    assert "cap" in response["error"]["message"]


def test_batch_write_then_read_sees_the_write():
    from repro.ledger.accounts import Address

    node, _ = seeded_node()
    batch = [
        {"jsonrpc": "2.0", "id": 1, "method": "tx_register",
         "params": {"label": "batcher", "balance": 7}},
        {"jsonrpc": "2.0", "id": 2, "method": "chain_balance",
         "params": {"address": wire.pack(Address.from_label("batcher"))}},
    ]
    responses = json.loads(
        node.handle(json.dumps(batch).encode("utf-8")).decode("utf-8")
    )
    assert responses[0]["result"]
    assert responses[1]["result"]["balance"] == 7


# One settled node shared by the hypothesis-driven cases: building a HIT
# per example would dominate the run, and rejected requests prove they
# read nothing by leaving the root untouched.
@pytest.fixture(scope="module")
def fuzz_node():
    with scoped_tx_nonces(), deterministic_entropy(99):
        node, _ = seeded_node()
    return node


@given(name=st.text(min_size=1, max_size=40))
@settings(max_examples=30, deadline=None)
def test_unknown_methods_are_refused(fuzz_node, name):
    if name in fuzz_node._methods:
        return
    response = call_raw(fuzz_node, name)
    assert response["error"]["code"] == wire.METHOD_NOT_FOUND


# ---------------------------------------------------------------------------
# Wrong param types and shapes
# ---------------------------------------------------------------------------

_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)

_param_names = st.sampled_from(
    [
        "label", "balance", "sender", "contract", "method", "args",
        "payload", "value", "nonce", "cursor", "limit", "names", "topic",
        "number", "address", "name", "data", "digest", "through",
        "deployments", "type", "deployer",
    ]
)

_mutating_methods = frozenset(
    ["chain_mine", "node_checkpoint", "node_prune", "tx_register",
     "tx_send", "tx_deploy", "tx_deploy_many", "swarm_put"]
)


@given(
    method=st.sampled_from(
        ["chain_head", "chain_block", "chain_events", "chain_gas",
         "chain_balance", "chain_payments", "chain_contract",
         "chain_state_root", "tx_register", "tx_send", "tx_deploy",
         "tx_deploy_many", "node_status", "node_prune", "swarm_put",
         "swarm_get", "rpc_version"]
    ),
    params=st.dictionaries(_param_names, _json_values, max_size=4),
)
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_fuzzed_params_never_corrupt_state(fuzz_node, method, params):
    node = fuzz_node
    before = codec.state_root(node.chain)
    response = call_raw(node, method, params)
    if "error" in response:
        assert response["error"]["code"] != wire.INTERNAL_ERROR, (
            "validation hole: %s(%r) -> %s" % (method, params, response)
        )
        assert codec.state_root(node.chain) == before
    else:
        # The request was well-formed after all; only state-touching
        # methods may move the root (e.g. tx_register with a str label).
        if method not in _mutating_methods:
            assert codec.state_root(node.chain) == before


@pytest.mark.parametrize(
    "method,params",
    [
        ("chain_block", {"number": True}),
        ("chain_block", {"number": "0"}),
        ("chain_block", {}),
        ("chain_events", {"cursor": -1}),
        ("chain_events", {"limit": 0}),
        ("chain_events", {"limit": 10**6}),
        ("chain_events", {"names": ["ok", 5]}),
        ("chain_events", {"contract": "zz"}),  # not hex
        ("chain_events", {"topic": "0xzz"}),
        ("chain_balance", {"address": "abcd"}),  # hex, not canonical
        ("chain_balance", {"address": wire.pack(5)}),  # wrong decoded type
        ("chain_balance", {}),
        ("tx_register", {"label": 5}),
        ("tx_register", {"label": "x", "balance": -1}),
        ("tx_send", {"sender": wire.pack(b"ab"), "contract": "c",
                     "method": "m"}),
        ("tx_send", {"sender": wire.pack((1, 2)), "contract": "c",
                     "method": "m"}),
        ("tx_deploy", {"type": "HITContract", "name": "n",
                       "deployer": wire.pack(None)}),
        ("tx_deploy_many", {"deployments": []}),
        ("tx_deploy_many", {"deployments": ["x"]}),
        ("swarm_put", {"data": "xyz"}),
        ("swarm_get", {}),
    ],
)
def test_wrong_shapes_are_invalid_params(fuzz_node, method, params):
    response = call_raw(fuzz_node, method, params)
    assert response["error"]["code"] == wire.INVALID_PARAMS


def test_args_must_decode_to_a_tuple(fuzz_node):
    node = fuzz_node
    sender = wire.pack(node.chain.registry.grant("alice"))
    response = call_raw(
        node, "tx_send",
        {"sender": sender, "contract": "hit:alice", "method": "commit",
         "args": wire.pack([1, 2, 3])},
    )
    assert response["error"]["code"] == wire.INVALID_PARAMS


# ---------------------------------------------------------------------------
# Application-level rejections
# ---------------------------------------------------------------------------


def test_unknown_contract_and_unregistered_sender_are_chain_errors(fuzz_node):
    node = fuzz_node
    registered = wire.pack(node.chain.registry.grant("alice"))
    response = call_raw(
        node, "tx_send",
        {"sender": registered, "contract": "no-such-contract",
         "method": "commit"},
    )
    assert response["error"]["code"] == -32022  # chain family
    from repro.ledger.accounts import Address

    unknown = wire.pack(Address.from_label("never-registered"))
    response = call_raw(
        node, "tx_send",
        {"sender": unknown, "contract": "hit:alice", "method": "commit"},
    )
    assert response["error"]["data"]["kind"] == "InvalidTransaction"


def test_replayed_nonce_is_rejected_and_state_preserved():
    node, transport = seeded_node()
    chain = RpcChain(transport)
    sender = chain.register_account("replayer", 10)
    next_nonce = chain.rpc.call("node_status")["next_nonce"]
    params = {
        "sender": wire.pack(sender),
        "contract": "hit:alice",
        "method": "commit",
        "args": wire.pack((b"\x00" * 32,)),
        "payload": (b"\x00" * 32).hex(),
        "nonce": next_nonce,
    }
    accepted = call_raw(node, "tx_send", params)
    assert accepted["result"]["nonce"] == next_nonce
    # The byte-identical request again: its nonce is now consumed.
    replay = call_raw(node, "tx_send", params)
    assert replay["error"]["data"]["kind"] == "InvalidTransaction"
    assert "nonce" in replay["error"]["message"]
    # And a far-future nonce is a gap, not a grant.
    params["nonce"] = next_nonce + 1000
    gap = call_raw(node, "tx_send", params)
    assert gap["error"]["data"]["kind"] == "InvalidTransaction"


def test_duplicate_contract_name_is_rejected_without_sealing():
    node, transport = seeded_node()
    chain = RpcChain(transport)
    deployer = chain.register_account("dup", 100)
    height = node.chain.height
    response = call_raw(
        node, "tx_deploy",
        {"type": "HITContract", "name": "hit:alice",
         "deployer": wire.pack(deployer)},
    )
    assert response["error"]["code"] == -32022
    assert node.chain.height == height  # no block sealed


def test_error_taxonomy_reconstructs_client_side():
    _, transport = seeded_node()
    chain = RpcChain(transport)
    with pytest.raises(ChainError):
        chain.rpc.call("chain_block", number=10**6)
    with pytest.raises(InvalidTransaction):
        chain.rpc.call(
            "tx_send",
            sender=wire.pack(chain.register_account("x", 0)),
            contract="hit:alice",
            method="_private",
        )


# ---------------------------------------------------------------------------
# Oversized requests
# ---------------------------------------------------------------------------


def test_oversized_request_is_rejected_before_execution():
    node = RpcNode(max_request_bytes=4096)
    RpcChain(LoopbackTransport(node)).register_account("alice", 5)
    big = json.dumps(
        {"jsonrpc": "2.0", "id": 1, "method": "swarm_put",
         "params": {"data": "00" * 8192}}
    ).encode("utf-8")
    response = response_for(node, big)
    assert response["error"]["code"] == wire.OVERSIZED_REQUEST
    assert len(node.swarm) == 0  # the blob never reached the store


# ---------------------------------------------------------------------------
# Socket-level garbage (the HTTP skin)
# ---------------------------------------------------------------------------


def http_fuzz_server():
    node = RpcNode(max_request_bytes=4096)
    return AsyncRpcServer(node)


def test_http_garbage_and_bad_routes_leave_the_server_alive():
    with http_fuzz_server() as server:
        node = server.node
        before = codec.state_root(node.chain)

        # Raw non-HTTP bytes straight at the socket.
        with socket.create_connection(("127.0.0.1", server.port), 5) as sock:
            sock.sendall(b"\x00\x01garbage\r\n\r\n")
            sock.settimeout(5)
            sock.recv(1024)  # whatever the server answers; must not hang

        transport = HttpTransport(server.url)
        try:
            # Wrong routes and verbs.
            import urllib.error
            import urllib.request

            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    "http://127.0.0.1:%d/nope" % server.port
                )
            err.value.close()
            assert err.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    urllib.request.Request(
                        "http://127.0.0.1:%d/other" % server.port,
                        data=b"{}",
                    )
                )
            err.value.close()
            assert err.value.code == 404

            # Oversized body: refused from the Content-Length header.
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    urllib.request.Request(
                        server.url, data=b"x" * 8192
                    )
                )
            err.value.close()
            assert err.value.code == 413

            # The server still answers a well-formed request afterwards.
            head = RpcChain(transport).rpc.call("chain_head")
            assert head["height"] == 0
            assert codec.state_root(node.chain) == before
        finally:
            transport.close()
