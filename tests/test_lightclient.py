"""The light client: verified facts from an untrusted node.

The trust-minimization contract under test: a client holding **one
32-byte header hash** can verify balances, task phases, and settlement
receipts served by a node it does not trust.  The happy path runs a
real seeded HIT through the RPC stack and verifies its receipt from
headers + proofs alone; the adversarial half wraps the node handle in
tampering proxies and checks that every forgery — values, proof steps,
headers, anchor swaps, withheld hints — dies with a
:class:`~repro.store.trie.ProofError` instead of a wrong answer.

Also pinned here, because the light client is their consumer: the
in-process/RPC parity of the stale-cursor refusal, and the two
"count it, don't swallow it" error counters this PR introduced
(``rpc_listener_errors_total``, ``obs_sampler_errors_total``).
"""

from __future__ import annotations

import gc
import json

import pytest

from repro.chain.transactions import scoped_tx_nonces
from repro.core.hit_contract import (
    PHASE_COMMIT,
    PHASE_DONE,
    PHASE_EVALUATE,
    PHASE_REVEAL,
)
from repro.core.session import SessionEngine
from repro.crypto.rng import deterministic_entropy
from repro.errors import ChainError
from repro.ledger.accounts import Address
from repro.lightclient import LightClient
from repro.obs.registry import REGISTRY, render_prometheus
from repro.rpc import LoopbackTransport, RpcChain, RpcNode, RpcSwarm
from repro.store import codec
from repro.store.trie import Header, ProofError, account_key, header_to_data
from tests.helpers import small_task
from tests.rpc.conftest import rpc_client_factories, run_one_hit


@pytest.fixture(scope="module")
def settled_node():
    """One node that ran a full seeded HIT over loopback RPC.

    Task ``hit:alice``; worker-0 answered honestly (paid), worker-1
    answered adversarially (rejected).  Module-scoped: every test here
    reads, none mutates chain state (the cursor test prunes the event
    log, which no other test observes).
    """
    node = RpcNode()
    transport = LoopbackTransport(node)
    run_one_hit(transport)
    return node, transport


@pytest.fixture
def client(settled_node):
    node, transport = settled_node
    return LightClient(RpcChain(transport))


def _worker(settled_node, index: int) -> Address:
    node, _ = settled_node
    return node.chain.registry.lookup("hit:alice/worker-%d" % index)


# ---------------------------------------------------------------------------
# The happy path: verified facts from a real node
# ---------------------------------------------------------------------------


def test_header_chain_syncs_and_matches_the_node_root(settled_node, client):
    node, _ = settled_node
    tip = client.sync()
    assert len(client.headers) >= 2  # anchor + at least one block
    assert tip.state_root == codec.state_root(node.chain)
    # Re-sync is incremental and idempotent.
    assert client.sync() == tip


def test_balance_verifies_against_the_full_node(settled_node, client):
    node, _ = settled_node
    worker = _worker(settled_node, 0)
    assert client.balance_of(worker) == node.chain.ledger.balance_of(worker)


def test_registration_membership_and_absence_both_prove(settled_node, client):
    assert client.registered(_worker(settled_node, 0))
    assert not client.registered(Address.from_label("nobody-ever"))


def test_absent_account_is_an_error_not_a_zero(client):
    with pytest.raises(ProofError):
        client.balance_of(Address.from_label("nobody-ever"))


def test_task_phase_verifies_as_settled(client):
    assert client.task_phase("hit:alice") == 4


def test_task_phase_tracks_the_contract_at_every_block():
    """One task walks commit → reveal → evaluate → done, and at every
    block the light client's verified phase is the phase the contract
    enforces on the next block's transactions."""
    node = RpcNode()
    transport = LoopbackTransport(node)
    requester_factory, worker_factory = rpc_client_factories(transport)
    engine = SessionEngine(
        chain=RpcChain(transport), swarm=RpcSwarm(transport)
    )
    light = LightClient(RpcChain(transport))
    phases = []
    with scoped_tx_nonces(), deterministic_entropy(7):
        session = engine.publish_session(
            requester_factory("alice", small_task())
        )
        name = session.contract_name
        for slot, answers in enumerate([[0] * 10, [1] * 10]):
            session.add_worker(
                worker_factory("%s/worker-%d" % (name, slot), answers)
            )
        while True:
            contract = node.chain.contract(name)
            expected = contract._effective_phase(node.chain.clock.period)
            assert light.task_phase(name) == expected, phases
            phases.append(expected)
            if engine.all_done:
                break
            engine.step()
    walked = [p for i, p in enumerate(phases) if i == 0 or p != phases[i - 1]]
    assert walked == [PHASE_COMMIT, PHASE_REVEAL, PHASE_EVALUATE, PHASE_DONE]


def test_settlement_receipt_verifies_for_the_paid_worker(settled_node, client):
    receipt = client.verify_settlement("hit:alice", _worker(settled_node, 0))
    assert receipt["verdict"] == "paid-default"
    assert receipt["amount"] == 50
    entry = client.ledger_entry(receipt["entry_index"])
    assert entry["kind"] == "pay" and entry["amount"] == 50
    assert entry["destination"] == _worker(settled_node, 0)


def test_settlement_receipt_verifies_for_the_rejected_worker(
    settled_node, client
):
    receipt = client.verify_settlement("hit:alice", _worker(settled_node, 1))
    assert receipt["verdict"] == "rejected-quality"
    assert receipt["amount"] == 0
    assert receipt["entry_index"] is None


def test_unknown_worker_has_no_receipt(client):
    with pytest.raises(ProofError):
        client.verify_settlement("hit:alice", Address.from_label("ghost"))


class _CountingTransport(LoopbackTransport):
    """Loopback that records the method of every request it carries."""

    def __init__(self, node) -> None:
        super().__init__(node)
        self.methods = []

    def request(self, raw: bytes, idempotent: bool = False) -> bytes:
        self.methods.append(json.loads(raw)["method"])
        return super().request(raw, idempotent)


def test_one_get_proof_runs_one_trie_sync(settled_node):
    """The proof is cut from the sync that mints its header, not from a
    second scan of the whole chain."""
    _, transport = settled_node
    node_handle = RpcChain(transport)
    key = account_key(_worker(settled_node, 0))
    node_handle.get_proof(key)
    before = REGISTRY.read("state_trie_syncs_total")
    node_handle.get_proof(key)
    assert REGISTRY.read("state_trie_syncs_total") == before + 1


def test_a_proof_on_a_verified_header_sends_no_header_request(settled_node):
    """Once the client holds the header a proof anchors to, a second
    proof on an unchanged node is one ``get_proof`` round trip."""
    node, _ = settled_node
    transport = _CountingTransport(node)
    client = LightClient(RpcChain(transport))
    worker = _worker(settled_node, 0)
    balance = client.balance_of(worker)
    assert "chain_header" in transport.methods
    transport.methods.clear()
    assert client.balance_of(worker) == balance
    assert transport.methods == ["get_proof"]


def test_trust_pin_accepts_the_real_anchor_and_rejects_a_fake(
    settled_node, client
):
    _, transport = settled_node
    client.sync()
    anchor = client.headers[0].header_hash()
    pinned = LightClient(RpcChain(transport), trust=anchor)
    pinned.sync()
    assert pinned.headers == client.headers
    wrong = LightClient(RpcChain(transport), trust=b"\xde\xad" * 16)
    with pytest.raises(ProofError):
        wrong.sync()


# ---------------------------------------------------------------------------
# Lying nodes
# ---------------------------------------------------------------------------


class _Tampering:
    """A node handle that forwards everything but lets one test mutate
    one response — the man-in-the-middle / malicious-node stand-in."""

    def __init__(self, inner, mutate_proof=None, payment_hints=None):
        self._inner = inner
        self._mutate_proof = mutate_proof
        self._payment_hints = payment_hints

    def header(self, index=None):
        return self._inner.header(index)

    def get_proof(self, key):
        response = self._inner.get_proof(key)
        if self._mutate_proof is not None:
            response = self._mutate_proof(response)
        return response

    def payment_indexes(self, address):
        if self._payment_hints is not None:
            return self._payment_hints
        return self._inner.payment_indexes(address)


def _lying_client(settled_node, **tamper) -> LightClient:
    _, transport = settled_node
    return LightClient(_Tampering(RpcChain(transport), **tamper))


def test_forged_balance_value_is_rejected(settled_node):
    worker = _worker(settled_node, 0)

    def inflate(response):
        response["proof"]["value"] = codec.encode(("worker", 10**9))
        return response

    client = _lying_client(settled_node, mutate_proof=inflate)
    with pytest.raises(ProofError):
        client.balance_of(worker)


def test_truncated_proof_is_rejected(settled_node):
    def truncate(response):
        response["proof"]["steps"] = response["proof"]["steps"][:-1]
        return response

    client = _lying_client(settled_node, mutate_proof=truncate)
    with pytest.raises(ProofError):
        client.balance_of(_worker(settled_node, 0))


def test_invented_header_is_rejected(settled_node):
    """A proof that folds correctly — but to a root the node invented
    for this response rather than a link of the verified chain."""
    forged = Header(
        height=99, parent=b"\x01" * 32, block_hash=b"\x02" * 32,
        state_root=b"\x03" * 32,
    )

    def substitute(response):
        response["header"] = header_to_data(forged)
        return response

    client = _lying_client(settled_node, mutate_proof=substitute)
    with pytest.raises(ProofError):
        client.balance_of(_worker(settled_node, 0))


def test_out_of_range_header_index_is_rejected(settled_node):
    def relocate(response):
        response["header_index"] = 10**6
        return response

    client = _lying_client(settled_node, mutate_proof=relocate)
    with pytest.raises(ProofError):
        client.balance_of(_worker(settled_node, 0))


def test_withheld_payment_hints_fail_loudly(settled_node):
    """A node that hides the pay entry's journal position cannot make
    the settlement read as unpaid — verification errors out instead."""
    client = _lying_client(settled_node, payment_hints=[])
    with pytest.raises(ProofError):
        client.verify_settlement("hit:alice", _worker(settled_node, 0))
    # Garbage hints are skipped, not crashed on — and still end loudly.
    client = _lying_client(settled_node, payment_hints=[-3, 10**9, "zero"])
    with pytest.raises(ProofError):
        client.verify_settlement("hit:alice", _worker(settled_node, 0))


def test_client_refuses_a_node_with_a_different_history(settled_node):
    """A client synced to one node detects being re-pointed at a node
    whose commitment timeline diverged — equivocation across fetches."""
    _, transport = settled_node
    client = LightClient(RpcChain(transport))
    client.sync()
    other = RpcNode()
    other_transport = LoopbackTransport(other)
    run_one_hit(other_transport, seed=11, label="bob")
    other_chain = RpcChain(other_transport)
    while other_chain.header()["count"] <= len(client.headers):
        other_chain.mine_block()  # extend B past A's verified tip
    client.node = other_chain
    with pytest.raises(ProofError):
        client.sync()


# ---------------------------------------------------------------------------
# Stale-cursor parity (in-process vs RPC — the eventlog fix)
# ---------------------------------------------------------------------------


def test_stale_cursor_raises_the_same_error_through_both_doors(settled_node):
    node, transport = settled_node
    gc.collect()  # drop dead subscription cursors so the prune can move
    assert node.chain.event_log.prune(through=3) == 3
    with pytest.raises(ChainError) as in_process:
        node.chain.event_log.since(0)
    with pytest.raises(ChainError) as over_rpc:
        RpcChain(transport).rpc.call("chain_events", cursor=0)
    assert str(in_process.value) == str(over_rpc.value)
    assert "precedes the pruned base" in str(in_process.value)
    # A cursor at the base still reads fine through both doors.
    assert node.chain.event_log.since(3) is not None
    assert RpcChain(transport).rpc.call("chain_events", cursor=3)["records"]


# ---------------------------------------------------------------------------
# Loud error counters (the exception-swallowing fixes)
# ---------------------------------------------------------------------------


def test_listener_errors_are_counted_not_fatal():
    node = RpcNode()
    chain = RpcChain(LoopbackTransport(node))

    def bad_listener():
        raise RuntimeError("push pump fell over")

    node.add_write_listener(bad_listener)
    counter = REGISTRY.counter(
        "rpc_listener_errors_total",
        "Write-listener callbacks that raised (push pump faults)",
    )
    before = counter.value()
    block = chain.mine_block()  # the mutating request itself succeeds
    assert block.number == 0 and node.chain.height == 1
    assert counter.value() == before + 1


def test_dead_sampler_is_counted_and_the_scrape_survives():
    family = "test_lightclient_dead_sampler"
    gauge = REGISTRY.gauge(
        family, "a sampler that always raises (test fixture)",
        sampler=lambda: 1 / 0,
    )
    errors = REGISTRY.counter(
        "obs_sampler_errors_total",
        "Scrape-time sampler callbacks that raised (family dropped "
        "from that scrape)",
        labelnames=("family",),
    )
    try:
        before = errors.value(family=family)
        text = render_prometheus()
        # The scrape completed; the dead family contributes its HELP
        # header but no sample line, and the failure is on the record.
        assert "# TYPE %s gauge" % family in text
        assert "\n%s " % family not in text
        assert errors.value(family=family) == before + 1
    finally:
        gauge.set_sampler(None)
