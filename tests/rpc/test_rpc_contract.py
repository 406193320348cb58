"""The RPC equivalence contract: the wire changes nothing.

The same seeded scenario — staggered arrivals, sequential *and* batched
evaluation, an accepted worker, a quality rejection, an out-of-range
dispute — runs once through in-process clients on a local
:class:`~repro.chain.chain.Chain` and once through
:class:`~repro.rpc.client.RpcRequesterClient` /
:class:`~repro.rpc.client.RpcWorkerClient` against an
:class:`~repro.rpc.server.RpcNode`.  The two runs must agree **byte for
byte**: every receipt (canonically encoded), every GasReport slot and
extra, every payment and verdict, and the final ``state_root``.

This is the contract that makes the RPC boundary safe to deploy behind:
an encoding bug, a lost field, a reordered draw — anything the wire
could distort — lands here as a byte diff.
"""

from __future__ import annotations

import pytest

from repro.chain.chain import Chain
from repro.errors import ProtocolError
from repro.ledger.accounts import Address
from repro.chain.transactions import scoped_tx_nonces
from repro.core.requester import RequesterClient
from repro.core.worker import WorkerClient
from repro.crypto.rng import deterministic_entropy
from repro.rpc import HitSpec, LoopbackTransport, RpcChain, RpcNode, RpcSwarm, run_hits
from repro.storage.swarm import SwarmStore
from repro.store import codec
from tests.helpers import small_task
from tests.rpc.conftest import rpc_client_factories

SEED = 1307


def scenario_specs():
    """Staggered tasks covering every evaluation path over the wire."""
    return [
        # Sequential evaluation: one accept, one PoQoEA quality rejection.
        HitSpec(0, "alice", small_task(), [[0] * 10, [1] * 10]),
        # Batched evaluation arriving mid-stream: everyone accepted.
        HitSpec(1, "bob", small_task(), [[0] * 10, [0] * 10],
                evaluation="batched"),
        # Batched with a rejection and an out-of-range dispute (the VPKE
        # verifiable-decryption path), three workers.
        HitSpec(3, "carol", small_task(num_workers=3, budget=99),
                [[0] * 10, [1] * 10, [2] * 10], evaluation="batched"),
    ]


def run_in_process(specs):
    chain, swarm = Chain(), SwarmStore()
    outcomes = run_hits(
        chain,
        swarm,
        specs,
        lambda label, task: RequesterClient(label, task, chain, swarm),
        lambda label, answers: WorkerClient(label, chain, swarm,
                                            answers=answers),
    )
    return chain, outcomes


def run_over_rpc(specs, transport):
    requester_factory, worker_factory = rpc_client_factories(transport)
    return run_hits(
        RpcChain(transport),
        RpcSwarm(transport),
        specs,
        requester_factory,
        worker_factory,
    )


def canonical_receipts(outcome) -> bytes:
    return codec.encode(
        [codec.receipt_to_data(receipt) for receipt in outcome.receipts]
    )


def gas_as_data(report) -> dict:
    return {
        "publish": report.publish,
        "commits": dict(report.commits),
        "reveals": dict(report.reveals),
        "golden": report.golden,
        "rejections": dict(report.rejections),
        "finalize": report.finalize,
        "extras": dict(report.extras),
        "total": report.total,
    }


@pytest.fixture(scope="module")
def equivalent_runs():
    """Both paths, one seed, loopback transport (the fast full scenario)."""
    specs = scenario_specs()
    with scoped_tx_nonces(), deterministic_entropy(SEED):
        chain, in_process = run_in_process(specs)
    node = RpcNode()
    transport = LoopbackTransport(node)
    with scoped_tx_nonces(), deterministic_entropy(SEED):
        over_rpc = run_over_rpc(specs, transport)
    return chain, in_process, node, over_rpc, transport


def test_receipts_are_byte_identical(equivalent_runs):
    _, in_process, _, over_rpc, _ = equivalent_runs
    assert len(in_process) == len(over_rpc) == 3
    for local, remote in zip(in_process, over_rpc):
        assert local.receipts, "scenario produced no receipts"
        assert canonical_receipts(local) == canonical_receipts(remote)


def test_gas_reports_match_slot_for_slot(equivalent_runs):
    _, in_process, _, over_rpc, _ = equivalent_runs
    for local, remote in zip(in_process, over_rpc):
        assert gas_as_data(local.gas) == gas_as_data(remote.gas)


def test_payments_and_verdicts_match(equivalent_runs):
    _, in_process, _, over_rpc, _ = equivalent_runs
    for local, remote in zip(in_process, over_rpc):
        assert local.payments() == remote.payments()
        assert local.verdicts() == remote.verdicts()
    # The scenario genuinely exercised all three evaluation outcomes.
    kinds = {
        action.kind for outcome in in_process for action in outcome.actions
    }
    assert kinds == {"accept", "reject-quality", "reject-outrange"}


def test_state_roots_are_identical(equivalent_runs):
    chain, _, node, _, transport = equivalent_runs
    assert codec.state_root(chain) == codec.state_root(node.chain)
    # And the wire agrees with the server's own computation.
    assert RpcChain(transport).state_root() == codec.state_root(node.chain)


def test_chain_shapes_match(equivalent_runs):
    chain, _, node, _, _ = equivalent_runs
    assert chain.height == node.chain.height
    assert chain.total_gas == node.chain.total_gas
    assert [block.block_hash() for block in chain.blocks] == [
        block.block_hash() for block in node.chain.blocks
    ]


def test_single_hit_equivalence_over_each_transport(rpc_setup):
    """The one-task contract holds over loopback *and* a real socket."""
    node, transport = rpc_setup
    specs = [HitSpec(0, "alice", small_task(), [[0] * 10, [1] * 10])]
    with scoped_tx_nonces(), deterministic_entropy(SEED):
        chain, in_process = run_in_process(specs)
    with scoped_tx_nonces(), deterministic_entropy(SEED):
        over_rpc = run_over_rpc(specs, transport)
    assert canonical_receipts(in_process[0]) == canonical_receipts(over_rpc[0])
    assert gas_as_data(in_process[0].gas) == gas_as_data(over_rpc[0].gas)
    assert in_process[0].payments() == over_rpc[0].payments()
    assert codec.state_root(chain) == codec.state_root(node.chain)


def test_malformed_spec_is_rejected_before_anything_deploys():
    """A spec whose labels do not match its answer sheets fails before
    its requester registers or publishes: the node's state is untouched."""
    node = RpcNode()
    transport = LoopbackTransport(node)
    RpcChain(transport).register_account("bystander", 100)
    before = codec.state_root(node.chain)
    specs = [HitSpec(0, "alice", small_task(), [[0] * 10, [1] * 10],
                     worker_labels=["x"])]
    with pytest.raises(ProtocolError, match="label count"):
        run_over_rpc(specs, transport)
    assert node.chain.height == 0
    assert codec.state_root(node.chain) == before
    assert node.chain.ledger.balance_of(Address.from_label("bystander")) == 100
    assert not node.chain.ledger.has_account(Address.from_label("alice"))
