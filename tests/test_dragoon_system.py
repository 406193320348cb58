"""The Dragoon multi-task facade: shared chain, long-lived keys."""

import pytest

from repro.chain.transactions import scoped_tx_nonces
from repro.crypto.rng import deterministic_entropy
from repro.dragoon import Dragoon, TaskArrival
from repro.errors import ProtocolError
from repro.ledger.accounts import Address
from repro.store.codec import state_root
from tests.helpers import small_task

GOOD = [0] * 10
BAD = [1] * 10


def test_single_task_through_facade():
    system = Dragoon()
    system.fund("alice", 100)
    outcome = system.run_task("alice", small_task(), [GOOD, BAD])
    payments = outcome.payments()
    assert sorted(payments.values()) == [0, 50]


def test_two_sequential_tasks_same_requester():
    system = Dragoon()
    system.fund("alice", 200)
    first = system.run_task("alice", small_task(), [GOOD, GOOD],
                            worker_labels=["w0", "w1"])
    second = system.run_task("alice", small_task(), [GOOD, BAD],
                             worker_labels=["w2", "w3"])
    assert all(v == 50 for v in first.payments().values())
    assert sorted(second.payments().values()) == [0, 50]
    assert len(system.tasks) == 2


def test_requester_key_is_stable_across_tasks():
    """The paper's one-key-pair-for-all-tasks property."""
    system = Dragoon()
    system.fund("alice", 200)
    key_before = system.requester_public_key_bytes("alice")
    system.run_task("alice", small_task(), [GOOD, GOOD])
    key_after = system.requester_public_key_bytes("alice")
    assert key_before == key_after
    published = system.chain.events_named("published")
    assert published[0].payload["pubkey"] == key_before


def test_different_requesters_have_different_keys():
    system = Dragoon()
    assert (
        system.requester_public_key_bytes("alice")
        != system.requester_public_key_bytes("bob")
    )


def test_gas_report_from_facade_matches_chain():
    system = Dragoon()
    system.fund("alice", 100)
    outcome = system.run_task("alice", small_task(), [GOOD, BAD])
    gas = outcome.gas
    assert gas.publish > 1_000_000
    assert len(gas.commits) == 2
    assert len(gas.reveals) == 2
    assert len(gas.rejections) == 1
    assert gas.finalize > 0


def test_publish_fails_without_funds():
    system = Dragoon()
    system.fund("pauper", 1)
    with pytest.raises(ProtocolError):
        system.publish_task("pauper", small_task())


def test_worker_identities_can_span_tasks():
    system = Dragoon()
    system.fund("alice", 200)
    first = system.run_task("alice", small_task(), [GOOD, GOOD],
                            worker_labels=["w0", "w1"])
    second = system.run_task("alice", small_task(), [GOOD, GOOD],
                             worker_labels=["w0", "w1"])
    ledger = system.chain.ledger
    # Same worker accumulated rewards from both tasks.
    assert ledger.balance_of(first.workers[0].address) == 100


def test_total_gas_accumulates():
    system = Dragoon()
    system.fund("alice", 200)
    system.run_task("alice", small_task(), [GOOD, GOOD],
                    worker_labels=["w0", "w1"])
    first_total = system.total_gas
    system.run_task("alice", small_task(), [GOOD, GOOD],
                    worker_labels=["w2", "w3"])
    assert system.total_gas > first_total


def test_malformed_arrival_is_rejected_before_anything_deploys():
    """A label list that does not match the answer sheets fails before
    publication: no block, no task, no budget escrowed in a contract
    that no session could ever settle or cancel."""
    system = Dragoon()
    system.fund("req", 100)
    arrival = TaskArrival(0, "req", small_task(), [GOOD, BAD],
                          worker_labels=["x"])
    with pytest.raises(ProtocolError, match="label count"):
        system.serve([arrival])
    with pytest.raises(ProtocolError, match="label count"):
        system.admit([arrival])  # the simulation runner's direct path
    assert system.chain.height == 0
    assert system.tasks == {}
    assert system.chain.ledger.balance_of(Address.from_label("req")) == 100


# The facade path, recorded before run_task and publish_task went
# through the shared service loop: the loop must replay it exactly.
FACADE_ROOT = "dc9359f9810f5e588d05ae8c98961aafb26c258128013f06def45835ad5c611c"
FACADE_GAS = 6_924_545
FACADE_SCHEDULE = [
    [("alice", "__deploy__")],
    [("hit:alice:0/worker-0", "commit"), ("hit:alice:0/worker-1", "commit")],
    [("hit:alice:0/worker-0", "reveal"), ("hit:alice:0/worker-1", "reveal")],
    [("alice", "golden"), ("alice", "evaluate")],
    [("alice", "finalize")],
    [("pauper", "__deploy__")],  # the reverted publish still seals
    [("bob", "__deploy__")],
    [("w0", "commit"), ("w1", "commit")],
    [("w0", "reveal"), ("w1", "reveal")],
    [("bob", "golden")],
    [("bob", "finalize")],
    [("alice", "__deploy__")],
    [("w1", "commit"), ("w2", "commit")],
    [("w1", "reveal"), ("w2", "reveal")],
    [("alice", "golden"), ("alice", "evaluate")],
    [("alice", "finalize")],
]


def test_facade_path_is_byte_identical():
    """Three seeded run_task calls — two requesters, default and custom
    worker labels, quality rejections — plus one unfunded publish keep
    their state root, height, gas and per-block schedule."""
    with scoped_tx_nonces(), deterministic_entropy(1414):
        system = Dragoon()
        system.fund("alice", 200)
        system.fund("bob", 100)
        system.fund("pauper", 1)
        first = system.run_task("alice", small_task(), [GOOD, BAD])
        with pytest.raises(ProtocolError, match="cannot cover the budget"):
            system.publish_task("pauper", small_task())
        second = system.run_task("bob", small_task(), [GOOD, GOOD],
                                 worker_labels=["w0", "w1"])
        third = system.run_task("alice", small_task(), [BAD, GOOD],
                                worker_labels=["w1", "w2"])
        root = state_root(system.chain)
    assert root.hex() == FACADE_ROOT
    assert system.chain.height == len(FACADE_SCHEDULE)
    assert system.total_gas == FACADE_GAS
    assert [
        [
            (receipt.transaction.sender.label, receipt.transaction.method)
            for receipt in block.receipts
        ]
        for block in system.chain.blocks
    ] == FACADE_SCHEDULE
    assert [first.gas.total, second.gas.total, third.gas.total] == [
        2_358_079, 2_208_471, 2_357_995,
    ]
    assert sorted(system.tasks) == ["hit:alice:0", "hit:alice:3", "hit:bob:2"]


# The batched evaluation path under Dragoon.serve, recorded while proving
# still had a pooled variant: the one serial path must replay it exactly.
SERVE_BATCHED_ROOT = (
    "c7eb65a7437688a91b6046d9dcff6e0ac97b04a0990f2eed808aedc66ca472ad"
)
SERVE_BATCHED_GAS = 8_455_792
SERVE_BATCHED_SCHEDULE = [
    [("alice", "__deploy__"), ("bob", "__deploy__")],
    [("hit:alice:0/worker-%d" % i, "commit") for i in range(4)]
    + [("hit:bob:1/worker-%d" % i, "commit") for i in range(2)],
    [("alice", "__deploy__")],
    [("hit:alice:0/worker-%d" % i, "reveal") for i in range(4)]
    + [("hit:bob:1/worker-%d" % i, "reveal") for i in range(2)]
    + [("hit:alice:2/worker-%d" % i, "commit") for i in range(3)],
    [("alice", "golden"), ("alice", "outrange"), ("alice", "evaluate_batch"),
     ("bob", "golden"), ("bob", "evaluate_batch")]
    + [("hit:alice:2/worker-%d" % i, "reveal") for i in range(3)],
    [("alice", "finalize"), ("bob", "finalize"),
     ("alice", "golden"), ("alice", "evaluate_batch")],
    [("alice", "finalize")],
]
SERVE_BATCHED_VERDICTS = {
    "hit:alice:0": ["paid-default", "rejected-quality", "rejected-outrange",
                    "rejected-quality"],
    "hit:bob:1": ["rejected-quality", "paid-default"],
    "hit:alice:2": ["rejected-quality", "rejected-quality", "paid-default"],
}


def test_batched_serve_path_is_byte_identical():
    """Three seeded arrivals over two blocks, evaluated in batches —
    quality rejections in one evaluate_batch per task and an out-of-range
    answer disputed on its own — keep their state root, height, gas,
    per-block schedule and every worker's verdict."""
    out_of_range = [0] * 9 + [7]
    with scoped_tx_nonces(), deterministic_entropy(1616):
        system = Dragoon()
        system.fund("alice", 220)
        system.fund("bob", 100)
        outcomes = system.serve([
            TaskArrival(0, "alice", small_task(num_workers=4),
                        [GOOD, BAD, out_of_range, BAD]),
            TaskArrival(0, "bob", small_task(), [BAD, GOOD]),
            TaskArrival(1, "alice", small_task(num_workers=3, budget=120),
                        [BAD, BAD, GOOD]),
        ])
        root = state_root(system.chain)
    assert root.hex() == SERVE_BATCHED_ROOT
    assert system.chain.height == len(SERVE_BATCHED_SCHEDULE)
    assert system.total_gas == SERVE_BATCHED_GAS
    assert [
        [
            (receipt.transaction.sender.label, receipt.transaction.method)
            for receipt in block.receipts
        ]
        for block in system.chain.blocks
    ] == SERVE_BATCHED_SCHEDULE
    assert {
        outcome.requester.contract_name: list(outcome.verdicts().values())
        for outcome in outcomes
    } == SERVE_BATCHED_VERDICTS
