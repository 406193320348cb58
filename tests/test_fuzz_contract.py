"""Failure injection: garbage transactions cannot corrupt a task.

A public contract receives arbitrary junk.  Whatever malformed methods,
argument shapes, or hostile byte strings arrive, every such transaction
must revert cleanly (failed receipt, no exception escaping the chain)
and the protocol must still settle with the correct payments.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.chain.chain import Chain
from repro.core.requester import RequesterClient
from repro.core.worker import WorkerClient
from repro.errors import ReproError
from repro.storage.swarm import SwarmStore
from tests.helpers import small_task

GOOD = [0] * 10
BAD = [1] * 10

METHODS = [
    "commit", "reveal", "golden", "evaluate", "outrange", "finalize",
    "cancel", "no_such_method", "__deploy__", "_sstore", "storage",
]

JUNK_ARGS = [
    (),
    (b"",),
    (b"\x00" * 32,),
    (b"\xff" * 31,),
    ("string-instead-of-bytes",),
    (None,),
    (12345,),
    (b"\x00" * 32, b"\x00" * 32),
    (b"junk", b"junk", b"junk", b"junk", b"junk"),
    ({},),
]


def _junk_storm(chain, contract_name, attacker, rng, count=12):
    """Fire ``count`` random malformed transactions at the contract."""
    for _ in range(count):
        method = rng.choice(METHODS)
        args = rng.choice(JUNK_ARGS)
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
        try:
            chain.send(attacker, contract_name, method,
                       args=args, payload=payload)
        except ReproError:
            pass  # rejected at submission is also fine


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_junk_storm_cannot_break_settlement(seed):
    rng = random.Random(seed)
    task = small_task()
    chain, swarm = Chain(), SwarmStore()
    requester = RequesterClient("req", task, chain, swarm)
    assert requester.publish().succeeded
    attacker = chain.register_account("griefer-%d" % seed, 0)

    workers = [
        WorkerClient("w0", chain, swarm, answers=GOOD),
        WorkerClient("w1", chain, swarm, answers=BAD),
    ]
    # Interleave junk with every protocol phase.
    _junk_storm(chain, requester.contract_name, attacker, rng)
    for worker in workers:
        worker.discover(requester.contract_name)
        worker.send_commit()
    _junk_storm(chain, requester.contract_name, attacker, rng)
    chain.mine_block()

    _junk_storm(chain, requester.contract_name, attacker, rng)
    for worker in workers:
        worker.send_reveal()
    chain.mine_block()

    requester.evaluate_all()
    _junk_storm(chain, requester.contract_name, attacker, rng)
    chain.mine_block()

    requester.send_finalize()
    chain.mine_block()

    # The attacker achieved nothing; the honest outcome stands.
    assert chain.ledger.balance_of(workers[0].address) == 50
    assert chain.ledger.balance_of(workers[1].address) == 0
    assert chain.ledger.balance_of(attacker) == 0
    assert chain.ledger.escrow_of(
        chain.contract(requester.contract_name).address
    ) == 0


def test_junk_receipts_all_marked_failed():
    rng = random.Random(99)
    task = small_task()
    chain, swarm = Chain(), SwarmStore()
    requester = RequesterClient("req", task, chain, swarm)
    assert requester.publish().succeeded
    attacker = chain.register_account("griefer", 0)
    _junk_storm(chain, requester.contract_name, attacker, rng, count=20)
    block = chain.mine_block()
    junk_receipts = [
        r for r in block.receipts if r.transaction.sender == attacker
    ]
    assert junk_receipts
    assert all(not r.succeeded for r in junk_receipts)
    assert all(r.revert_reason for r in junk_receipts)


@given(st.binary(max_size=96), st.sampled_from(["commit", "reveal", "golden"]))
@example(payload=bytes(32), method="commit")
@settings(max_examples=15, deadline=None)
def test_single_junk_transaction_never_crashes(payload, method):
    """Every such transaction fails, except a 32-byte ``commit``: from a
    registered account that is not the requester, in the commit phase,
    that is a well-formed commitment, and the contract accepts it."""
    task = small_task()
    chain, swarm = Chain(), SwarmStore()
    requester = RequesterClient("req", task, chain, swarm)
    assert requester.publish().succeeded
    attacker = chain.register_account("fuzzer", 0)
    chain.send(attacker, requester.contract_name, method,
               args=(payload,), payload=payload)
    block = chain.mine_block()
    well_formed_commit = method == "commit" and len(payload) == 32
    assert block.receipts[0].succeeded == well_formed_commit
