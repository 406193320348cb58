"""The chain simulator: deployment, execution, revert, events, gas."""

import pytest

from repro.chain.chain import Chain
from repro.chain.contract import CallContext, Contract
from repro.chain.gas import TX_BASE, deployment_cost
from repro.chain.transactions import Transaction
from repro.errors import ChainError, ContractError


class Counter(Contract):
    """A tiny test contract: counts, stores, pays, and can revert."""

    code_size = 1000

    def on_deploy(self, ctx: CallContext) -> None:
        self._sstore(ctx, "count", 0)

    def increment(self, ctx: CallContext) -> None:
        current = self._sload(ctx, "count")
        self._sstore(ctx, "count", current + 1)
        self.emit(ctx, "incremented", payload={"count": current + 1})

    def boom(self, ctx: CallContext) -> None:
        self._sstore(ctx, "count", 999)
        ctx.require(False, "always reverts")

    def take_budget(self, ctx: CallContext) -> None:
        ok = ctx.ledger.freeze(self.address, ctx.sender, 50)
        ctx.require(ok, "no funds")

    def pay_then_fail(self, ctx: CallContext) -> None:
        ctx.ledger.pay(self.address, ctx.sender, 10)
        ctx.require(False, "revert after pay")

    def seed_nested(self, ctx: CallContext) -> None:
        self._sstore(ctx, "members", ["alice"])
        self._sstore(ctx, "scores", {"alice": {"rounds": [1, 2]}})

    def mutate_nested_then_fail(self, ctx: CallContext) -> None:
        # In-place mutation of *nested* mutables, then a revert: the
        # regression the deep storage snapshot exists to roll back.
        self.storage["members"].append("mallory")
        self.storage["scores"]["alice"]["rounds"].append(99)
        self.storage["scores"]["mallory"] = {"rounds": [0]}
        ctx.require(False, "mutated in place, then reverted")


class Faulty(Contract):
    """A constructor that writes, escrows and emits, then faults with a
    plain Python error rather than a contract revert."""

    code_size = 100

    def on_deploy(self, ctx: CallContext) -> None:
        self._sstore(ctx, "owner", str(ctx.sender))
        assert ctx.ledger.freeze(self.address, ctx.sender, 30)
        self.emit(ctx, "deployed")
        owner, budget = ctx.args  # ValueError when deployed with no args
        del owner, budget


@pytest.fixture
def chain():
    chain = Chain()
    chain.register_account("deployer", 100)
    chain.register_account("user", 100)
    return chain


def _deploy(chain) -> Counter:
    contract = Counter("counter")
    receipt = chain.deploy(contract, chain.registry.lookup("deployer"))
    assert receipt.succeeded
    return contract


def test_deploy_charges_code_deposit(chain):
    contract = Counter("counter")
    receipt = chain.deploy(contract, chain.registry.lookup("deployer"))
    assert receipt.gas_used >= TX_BASE + deployment_cost(1000)
    assert chain.height == 1


def test_duplicate_contract_name_rejected(chain):
    _deploy(chain)
    with pytest.raises(ChainError):
        chain.deploy(Counter("counter"), chain.registry.lookup("deployer"))


def test_faulting_constructor_reverts_like_a_faulting_call(chain):
    deployer = chain.registry.lookup("deployer")
    receipt = chain.deploy(Faulty("faulty"), deployer)
    assert not receipt.succeeded
    assert receipt.revert_reason.startswith(
        "invalid call: ValueError: not enough values to unpack"
    )
    assert receipt.events == ()
    assert chain.height == 1
    assert chain.blocks[0].receipts == (receipt,)
    with pytest.raises(ChainError):
        chain.contract("faulty")
    assert chain.ledger.balance_of(deployer) == 100
    assert chain.events == []
    # The name is free again.
    assert chain.deploy(Counter("faulty"), deployer).succeeded


def test_faulting_constructor_reverts_alone_in_a_batch(chain):
    deployer = chain.registry.lookup("deployer")
    receipts = chain.deploy_many([
        (Faulty("faulty"), deployer, (), b""),
        (Counter("counter"), deployer, (), b""),
    ])
    assert [receipt.succeeded for receipt in receipts] == [False, True]
    assert receipts[0].revert_reason.startswith("invalid call: ValueError")
    assert chain.height == 1
    assert chain.contract("counter").storage["count"] == 0
    with pytest.raises(ChainError):
        chain.contract("faulty")
    assert chain.ledger.balance_of(deployer) == 100
    assert chain.events == []


def test_send_and_mine(chain):
    contract = _deploy(chain)
    user = chain.registry.lookup("user")
    chain.send(user, "counter", "increment")
    chain.send(user, "counter", "increment")
    block = chain.mine_block()
    assert len(block.transactions) == 2
    assert all(r.succeeded for r in block.receipts)
    assert contract.storage["count"] == 2


def test_oversized_transaction_gets_a_failed_receipt_in_its_block(chain):
    """A tx whose calldata alone costs more than its gas limit reverts in
    its block.  The intrinsic charge once ran outside the revert guard:
    ``mine_block`` raised ``OutOfGas`` with the mempool drained, the tx
    before it applied, no block sealed and the tx after it lost."""
    contract = _deploy(chain)
    user = chain.registry.lookup("user")
    chain.send(user, "counter", "increment")
    # 21,000 base + 16 per non-zero byte = 37,000 gas against 30,000.
    oversized = Transaction(
        sender=user, contract="counter", method="increment",
        payload=b"\x01" * 1000, gas_limit=30_000,
    )
    chain.mempool.submit(oversized)
    chain.send(user, "counter", "increment")
    block = chain.mine_block()
    assert chain.height == 2
    assert len(chain.mempool) == 0
    assert [r.succeeded for r in block.receipts] == [True, False, True]
    assert block.transactions[1] is oversized
    assert block.receipts[1].revert_reason == (
        "gas limit 30000 exceeded (used 37000 at 'calldata')"
    )
    assert block.receipts[1].events == ()
    assert block.receipts[0].gas_used == block.receipts[2].gas_used
    assert contract.storage["count"] == 2


def test_out_of_gas_charges_exactly_the_gas_limit(chain):
    """An out-of-gas tx pays its gas limit, as on Ethereum, not the
    37,000 its calldata asked for; the revert reason still names the
    total that exceeded the limit."""
    _deploy(chain)
    user = chain.registry.lookup("user")
    before = chain.gas_by_sender.get(user, 0)
    chain.mempool.submit(
        Transaction(
            sender=user, contract="counter", method="increment",
            payload=b"\x01" * 1000, gas_limit=30_000,
        )
    )
    receipt = chain.mine_block().receipts[0]
    assert not receipt.succeeded
    assert receipt.revert_reason == (
        "gas limit 30000 exceeded (used 37000 at 'calldata')"
    )
    assert receipt.gas_used == 30_000
    assert sum(receipt.gas_breakdown.values()) == 30_000
    assert chain.gas_by_sender[user] - before == 30_000


def test_send_to_unknown_contract(chain):
    with pytest.raises(ChainError):
        chain.send(chain.registry.lookup("user"), "ghost", "noop")


def test_revert_rolls_back_storage(chain):
    contract = _deploy(chain)
    user = chain.registry.lookup("user")
    chain.send(user, "counter", "boom")
    block = chain.mine_block()
    receipt = block.receipts[0]
    assert not receipt.succeeded
    assert "always reverts" in receipt.revert_reason
    assert contract.storage["count"] == 0  # the 999 write rolled back


def test_revert_rolls_back_nested_in_place_mutation(chain):
    """A handler that mutates nested mutables in place and then raises
    must leave no trace: the pre-call snapshot has to be deep, because
    ``dict(storage)`` shares the nested lists/dicts it claims to save."""
    contract = _deploy(chain)
    user = chain.registry.lookup("user")
    chain.send(user, "counter", "seed_nested")
    chain.mine_block()
    before_members = list(contract.storage["members"])
    before_rounds = list(contract.storage["scores"]["alice"]["rounds"])
    chain.send(user, "counter", "mutate_nested_then_fail")
    block = chain.mine_block()
    assert not block.receipts[0].succeeded
    assert contract.storage["members"] == before_members
    assert contract.storage["scores"]["alice"]["rounds"] == before_rounds
    assert "mallory" not in contract.storage["scores"]


def test_successful_nested_mutation_sticks(chain):
    """The deep snapshot only guards *reverted* calls — a successful
    in-place mutation must still land (and must not alias the snapshot)."""
    contract = _deploy(chain)
    user = chain.registry.lookup("user")
    chain.send(user, "counter", "seed_nested")
    chain.mine_block()

    def grow(self, ctx):
        self.storage["members"].append("bob")

    Counter.grow = grow
    try:
        chain.send(user, "counter", "grow")
        block = chain.mine_block()
        assert block.receipts[0].succeeded
        assert contract.storage["members"] == ["alice", "bob"]
    finally:
        del Counter.grow


def test_revert_rolls_back_ledger(chain):
    contract = _deploy(chain)
    user = chain.registry.lookup("user")
    chain.send(user, "counter", "take_budget")
    chain.mine_block()
    assert chain.ledger.escrow_of(contract.address) == 50
    chain.send(user, "counter", "pay_then_fail")
    chain.mine_block()
    # The pay inside the reverted call must not stick.
    assert chain.ledger.escrow_of(contract.address) == 50
    assert chain.ledger.balance_of(user) == 50


def test_revert_suppresses_events(chain):
    _deploy(chain)
    user = chain.registry.lookup("user")
    chain.send(user, "counter", "boom")
    chain.mine_block()
    assert chain.events_named("incremented") == []


def test_events_recorded_on_success(chain):
    _deploy(chain)
    user = chain.registry.lookup("user")
    chain.send(user, "counter", "increment")
    chain.mine_block()
    events = chain.events_named("incremented", "counter")
    assert len(events) == 1
    assert events[0].payload == {"count": 1}


def test_unknown_method_reverts(chain):
    _deploy(chain)
    user = chain.registry.lookup("user")
    chain.send(user, "counter", "not_a_method")
    block = chain.mine_block()
    assert not block.receipts[0].succeeded


def test_private_method_not_callable(chain):
    _deploy(chain)
    user = chain.registry.lookup("user")
    chain.send(user, "counter", "_sstore")
    block = chain.mine_block()
    assert not block.receipts[0].succeeded


def test_gas_accounting_per_sender(chain):
    _deploy(chain)
    user = chain.registry.lookup("user")
    chain.send(user, "counter", "increment")
    chain.mine_block()
    assert chain.gas_by_sender[user] > TX_BASE
    assert chain.total_gas > 0


def test_clock_advances_per_block(chain):
    _deploy(chain)
    assert chain.clock.period == 0
    chain.mine_block()
    chain.mine_block()
    assert chain.clock.period == 2


def test_block_linkage(chain):
    _deploy(chain)
    b1 = chain.mine_block()
    b2 = chain.mine_block()
    assert b2.parent_hash == b1.block_hash()
    assert b1.number == 1 and b2.number == 2


def test_mine_until_idle(chain):
    _deploy(chain)
    user = chain.registry.lookup("user")
    chain.send(user, "counter", "increment")
    mined = chain.mine_until_idle()
    assert len(mined) == 1
    assert chain.mine_until_idle() == []


def test_register_account_idempotent(chain):
    a = chain.register_account("user", 5)
    assert chain.ledger.balance_of(a) == 100  # existing balance kept
