"""Digests of immutable chain objects are computed once.

Transactions, blocks and headers are frozen dataclasses, so each keeps
its keccak digest after the first call, and the state trie keeps the
path of every key it holds.  These tests count keccak digests (each
``keccak256`` call, each message of a ``keccak256_many`` batch) to pin
that, and check that a kept digest never outlives the fields it
describes: a ``dataclasses.replace``d object and a pickled chain get
exactly the digests a fresh object would.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
import sys

import pytest

from repro.chain.blocks import Block
from repro.chain.chain import Chain
from repro.chain.contract import CallContext, Contract
from repro.chain.transactions import Transaction
from repro.crypto import keccak
from repro.rpc import LoopbackTransport, RpcNode, RpcSession
from repro.store.trie import Header, MerkleTrie, chain_state_trie


class Ping(Contract):
    code_size = 100

    def ping(self, ctx: CallContext) -> None:
        self._sstore(ctx, "pings", self._sload(ctx, "pings") + 1)

    def on_deploy(self, ctx: CallContext) -> None:
        self._sstore(ctx, "pings", 0)


class KeccakCalls:
    """Counts keccak-256 digests asked for through any ``repro`` module:
    one per ``keccak256`` call and one per message passed to
    ``keccak256_many``, so batched trie hashing counts as it did when
    every node was its own call.  :attr:`calls` logs each call as
    ``(function name, messages)``."""

    def __init__(self, monkeypatch) -> None:
        self.count = 0
        self.calls = []
        single, many = keccak.keccak256, keccak.keccak256_many

        def counted(data):
            self.count += 1
            self.calls.append(("keccak256", 1))
            return single(data)

        def counted_many(messages):
            self.count += len(messages)
            self.calls.append(("keccak256_many", len(messages)))
            return many(messages)

        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, original, wrapper in (
                ("keccak256", single, counted),
                ("keccak256_many", many, counted_many),
            ):
                if vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, wrapper)

    def during(self, action):
        """``(result, calls)`` for one call of ``action``."""
        before = self.count
        result = action()
        return result, self.count - before


@pytest.fixture
def keccak_calls(monkeypatch):
    return KeccakCalls(monkeypatch)


def _chain(blocks: int = 3, txs_per_block: int = 2) -> Chain:
    chain = Chain()
    deployer = chain.register_account("deployer", 100)
    user = chain.register_account("user", 100)
    chain.deploy(Ping("ping"), deployer)
    for _ in range(blocks):
        for _ in range(txs_per_block):
            chain.send(user, "ping", "ping")
        chain.mine_block()
    return chain


def _header() -> Header:
    return Header(4, b"\x01" * 32, b"\x02" * 32, b"\x03" * 32)


def test_second_digest_call_costs_no_keccak(keccak_calls):
    chain = _chain()
    head = chain.blocks[-1]
    for digest in (
        head.transactions[0].tx_hash,
        head.block_hash,
        _header().header_hash,
        chain_state_trie(chain).ensure_header(chain).header_hash,
    ):
        first, _ = keccak_calls.during(digest)
        again, calls = keccak_calls.during(digest)
        assert again == first
        assert calls == 0, digest


def test_block_hash_reuses_its_transactions_digests(keccak_calls):
    chain = _chain(blocks=1, txs_per_block=5)
    head = chain.blocks[-1]
    for transaction in head.transactions:
        transaction.tx_hash()
    _, calls = keccak_calls.during(head.block_hash)
    assert calls == 1


def test_block_hash_hashes_its_unhashed_transactions_in_one_batch(
    keccak_calls,
):
    """Three transactions no one has hashed yet: the block digest costs
    one ``keccak256_many`` call over the three and one ``keccak256`` of
    its own, each transaction keeps its digest, and the digests are the
    bytes a lone ``tx_hash`` of a fresh copy gives."""
    chain = _chain(blocks=1, txs_per_block=3)
    head = chain.blocks[-1]
    assert len(head.transactions) == 3
    del keccak_calls.calls[:]
    head.block_hash()
    assert keccak_calls.calls == [("keccak256_many", 3), ("keccak256", 1)]
    for transaction in head.transactions:
        digest, calls = keccak_calls.during(transaction.tx_hash)
        assert calls == 0
        assert digest == dataclasses.replace(transaction).tx_hash()


def test_chain_head_requests_on_an_unchanged_head_hash_once(keccak_calls):
    chain = _chain()
    session = RpcSession(LoopbackTransport(RpcNode(chain=chain)))
    first, one = keccak_calls.during(lambda: session.call("chain_head"))
    assert first["block_hash"] == chain.blocks[-1].block_hash().hex()
    heads, many = keccak_calls.during(
        lambda: [session.call("chain_head") for _ in range(10)]
    )
    assert all(head == first for head in heads)
    assert many <= one


def test_resetting_a_present_trie_key_does_not_rehash_the_key(keccak_calls):
    trie = MerkleTrie()
    for index in range(8):
        trie.set(b"key/%d" % index, b"v0")
    trie.root()
    _, calls = keccak_calls.during(lambda: trie.set(b"key/3", b"v1"))
    assert calls == 0
    assert trie.get(b"key/3") == b"v1"
    # A deleted key's path is dropped: setting it again hashes it anew.
    trie.delete(b"key/3")
    _, calls = keccak_calls.during(lambda: trie.set(b"key/3", b"v2"))
    assert calls == 1


def test_trie_roots_stay_canonical_through_cached_paths():
    """Random set/delete/re-set churn on one trie ends at the root a
    fresh trie reaches from the surviving key set alone."""
    rng = random.Random(13)
    churned, live = MerkleTrie(), {}
    for _ in range(400):
        key = b"k%d" % rng.randrange(40)
        if rng.random() < 0.3:
            assert churned.delete(key) == (key in live)
            live.pop(key, None)
        else:
            value = b"v%d" % rng.randrange(5)
            churned.set(key, value)
            live[key] = value
    fresh = MerkleTrie()
    for key, value in live.items():
        fresh.set(key, value)
    assert len(churned) == len(live)
    assert churned.root() == fresh.root()
    for key in live:
        assert churned.prove(key) == fresh.prove(key)


def test_replaced_transaction_and_block_get_their_own_digests(keccak_calls):
    chain = _chain()
    block = chain.blocks[-1]
    transaction = block.transactions[0]
    tx_digest, block_digest = transaction.tx_hash(), block.block_hash()

    bumped = dataclasses.replace(transaction, nonce=transaction.nonce + 1000)
    fresh_tx = Transaction(
        sender=transaction.sender,
        contract=transaction.contract,
        method=transaction.method,
        payload=transaction.payload,
        args=transaction.args,
        value=transaction.value,
        gas_limit=transaction.gas_limit,
        nonce=transaction.nonce + 1000,
    )
    digest, calls = keccak_calls.during(bumped.tx_hash)
    assert digest == fresh_tx.tx_hash() != tx_digest
    assert calls == 1
    assert keccak_calls.during(transaction.tx_hash) == (tx_digest, 0)

    reparented = dataclasses.replace(block, parent_hash=b"\x07" * 32)
    fresh_block = Block(
        block.number, b"\x07" * 32, block.transactions, block.receipts
    )
    digest, calls = keccak_calls.during(reparented.block_hash)
    assert digest == fresh_block.block_hash() != block_digest
    assert calls == 1  # the transactions' digests are shared, not redone
    assert keccak_calls.during(block.block_hash) == (block_digest, 0)

    header = _header()
    header_digest = header.header_hash()
    taller = dataclasses.replace(header, height=5)
    fresh_header = Header(5, header.parent, header.block_hash, header.state_root)
    assert taller.header_hash() == fresh_header.header_hash() != header_digest


def test_pickled_chain_keeps_its_digests(keccak_calls):
    chain = _chain()
    cold = pickle.loads(pickle.dumps(chain))  # head never hashed yet
    digests = [block.block_hash() for block in chain.blocks]
    tx_digests = [
        [tx.tx_hash() for tx in block.transactions] for block in chain.blocks
    ]
    warm = pickle.loads(pickle.dumps(chain))
    restored, calls = keccak_calls.during(
        lambda: [block.block_hash() for block in warm.blocks]
    )
    assert restored == digests
    assert calls == 0
    assert [block.block_hash() for block in cold.blocks] == digests
    assert [
        [tx.tx_hash() for tx in block.transactions] for block in cold.blocks
    ] == tx_digests
