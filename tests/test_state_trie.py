"""The Merkle state trie: structure, proofs, sync, headers, determinism.

Three contracts are pinned here:

* **Canonical structure** — the trie root is a pure function of the
  key/value set: any insertion/deletion order, incremental or from
  scratch, reaches the same bytes (hypothesis-fuzzed against a dict
  model).
* **Proof soundness** — every present key proves membership, every
  absent key proves non-membership, and the adversarial suite (forged
  values, truncated/reordered/mistyped steps, stale roots, wrong-leaf
  terminations) is rejected by :func:`repro.store.trie.verify_proof`
  with a loud :class:`~repro.store.trie.ProofError`, never a silent
  ``False``-that-looks-fine.
* **The determinism contract** — the trie-backed ``state_root`` is
  byte-identical to a golden vector for the seeded scenario, across
  pickle round-trips (checkpoint/resume rebuilds the tracker), and
  between incremental tracking and a cold rebuild of the same chain.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chain.chain import Chain
from repro.chain.contract import CallContext, Contract
from repro.crypto.keccak import keccak256
from repro.store import codec, trie
from repro.store.trie import (
    EMPTY_ROOT,
    MerkleTrie,
    ProofError,
    chain_state_trie,
    verify_proof,
)
from tests.helpers import EagerHeaders, seeded_outcome

#: ``state_root`` of ``seeded_outcome()``'s chain, pinned as bytes.
#: Moves only on a deliberate trie/codec schema change.
GOLDEN_SEEDED_ROOT = (
    "a0c939d245d88d8171b0f5e06364e236bde82c63a8ad83f711c9e18d902bf0b3"
)


# ---------------------------------------------------------------------------
# Trie structure
# ---------------------------------------------------------------------------


def test_empty_trie_root_is_the_empty_marker():
    assert MerkleTrie().root() == EMPTY_ROOT


def test_root_is_insertion_order_independent():
    items = {b"k%d" % index: b"v%d" % index for index in range(64)}
    forward, backward = MerkleTrie(), MerkleTrie()
    for key in sorted(items):
        forward.set(key, items[key])
    for key in sorted(items, reverse=True):
        backward.set(key, items[key])
    assert forward.root() == backward.root()


def test_delete_restores_the_prior_root():
    t = MerkleTrie()
    t.set(b"a", b"1")
    t.set(b"b", b"2")
    before = t.root()
    t.set(b"c", b"3")
    assert t.root() != before
    assert t.delete(b"c")
    assert t.root() == before
    assert not t.delete(b"c")  # already gone
    assert t.delete(b"a") and t.delete(b"b")
    assert t.root() == EMPTY_ROOT and len(t) == 0


def test_update_in_place_changes_root_and_get():
    t = MerkleTrie()
    t.set(b"key", b"old")
    old_root = t.root()
    t.set(b"key", b"new")
    assert t.get(b"key") == b"new"
    assert t.root() != old_root
    t.set(b"key", b"old")
    assert t.root() == old_root


def _recursive_root(t: MerkleTrie):
    """``(root, nodes hashed)`` as a depth-first recursion computes them.

    One ``keccak256`` per node whose cached hash is cleared, reusing the
    cached ones and caching nothing, so it can run on a dirty trie
    before ``t.root()`` and tell what the waves must produce and count.
    """
    hashed = 0

    def digest(node) -> bytes:
        nonlocal hashed
        if node.hash is not None:
            return node.hash
        hashed += 1
        if isinstance(node, trie._Leaf):
            return keccak256(
                b"\x00" + node.path.to_bytes(32, "big") + keccak256(node.value)
            )
        return keccak256(
            b"\x01" + node.bit.to_bytes(2, "big")
            + digest(node.left) + digest(node.right)
        )

    if t._root is None:
        return EMPTY_ROOT, 0
    root = digest(t._root)
    return root, hashed


def test_root_hashes_the_dirty_region_in_waves(monkeypatch):
    """Re-setting 60 of 1,000 keys dirties 60 leaves and every branch
    above them.  One ``root()`` hashes them in at most (dirty height + 2)
    batched calls (the value digests, the leaf digests, then one per
    branch height) and counts the nodes the recursion would hash."""
    t = MerkleTrie()
    for index in range(1000):
        t.set(b"key-%d" % index, b"v0")
    t.root()
    keys = [b"key-%d" % index for index in range(0, 960, 16)]
    assert len(keys) == 60
    # Every branch above a dirty leaf is dirty: the dirty region is as
    # tall as the deepest re-set key's proof.
    height = max(len(t.prove(key)["steps"]) for key in keys)
    for key in keys:
        t.set(key, b"v1")
    expected_root, expected_hashed = _recursive_root(t)

    batches = []
    singles = []
    batched, single = trie.keccak256_many, trie.keccak256

    def counted_many(messages):
        batches.append(len(messages))
        return batched(messages)

    def counted_single(data):
        singles.append(data)
        return single(data)

    monkeypatch.setattr(trie, "keccak256_many", counted_many)
    monkeypatch.setattr(trie, "keccak256", counted_single)
    before = t.hash_computes
    assert t.root() == expected_root
    assert t.hash_computes - before == expected_hashed
    assert len(batches) <= height + 2
    assert sum(batches) == expected_hashed + len(keys)  # 2 per leaf
    assert singles == []


def test_incremental_updates_rehash_only_the_dirty_path():
    t = MerkleTrie()
    for index in range(256):
        t.set(b"key-%d" % index, b"value")
    t.root()
    before = t.hash_computes
    t.set(b"key-17", b"changed")
    t.root()
    # One leaf plus its root path: logarithmic, nowhere near the 511
    # nodes a full rehash would touch.
    assert 0 < t.hash_computes - before < 40


# ---------------------------------------------------------------------------
# Proofs: honest and adversarial
# ---------------------------------------------------------------------------


@pytest.fixture
def small_trie():
    t = MerkleTrie()
    for index in range(20):
        t.set(b"key-%d" % index, b"value-%d" % index)
    return t


def test_membership_proofs_verify(small_trie):
    root = small_trie.root()
    for index in range(20):
        key = b"key-%d" % index
        present, value = verify_proof(root, key, small_trie.prove(key))
        assert present and value == b"value-%d" % index


def test_non_membership_proofs_verify(small_trie):
    root = small_trie.root()
    for key in (b"absent", b"key-20", b""):
        present, value = verify_proof(root, key, small_trie.prove(key))
        assert not present and value is None


def test_empty_trie_proves_non_membership():
    t = MerkleTrie()
    present, value = verify_proof(EMPTY_ROOT, b"anything", t.prove(b"anything"))
    assert not present and value is None
    with pytest.raises(ProofError):
        # The same empty proof against a non-empty root is a forgery.
        verify_proof(keccak256(b"x"), b"anything", t.prove(b"anything"))


def test_forged_value_is_rejected(small_trie):
    root = small_trie.root()
    proof = small_trie.prove(b"key-3")
    proof["value"] = b"forged"
    with pytest.raises(ProofError):
        verify_proof(root, b"key-3", proof)


def test_forged_leaf_digest_is_rejected(small_trie):
    root = small_trie.root()
    proof = small_trie.prove(b"key-3")
    proof["value"] = b"forged"
    proof["leaf_digest"] = keccak256(b"forged")  # self-consistent forgery
    with pytest.raises(ProofError):
        verify_proof(root, b"key-3", proof)


def test_truncated_and_extended_steps_are_rejected(small_trie):
    root = small_trie.root()
    honest = small_trie.prove(b"key-3")
    truncated = dict(honest, steps=honest["steps"][:-1])
    with pytest.raises(ProofError):
        verify_proof(root, b"key-3", truncated)
    extended = dict(
        honest, steps=honest["steps"] + [[255, 0, keccak256(b"pad")]]
    )
    with pytest.raises(ProofError):
        verify_proof(root, b"key-3", extended)


def test_reordered_steps_are_rejected(small_trie):
    root = small_trie.root()
    honest = small_trie.prove(b"key-3")
    if len(honest["steps"]) < 2:
        pytest.skip("trie too shallow to reorder")
    swapped = dict(honest, steps=list(reversed(honest["steps"])))
    with pytest.raises(ProofError):
        verify_proof(root, b"key-3", swapped)


def test_stale_root_is_rejected(small_trie):
    stale_root = small_trie.root()
    proof_then = small_trie.prove(b"key-3")
    small_trie.set(b"key-99", b"late arrival")
    fresh_root = small_trie.root()
    # Old proof against the new root: the state moved on.
    with pytest.raises(ProofError):
        verify_proof(fresh_root, b"key-3", proof_then)
    # New proof against the old root: equally dead.
    with pytest.raises(ProofError):
        verify_proof(stale_root, b"key-3", small_trie.prove(b"key-3"))


def test_proof_for_one_key_does_not_verify_another(small_trie):
    root = small_trie.root()
    proof = small_trie.prove(b"key-3")
    with pytest.raises(ProofError):
        verify_proof(root, b"key-4", proof)


def test_non_membership_for_a_pruned_key(small_trie):
    """A key that *was* present and then deleted (the pruned-event
    shape) proves non-membership against the post-delete root."""
    root_with = small_trie.root()
    assert verify_proof(
        root_with, b"key-7", small_trie.prove(b"key-7")
    ) == (True, b"value-7")
    small_trie.delete(b"key-7")
    root_without = small_trie.root()
    present, value = verify_proof(
        root_without, b"key-7", small_trie.prove(b"key-7")
    )
    assert not present and value is None
    # And the old membership proof does not survive the deletion.
    with pytest.raises(ProofError):
        verify_proof(root_without, b"key-7", small_trie.prove(b"key-8"))


@pytest.mark.parametrize(
    "mangle",
    [
        lambda p: "not a dict",
        lambda p: {},
        lambda p: dict(p, extra=1),
        lambda p: dict(p, steps="zz"),
        lambda p: dict(p, steps=[p["steps"][0][:2]] + p["steps"][1:]),
        lambda p: dict(p, steps=[[True, 0, b"\x00" * 32]] + p["steps"]),
        lambda p: dict(p, steps=[[0, 2, b"\x00" * 32]] + p["steps"]),
        lambda p: dict(p, steps=[[0, 0, b"short"]] + p["steps"]),
        lambda p: dict(p, leaf_path=b"short"),
        lambda p: dict(p, leaf_digest=None),
        lambda p: dict(p, value=7),
    ],
)
def test_malformed_proofs_raise_not_mislead(small_trie, mangle):
    root = small_trie.root()
    proof = small_trie.prove(b"key-3")
    with pytest.raises(ProofError):
        verify_proof(root, b"key-3", mangle(proof))


# ---------------------------------------------------------------------------
# Hypothesis: trie vs dict model
# ---------------------------------------------------------------------------

_ops = st.lists(
    st.tuples(
        st.sampled_from(["set", "delete"]),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=5),
    ),
    max_size=60,
)


@given(ops=_ops)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_incremental_root_matches_scratch_rebuild(ops):
    t = MerkleTrie()
    model = {}
    for step, (kind, key_index, value_index) in enumerate(ops):
        key = b"key-%d" % key_index
        if kind == "set":
            value = b"value-%d" % value_index
            t.set(key, value)
            model[key] = value
        else:
            assert t.delete(key) == (key in model)
            model.pop(key, None)
        if step == len(ops) // 2:
            # A root read mid-stream: the rest runs on a partly cached trie.
            assert t.root() == _recursive_root(t)[0]
    expected_root, expected_hashed = _recursive_root(t)
    before = t.hash_computes
    assert t.root() == expected_root
    assert t.hash_computes - before == expected_hashed
    rebuilt = MerkleTrie()
    for key, value in model.items():
        rebuilt.set(key, value)
    assert t.root() == rebuilt.root()
    assert len(t) == len(model)
    root = t.root()
    for key, value in model.items():
        assert verify_proof(root, key, t.prove(key)) == (True, value)
    absent = b"never-inserted"
    assert verify_proof(root, absent, t.prove(absent)) == (False, None)


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_chain_states_track_and_prove(seed):
    """Random seeded chain states: the incremental root equals a cold
    recomputation on an equivalent chain, and every namespaced key the
    tracker holds proves against it."""
    import random

    rng = random.Random(seed)
    chain = Chain()
    addresses = [
        chain.register_account("acct-%d" % index, rng.randrange(1000))
        for index in range(rng.randrange(1, 6))
    ]
    for _ in range(rng.randrange(3)):
        source = rng.choice(addresses)
        chain.ledger.transfer(source, rng.choice(addresses), 0)
    tracker = chain_state_trie(chain)
    incremental = tracker.root(chain)
    # A cold tracker over the pickle round-trip of the same chain.
    rebuilt = pickle.loads(pickle.dumps(chain))
    assert chain_state_trie(rebuilt).root(rebuilt) == incremental
    for key in trie.live_items(chain):
        present, _ = verify_proof(
            incremental, key, tracker.prove(chain, key)
        )
        assert present


# ---------------------------------------------------------------------------
# The chain tracker
# ---------------------------------------------------------------------------


class _Vault(Contract):
    code_size = 500

    def stash(self, ctx: CallContext) -> None:
        self._sstore(ctx, "owner", str(ctx.sender))


def test_seeded_scenario_root_matches_golden_vector():
    outcome = seeded_outcome()
    assert codec.state_root(outcome.chain).hex() == GOLDEN_SEEDED_ROOT


def test_tracker_follows_out_of_block_mutations():
    chain = Chain()
    tracker = chain_state_trie(chain)
    genesis_root = tracker.root(chain)
    address = chain.register_account("late", 5)  # blockless mutation
    moved = tracker.root(chain)
    assert moved != genesis_root
    present, value = verify_proof(
        moved, trie.account_key(address), tracker.prove(chain, trie.account_key(address))
    )
    assert present and codec.decode(value) == ("late", 5)


def test_tracker_follows_event_pruning():
    outcome = seeded_outcome()
    chain = outcome.chain
    tracker = chain_state_trie(chain)
    before = tracker.root(chain)
    assert chain.event_log.prune(through=3) > 0
    after = tracker.root(chain)
    assert after != before  # pruned events left the trie, base moved
    # The pruned record's key now proves non-membership...
    present, _ = verify_proof(
        after, trie.event_key(0), tracker.prove(chain, trie.event_key(0))
    )
    assert not present
    # ...and the new prune base is itself provable state.
    present, value = verify_proof(
        after,
        trie.meta_key("event_base"),
        tracker.prove(chain, trie.meta_key("event_base")),
    )
    assert present and codec.decode(value) == chain.event_log.pruned
    # The tracked root still equals a cold rebuild after the prune.
    rebuilt = pickle.loads(pickle.dumps(chain))
    assert chain_state_trie(rebuilt).root(rebuilt) == after


def test_tracker_follows_deployment_revert():
    """A failed deployment deletes its contract mid-stream — the
    live-domain diff must drop the key, not leak a ghost contract."""
    chain = Chain()
    deployer = chain.register_account("deployer", 10)
    tracker = chain_state_trie(chain)
    before = tracker.root(chain)

    class _Bomb(Contract):
        code_size = 100

        def on_deploy(self, ctx: CallContext) -> None:
            ctx.require(False, "no thanks")

    receipt = chain.deploy(_Bomb("bomb"), deployer)
    assert not receipt.succeeded
    after = tracker.root(chain)
    present, _ = verify_proof(
        after, trie.contract_key("bomb"), tracker.prove(chain, trie.contract_key("bomb"))
    )
    assert not present
    rebuilt = pickle.loads(pickle.dumps(chain))
    assert chain_state_trie(rebuilt).root(rebuilt) == after


def test_tracker_sees_in_place_storage_mutation():
    """Encodings are diffed, not object identities: a stored list
    mutated in place (same object, new contents) must move the root."""
    chain = Chain()
    owner = chain.register_account("owner", 10)
    vault = _Vault("vault")
    chain.deploy(vault, owner)
    vault.storage["log"] = [1]
    tracker = chain_state_trie(chain)
    before = tracker.root(chain)
    vault.storage["log"].append(2)  # in place: dict(storage) would alias
    assert tracker.root(chain) != before


def test_warm_sync_encodes_only_the_changed_keys(monkeypatch):
    """The tracker diffs its own baseline: after one balance write, a
    sync encodes that account's leaf, not the whole live domain."""
    outcome = seeded_outcome()
    chain = outcome.chain
    tracker = chain_state_trie(chain)
    tracker.root(chain)
    assert len(trie.live_items(chain)) > 50  # what a cold build encodes
    encoded = []
    original = trie.live_items

    def recording(*args):
        items = original(*args)
        encoded.append(items)
        return items

    monkeypatch.setattr(trie, "live_items", recording)
    address = next(iter(chain.ledger._balances))
    chain.ledger._balances[address] += 1
    tracker.root(chain)
    balance = chain.ledger._balances[address]
    assert encoded == [
        {trie.account_key(address): codec.encode((address.label, balance))}
    ]
    tracker.root(chain)
    assert encoded[-1] == {}


class _Echo(Contract):
    code_size = 300

    def shout(self, ctx: CallContext) -> None:
        (data,) = ctx.args
        self.emit(ctx, "shouted", data=data)


def test_a_sync_hashes_its_new_blocks_and_events_in_one_batch(monkeypatch):
    """Three blocks whose encodings pad to distinct block counts, with
    events of three sizes.  A warm tracker's one sync after them, and a
    fresh tracker's cold build, each digest every new block and event
    record in one ``keccak256_many`` call (one wide pass, however
    ragged) and hash nothing alone.  Both reach the root of a trie
    built from one-at-a-time ``keccak256`` leaf digests, and the cold
    build hashes as many nodes as that trie."""
    chain = Chain()
    owner = chain.register_account("owner", 10)
    chain.deploy(_Echo("echo"), owner)
    warm = chain_state_trie(chain)
    warm.root(chain)
    synced = (len(chain.blocks), len(chain.event_log))
    for shouts, size in ((1, 10), (4, 300), (9, 1000)):
        for _ in range(shouts):
            chain.send(owner, "echo", "shout",
                       args=(bytes(size),), payload=bytes(size))
        chain.mine_block()

    def preimages(first_block, first_event):
        blocks = [
            codec.encode(codec.block_to_data(block))
            for block in chain.blocks[first_block:]
        ]
        events = [
            codec.encode(codec.event_record_to_data(record))
            for record in chain.event_log.since(first_event)
        ]
        return blocks, events

    new_blocks, new_events = preimages(*synced)
    assert len({len(preimage) // 136 for preimage in new_blocks}) == 3
    assert len({len(preimage) // 136 for preimage in new_events}) == 3

    batches, singles = [], []
    batched, single = trie.keccak256_many, trie.keccak256

    def counted_many(messages):
        batches.append(list(messages))
        return batched(messages)

    def counted_single(data):
        singles.append(data)
        return single(data)

    monkeypatch.setattr(trie, "keccak256_many", counted_many)
    monkeypatch.setattr(trie, "keccak256", counted_single)
    cold = trie.ChainStateTrie()
    roots = []
    for tracker, (first_block, first_event) in ((warm, synced), (cold, (0, 0))):
        blocks, events = preimages(first_block, first_event)
        history = blocks + events
        del batches[:]
        roots.append(tracker.root(chain))
        assert [
            batch for batch in batches if set(batch) & set(history)
        ] == [history]
        assert singles == []
    monkeypatch.undo()

    blocks, events = preimages(0, 0)
    reference = MerkleTrie()
    reference.set_many(list(trie.live_items(chain).items()) + [
        (trie.block_key(block.number), codec.encode(keccak256(preimage)))
        for block, preimage in zip(chain.blocks, blocks)
    ] + [
        (trie.event_key(record.sequence), codec.encode(keccak256(preimage)))
        for record, preimage in zip(chain.event_log.since(0), events)
    ])
    assert roots == [reference.root()] * 2
    assert cold.trie.hash_computes == reference.hash_computes


def test_a_catch_up_hashes_its_queued_history_in_one_pass_per_batch(
    monkeypatch,
):
    """Blocks sealed on a header-tracking tracker queue until a read.

    Three blocks with events of three sizes (17 history items) queue,
    and the read that catches up hashes all of them in one
    ``keccak256_many`` call.  Then blocks of ten items each queue until
    the seal that would bring the queue to 64 items catches up at once:
    70 items in two calls.  No history item is hashed alone, and the
    headers are the ones a read after every block mints."""
    chain = Chain()
    owner = chain.register_account("owner", 10)
    chain.deploy(_Echo("echo"), owner)
    lazy = chain_state_trie(chain)
    lazy.track_headers = True
    lazy.ensure_header(chain)
    twin = EagerHeaders(chain)
    eager_on_block, twin_busy = twin.on_block, []

    def uncounted_on_block(chain, block):
        twin_busy.append(True)  # the twin's own hashing is not counted
        eager_on_block(chain, block)
        twin_busy.pop()

    twin.on_block = uncounted_on_block
    batches, singles = [], []
    batched, single = trie.keccak256_many, trie.keccak256

    def counted_many(messages):
        if not twin_busy:
            batches.append(list(messages))
        return batched(messages)

    def counted_single(data):
        if not twin_busy:
            singles.append(data)
        return single(data)

    def seal(shouts, size):
        for _ in range(shouts):
            chain.send(owner, "echo", "shout",
                       args=(bytes(size),), payload=bytes(size))
        chain.mine_block()

    def history_since(first_block, first_event):
        return [
            codec.encode(codec.block_to_data(block))
            for block in chain.blocks[first_block:]
        ] + [
            codec.encode(codec.event_record_to_data(record))
            for record in chain.event_log.since(first_event)
        ]

    def history_batches(history):
        """The sizes of the calls that hashed ``history``, if they hashed
        all of it and nothing else; the empty list if none touched it."""
        calls = [batch for batch in batches if set(batch) & set(history)]
        assert sorted(sum(calls, [])) == (sorted(history) if calls else [])
        return [len(batch) for batch in calls]

    monkeypatch.setattr(trie, "keccak256_many", counted_many)
    monkeypatch.setattr(trie, "keccak256", counted_single)
    start = (len(chain.blocks), len(chain.event_log))
    for shouts, size in ((1, 10), (4, 300), (9, 1000)):
        seal(shouts, size)
    assert lazy._queued == 17 and history_batches(history_since(*start)) == []
    lazy.ensure_header(chain)
    assert history_batches(history_since(*start)) == [17]

    start = (len(chain.blocks), len(chain.event_log))
    for _ in range(6):
        seal(9, 10)
    assert lazy._queued == 60 and history_batches(history_since(*start)) == []
    seal(9, 10)
    history = history_since(*start)
    assert len(history) == 70 and lazy._queue == []
    assert history_batches(history) == [64, 6]
    monkeypatch.undo()

    assert {data[:1] for data in singles} == {trie._HEADER_TAG}
    assert [header.header_hash() for header in lazy.headers] == [
        header.header_hash() for header in twin.tracker.headers
    ]
    assert len(lazy.headers) == 1 + 3 + 7


def test_tracker_survives_pickle_and_is_not_carried():
    outcome = seeded_outcome()
    chain = outcome.chain
    root = codec.state_root(chain)
    assert chain._state_trie is not None
    clone = pickle.loads(pickle.dumps(chain))
    assert clone._state_trie is None  # rebuilt lazily, never pickled
    assert codec.state_root(clone) == root


def test_repeated_roots_are_cheap_and_stable():
    outcome = seeded_outcome()
    chain = outcome.chain
    tracker = chain_state_trie(chain)
    first = tracker.root(chain)
    hashed = tracker.trie.hash_computes
    for _ in range(5):
        assert tracker.root(chain) == first
    assert tracker.trie.hash_computes == hashed  # pure cache reads


# ---------------------------------------------------------------------------
# Headers
# ---------------------------------------------------------------------------


def test_headers_chain_from_genesis_and_follow_blocks():
    chain = Chain()
    tracker = chain_state_trie(chain)
    tracker.track_headers = True
    anchor = tracker.ensure_header(chain)
    assert anchor.parent == trie.HEADER_GENESIS
    assert anchor.state_root == tracker.root(chain)
    chain.register_account("alice", 10)
    chain.mine_block()
    tip = tracker.ensure_header(chain)
    assert len(tracker.headers) >= 2
    for previous, current in zip(tracker.headers, tracker.headers[1:]):
        assert current.parent == previous.header_hash()
    assert tip.state_root == tracker.root(chain)
    # An unchanged chain mints no new header.
    count = len(tracker.headers)
    assert tracker.ensure_header(chain) == tip
    assert len(tracker.headers) == count


def test_header_data_round_trip_and_validation():
    header = trie.Header(3, b"\x01" * 32, b"\x02" * 32, b"\x03" * 32)
    assert trie.header_from_data(trie.header_to_data(header)) == header
    with pytest.raises(ProofError):
        trie.header_from_data("nope")
    with pytest.raises(ProofError):
        trie.header_from_data({"height": 3})
    with pytest.raises(ProofError):
        trie.header_from_data(
            dict(trie.header_to_data(header), height=-1)
        )
    with pytest.raises(ProofError):
        trie.header_from_data(
            dict(trie.header_to_data(header), parent=b"short")
        )


# ---------------------------------------------------------------------------
# Snapshot envelope (schema v2)
# ---------------------------------------------------------------------------


def test_snapshot_carries_trie_root_and_encoding_hash(tmp_path):
    from repro.store import load_snapshot, save_snapshot

    outcome = seeded_outcome()
    path = str(tmp_path / "snap.bin")
    root = save_snapshot(path, outcome.chain)
    assert root == codec.state_root(outcome.chain)
    restored, meta = load_snapshot(path)
    assert meta["state_root"] == root
    assert codec.state_root(restored) == root


def test_snapshot_corruption_is_refused(tmp_path):
    from repro.store import StoreError, save_snapshot, load_snapshot

    outcome = seeded_outcome()
    path = str(tmp_path / "snap.bin")
    save_snapshot(path, outcome.chain)
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    blob[-1] ^= 0xFF  # flip one byte of the embedded state encoding
    with open(path, "wb") as handle:
        handle.write(bytes(blob))
    with pytest.raises(StoreError):
        load_snapshot(path)
