"""Stateful property testing of the state root against the WAL and a
cold rebuild (hypothesis state machine; ROADMAP item 2, I-4 and I-5).

One chain journals to a :class:`~repro.store.nodestore.NodeStore` and
carries a state-trie tracker.  Rules mutate it in every way a node
does: transactions that write, append in place and revert, deployments
(one constructor faults), registrations and mints between blocks,
writes straight into ``contract.storage`` and ``ledger._balances``
outside any transaction, empty blocks and event-log pruning.  Two rules
change a slot without changing it as a Python object: ``1`` becomes
``True``, and a dict is re-stored in another key order.

Invariants, after every step:

* the tracker's incremental root equals a cold rebuild's (a fresh
  tracker over a pickle round trip of the chain);
* **I-4:** after every sealed block, snapshot plus WAL replay
  (``NodeStore.open(dir).load()``) reaches the live root;
* **I-5:** a reverted call leaves the root unchanged, apart from the
  block that carries it, the clock tick and the sender's gas.

A second machine pins headers minted on read.  The chain's own tracker
tracks headers and reads only when a rule asks: a header, a proof cut
from one, a bare proof or the state root.  A twin tracker brings itself
up to date after every sealed block, the timeline a sync per block
gives.  Between seals, rules register accounts and prune the event log;
bursts of blocks full of events push the queued history to its bound.
At every read both trackers answer the same header lists, proofs and
roots, and the lazy one never queues a whole history batch.
"""

from __future__ import annotations

import pickle
import shutil
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.chain.chain import Chain
from repro.chain.contract import CallContext, Contract
from repro.store import NodeStore, codec, trie
from repro.store.trie import ChainStateTrie, chain_state_trie
from tests.helpers import EagerHeaders

LABELS = ["acct-%d" % index for index in range(4)]
SLOTS = st.sampled_from(["x", "y"])
#: Fresh containers per draw: a list shared between slots would alias.
VALUES = st.one_of(
    st.sampled_from([0, 1, "one"]),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from("jk"), st.integers(0, 2), max_size=2),
)


class StateBox(Contract):
    """Storage the machine writes through transactions."""

    code_size = 200

    def on_deploy(self, ctx: CallContext) -> None:
        self._sstore(ctx, "log", [])

    def put(self, ctx: CallContext) -> None:
        slot, value = ctx.args
        self._sstore(ctx, slot, value)
        self.emit(ctx, "put", slot.encode())

    def append(self, ctx: CallContext) -> None:
        item, fail = ctx.args
        self.storage["log"].append(item)  # in place, not through _sstore
        ctx.require(not fail, "asked to revert")


class FaultyBox(Contract):
    """A constructor that writes storage, then faults."""

    code_size = 200

    def on_deploy(self, ctx: CallContext) -> None:
        self._sstore(ctx, "half", True)
        raise ZeroDivisionError("constructor fault")


def _clone(chain: Chain) -> Chain:
    return pickle.loads(pickle.dumps(chain))


class StateRootMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        codec.CONTRACT_TYPES["StateBox"] = StateBox  # WAL replay builds it
        self.state_dir = tempfile.mkdtemp(prefix="state-root-machine-")
        self.chain = Chain()
        self.deployer = self.chain.register_account("deployer", 1_000)
        self.store = NodeStore.init(self.state_dir + "/node", self.chain)
        self.chain.attach_store(self.store)
        self.tracker = chain_state_trie(self.chain)
        #: Synced only when the ``read_root`` rule asks, so its diffs
        #: span any number of steps.
        self.lazy = ChainStateTrie()
        self.boxes = []
        self.deploy(faulty=False)
        self.replayed_height = None

    def teardown(self):
        if hasattr(self, "store"):
            self.store.wal.close()
            shutil.rmtree(self.state_dir, ignore_errors=True)
        codec.CONTRACT_TYPES.pop("StateBox", None)

    def _box(self, pick: int) -> StateBox:
        return self.boxes[pick % len(self.boxes)]

    def _call(self, box: StateBox, method: str, *args):
        self.chain.send(self.deployer, box.name, method, args)
        return self.chain.mine_block().receipts[0]

    # -- between blocks --------------------------------------------------------

    @rule(label=st.sampled_from(LABELS), funded=st.booleans())
    def register(self, label, funded):
        self.chain.register_account(label, 50 if funded else 0)

    @rule(label=st.sampled_from(LABELS), amount=st.integers(1, 9))
    def mint(self, label, amount):
        address = self.chain.registry.lookup(label)
        if address is not None:
            self.chain.ledger.mint(address, amount)

    @rule(pick=st.integers(0, 3), slot=SLOTS, value=VALUES)
    def write_storage_directly(self, pick, slot, value):
        self._box(pick).storage[slot] = value

    @rule(pick=st.integers(0, 3), slot=SLOTS)
    def delete_storage_directly(self, pick, slot):
        self._box(pick).storage.pop(slot, None)

    @rule(amount=st.integers(0, 500))
    def write_balance_directly(self, amount):
        self.chain.ledger._balances[self.deployer] = amount

    @rule()
    def prune_events(self):
        if self.chain.event_log.prune():
            self.store.note_prune(self.chain)

    @rule()
    def read_root(self):
        cold = _clone(self.chain)
        assert self.lazy.root(self.chain) == chain_state_trie(cold).root(cold)

    # -- blocks ----------------------------------------------------------------

    @rule(faulty=st.booleans())
    def deploy(self, faulty):
        name = "box-%d" % self.chain.height
        contract = FaultyBox(name) if faulty else StateBox(name)
        receipt = self.chain.deploy(contract, self.deployer)
        assert receipt.status is not faulty
        if not faulty:
            self.boxes.append(contract)

    @rule(pick=st.integers(0, 3), slot=SLOTS, value=VALUES)
    def write_slot(self, pick, slot, value):
        self._call(self._box(pick), "put", slot, value)

    @rule(pick=st.integers(0, 3), item=st.integers(0, 3), fail=st.booleans())
    def append_in_place(self, pick, item, fail):
        """I-5: a reverted call leaves the root unchanged, apart from
        the block that carries it, the clock tick and the sender's gas."""
        before = _clone(self.chain)
        receipt = self._call(self._box(pick), "append", item, fail)
        assert receipt.status is not fail
        if fail:
            after = _clone(self.chain)
            after.blocks.pop()
            after.clock._period = before.clock.period
            after.gas_by_sender = dict(before.gas_by_sender)
            assert codec.state_root(after) == codec.state_root(before)

    @rule(pick=st.integers(0, 3))
    def flip_flag(self, pick):
        """``1 == True``, but the two encode differently."""
        box = self._box(pick)
        flag = 1 if box.storage.get("flag") is True else True
        self._call(box, "put", "flag", flag)

    @rule(pick=st.integers(0, 3))
    def reorder_map(self, pick):
        """Equal dicts in another key order encode differently."""
        box = self._box(pick)
        current = box.storage.get("map", {"a": 1, "b": 2})
        self._call(box, "put", "map", dict(reversed(list(current.items()))))

    @rule()
    def mine_empty_block(self):
        self.chain.mine_block()

    # -- invariants ------------------------------------------------------------

    @invariant()
    def incremental_root_matches_a_cold_rebuild(self):
        cold = _clone(self.chain)
        assert self.tracker.root(self.chain) == chain_state_trie(cold).root(cold)

    @invariant()
    def wal_replay_reaches_the_live_root(self):
        """I-4: after every sealed block, the snapshot plus the WAL
        replays to the live state root."""
        if self.chain.height == self.replayed_height:
            return
        self.replayed_height = self.chain.height
        _chain, meta = NodeStore.open(self.state_dir + "/node").load()
        assert meta["state_root"] == self.tracker.root(self.chain)


TestStateRootMachine = StateRootMachine.TestCase
TestStateRootMachine.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)


def _hashes(headers):
    return [header.header_hash() for header in headers]


class HeaderTimelineMachine(RuleBasedStateMachine):
    """Headers minted on read equal the ones a read per block mints."""

    @initialize()
    def setup(self):
        self.chain = Chain()
        self.deployer = self.chain.register_account("deployer", 1_000)
        self.lazy = chain_state_trie(self.chain)
        self.lazy.track_headers = True
        self.lazy.ensure_header(self.chain)
        self.eager = EagerHeaders(self.chain).tracker
        self.boxes = []
        self.deploy(faulty=False)

    def _box(self, pick: int) -> StateBox:
        return self.boxes[pick % len(self.boxes)]

    def _key(self, kind: str, pick: int) -> bytes:
        chain = self.chain
        if kind == "account":
            return trie.account_key(
                chain.registry.lookup(LABELS[pick % len(LABELS)])
                or self.deployer
            )
        if kind == "block":
            return trie.block_key(pick % max(chain.height, 1))
        if kind == "event":
            return trie.event_key(pick % max(len(chain.event_log), 1))
        if kind == "storage":
            return trie.storage_key(self._box(pick).name, "x")
        return trie.meta_key("period")

    # -- between blocks --------------------------------------------------------

    @rule(label=st.sampled_from(LABELS), funded=st.booleans())
    def register(self, label, funded):
        self.chain.register_account(label, 50 if funded else 0)

    @rule()
    def prune_events(self):
        self.chain.event_log.prune()

    # -- blocks ----------------------------------------------------------------

    @rule(faulty=st.booleans())
    def deploy(self, faulty):
        name = "box-%d" % self.chain.height
        contract = FaultyBox(name) if faulty else StateBox(name)
        self.chain.deploy(contract, self.deployer)
        if not faulty:
            self.boxes.append(contract)

    @rule(pick=st.integers(0, 3), slot=SLOTS, value=VALUES)
    def write_slot(self, pick, slot, value):
        self.chain.send(self.deployer, self._box(pick).name, "put", (slot, value))
        self.chain.mine_block()

    @rule(blocks=st.integers(1, 6), puts=st.integers(0, 8))
    def burst(self, blocks, puts):
        """Blocks of ``puts`` events each, up to 54 history items."""
        for _ in range(blocks):
            for index in range(puts):
                self.chain.send(
                    self.deployer, self._box(index).name, "put", ("y", index)
                )
            self.chain.mine_block()

    @rule()
    def mine_empty_block(self):
        self.chain.mine_block()

    # -- reads -----------------------------------------------------------------

    @rule()
    def read_header(self):
        lazy = self.lazy.ensure_header(self.chain)
        assert lazy == self.eager.ensure_header(self.chain)
        assert _hashes(self.lazy.headers) == _hashes(self.eager.headers)

    @rule(kind=st.sampled_from(["account", "block", "event", "storage", "meta"]),
          pick=st.integers(0, 7))
    def read_anchored_proof(self, kind, pick):
        key = self._key(kind, pick)
        index, header, proof = self.lazy.anchored_proof(self.chain, key)
        twin = self.eager.anchored_proof(self.chain, key)
        assert (index, header.header_hash(), codec.encode(proof)) == (
            twin[0], twin[1].header_hash(), codec.encode(twin[2])
        )
        assert _hashes(self.lazy.headers) == _hashes(self.eager.headers)

    @rule(kind=st.sampled_from(["account", "block", "event", "storage", "meta"]),
          pick=st.integers(0, 7))
    def read_proof(self, kind, pick):
        key = self._key(kind, pick)
        assert codec.encode(self.lazy.prove(self.chain, key)) == codec.encode(
            self.eager.prove(self.chain, key)
        )

    @rule()
    def read_state_root(self):
        assert self.lazy.root(self.chain) == self.eager.root(self.chain)

    # -- invariants ------------------------------------------------------------

    @invariant()
    def the_queue_stays_under_one_history_batch(self):
        queued = sum(diff.count for diff in self.lazy._queue)
        assert queued == self.lazy._queued < trie._HISTORY_BATCH

    @invariant()
    def minted_headers_are_the_eager_timeline_s_prefix(self):
        minted = _hashes(self.lazy.headers)
        assert minted == _hashes(self.eager.headers)[:len(minted)]


TestHeaderTimelineMachine = HeaderTimelineMachine.TestCase
TestHeaderTimelineMachine.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
