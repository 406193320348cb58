"""Merkleized chain state: an incremental keccak trie, proofs, headers.

``state_root`` commits to the whole chain state in a form a client can
verify single facts against, in three layers:

* :class:`MerkleTrie` — a path-compressed binary PATRICIA trie keyed by
  ``keccak256(key)`` bit paths, with per-node hash caching.  Updating a
  key re-hashes only the dirty root-to-leaf path (O(log n) expected),
  and the structure is canonical: any insertion/deletion order over the
  same key set reaches the same root.  The dirty nodes are hashed in
  waves, bottom up: a node's digest depends only on its children's, so
  every node of one wave goes through one
  :func:`~repro.crypto.keccak.keccak256_many` call.
* :class:`ChainStateTrie` — the incremental tracker a
  :class:`~repro.chain.chain.Chain` carries.  It namespaces the *whole*
  durable state (ledger accounts and escrow, contract storage, the
  worker registry, gas tallies, blocks, ledger entries, the event log
  and its prune base, clock/scheduler metadata) into trie keys whose
  values are codec-TLV encodings, and syncs on every :meth:`root`
  read, so ``state_root`` stays correct through out-of-block mutations
  (``tx_register``, ``node_prune``).  What changed comes from the
  WAL's differ, :class:`~repro.store.blockstore.StateBaseline`, run
  against the tracker's own baseline: a read on an unchanged chain
  walks state once and encodes nothing.
* :class:`Header` — the light-client anchor: a hash-chained
  ``(height, parent, block_hash, state_root)`` record, one per sealed
  block (and per out-of-block root change) when a node fronts the
  chain.  A sealed block's header is minted on the next read, which
  hashes every block sealed since in one wide keccak pass; the
  timeline is the one a sync per block gives.  :func:`verify_proof`
  checks a membership or non-membership proof from
  ``repro.lightclient`` against a header's ``state_root`` with no
  other trust.

Every leaf value is a single canonical :mod:`repro.store.codec`
encoding; bulky append-only history (blocks, pruned-log event records)
enters as 32-byte keccak digests of its canonical encoding, so the
root still commits to every byte of history without the trie storing
it twice.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.chain.blocks import GENESIS_HASH
from repro.crypto.keccak import keccak256, keccak256_many
from repro.errors import ReproError
from repro.obs import registry as _obs
from repro.store import codec
from repro.store.blockstore import StateBaseline, StateDiff

_TRIE_SYNCS = _obs.REGISTRY.counter(
    "state_trie_syncs_total",
    "State diffs taken to reconcile the state trie with its live chain "
    "(one per read, and one per sealed block on a header-tracking node)",
)
_TRIE_UPDATES = _obs.REGISTRY.counter(
    "state_trie_updates_total",
    "Keys written to or deleted from the state trie, by operation",
    labelnames=("op",),
)
_TRIE_HASHES = _obs.REGISTRY.counter(
    "state_trie_node_hashes_total",
    "Trie node hashes recomputed (dirty-path cache misses)",
)
_TRIE_PROOFS = _obs.REGISTRY.counter(
    "state_trie_proofs_total",
    "Membership/non-membership proofs produced by the state trie",
)

#: Domain-separation tags for node preimages: a leaf can never be
#: confused with an interior node or a header.
_LEAF_TAG = b"\x00"
_NODE_TAG = b"\x01"
_HEADER_TAG = b"\x02"

#: The root of a trie holding no keys (a fresh genesis chain still has
#: metadata keys, so this only appears for a literally empty trie).
EMPTY_ROOT = keccak256(b"dragoon/state-trie/empty")

#: ``parent`` of the first header a node mints (its trust anchor).
HEADER_GENESIS = b"\x00" * 32


class ProofError(ReproError):
    """A state proof is malformed or does not reconstruct its root."""


# ---------------------------------------------------------------------------
# The trie
# ---------------------------------------------------------------------------


class _Leaf:
    __slots__ = ("path", "value", "hash")

    def __init__(self, path: int, value: bytes) -> None:
        self.path = path
        self.value = value
        self.hash: Optional[bytes] = None


class _Branch:
    __slots__ = ("bit", "left", "right", "hash")

    def __init__(self, bit: int, left: Any, right: Any) -> None:
        self.bit = bit
        self.left = left
        self.right = right
        self.hash: Optional[bytes] = None


def path_of(key: bytes) -> int:
    """The 256-bit trie path of a key: ``keccak256(key)`` as an int.

    Hashing the key balances the trie (expected depth ~log2 n whatever
    the key distribution) and fixes every path at 256 bits, which is
    what makes non-membership a terminating descent.
    """
    return int.from_bytes(keccak256(key), "big")


def _path_bit(path: int, bit: int) -> int:
    return (path >> (255 - bit)) & 1


def _collect_dirty(
    node: Any, leaves: List[_Leaf], waves: List[List[_Branch]]
) -> int:
    """Gather the dirty region under ``node``; returns its height.

    Dirty leaves land in ``leaves`` left to right; a dirty branch of
    height h lands in ``waves[h - 1]``.  A plain function over argument
    lists, not a closure over itself: a recursive closure would leave a
    function-cell cycle per root holding every node it gathered."""
    if isinstance(node, _Leaf):
        leaves.append(node)
        return 0
    below = 0
    if node.left.hash is None:
        below = _collect_dirty(node.left, leaves, waves)
    if node.right.hash is None:
        below = max(below, _collect_dirty(node.right, leaves, waves))
    if below == len(waves):
        waves.append([])
    waves[below].append(node)
    return below + 1


class MerkleTrie:
    """A path-compressed binary trie with cached keccak node hashes.

    PATRICIA shape: an interior node stores the first bit position at
    which its two subtrees diverge; every key under a node agrees on
    all earlier bits, so n keys cost exactly n-1 interior nodes and the
    structure (hence the root) is a pure function of the key/value set.
    Mutations clear cached hashes along the touched root-to-leaf path
    only; :meth:`root` recomputes just those, in waves: one batched
    hash call for the dirty leaves' value digests, one for their leaf
    digests, then one per branch height, where a branch's height is one
    more than its tallest dirty child's.  The path of every key in the
    trie is cached too, so re-setting a present key hashes nothing
    until :meth:`root`; deleting a key drops its entry, and
    :meth:`set_many` hashes the paths of all its new keys in one call.
    """

    __slots__ = ("_root", "_count", "_paths", "hash_computes")

    def __init__(self) -> None:
        self._root: Any = None
        self._count = 0
        #: ``path_of(key)`` for exactly the keys the trie holds.
        self._paths: Dict[bytes, int] = {}
        #: Lifetime count of node-hash recomputations (cache misses).
        self.hash_computes = 0

    def __len__(self) -> int:
        return self._count

    def _path(self, key: bytes) -> int:
        path = self._paths.get(key)
        return path_of(key) if path is None else path

    def get(self, key: bytes) -> Optional[bytes]:
        path = self._path(key)
        node = self._root
        while isinstance(node, _Branch):
            node = node.right if _path_bit(path, node.bit) else node.left
        if isinstance(node, _Leaf) and node.path == path:
            return node.value
        return None

    def set(self, key: bytes, value: bytes) -> None:
        self._insert(key, self._path(key), value)

    def set_many(self, items: List[Tuple[bytes, bytes]]) -> None:
        """:meth:`set` every ``(key, value)`` pair, in order; the paths
        of the keys new to the trie are hashed in one batch."""
        paths = self._paths
        fresh = [key for key, _ in items if key not in paths]
        fresh_paths = dict(zip(fresh, keccak256_many(fresh)))
        for key, value in items:
            path = paths.get(key)
            if path is None:
                path = int.from_bytes(fresh_paths[key], "big")
            self._insert(key, path, value)

    def _insert(self, key: bytes, path: int, value: bytes) -> None:
        if not isinstance(value, bytes):
            raise ProofError("trie values must be bytes")
        node = self._root
        if node is None:
            self._root = _Leaf(path, value)
            self._count = 1
            self._paths[key] = path
            return
        stack: List[_Branch] = []
        while isinstance(node, _Branch):
            stack.append(node)
            node = node.right if _path_bit(path, node.bit) else node.left
        if node.path == path:
            if node.value != value:
                node.value = value
                node.hash = None
                for branch in stack:
                    branch.hash = None
            return
        # First bit (from the MSB) where the new path leaves the leaf
        # we reached; the new branch belongs exactly there.
        diverge = 256 - (node.path ^ path).bit_length()
        leaf = _Leaf(path, value)
        parent: Optional[_Branch] = None
        node = self._root
        while isinstance(node, _Branch) and node.bit < diverge:
            node.hash = None
            parent = node
            node = node.right if _path_bit(path, node.bit) else node.left
        if _path_bit(path, diverge):
            branch = _Branch(diverge, node, leaf)
        else:
            branch = _Branch(diverge, leaf, node)
        if parent is None:
            self._root = branch
        elif _path_bit(path, parent.bit):
            parent.right = branch
        else:
            parent.left = branch
        self._count += 1
        self._paths[key] = path

    def delete(self, key: bytes) -> bool:
        path = self._path(key)
        node = self._root
        if node is None:
            return False
        stack: List[_Branch] = []
        while isinstance(node, _Branch):
            stack.append(node)
            node = node.right if _path_bit(path, node.bit) else node.left
        if node.path != path:
            return False
        del self._paths[key]
        if not stack:
            self._root = None
            self._count = 0
            return True
        # The deleted leaf's parent collapses into its other subtree
        # (path compression restores itself, keeping the shape — and
        # the root — canonical for the remaining key set).
        parent = stack[-1]
        sibling = parent.left if _path_bit(path, parent.bit) else parent.right
        if len(stack) == 1:
            self._root = sibling
        else:
            grand = stack[-2]
            if _path_bit(path, grand.bit):
                grand.right = sibling
            else:
                grand.left = sibling
        for branch in stack[:-1]:
            branch.hash = None
        self._count -= 1
        return True

    def root(self) -> bytes:
        node = self._root
        if node is None:
            return EMPTY_ROOT
        if node.hash is None:
            self._hash_dirty(node)
        return node.hash

    def _hash_dirty(self, top: Any) -> None:
        """Hash every node under ``top`` whose cached hash was cleared.

        A clean node's whole subtree is clean (mutations clear a path
        from the root down), so the walk stops at cached hashes.  The
        preimages are the recursive definition's: a leaf hashes
        ``_LEAF_TAG || path || keccak256(value)``, a branch
        ``_NODE_TAG || bit || left || right``.
        """
        leaves: List[_Leaf] = []
        # waves[h - 1] holds the dirty branches of height h.
        waves: List[List[_Branch]] = []
        _collect_dirty(top, leaves, waves)
        if leaves:
            value_digests = keccak256_many([leaf.value for leaf in leaves])
            leaf_digests = keccak256_many([
                _LEAF_TAG + leaf.path.to_bytes(32, "big") + value_digest
                for leaf, value_digest in zip(leaves, value_digests)
            ])
            for leaf, digest in zip(leaves, leaf_digests):
                leaf.hash = digest
        for wave in waves:
            digests = keccak256_many([
                _NODE_TAG + branch.bit.to_bytes(2, "big")
                + branch.left.hash + branch.right.hash
                for branch in wave
            ])
            for branch, digest in zip(wave, digests):
                branch.hash = digest
        self.hash_computes += len(leaves) + sum(len(wave) for wave in waves)

    def prove(self, key: bytes) -> Dict[str, Any]:
        """A membership or non-membership proof for ``key``.

        The proof is plain codec-encodable data: the branch steps from
        the root down the key's path (``[bit, direction, sibling_hash]``
        each), plus the terminal leaf.  If the terminal leaf is the
        key's own, ``value`` carries its bytes (membership); otherwise
        ``value`` is ``None`` and the mismatching leaf's path/digest
        demonstrate absence (the descent *would* have found the key).
        """
        self.root()  # every node hash is cached from here on
        path = self._path(key)
        node = self._root
        if node is None:
            return {"steps": [], "leaf_path": None, "leaf_digest": None,
                    "value": None}
        steps: List[List[Any]] = []
        while isinstance(node, _Branch):
            direction = _path_bit(path, node.bit)
            sibling = node.left if direction else node.right
            steps.append([node.bit, direction, sibling.hash])
            node = node.right if direction else node.left
        return {
            "steps": steps,
            "leaf_path": node.path.to_bytes(32, "big"),
            "leaf_digest": keccak256(node.value),
            "value": node.value if node.path == path else None,
        }


def verify_proof(
    root: bytes, key: bytes, proof: Any
) -> Tuple[bool, Optional[bytes]]:
    """Check a proof against ``root``; returns ``(present, value)``.

    Raises :class:`ProofError` on anything other than a well-formed
    proof that reconstructs ``root`` exactly: wrong shapes, steps out
    of order, steps that deviate from the key's own bit path, a
    membership leaf that is not the key's, or a final hash mismatch.
    Soundness rests on keccak collision resistance: the only step
    chains that fold to the true root are the trie's actual nodes, and
    descending the actual trie by the key's bits terminates at the
    key's leaf iff the key is present.
    """
    if not isinstance(root, bytes) or len(root) != 32:
        raise ProofError("root must be 32 bytes")
    if not isinstance(key, bytes):
        raise ProofError("key must be bytes")
    if not isinstance(proof, dict) or set(proof) != {
        "steps", "leaf_path", "leaf_digest", "value",
    }:
        raise ProofError("proof must carry steps/leaf_path/leaf_digest/value")
    steps = proof["steps"]
    leaf_path = proof["leaf_path"]
    leaf_digest = proof["leaf_digest"]
    value = proof["value"]
    if not isinstance(steps, list):
        raise ProofError("proof steps must be a list")
    key_path = keccak256(key)
    if leaf_path is None:
        if steps or leaf_digest is not None or value is not None:
            raise ProofError("an empty-trie proof carries nothing else")
        if root != EMPTY_ROOT:
            raise ProofError("empty-trie proof against a non-empty root")
        return False, None
    if not isinstance(leaf_path, bytes) or len(leaf_path) != 32:
        raise ProofError("leaf_path must be 32 bytes")
    if not isinstance(leaf_digest, bytes) or len(leaf_digest) != 32:
        raise ProofError("leaf_digest must be 32 bytes")
    if value is not None:
        if not isinstance(value, bytes):
            raise ProofError("value must be bytes")
        if leaf_path != key_path:
            raise ProofError(
                "membership proof must terminate at the key's own leaf"
            )
        if keccak256(value) != leaf_digest:
            raise ProofError("leaf digest disagrees with the claimed value")
        present = True
    else:
        if leaf_path == key_path:
            raise ProofError(
                "non-membership proof terminates at the key's own leaf"
            )
        present = False
    acc = keccak256(_LEAF_TAG + leaf_path + leaf_digest)
    path_int = int.from_bytes(key_path, "big")
    last_bit = -1
    parsed: List[Tuple[int, int, bytes]] = []
    for step in steps:
        if not isinstance(step, (list, tuple)) or len(step) != 3:
            raise ProofError("each step must be [bit, direction, sibling]")
        bit, direction, sibling = step
        if type(bit) is not int or not 0 <= bit < 256:
            raise ProofError("step bit must be an int in 0..255")
        if direction not in (0, 1):
            raise ProofError("step direction must be 0 or 1")
        if not isinstance(sibling, bytes) or len(sibling) != 32:
            raise ProofError("step sibling must be 32 bytes")
        if bit <= last_bit:
            raise ProofError("branch bits must strictly increase downward")
        last_bit = bit
        if direction != _path_bit(path_int, bit):
            raise ProofError("proof path deviates from the key's bit path")
        parsed.append((bit, direction, sibling))
    for bit, direction, sibling in reversed(parsed):
        if direction:
            acc = keccak256(_NODE_TAG + bit.to_bytes(2, "big") + sibling + acc)
        else:
            acc = keccak256(_NODE_TAG + bit.to_bytes(2, "big") + acc + sibling)
    if acc != root:
        raise ProofError("proof does not reconstruct the state root")
    return present, value


# ---------------------------------------------------------------------------
# Headers (the light-client anchor)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Header:
    """One link of the hash-chained commitment timeline a node serves.

    ``parent`` is the previous *header's* hash (``HEADER_GENESIS`` for
    a node's anchor), ``block_hash`` the latest sealed block at that
    point, and ``state_root`` the trie root the header commits to.  A
    light client that trusts one header hash can verify every later
    header by chaining, and every state fact by proof.
    """

    height: int
    parent: bytes
    block_hash: bytes
    state_root: bytes

    def header_hash(self) -> bytes:
        return self._digest

    @cached_property
    def _digest(self) -> bytes:
        # Computed once per header: every hashed field is frozen.
        return keccak256(
            _HEADER_TAG
            + self.height.to_bytes(8, "big")
            + self.parent
            + self.block_hash
            + self.state_root
        )


def header_to_data(header: Header) -> Dict[str, Any]:
    return {
        "height": header.height,
        "parent": header.parent,
        "block_hash": header.block_hash,
        "state_root": header.state_root,
    }


def header_from_data(data: Any) -> Header:
    if not isinstance(data, dict):
        raise ProofError("header must decode to an object")
    try:
        header = Header(
            height=data["height"],
            parent=data["parent"],
            block_hash=data["block_hash"],
            state_root=data["state_root"],
        )
    except KeyError as exc:
        raise ProofError("header is missing field %s" % exc) from None
    if type(header.height) is not int or header.height < 0:
        raise ProofError("header height must be a non-negative int")
    for field in ("parent", "block_hash", "state_root"):
        raw = getattr(header, field)
        if not isinstance(raw, bytes) or len(raw) != 32:
            raise ProofError("header %s must be 32 bytes" % field)
    return header


# ---------------------------------------------------------------------------
# Key namespacing over chain state
# ---------------------------------------------------------------------------


def meta_key(name: str) -> bytes:
    """Scalar chain metadata: schema, period, scheduler, fees, event_base."""
    return b"meta/" + name.encode("utf-8")


def account_key(address) -> bytes:
    """Ledger balance of one account (value: ``(label, balance)``)."""
    return b"account/" + address.value


def escrow_key(address) -> bytes:
    """Escrow held by one contract address (value: ``(label, held)``)."""
    return b"escrow/" + address.value


def gas_key(address) -> bytes:
    """Cumulative gas charged to one sender (value: ``(label, gas)``)."""
    return b"gas/" + address.value


def registry_key(address) -> bytes:
    """Identity grant for one address (value: its label)."""
    return b"registry/" + address.value


def contract_key(name: str) -> bytes:
    """Existence + type of one deployed contract (value: type name)."""
    return b"contract/" + name.encode("utf-8")


def storage_key(name: str, slot: str) -> bytes:
    """One contract storage slot (value: the slot's codec encoding).

    The ``(name, slot)`` pair is TLV-encoded so a contract name cannot
    smuggle a separator and collide with another contract's slot.
    """
    return b"storage/" + codec.encode((name, slot))


def block_key(number: int) -> bytes:
    """One sealed block (value: keccak digest of its canonical encoding)."""
    return b"block/" + number.to_bytes(8, "big")


def entry_key(index: int) -> bytes:
    """One ledger journal entry (value: its full canonical encoding) —
    settlement receipts stay provable inline."""
    return b"entry/" + index.to_bytes(8, "big")


def event_key(sequence: int) -> bytes:
    """One retained event-log record (value: digest of its encoding)."""
    return b"event/" + sequence.to_bytes(8, "big")


#: New blocks and event records are digested this many per
#: ``keccak256_many`` call: long enough to share one wide keccak pass
#: among a checkpoint's worth of history, short enough that a cold
#: rebuild over a long chain never holds every block's encoding at once.
#: It also bounds a header-tracking tracker's queue of seals: a seal
#: that would bring the queued history to this many items is applied at
#: once, with the queue, so a read never finds a full batch waiting.
_HISTORY_BATCH = 64


#: Each namespace of a :data:`~repro.store.blockstore.StateDiff` as
#: trie leaves: the key of an entry, and the value its leaf encodes.
_LEAVES = {
    "meta": (meta_key, lambda name, value: value),
    "registry": (registry_key, lambda address, label: label),
    "balances": (account_key, lambda address, n: (address.label, n)),
    "escrow": (escrow_key, lambda address, n: (address.label, n)),
    "gas": (gas_key, lambda address, n: (address.label, n)),
    "contracts": (contract_key, lambda name, kind: kind),
    "storage": (lambda pair: storage_key(*pair), lambda pair, value: value),
    "entries": (entry_key, lambda i, entry: codec.ledger_entry_to_data(entry)),
}


def live_items(
    chain, diff: Optional[StateDiff] = None
) -> Dict[bytes, Optional[bytes]]:
    """The trie leaves a :data:`~repro.store.blockstore.StateDiff` changed.

    Each changed key maps to its new codec encoding, or to ``None`` when
    it is gone.  Without ``diff``, every key of the diffed domain: the
    diff against an empty baseline, which is the cold build.  Blocks and
    event records are append-only history the tracker counts instead.
    """
    if diff is None:
        diff = StateBaseline().diff(chain)
    items: Dict[bytes, Optional[bytes]] = {}
    for namespace, (sets, dels) in diff.items():
        key_of, leaf_of = _LEAVES[namespace]
        for key, value in sets.items():
            items[key_of(key)] = codec.encode(leaf_of(key, value))
        for key in dels:
            items[key_of(key)] = None
    return items


def _history_leaves(
    history: Iterator[Tuple[bytes, Any]]
) -> Iterator[Tuple[bytes, bytes]]:
    """``(key, leaf)`` for each ``(key, data)`` of new history.

    A block's or event record's leaf is the encoded keccak digest of its
    encoding; the digests are computed :data:`_HISTORY_BATCH` at a time,
    one :func:`~repro.crypto.keccak.keccak256_many` call each, so items
    of every length share one wide keccak pass.
    """
    while True:
        batch = list(itertools.islice(history, _HISTORY_BATCH))
        if not batch:
            return
        digests = keccak256_many([codec.encode(data) for _, data in batch])
        for (key, _), digest in zip(batch, digests):
            yield key, codec.encode(digest)


class _Diff(NamedTuple):
    """One captured state diff, waiting to be applied to the trie."""

    #: The state leaves that changed, and the keys that are gone.
    updates: List[Tuple[bytes, bytes]]
    removed: List[bytes]
    #: The new blocks and event records as ``(key, data)``, and how many.
    history: Iterator[Tuple[bytes, Any]]
    count: int
    #: For a sealed block, the ``(height, block)`` its header names;
    #: ``None`` for a read, whose caller mints a header or not.
    seal: Optional[Tuple[int, Any]]


# ---------------------------------------------------------------------------
# The incremental tracker
# ---------------------------------------------------------------------------


class ChainStateTrie:
    """Keeps a :class:`MerkleTrie` reconciled with one live chain.

    A fresh tracker's baseline is empty, so its first sync is the cold
    build; blocks and event records advance by counter.

    With :attr:`track_headers` on, headers are minted on read: each
    sealed block's diff is captured when it is sealed and queued, and
    the next read (:meth:`root`, :meth:`prove`, :meth:`ensure_header`,
    :meth:`anchored_proof`) applies the queue first, hashing the history
    of every queued block in one wide keccak pass, then block by block
    reaching the root and minting the header the block's own sync would
    have.  The header timeline, roots and proofs are the ones a sync per
    block gives; only when the hashing happens moves.

    Not pickled: ``Chain.__getstate__`` drops it and a resumed chain
    rebuilds lazily on the first ``root()`` read — the trie root is a
    pure function of chain state, so the rebuild is byte-identical.

    Thread-safe under the RPC node's shared read lock: every public
    method serializes on an internal lock, so concurrent ``get_proof``
    and ``chain_state_root`` reads cannot torn-write the cache.
    """

    def __init__(self) -> None:
        self.trie = MerkleTrie()
        #: Hash-chained commitment timeline (only grown when a node
        #: front-end enables :attr:`track_headers`).  Read it after
        #: :meth:`ensure_header`: seals still queued have no header yet.
        self.headers: List[Header] = []
        self.track_headers = False
        self._baseline = StateBaseline()
        self._blocks = 0
        self._event_base = 0
        self._event_head = 0
        #: Captured seals not yet applied, and their history items
        #: (always fewer than :data:`_HISTORY_BATCH`).
        self._queue: List[_Diff] = []
        self._queued = 0
        self._lock = threading.RLock()

    # -- syncing -----------------------------------------------------------

    def root(self, chain) -> bytes:
        with self._lock:
            return self._sync(chain)

    def prove(self, chain, key: bytes) -> Dict[str, Any]:
        with self._lock:
            self._sync(chain)
            proof = self.trie.prove(key)
        _TRIE_PROOFS.inc()
        return proof

    def anchored_proof(
        self, chain, key: bytes
    ) -> Tuple[int, Header, Dict[str, Any]]:
        """``(header_index, header, proof)`` from one sync.

        :meth:`ensure_header` syncs and returns the header committing
        to the current root; the proof is cut from that same trie under
        the same lock, so it folds to ``header.state_root`` and the
        chain is synced once, not once per call.
        """
        with self._lock:
            header = self.ensure_header(chain)
            proof = self.trie.prove(key)
            index = len(self.headers) - 1
        _TRIE_PROOFS.inc()
        return index, header, proof

    def _sync(self, chain) -> bytes:
        """Apply the queued seals, then bring the trie up to date with
        ``chain``; returns its root."""
        diffs = self._queue + [self._capture(chain)]
        self._queue, self._queued = [], 0
        return self._apply(diffs)

    def _capture(self, chain, seal: Optional[Tuple[int, Any]] = None) -> _Diff:
        """What changed in ``chain`` since the last capture, as trie
        leaves; the baseline and the history counters move past it.

        The state diff is encoded now, so a later mutation cannot leak
        into it; blocks and event records are append-only, so their
        encodings wait for :meth:`_apply`.
        """
        diff = self._baseline.diff(chain)
        items = live_items(chain, diff)
        self._baseline.advance(diff)
        updates = [
            (key, leaf) for key, leaf in items.items() if leaf is not None
        ]
        removed = [key for key, leaf in items.items() if leaf is None]

        blocks = chain.blocks
        log = chain.event_log
        base, head = log.pruned, len(log)
        removed.extend(
            event_key(sequence)
            for sequence in range(self._event_base, min(base, self._event_head))
        )
        start = max(self._event_head, base)
        records = list(log.iter_since(start)) if start < head else []
        history = itertools.chain(
            (
                (block_key(number), codec.block_to_data(blocks[number]))
                for number in range(self._blocks, len(blocks))
            ),
            (
                (event_key(record.sequence), codec.event_record_to_data(record))
                for record in records
            ),
        )
        count = len(blocks) - self._blocks + len(records)
        self._blocks = len(blocks)
        self._event_base = base
        self._event_head = head
        _TRIE_SYNCS.inc()
        return _Diff(updates, removed, history, count, seal)

    def _apply(self, diffs: List[_Diff]) -> bytes:
        """Apply captured diffs in order; returns the last root.

        The history of every diff is hashed together first, one
        :func:`~repro.crypto.keccak.keccak256_many` call per
        :data:`_HISTORY_BATCH` items.  Then each diff is applied as a
        sync of its own: one :meth:`MerkleTrie.set_many`, so the paths
        of keys new to the trie are hashed in one batch, its deletions,
        its root, and for a seal the header that root gets.  Deletions
        touch keys disjoint from the updates and the trie is canonical,
        so applying them after the updates changes neither the root nor
        which nodes re-hash.
        """
        trie = self.trie
        leaves = _history_leaves(
            itertools.chain.from_iterable(diff.history for diff in diffs)
        )
        for diff in diffs:
            hashed_before = trie.hash_computes
            updates = diff.updates + list(itertools.islice(leaves, diff.count))
            trie.set_many(updates)
            for key in diff.removed:
                trie.delete(key)
            root = trie.root()
            if updates:
                _TRIE_UPDATES.inc(len(updates), op="set")
            if diff.removed:
                _TRIE_UPDATES.inc(len(diff.removed), op="delete")
            hashed = trie.hash_computes - hashed_before
            if hashed:
                _TRIE_HASHES.inc(hashed)
            if diff.seal is not None:
                self._mint(root, *diff.seal)
        return root

    # -- headers -----------------------------------------------------------

    def _mint(self, root: bytes, height: int, block) -> Header:
        """Append a header for ``root`` unless the newest commits to it."""
        headers = self.headers
        if not headers or headers[-1].state_root != root:
            headers.append(Header(
                height,
                headers[-1].header_hash() if headers else HEADER_GENESIS,
                block.block_hash() if block is not None else GENESIS_HASH,
                root,
            ))
        return headers[-1]

    def ensure_header(self, chain) -> Header:
        """The header committing to the chain's *current* root.

        Appends a new link when the root moved since the last header —
        per sealed block (minted when the next read applies the queued
        seal, see :meth:`on_block`), and for out-of-block mutations
        (account registration, event-log pruning) the moment a proof or
        header is requested, so served proofs always verify against a
        served header.
        """
        with self._lock:
            root = self._sync(chain)
            return self._mint(
                root, chain.height, chain.blocks[-1] if chain.blocks else None
            )

    def on_block(self, chain, block) -> None:
        """Per-sealed-block hook (wired through ``Chain._notify_store``).

        A header-tracking tracker captures the block's diff now and
        queues it; the next read hashes and applies it and mints its
        header.  A seal that would bring the queued history to
        :data:`_HISTORY_BATCH` items goes through :meth:`ensure_header`
        instead, so the queue stays under one batch.
        """
        if not self.track_headers:
            return
        with self._lock:
            log = chain.event_log
            fresh = len(chain.blocks) - self._blocks + max(
                0, len(log) - max(self._event_head, log.pruned)
            )
            if self._queued + fresh < _HISTORY_BATCH:
                diff = self._capture(chain, (chain.height, block))
                self._queue.append(diff)
                self._queued += diff.count
                return
        self.ensure_header(chain)


def chain_state_trie(chain) -> ChainStateTrie:
    """The chain's attached tracker, created lazily on first use."""
    tracker = getattr(chain, "_state_trie", None)
    if tracker is None:
        tracker = ChainStateTrie()
        chain._state_trie = tracker
    return tracker
