"""The node state directory: snapshots + WAL + checkpoints, managed.

A :class:`NodeStore` owns one on-disk state directory::

    state-dir/
      MANIFEST.json            # schema, latest snapshot, state_root hex
      wal.log                  # per-block effect records since the snapshot
      snapshots/snapshot-00000042.bin
      checkpoints/checkpoint-00000010.pkl   # sim continuations (optional)

Three usage modes, layered:

* **Journal** — ``chain.attach_store(store)`` makes every sealed block
  durable: the chain calls :meth:`on_block` after each mined or
  deployment block and the store appends one WAL record.  A crash loses
  at most the un-sealed tail of the current block.
* **Snapshot** — :meth:`save` writes the full canonical state (through
  :mod:`repro.store.codec`), records its ``state_root`` in the
  manifest, and resets the WAL; :meth:`load` is the reverse — snapshot
  plus WAL replay, with integrity checks at both layers.  This is the
  ``node init`` / ``node status`` / ``serve --state-dir`` story: a
  marketplace instance that lives across CLI invocations.
* **Checkpoint** — :meth:`checkpoint` additionally pickles a live
  *continuation* (the client-side object graph of a running
  simulation: sessions, population, arrival process, collector) next
  to the snapshot, and :meth:`load_checkpoint` verifies the pickled
  chain against the manifest ``state_root`` before handing it back.
  The canonical layer carries node state; the pickle carries client
  state — the split mirrors a real deployment, where a node can always
  recover from disk but clients keep their own secrets and cursors.

The checkpoint/resume contract (pinned by ``tests/test_persistence.py``)
is byte-for-byte: resuming a seeded scenario mid-stream yields the same
``SimulationReport`` — gas included — and the same final ``state_root``
as the uninterrupted run.
"""

from __future__ import annotations

import json
import os
import pickle
from typing import Any, Dict, List, Optional, Tuple

from repro.chain.blocks import Block
from repro.chain.chain import Chain
from repro.chain.transactions import set_nonce_position
from repro.store import codec
from repro.store.blockstore import (
    BlockStore,
    StateBaseline,
    StoreError,
    apply_record,
    atomic_write,
    block_record,
    load_snapshot,
    prune_record,
    runtime_state,
    save_snapshot,
)

MANIFEST_NAME = "MANIFEST.json"
WAL_NAME = "wal.log"
SNAPSHOT_DIR = "snapshots"
CHECKPOINT_DIR = "checkpoints"


class NodeStore:
    """Durable state for one node, rooted at ``state_dir``."""

    def __init__(self, state_dir: str) -> None:
        self.state_dir = state_dir
        self.wal = BlockStore(os.path.join(state_dir, WAL_NAME))
        self._baseline: Optional[StateBaseline] = None
        #: Optional weak reference to a zero-arg callable returning
        #: facade-level durable state to ride along with every WAL
        #: record and snapshot (a :class:`weakref.WeakMethod`, wired by
        #: :meth:`repro.dragoon.Dragoon.attach_store`).  Weak because
        #: the chain holds this store: a strong edge back to the facade
        #: would keep a finished run alive until a full collection.
        self.extra_provider = None

    def _extra(self) -> Optional[Dict[str, Any]]:
        if self.extra_provider is None:
            return None
        provider = self.extra_provider()
        if provider is None:
            raise StoreError(
                "the facade journalled to %s is gone" % self.state_dir
            )
        return provider()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def exists(cls, state_dir: str) -> bool:
        return os.path.exists(os.path.join(state_dir, MANIFEST_NAME))

    @classmethod
    def init(
        cls,
        state_dir: str,
        chain: Optional[Chain] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> "NodeStore":
        """Create a fresh state directory around ``chain`` (or genesis)."""
        if cls.exists(state_dir):
            raise StoreError("state directory already initialized: %s" % state_dir)
        os.makedirs(os.path.join(state_dir, SNAPSHOT_DIR), exist_ok=True)
        os.makedirs(os.path.join(state_dir, CHECKPOINT_DIR), exist_ok=True)
        store = cls(state_dir)
        store.save(chain if chain is not None else Chain(), extra=extra)
        return store

    @classmethod
    def open(cls, state_dir: str) -> "NodeStore":
        """Open an existing state directory (raises if uninitialized)."""
        if not cls.exists(state_dir):
            raise StoreError(
                "no node state at %s (run `node init` first)" % state_dir
            )
        return cls(state_dir)

    def _manifest_path(self) -> str:
        return os.path.join(self.state_dir, MANIFEST_NAME)

    def manifest(self) -> Dict[str, Any]:
        with open(self._manifest_path(), "r", encoding="utf-8") as handle:
            return json.load(handle)

    def _write_manifest(self, manifest: Dict[str, Any]) -> None:
        atomic_write(
            self._manifest_path(),
            (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode(
                "utf-8"
            ),
        )

    # ------------------------------------------------------------------
    # Journalling (Chain.attach_store hooks)
    # ------------------------------------------------------------------

    def on_attach(self, chain: Chain) -> None:
        """Baseline the state so the next sealed block diffs cleanly."""
        self._baseline = StateBaseline(chain)

    def on_block(self, chain: Chain, block: Block) -> None:
        """Journal one sealed block's effects (called by the chain)."""
        if self._baseline is None:
            self._baseline = StateBaseline(chain)
            raise StoreError(
                "store received a block without a baseline — call "
                "chain.attach_store(store) before mining"
            )
        self.wal.append(
            block_record(chain, block, self._baseline, extra=self._extra())
        )

    def note_prune(self, chain: Chain) -> None:
        """Journal an event-log compaction the moment it happens, so the
        on-disk log is compacted even if the node crashes before the
        next block."""
        self.wal.append(prune_record(chain))

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def _snapshot_path(self, height: int) -> str:
        return os.path.join(
            self.state_dir, SNAPSHOT_DIR, "snapshot-%08d.bin" % height
        )

    def save(self, chain: Chain, extra: Optional[Dict[str, Any]] = None) -> bytes:
        """Snapshot the full state, reset the WAL; returns the root.

        ``extra`` defaults to the attached :attr:`extra_provider`'s
        current value, so facade state never silently goes stale."""
        if extra is None:
            extra = self._extra()
        os.makedirs(os.path.join(self.state_dir, SNAPSHOT_DIR), exist_ok=True)
        path = self._snapshot_path(chain.height)
        root = save_snapshot(path, chain, extra=extra)
        manifest = {
            "schema": codec.SCHEMA_VERSION,
            "height": chain.height,
            "state_root": root.hex(),
            "snapshot": os.path.join(SNAPSHOT_DIR, os.path.basename(path)),
            "wal": WAL_NAME,
            "checkpoints": self.manifest().get("checkpoints", [])
            if self.exists(self.state_dir)
            else [],
        }
        self._write_manifest(manifest)
        self.wal.reset()
        self._collect_snapshots(manifest)
        if self._baseline is not None:
            self._baseline.capture(chain)
        return root

    def _collect_snapshots(self, manifest: Dict[str, Any]) -> None:
        """Unlink superseded snapshot files.

        Every save writes a full-state snapshot; without collection a
        long checkpointed run accumulates O(blocks/N) snapshots of
        O(blocks) size each.  Only the manifest's current snapshot and
        those at checkpoint heights are live (resume re-aligns through
        them); everything else is dead weight."""
        keep = {os.path.basename(manifest["snapshot"])}
        for entry in manifest.get("checkpoints", []):
            keep.add(os.path.basename(self._snapshot_path(entry["height"])))
        snapshot_dir = os.path.join(self.state_dir, SNAPSHOT_DIR)
        for name in os.listdir(snapshot_dir):
            if name.startswith("snapshot-") and name not in keep:
                os.unlink(os.path.join(snapshot_dir, name))

    def load(self, apply_runtime: bool = False) -> Tuple[Chain, Dict[str, Any]]:
        """Snapshot + WAL replay → a live chain and its runtime meta.

        ``meta["runtime"]`` is the last journalled position of the
        process-global counters (transaction nonces, deterministic
        entropy); with ``apply_runtime=True`` the nonce counter is
        fast-forwarded immediately (entropy is only restored inside a
        ``deterministic_entropy`` scope — the caller owns that choice).
        """
        manifest = self.manifest()
        if manifest["schema"] != codec.SCHEMA_VERSION:
            raise StoreError(
                "manifest schema %r (this build reads %d)"
                % (manifest["schema"], codec.SCHEMA_VERSION)
            )
        chain, meta = load_snapshot(
            os.path.join(self.state_dir, manifest["snapshot"])
        )
        if meta["state_root"].hex() != manifest["state_root"]:
            raise StoreError(
                "manifest and snapshot disagree on state_root — "
                "the state directory is inconsistent"
            )
        runtime = meta["runtime"]
        extra = meta["extra"]
        replayed = 0
        for record in self.wal.records():
            if (
                record.get("kind") == "block"
                and record["block"]["number"] < chain.height
            ):
                # Stale: journalled before a snapshot that already
                # contains this block's effects.  save() publishes the
                # manifest *before* resetting the WAL, so a crash in
                # that window legitimately leaves these behind; the
                # snapshot's runtime/extra are newer than theirs.
                continue
            record_runtime = apply_record(chain, record)
            if record_runtime is not None:
                runtime = record_runtime
                extra = record.get("extra", extra)
            replayed += 1
        meta["runtime"] = runtime
        meta["extra"] = extra
        meta["replayed"] = replayed
        meta["height"] = chain.height
        meta["state_root"] = codec.state_root(chain)
        if apply_runtime:
            set_nonce_position(runtime["nonce_position"])
        return chain, meta

    def status(self) -> Dict[str, Any]:
        """What `node status` prints: manifest plus replay-derived facts."""
        manifest = self.manifest()
        chain, meta = self.load()
        return {
            "state_dir": self.state_dir,
            "snapshot_height": manifest["height"],
            "height": chain.height,
            "wal_records": meta["replayed"],
            "state_root": meta["state_root"].hex(),
            "accounts": len(chain.registry),
            "contracts": len(chain._contracts),
            "events": len(chain.event_log),
            "events_pruned": chain.event_log.pruned,
            "total_gas": chain.total_gas,
            "checkpoints": [
                entry["step"] for entry in manifest.get("checkpoints", [])
            ],
        }

    # ------------------------------------------------------------------
    # Simulation checkpoints (continuation blobs)
    # ------------------------------------------------------------------

    def _checkpoint_path(self, step: int) -> str:
        return os.path.join(
            self.state_dir, CHECKPOINT_DIR, "checkpoint-%08d.pkl" % step
        )

    def checkpoint(self, chain: Chain, step: int, payload: Dict[str, Any]) -> bytes:
        """Persist a resumable continuation at engine step ``step``.

        Writes the canonical snapshot first (node-level durability),
        then the pickled continuation, then records both in the
        manifest — so a torn checkpoint is detectable and an older
        intact one stays usable.
        """
        root = self.save(chain)
        os.makedirs(os.path.join(self.state_dir, CHECKPOINT_DIR), exist_ok=True)
        path = self._checkpoint_path(step)
        atomic_write(
            path,
            pickle.dumps(
                {"step": step, "runtime": runtime_state(), "payload": payload},
                protocol=pickle.HIGHEST_PROTOCOL,
            ),
        )
        manifest = self.manifest()
        checkpoints: List[Dict[str, Any]] = [
            entry
            for entry in manifest.get("checkpoints", [])
            if entry["step"] != step
        ]
        checkpoints.append(
            {
                "step": step,
                "file": os.path.join(CHECKPOINT_DIR, os.path.basename(path)),
                "state_root": root.hex(),
                "height": chain.height,
            }
        )
        manifest["checkpoints"] = sorted(checkpoints, key=lambda e: e["step"])
        self._write_manifest(manifest)
        return root

    def load_checkpoint(
        self, step: Optional[int] = None
    ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """The continuation at ``step`` (default: latest), verified.

        Returns ``(envelope, entry)`` where the envelope carries
        ``step``/``runtime``/``payload`` and the entry is the manifest
        record.  The pickled chain must hash to the recorded
        ``state_root`` — a continuation that disagrees with the
        canonical layer is refused.
        """
        manifest = self.manifest()
        checkpoints = manifest.get("checkpoints", [])
        if not checkpoints:
            raise StoreError("no checkpoints in %s" % self.state_dir)
        if step is None:
            entry = checkpoints[-1]
        else:
            matches = [e for e in checkpoints if e["step"] == step]
            if not matches:
                raise StoreError(
                    "no checkpoint at step %d (have: %s)"
                    % (step, ", ".join(str(e["step"]) for e in checkpoints))
                )
            entry = matches[0]
        with open(os.path.join(self.state_dir, entry["file"]), "rb") as handle:
            envelope = pickle.load(handle)
        chain = envelope["payload"]["chain"]
        root = codec.state_root(chain)
        if root.hex() != entry["state_root"]:
            raise StoreError(
                "checkpoint at step %d fails its state_root check"
                % envelope["step"]
            )
        return envelope, entry
