"""Persistent node state: WAL replay, snapshots, checkpoint/resume.

The acceptance contract of the persistence subsystem (PR 4):

* **Round-trip property** — for preset scenarios, ``save → load →
  continue`` produces a :class:`SimulationReport` byte-for-byte
  identical to the uninterrupted seeded run, *including gas and the
  final* ``state_root``.
* **Crash recovery** — snapshot + WAL replay reaches the same
  ``state_root`` the lost process had, and a torn WAL tail is ignored
  cleanly.
* **Compaction carries to disk** — ``EventLog.prune()`` is journalled;
  pruned records are absent from what disk holds, while global
  sequence numbers and live cursor subscriptions survive a save/load
  round trip.
* **Entropy continuity** — the deterministic stream resumes at its
  saved (counter, offset) position instead of restarting.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import weakref

import pytest

from repro.chain.chain import Chain
from repro.chain.eventlog import EventFilter
from repro.chain.transactions import (
    nonce_position,
    scoped_tx_nonces,
)
from repro.core.task import HITTask, TaskParameters
from repro.crypto.keccak import keccak256
from repro.crypto.rng import DeterministicStream, deterministic_entropy, entropy
from repro.dragoon import Dragoon
from repro.sim import preset, resume_scenario, run_scenario
from repro.sim.runner import InterruptedRun
from repro.store import (
    NodeStore,
    StoreError,
    codec,
    load_snapshot,
    save_snapshot,
    state_root,
)
from repro.store.blockstore import BlockStore, runtime_state
from tests.helpers import seeded_outcome


def tiny_task() -> HITTask:
    parameters = TaskParameters(10, 100, 2, (0, 1), 2, 3)
    return HITTask(
        parameters,
        ["q%d" % i for i in range(10)],
        [0, 1, 2],
        [0, 0, 0],
        [0] * 10,
    )


def run_one_task(dragoon: Dragoon) -> None:
    dragoon.fund("alice", 500)
    dragoon.run_task("alice", tiny_task(), [[0] * 10, [1] * 10])


# ---------------------------------------------------------------------------
# Entropy stream save/restore
# ---------------------------------------------------------------------------


def test_deterministic_stream_resumes_mid_byte():
    straight = DeterministicStream(9)
    reference = straight.take(100)

    prefix_stream = DeterministicStream(9)
    prefix = prefix_stream.take(37)
    resumed = DeterministicStream.from_state(prefix_stream.state())
    assert prefix + resumed.take(63) == reference


def test_entropy_source_state_round_trip():
    with deterministic_entropy(4):
        entropy.getrandbits(129)
        entropy.randbelow(10**30)
        saved = entropy.save_state()
        straight = [entropy.randbelow(1000) for _ in range(20)]
    with deterministic_entropy(4, state=saved):
        resumed = [entropy.randbelow(1000) for _ in range(20)]
    assert resumed == straight


def test_os_entropy_has_no_stream_state():
    assert entropy.save_state() is None
    assert not entropy.deterministic


def test_deterministic_entropy_nests_and_restores():
    with deterministic_entropy(1):
        outer = entropy.save_state()
        with deterministic_entropy(2):
            assert entropy.save_state() != outer
        assert entropy.save_state() == outer
    assert entropy.save_state() is None


def test_scoped_nonces_restore_the_global_counter():
    before = nonce_position()
    with scoped_tx_nonces():
        assert nonce_position() == 0
        Chain()  # no transactions; position stays
        with scoped_tx_nonces(100):
            assert nonce_position() == 100
        assert nonce_position() == 0
    assert nonce_position() == before


# ---------------------------------------------------------------------------
# WAL + snapshot crash recovery
# ---------------------------------------------------------------------------


def test_wal_replay_reaches_the_live_state_root(tmp_path):
    store = NodeStore.init(str(tmp_path / "node"))
    with scoped_tx_nonces(), deterministic_entropy(3):
        dragoon = Dragoon()
        dragoon.chain.attach_store(store)
        run_one_task(dragoon)
        live_root = state_root(dragoon.chain)
        restored, meta = store.load()
    assert meta["replayed"] == dragoon.chain.height
    assert state_root(restored) == live_root
    assert restored.height == dragoon.chain.height


def test_wal_journals_values_that_only_compare_equal(tmp_path):
    """``1 == True`` and two dicts with the same items in another order
    compare equal as objects but encode differently; the WAL journals
    both, so a replayed node reaches the live root (I-4)."""
    from repro.chain.contract import Contract

    chain = Chain()
    deployer = chain.register_account("deployer", 10)
    store = NodeStore.init(str(tmp_path / "node"), chain)
    chain.attach_store(store)
    box = Contract("box")
    chain.deploy(box, deployer)
    for flag, table in ((1, {"a": 1, "b": 2}), (True, {"b": 2, "a": 1})):
        box.storage["flag"] = flag
        box.storage["table"] = table
        chain.mine_block()
        replayed, meta = NodeStore.open(store.state_dir).load()
        assert replayed.contract("box").storage["flag"] is flag
        assert list(replayed.contract("box").storage["table"]) == list(table)
        assert meta["state_root"] == state_root(chain)


def test_snapshot_plus_wal_recovery(tmp_path):
    store = NodeStore.init(str(tmp_path / "node"))
    with scoped_tx_nonces(), deterministic_entropy(3):
        dragoon = Dragoon()
        dragoon.chain.attach_store(store)
        run_one_task(dragoon)
        store.save(dragoon.chain)  # snapshot; WAL resets
        dragoon.run_task("alice", tiny_task(), [[0] * 10, [0] * 10])
        live_root = state_root(dragoon.chain)
        restored, meta = store.load()
    assert 0 < meta["replayed"] < restored.height  # replayed the tail only
    assert state_root(restored) == live_root


def test_torn_wal_tail_is_ignored(tmp_path):
    store = NodeStore.init(str(tmp_path / "node"))
    with scoped_tx_nonces(), deterministic_entropy(3):
        dragoon = Dragoon()
        dragoon.chain.attach_store(store)
        run_one_task(dragoon)
    wal_path = os.path.join(store.state_dir, "wal.log")
    intact = len(list(store.wal.records()))
    with open(wal_path, "ab") as handle:
        handle.write(b"\x00\x00\x01\x00garbage-of-a-torn-append")
    store.wal.close()
    assert len(list(BlockStore(wal_path).records())) == intact
    restored, meta = store.load()
    assert meta["replayed"] == intact


def test_append_after_a_torn_tail_truncates_the_tear(tmp_path):
    """A new process appending to a WAL that ends in a torn record must
    cut the tear first — otherwise every record it journals afterwards
    sits behind the bad frame and is unreachable at recovery."""
    path = str(tmp_path / "wal.log")
    wal = BlockStore(path)
    wal.append({"n": 1})
    wal.append({"n": 2})
    wal.close()
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) - 3)  # tear record 2

    second = BlockStore(path)  # the restarted process
    second.append({"n": 3})
    second.close()
    assert [r["n"] for r in BlockStore(path).records()] == [1, 3]


def test_snapshots_are_garbage_collected(tmp_path):
    """save() keeps only the live snapshot files (manifest + checkpoint
    heights); a long checkpointed run must not accumulate O(n) full
    snapshots."""
    store = NodeStore.init(str(tmp_path / "node"))
    with scoped_tx_nonces(), deterministic_entropy(3):
        dragoon = Dragoon()
        dragoon.attach_store(store)
        for _ in range(3):
            run_one_task(dragoon)
            store.save(dragoon.chain)
    snapshot_dir = os.path.join(store.state_dir, "snapshots")
    remaining = sorted(os.listdir(snapshot_dir))
    assert remaining == [os.path.basename(store.manifest()["snapshot"])]


def test_corrupted_snapshot_is_refused(tmp_path):
    store = NodeStore.init(str(tmp_path / "node"))
    manifest = store.manifest()
    path = os.path.join(store.state_dir, manifest["snapshot"])
    blob = bytearray(open(path, "rb").read())
    blob[-3] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(blob))
    with pytest.raises(StoreError):
        store.load()


def test_mint_and_ensure_funds_top_up_persistent_accounts():
    dragoon = Dragoon()
    address = dragoon.fund("alice", 30)
    dragoon.ensure_funds("alice", 100)
    assert dragoon.chain.ledger.balance_of(address) == 100
    dragoon.ensure_funds("alice", 50)  # already covered: no-op
    assert dragoon.chain.ledger.balance_of(address) == 100
    supply = dragoon.chain.ledger.total_supply()
    assert supply == 100  # the top-up minted exactly the difference


def test_node_state_round_trip_keeps_requester_keys(tmp_path):
    """The serve --state-dir story: keys and task serial survive."""
    state_dir = str(tmp_path / "node")
    with scoped_tx_nonces(), deterministic_entropy(5):
        store = NodeStore.init(state_dir)
        dragoon = Dragoon()
        dragoon.chain.attach_store(store)
        run_one_task(dragoon)
        key_bytes = dragoon.requester_public_key_bytes("alice")
        store.save(dragoon.chain, extra=dragoon.node_state())

        chain, meta = store.load(apply_runtime=True)
        revived = Dragoon(chain=chain)
        revived.restore_node_state(meta["extra"])
        assert revived.requester_public_key_bytes("alice") == key_bytes
        revived.chain.attach_store(store)
        revived.ensure_funds("alice", 100)
        outcome = revived.run_task(
            "alice", tiny_task(), [[0] * 10, [0] * 10]
        )
        # The new task's contract name continued the serial — no clash.
        assert outcome.contract.name == "hit:alice:1"
        assert state_root(store.load()[0]) == state_root(revived.chain)


# ---------------------------------------------------------------------------
# Snapshot envelopes: DRGSNAP2 (sha256) written, DRGSNAP1 (keccak) read
# ---------------------------------------------------------------------------


def write_keccak_snapshot(path: str, chain: Chain, extra=None) -> bytes:
    """Write ``chain`` the way builds before the sha256 envelope did:
    magic ``DRGSNAP1`` and a keccak-256 ``encoding_hash``."""
    encoded_state = codec.encode(codec.chain_state_to_data(chain))
    root = state_root(chain)
    blob = b"DRGSNAP1" + codec.encode(
        {
            "schema": codec.SCHEMA_VERSION,
            "state_root": root,
            "encoding_hash": keccak256(encoded_state),
            "height": chain.height,
            "runtime": runtime_state(),
            "extra": extra or {},
            "state": encoded_state,
        }
    )
    with open(path, "wb") as handle:
        handle.write(blob)
    return root


def _magic(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read(8)


def test_keccak_snapshots_still_load_and_new_ones_are_sha256(tmp_path):
    chain = seeded_outcome().chain
    legacy, current = tmp_path / "legacy.bin", tmp_path / "current.bin"
    root = write_keccak_snapshot(str(legacy), chain)
    restored, meta = load_snapshot(str(legacy))
    assert meta["state_root"] == root
    assert state_root(restored) == root

    assert save_snapshot(str(current), chain) == root
    old_blob, new_blob = legacy.read_bytes(), current.read_bytes()
    assert new_blob.startswith(b"DRGSNAP2")
    # Same envelope, same length: only the magic and the digest differ.
    assert len(new_blob) == len(old_blob)
    old_envelope = codec.decode(old_blob[8:])
    new_envelope = codec.decode(new_blob[8:])
    assert new_envelope["encoding_hash"] == hashlib.sha256(
        new_envelope["state"]
    ).digest()
    assert {**new_envelope, "encoding_hash": None} == {
        **old_envelope, "encoding_hash": None
    }

    legacy.write_bytes(old_blob[:-1] + bytes([old_blob[-1] ^ 0xFF]))
    with pytest.raises(StoreError, match="encoding_hash"):
        load_snapshot(str(legacy))

    current.write_bytes(b"DRGSNAP9" + new_blob[8:])
    with pytest.raises(StoreError, match="not a Dragoon snapshot"):
        load_snapshot(str(current))


def test_a_store_on_a_keccak_snapshot_replays_and_moves_to_sha256(tmp_path):
    """A state dir whose current snapshot an older build wrote still
    loads, WAL tail included; its next save writes the new envelope."""
    store = NodeStore.init(str(tmp_path / "node"))
    with scoped_tx_nonces(), deterministic_entropy(3):
        dragoon = Dragoon()
        dragoon.attach_store(store)
        run_one_task(dragoon)
        store.save(dragoon.chain)
        snapshot = os.path.join(store.state_dir, store.manifest()["snapshot"])
        write_keccak_snapshot(
            snapshot, dragoon.chain, extra=dragoon.node_state()
        )
        dragoon.run_task("alice", tiny_task(), [[0] * 10, [0] * 10])
        live_root = state_root(dragoon.chain)
        restored, meta = store.load()
        assert _magic(snapshot) == b"DRGSNAP1"
        assert meta["replayed"] > 0
        assert state_root(restored) == live_root
        assert meta["extra"] == dragoon.node_state()
        store.save(dragoon.chain)
    snapshot = os.path.join(store.state_dir, store.manifest()["snapshot"])
    assert _magic(snapshot) == b"DRGSNAP2"
    assert state_root(store.load()[0]) == live_root


def test_a_finished_durable_run_is_freed_by_reference_counting(tmp_path):
    """The store holds the facade weakly, so nothing of a journalled,
    checkpointed run is left in a reference cycle: dropping the run
    frees its chain with the cycle collector off."""
    scenario = preset("poisson", seed=2, tasks=3)
    gc.collect()
    gc.disable()
    try:
        run = run_scenario(
            scenario,
            keep_objects=True,
            store=NodeStore.init(str(tmp_path / "node")),
            checkpoint_every=2,
        )
        live = weakref.ref(run.dragoon.chain)
        del run
        assert live() is None
    finally:
        gc.enable()


def test_journalling_after_the_facade_is_gone_is_refused(tmp_path):
    store = NodeStore.init(str(tmp_path / "node"))
    dragoon = Dragoon()
    dragoon.attach_store(store)
    chain = dragoon.chain
    del dragoon
    gc.collect()
    with pytest.raises(StoreError, match="facade"):
        store.save(chain)


# ---------------------------------------------------------------------------
# Event-log compaction across save/load (satellite: prune round trip)
# ---------------------------------------------------------------------------


def _settled_store(tmp_path):
    store = NodeStore.init(str(tmp_path / "node"))
    with scoped_tx_nonces(), deterministic_entropy(3):
        dragoon = Dragoon()
        dragoon.chain.attach_store(store)
        run_one_task(dragoon)
    return store, dragoon


def test_prune_compaction_carries_to_disk(tmp_path):
    store, dragoon = _settled_store(tmp_path)
    chain = dragoon.chain
    total = len(chain.event_log)
    assert total > 4
    cursor = chain.subscribe(from_start=True)
    cursor.poll()  # consume everything: prune may drop all
    dragoon.engine._subscription.poll()  # the engine's cursor pins too
    dropped = chain.event_log.prune(through=4)
    assert dropped == 4
    store.note_prune(chain)
    live_root = state_root(chain)

    restored, meta = store.load()
    assert restored.event_log.pruned == 4
    assert len(restored.event_log) == total  # global sequences preserved
    assert [r.sequence for r in restored.event_log] == list(range(4, total))
    assert state_root(restored) == live_root
    assert store.save(restored) == live_root


def test_pruned_records_absent_from_snapshot_bytes(tmp_path):
    """After a prune, the snapshot's event-log section holds only the
    retained records (compaction really reaches disk), while the base
    offset keeps global sequence numbers intact."""
    from repro.store import codec
    from repro.store.blockstore import SNAPSHOT_MAGIC

    store, dragoon = _settled_store(tmp_path)
    chain = dragoon.chain
    total = len(chain.event_log)

    def snapshot_log():
        blob = open(
            os.path.join(store.state_dir, store.manifest()["snapshot"]), "rb"
        ).read()
        envelope = codec.decode(blob[len(SNAPSHOT_MAGIC):])
        return codec.decode(envelope["state"])["event_log"]

    store.save(chain)
    assert len(snapshot_log()["records"]) == total

    chain.subscribe(from_start=True).poll()
    dragoon.engine._subscription.poll()
    dropped = chain.event_log.prune()
    assert dropped == total
    store.note_prune(chain)
    store.save(chain)
    compacted = snapshot_log()
    assert compacted["records"] == []  # pruned records are gone from disk
    assert compacted["base"] == total  # ...but sequences keep counting
    restored, _ = store.load()
    assert len(restored.event_log) == total
    assert restored.event_log.pruned == total


def test_live_cursors_survive_a_checkpoint_round_trip(tmp_path):
    """Subscriptions (cursors into the log) pickle with their log and
    keep absolute positions across prune + save/load."""
    store, dragoon = _settled_store(tmp_path)
    chain = dragoon.chain
    early = chain.subscribe(from_start=True)
    seen = [record.sequence for record in early.poll()][:3]
    filtered = chain.subscribe(EventFilter(names=["finalized"]), from_start=True)

    blob = pickle.dumps({"chain": chain, "early": early, "filtered": filtered})
    revived = pickle.loads(blob)
    assert revived["early"].cursor == early.cursor
    names = [r.event.name for r in revived["filtered"].poll()]
    assert names == ["finalized"]
    assert seen == [0, 1, 2]
    # The revived log still prunes safely around its live cursors: the
    # weak registry was rebuilt, so the consumed records can go while
    # poll semantics stay intact.
    dropped = revived["chain"].event_log.prune()
    assert dropped > 0
    assert revived["early"].poll() == []


# ---------------------------------------------------------------------------
# The round-trip property: interrupted + resumed == uninterrupted
# ---------------------------------------------------------------------------


def _round_trip(tmp_path, name: str, seed: int = 5, tasks: int = 6):
    scenario = preset(name, seed=seed, tasks=tasks)
    baseline = run_scenario(scenario, keep_objects=True)
    baseline_root = state_root(baseline.dragoon.chain)
    half = max(1, baseline.report.blocks // 2)

    store = NodeStore.init(str(tmp_path / ("rt-" + name)))
    marker = run_scenario(
        scenario, store=store, checkpoint_every=3, interrupt_after=half
    )
    assert isinstance(marker, InterruptedRun)
    assert marker.step == half

    resumed = resume_scenario(store.state_dir, keep_objects=True)
    assert resumed.report.to_json() == baseline.report.to_json()
    assert state_root(resumed.dragoon.chain) == baseline_root
    # Crash recovery from the same directory reaches the same root.
    recovered, _meta = store.load()
    assert state_root(recovered) == baseline_root
    return store


def test_resume_round_trip_poisson(tmp_path):
    _round_trip(tmp_path, "poisson")


def test_resume_round_trip_adversarial(tmp_path):
    """Stragglers and dropouts (deferred steps, cancel timers) survive
    the continuation pickle."""
    _round_trip(tmp_path, "adversarial")


def test_resume_round_trip_closed_loop(tmp_path):
    """The feedback regime: pending republish arrivals travel by value."""
    _round_trip(tmp_path, "closed-loop")


@pytest.mark.slow
@pytest.mark.parametrize("name", ["burst", "diurnal"])
def test_resume_round_trip_remaining_presets(tmp_path, name):
    _round_trip(tmp_path, name)


def test_checkpoint_never_lands_on_the_final_step(tmp_path):
    """checkpoint_every=1 forces a checkpoint candidate at every step,
    including the run's last one; the loop must skip that final write
    (the run is already quiescent) or resuming it would mine an extra
    empty block and break byte-for-byte."""
    scenario = preset("poisson", seed=7, tasks=4)
    baseline = run_scenario(scenario)
    store = NodeStore.init(str(tmp_path / "dense"))
    run_scenario(scenario, store=store, checkpoint_every=1)
    last = store.manifest()["checkpoints"][-1]["step"]
    assert last < baseline.blocks  # no checkpoint at the quiescent step
    resumed = resume_scenario(store.state_dir)
    assert resumed.to_json() == baseline.to_json()


def test_resume_from_an_early_checkpoint(tmp_path):
    """Resuming an *older* checkpoint (not the interrupt point) still
    converges to the identical report: every checkpoint is a complete
    continuation, not a delta against a later one."""
    scenario = preset("poisson", seed=11, tasks=5)
    baseline = run_scenario(scenario)
    store = NodeStore.init(str(tmp_path / "early"))
    run_scenario(scenario, store=store, checkpoint_every=4, interrupt_after=8)
    report = resume_scenario(store.state_dir, step=4)
    assert report.to_json() == baseline.to_json()


def test_checkpointing_does_not_disturb_the_run(tmp_path):
    """Observing (journalling + checkpointing) a run must not change
    it: the checkpointed run's report equals the plain run's."""
    scenario = preset("poisson", seed=2, tasks=5)
    plain = run_scenario(scenario)
    store = NodeStore.init(str(tmp_path / "observed"))
    observed = run_scenario(scenario, store=store, checkpoint_every=2)
    assert observed.to_json() == plain.to_json()


def test_checkpointed_runs_write_identical_bytes(tmp_path):
    """Two runs of one checkpointed scenario leave byte-identical state
    dirs, checkpoints included: live subscriptions pickle in creation
    order, not address order, and sessions pickle no clock reading."""
    scenario = preset("poisson", seed=7, tasks=5)
    dirs = [tmp_path / "first", tmp_path / "second"]
    for state_dir in dirs:
        store = NodeStore.init(str(state_dir))
        run_scenario(scenario, store=store, checkpoint_every=6)
        store.wal.close()
    files = sorted(
        path.relative_to(dirs[0])
        for path in dirs[0].rglob("*")
        if path.is_file()
    )
    assert any(path.parts[0] == "checkpoints" for path in files)
    for path in files:
        assert (dirs[0] / path).read_bytes() == (dirs[1] / path).read_bytes(), path


def test_checkpoint_requires_a_store():
    from repro.errors import ProtocolError

    with pytest.raises(ProtocolError):
        run_scenario(preset("poisson", tasks=2), checkpoint_every=4)


def test_facade_state_recovers_from_the_wal_after_a_crash(tmp_path):
    """Requester keys and the task serial ride the WAL: a node that
    dies *before* any explicit save still recovers them (crash loses
    at most the un-sealed tail, facade included)."""
    store = NodeStore.init(str(tmp_path / "node"))
    with scoped_tx_nonces(), deterministic_entropy(5):
        dragoon = Dragoon()
        dragoon.attach_store(store)
        run_one_task(dragoon)
        key_bytes = dragoon.requester_public_key_bytes("alice")
        # the process dies here: no store.save()

        chain, meta = store.load(apply_runtime=True)
        revived = Dragoon(chain=chain)
        revived.restore_node_state(meta["extra"])
        assert "alice" in revived._requester_keys
        assert revived.requester_public_key_bytes("alice") == key_bytes
        revived.attach_store(store)
        revived.ensure_funds("alice", 100)
        outcome = revived.run_task("alice", tiny_task(), [[0] * 10, [0] * 10])
        assert outcome.contract.name == "hit:alice:1"  # serial continued


def test_simulate_state_dir_supports_later_node_use(tmp_path):
    """A state dir written by run_scenario carries the facade state,
    so a later serve-style continuation does not collide on task names."""
    store = NodeStore.init(str(tmp_path / "sim"))
    scenario = preset("poisson", seed=2, tasks=3)
    run_scenario(scenario, store=store)
    with scoped_tx_nonces():
        chain, meta = store.load(apply_runtime=True)
        dragoon = Dragoon(chain=chain)
        dragoon.restore_node_state(meta["extra"])
        assert dragoon._task_serial == 3
        assert "req-0" in dragoon._requester_keys
        dragoon.attach_store(store)
        dragoon.ensure_funds("req-0", 100)
        with deterministic_entropy(9):
            outcome = dragoon.run_task(
                "req-0", tiny_task(), [[0] * 10, [1] * 10]
            )
        assert outcome.contract.name == "hit:req-0:3"


def test_crash_mid_resume_leaves_the_directory_loadable(tmp_path, monkeypatch):
    """resume_scenario re-aligns the snapshot/WAL to the checkpoint it
    resumes from, so dying in the resumed tail — before any new
    checkpoint — leaves a directory that still loads and still resumes."""
    from repro.store.nodestore import NodeStore as StoreClass

    scenario = preset("poisson", seed=7, tasks=4)
    reference = run_scenario(scenario)
    store = NodeStore.init(str(tmp_path / "crash"))
    run_scenario(scenario, store=store, checkpoint_every=5)  # completes

    original = StoreClass.on_block
    sealed = {"count": 0}

    def dying_on_block(self, chain, block):
        original(self, chain, block)
        sealed["count"] += 1
        if sealed["count"] >= 2:
            raise KeyboardInterrupt  # the kill, mid-tail

    monkeypatch.setattr(StoreClass, "on_block", dying_on_block)
    with pytest.raises(KeyboardInterrupt):
        resume_scenario(store.state_dir)
    monkeypatch.setattr(StoreClass, "on_block", original)

    restored, meta = store.load()  # must not raise: WAL extends snapshot
    assert meta["replayed"] == 2
    report = resume_scenario(store.state_dir)  # and resuming still works
    assert report.to_json() == reference.to_json()


def test_mints_between_blocks_are_journalled(tmp_path):
    """Ledger mutations made *between* blocks (a top-up mint before a
    publish, as the resumed-serve CLI does) land in the next block's
    WAL record: crash recovery keeps them and their ledger entries."""
    store = NodeStore.init(str(tmp_path / "node"))
    with scoped_tx_nonces(), deterministic_entropy(5):
        dragoon = Dragoon()
        dragoon.attach_store(store)
        dragoon.fund("alice", 30)
        dragoon.ensure_funds("alice", 100)  # mints 70 outside any block
        dragoon.run_task("alice", tiny_task(), [[0] * 10, [1] * 10])
        live_root = state_root(dragoon.chain)
        # the process dies here: no store.save()
        restored, _meta = store.load()
    assert state_root(restored) == live_root
    mints = [e for e in restored.ledger.entries if e.memo == "top-up"]
    assert len(mints) == 1 and mints[0].amount == 70


def test_crash_between_manifest_and_wal_reset_still_loads(tmp_path, monkeypatch):
    """save() publishes the manifest before resetting the WAL; a crash
    in that window leaves records for blocks the snapshot already
    contains.  load() must skip them, not refuse the directory."""
    from repro.store.blockstore import BlockStore as WalClass

    store = NodeStore.init(str(tmp_path / "node"))
    with scoped_tx_nonces(), deterministic_entropy(3):
        dragoon = Dragoon()
        dragoon.attach_store(store)
        run_one_task(dragoon)
        live_root = state_root(dragoon.chain)
        monkeypatch.setattr(WalClass, "reset", lambda self: None)
        store.save(dragoon.chain)  # manifest lands; the WAL never resets
    restored, meta = store.load()
    assert meta["replayed"] == 0  # every stale record skipped
    assert state_root(restored) == live_root


def test_resume_refuses_a_tampered_checkpoint(tmp_path):
    scenario = preset("poisson", seed=5, tasks=4)
    store = NodeStore.init(str(tmp_path / "tamper"))
    run_scenario(scenario, store=store, checkpoint_every=2, interrupt_after=2)
    manifest = store.manifest()
    entry = manifest["checkpoints"][-1]
    path = os.path.join(store.state_dir, entry["file"])
    envelope = pickle.load(open(path, "rb"))
    envelope["payload"]["chain"].gas_by_sender = {}
    with open(path, "wb") as handle:
        pickle.dump(envelope, handle)
    with pytest.raises(StoreError):
        resume_scenario(store.state_dir)
