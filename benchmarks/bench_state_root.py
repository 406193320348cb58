"""State-root pricing: incremental Merkle trie vs flat re-encode.

Before the Merkleized state tree, ``state_root`` was a keccak over the
*entire* canonical state encoding — every root read re-encoded and
re-hashed every account, block, and event, which priced the per-block
WAL stamp and every ``chain_state_root`` RPC at O(state).  The trie
tracker diffs the live state against its own baseline (the WAL's
differ), encodes only what changed and re-hashes only the dirty paths,
so a point mutation costs one walk of the live state plus O(log n)
hashing, however long the history grows.

Columns, per account-set size:

* full re-encode — ``keccak256(encode_chain_state(chain))``, the
  pre-trie flat baseline;
* incremental — ``chain_state_trie(chain).root(chain)`` after one
  balance mutation (the steady-state per-block read);
* speedup — full / incremental;
* prove + verify — one account proof generated and checked against the
  root (the light-client unit of work).

The ≥10× acceptance floor is asserted at the 1000-account point (full
mode only; smoke mode shrinks sizes and skips assertions).

Reproduce with::

    PYTHONPATH=src python -m pytest benchmarks/bench_state_root.py -s -q
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.chain.chain import Chain
from repro.crypto.keccak import keccak256
from repro.obs.tracing import span_clock
from repro.store import codec
from repro.store.trie import account_key, chain_state_trie, verify_proof

from bench_helpers import SMOKE, emit, pick, record

SIZES = pick((100, 300, 1000), (20, 50))
HISTORY_BLOCKS = pick(20, 3)
REPEATS = pick(10, 2)


def _grown_chain(accounts: int):
    chain = Chain()
    addresses = [
        chain.register_account("acct-%05d" % index, 100 + index)
        for index in range(accounts)
    ]
    for _ in range(HISTORY_BLOCKS):
        chain.mine_block()
    return chain, addresses


def _timed(fn, repeats: int) -> float:
    start = span_clock()
    for _ in range(repeats):
        fn()
    return (span_clock() - start) / repeats


def test_state_root_incremental_vs_full():
    rows = []
    timings = {}
    speedups = {}
    for size in SIZES:
        chain, addresses = _grown_chain(size)
        tracker = chain_state_trie(chain)
        tracker.root(chain)  # build once; steady state from here

        full_s = _timed(
            lambda: keccak256(codec.encode_chain_state(chain)), REPEATS
        )

        cursor = iter(range(10**9))

        def mutate_and_root():
            address = addresses[next(cursor) % len(addresses)]
            chain.ledger._balances[address] += 1
            return tracker.root(chain)

        incremental_s = _timed(mutate_and_root, REPEATS)

        root = tracker.root(chain)
        key = account_key(addresses[0])
        prove_s = _timed(lambda: tracker.prove(chain, key), REPEATS)
        proof = tracker.prove(chain, key)
        verify_s = _timed(lambda: verify_proof(root, key, proof), REPEATS)

        speedup = full_s / incremental_s if incremental_s else float("inf")
        speedups[size] = speedup
        timings["full_reencode_%d" % size] = full_s
        timings["incremental_%d" % size] = incremental_s
        timings["prove_%d" % size] = prove_s
        timings["verify_%d" % size] = verify_s
        rows.append(
            [
                size,
                "%.2f ms" % (full_s * 1e3),
                "%.2f ms" % (incremental_s * 1e3),
                "%.1fx" % speedup,
                "%.2f ms" % (prove_s * 1e3),
                "%.3f ms" % (verify_s * 1e3),
            ]
        )

    emit(
        "state_root",
        render_table(
            ["accounts", "full re-encode", "incremental", "speedup",
             "prove", "verify"],
            rows,
            title="State root: incremental trie vs flat re-encode "
            "(%d history blocks)" % HISTORY_BLOCKS,
        ),
    )
    record(
        "state_root",
        {"sizes": list(SIZES), "history_blocks": HISTORY_BLOCKS,
         "repeats": REPEATS},
        timings,
        values={"speedup_%d" % size: value for size, value in speedups.items()},
    )

    if not SMOKE:
        # The acceptance floor: a point mutation's root read must beat
        # the flat re-encode by an order of magnitude at 1k accounts.
        assert speedups[1000] >= 10.0, (
            "incremental root only %.1fx faster than full re-encode"
            % speedups[1000]
        )
