"""Batched vs. sequential verification — the throughput tentpole's receipts.

The paper's practicality claim rests on cheap verification of many
per-worker proofs.  This bench records what the batch-verification
subsystem buys over one-at-a-time checking, on the two verifier families
the system actually runs:

* **VPKE** (`repro.crypto.vpke`): ``verify_decryption_batch`` folds the
  two group equations of every proof into one multi-scalar
  multiplication with random 128-bit weights.
* **Groth16** (`repro.baseline.groth16`): ``verify_batch`` folds ``n``
  4-pairing verification equations into one ``n + 3``-pair Miller-loop
  product with a single shared final exponentiation.

Reproduce the table with::

    PYTHONPATH=src python -m pytest benchmarks/bench_batch_verification.py -s -q

The committed acceptance bar is a >= 2x speedup at batch size 16 for
both families (asserted below in full mode; the smoke run uses a tiny
batch and skips the timing assertion, since timing tiny batches under a
loaded CI machine proves nothing).
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import format_seconds, render_table
from repro.baseline.circuits import multiplication_chain_circuit
from repro.baseline.groth16 import prove, setup, verify, verify_batch
from repro.baseline.qap import QAP
from repro.crypto.elgamal import keygen
from repro.crypto.schnorr import schnorr_prove, schnorr_verify, schnorr_verify_batch
from repro.crypto.curve import G1Point, random_scalar
from repro.crypto.vpke import (
    prove_decryption,
    verify_decryption,
    verify_decryption_batch,
)
from repro.utils.timing import best_of

from bench_helpers import SMOKE, emit, pick, record
from repro.obs.tracing import span_clock

BATCH_SIZE = pick(16, 3)
SPEEDUP_BAR = 2.0


@pytest.fixture(scope="module")
def vpke_batch():
    pk, sk = keygen(secret=0xBA7C5)
    statements = []
    for index in range(BATCH_SIZE):
        ciphertext = pk.encrypt(index % 2)
        claim, proof = prove_decryption(sk, ciphertext, range(2))
        statements.append((claim, ciphertext, proof))
    # Warm the fixed-base tables so neither path pays setup inside the timer.
    assert verify_decryption_batch(pk, statements[:1])
    assert verify_decryption(pk, *statements[0])
    return pk, statements


@pytest.fixture(scope="module")
def schnorr_batch():
    statements = []
    generator = G1Point.generator()
    for _ in range(BATCH_SIZE):
        secret = random_scalar()
        statements.append((generator * secret, schnorr_prove(secret)))
    return statements


@pytest.fixture(scope="module")
def groth16_batch():
    """BATCH_SIZE proofs of one circuit shape under a single vk."""
    size = pick(4, 2)
    systems = [multiplication_chain_circuit(size, base=i + 2)
               for i in range(BATCH_SIZE)]
    qap = QAP.from_r1cs(systems[0])
    proving_key, verifying_key = setup(qap)
    instances = []
    for system in systems:
        assignment = system.full_assignment()
        proof = prove(proving_key, QAP.from_r1cs(system), assignment)
        instances.append((system.public_values(assignment), proof))
    return verifying_key, instances


def test_vpke_batch_agrees_with_sequential(vpke_batch):
    pk, statements = vpke_batch
    sequential = all(
        verify_decryption(pk, claim, ciphertext, proof)
        for claim, ciphertext, proof in statements
    )
    batched = verify_decryption_batch(pk, statements)
    assert batched is True and sequential == batched


def test_schnorr_batch_agrees_with_sequential(schnorr_batch):
    sequential = all(
        schnorr_verify(public, proof) for public, proof in schnorr_batch
    )
    batched = schnorr_verify_batch(schnorr_batch)
    assert batched is True and sequential == batched


def test_groth16_batch_agrees_with_sequential(groth16_batch):
    verifying_key, instances = groth16_batch
    sequential = all(
        verify(verifying_key, publics, proof) for publics, proof in instances
    )
    batched = verify_batch(verifying_key, instances)
    assert batched is True and sequential == batched


def test_batch_verification_report(
    benchmark, vpke_batch, schnorr_batch, groth16_batch
):
    pk, vpke_statements = vpke_batch
    verifying_key, groth16_instances = groth16_batch

    vpke_seq, ok1 = best_of(
        lambda: all(
            verify_decryption(pk, claim, ciphertext, proof)
            for claim, ciphertext, proof in vpke_statements
        ),
        repeats=3,
    )
    vpke_bat, ok2 = best_of(
        lambda: verify_decryption_batch(pk, vpke_statements), repeats=3
    )

    schnorr_seq, ok3 = best_of(
        lambda: all(schnorr_verify(public, proof)
                    for public, proof in schnorr_batch),
        repeats=3,
    )
    schnorr_bat, ok4 = best_of(
        lambda: schnorr_verify_batch(schnorr_batch), repeats=3
    )

    groth16_seq, ok5 = best_of(
        lambda: all(
            verify(verifying_key, publics, proof)
            for publics, proof in groth16_instances
        ),
        repeats=1,
    )
    groth16_bat, ok6 = best_of(
        lambda: verify_batch(verifying_key, groth16_instances), repeats=1
    )
    assert ok1 and ok2 and ok3 and ok4 and ok5 and ok6

    rows = []
    speedups = {}
    for family, seq, bat, mechanism in (
        ("VPKE decryption proofs", vpke_seq, vpke_bat,
         "RLC fold -> one MSM (5n+2 terms)"),
        ("Schnorr PoKs", schnorr_seq, schnorr_bat,
         "RLC fold -> one MSM (2n+1 terms)"),
        ("Groth16 proofs", groth16_seq, groth16_bat,
         "one Miller product (n+3 pairs), one final exp"),
    ):
        speedups[family] = seq / max(bat, 1e-9)
        rows.append(
            [family, str(BATCH_SIZE), format_seconds(seq), format_seconds(bat),
             "%.2fx" % speedups[family], mechanism]
        )
    text = render_table(
        ["Proof family", "Batch", "Sequential", "Batched", "Speedup",
         "Mechanism"],
        rows,
        title="Batched vs sequential verification (batch size %d)"
        % BATCH_SIZE,
    )
    emit("batch_verification", text)
    record(
        "batch_verification",
        {"batch_size": BATCH_SIZE},
        {
            "vpke_sequential": vpke_seq,
            "vpke_batched": vpke_bat,
            "schnorr_sequential": schnorr_seq,
            "schnorr_batched": schnorr_bat,
            "groth16_sequential": groth16_seq,
            "groth16_batched": groth16_bat,
        },
    )

    if not SMOKE:
        assert speedups["VPKE decryption proofs"] >= SPEEDUP_BAR, speedups
        assert speedups["Groth16 proofs"] >= SPEEDUP_BAR, speedups
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_multi_task_throughput_report(benchmark):
    """Blocks and wall-clock for N tasks: sequential vs run_hits_batch."""
    import time

    from repro.dragoon import Dragoon
    from repro.core.task import HITTask, TaskParameters

    def tiny_task() -> HITTask:
        parameters = TaskParameters(
            num_questions=8,
            budget=100,
            num_workers=2,
            answer_range=(0, 1),
            quality_threshold=2,
            num_golds=3,
        )
        return HITTask(
            parameters,
            ["q%d" % i for i in range(8)],
            [0, 1, 2],
            [0, 0, 0],
            [0] * 8,
        )

    num_tasks = pick(8, 2)
    answers = [[0] * 8, [1] * 8]  # one accepted, one rejected per task

    sequential = Dragoon()
    t0 = span_clock()
    for index in range(num_tasks):
        sequential.run_task("req-%d" % index, tiny_task(), answers)
    seq_time = span_clock() - t0
    seq_blocks = sequential.chain.height

    batched = Dragoon()
    t0 = span_clock()
    batched.run_hits_batch(
        [("req-%d" % index, tiny_task(), answers) for index in range(num_tasks)]
    )
    bat_time = span_clock() - t0
    bat_blocks = batched.chain.height

    rows = [
        ["run_task x %d" % num_tasks, str(seq_blocks),
         format_seconds(seq_time), "-"],
        ["run_hits_batch(%d)" % num_tasks, str(bat_blocks),
         format_seconds(bat_time), "%.2fx" % (seq_time / max(bat_time, 1e-9))],
    ]
    text = render_table(
        ["Execution path", "Blocks mined", "Wall clock", "Speedup"],
        rows,
        title="Multi-task throughput: %d interleaved tasks" % num_tasks,
    )
    emit("batch_throughput", text)
    record(
        "batch_throughput",
        {"tasks": num_tasks},
        {"sequential": seq_time, "batched": bat_time},
        values={"sequential_blocks": seq_blocks, "batched_blocks": bat_blocks},
    )

    assert bat_blocks == 5
    assert bat_blocks < seq_blocks
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
