"""Table I — off-chain *proving* cost of VPKE and PoQoEA.

Paper's numbers (Xeon E3-1220V2, libff BN-128 / libsnark):

    Ours        VPKE     3 ms    53 MB
    Ours        PoQoEA  10 ms    53 MB
    Generic ZKP VPKE    37 s    3.9 GB
    Generic ZKP PoQoEA  112 s   10.3 GB

We measure our concrete constructions directly on the same statement
(the ImageNet task: 106 binary questions, 6 golds, a rejection proving
3 mismatches).  The generic rows are reproduced two ways: measured at
reduced scale with our real Groth16 and extrapolated to the full-scale
statement via the fitted per-constraint cost model, and cross-checked
against the paper-calibrated model.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import format_bytes, format_seconds, render_table
from repro.baseline.costmodel import measure_local_model, paper_calibrated_model
from repro.crypto.elgamal import keygen
from repro.crypto.poqoea import prove_quality
from repro.crypto.vpke import prove_decryption
from repro.utils.timing import measure

from bench_helpers import SMOKE, bench_task, emit, pick, record

TASK = bench_task()
RANGE = list(TASK.parameters.answer_range)


@pytest.fixture(scope="module")
def setup_statement():
    """The ImageNet rejection statement: a submission missing 3 golds."""
    pk, sk = keygen(secret=0x7A5)
    answers = list(TASK.ground_truth)
    for index in TASK.gold_indexes[:3]:
        answers[index] = 1 - answers[index]
    ciphertexts = pk.encrypt_vector(answers)
    return pk, sk, ciphertexts


def test_table1_vpke_proving(benchmark, setup_statement):
    _, sk, ciphertexts = setup_statement
    gold_ct = ciphertexts[TASK.gold_indexes[0]]
    benchmark(prove_decryption, sk, gold_ct, RANGE)


def test_table1_poqoea_proving(benchmark, setup_statement):
    _, sk, ciphertexts = setup_statement
    quality, proof = benchmark(
        prove_quality, sk, ciphertexts, TASK.gold_indexes, TASK.gold_answers, RANGE
    )
    assert quality == 3
    assert len(proof) == 3


def test_table1_generic_reduced_scale_proving(benchmark):
    """Our real Groth16 prover at reduced scale (the measured anchor)."""
    from repro.baseline.circuits import multiplication_chain_circuit
    from repro.baseline.groth16 import prove, setup
    from repro.baseline.qap import QAP

    system = multiplication_chain_circuit(pick(32, 4))
    qap = QAP.from_r1cs(system)
    proving_key, _ = setup(qap)
    assignment = system.full_assignment()
    benchmark.pedantic(
        prove, args=(proving_key, qap, assignment), rounds=2, iterations=1
    )


def test_table1_report(benchmark, setup_statement):
    """Assemble and print the full Table I reproduction.

    Wall time and peak memory are measured in *separate* runs: tracing
    allocations (tracemalloc) slows Python several-fold, so timing under
    it would overstate our proving cost by an order of magnitude.
    """
    from repro.utils.timing import MemoryMeter, best_of

    pk, sk, ciphertexts = setup_statement
    gold_ct = ciphertexts[TASK.gold_indexes[0]]

    vpke_time, _ = best_of(lambda: prove_decryption(sk, gold_ct, RANGE), repeats=5)
    poqoea_time, _ = best_of(
        lambda: prove_quality(
            sk, ciphertexts, TASK.gold_indexes, TASK.gold_answers, RANGE
        ),
        repeats=3,
    )
    with MemoryMeter() as vpke_memory:
        prove_decryption(sk, gold_ct, RANGE)
    with MemoryMeter() as poqoea_memory:
        prove_quality(sk, ciphertexts, TASK.gold_indexes, TASK.gold_answers, RANGE)

    class _M:  # adapter matching the old row-building code below
        def __init__(self, seconds, peak):
            self.elapsed_seconds = seconds
            self.peak_bytes = peak

    vpke = _M(vpke_time, vpke_memory.peak_bytes)
    poqoea = _M(poqoea_time, poqoea_memory.peak_bytes)

    local_model, samples = measure_local_model(sizes=pick((8, 16, 32), (4, 8)))
    paper_model = paper_calibrated_model()
    generic_vpke = local_model.estimate_vpke()
    generic_poqoea = local_model.estimate_poqoea()
    ref_vpke = paper_model.estimate_vpke()
    ref_poqoea = paper_model.estimate_poqoea()

    rows = [
        ["Ours", "VPKE", format_seconds(vpke.elapsed_seconds),
         format_bytes(vpke.peak_bytes), "3 ms / 53 MB"],
        ["Ours", "PoQoEA", format_seconds(poqoea.elapsed_seconds),
         format_bytes(poqoea.peak_bytes), "10 ms / 53 MB"],
        ["Generic ZKP (model)", "VPKE", format_seconds(generic_vpke.seconds),
         format_bytes(generic_vpke.peak_bytes), "37 s / 3.9 GB"],
        ["Generic ZKP (model)", "PoQoEA", format_seconds(generic_poqoea.seconds),
         format_bytes(generic_poqoea.peak_bytes), "112 s / 10.3 GB"],
        ["Generic ZKP (paper-calibrated)", "VPKE",
         format_seconds(ref_vpke.seconds), format_bytes(ref_vpke.peak_bytes),
         "37 s / 3.9 GB"],
        ["Generic ZKP (paper-calibrated)", "PoQoEA",
         format_seconds(ref_poqoea.seconds), format_bytes(ref_poqoea.peak_bytes),
         "112 s / 10.3 GB"],
    ]
    text = render_table(
        ["Scheme", "Statement", "Time", "Peak memory", "Paper"],
        rows,
        title="Table I - off-chain proving cost (ImageNet statement: "
        "106 questions, 6 golds, 3 mismatches)",
    )
    text += "\n\nMeasured Groth16 anchors (constraints, seconds, peak bytes): %s" % (
        samples,
    )
    emit("table1_proving", text)
    record(
        "table1_proving",
        {"questions": TASK.parameters.num_questions,
         "golds": TASK.parameters.num_golds},
        {
            "vpke_prove": vpke.elapsed_seconds,
            "poqoea_prove": poqoea.elapsed_seconds,
            "generic_vpke_model": generic_vpke.seconds,
            "generic_poqoea_model": generic_poqoea.seconds,
            "generic_vpke_paper": ref_vpke.seconds,
            "generic_poqoea_paper": ref_poqoea.seconds,
        },
        values={
            "vpke_peak_bytes": vpke.peak_bytes,
            "poqoea_peak_bytes": poqoea.peak_bytes,
            "generic_vpke_peak_bytes": generic_vpke.peak_bytes,
            "generic_poqoea_peak_bytes": generic_poqoea.peak_bytes,
        },
    )

    # The paper's qualitative claims must hold in our reproduction:
    # concrete proving is orders of magnitude below generic proving.
    # (Timing claims are asserted only at full scale; the smoke run's
    # tiny anchors make the fitted model meaningless.)
    if not SMOKE:
        assert vpke.elapsed_seconds < 0.2
        assert poqoea.elapsed_seconds < 1.0
        assert generic_vpke.seconds > 100 * poqoea.elapsed_seconds
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
