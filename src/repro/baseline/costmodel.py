"""Cost model for the generic-ZKP baseline at full statement scale.

The reproduction strategy for the "Generic ZKP" rows of Tables I and II
(full-scale Groth16 proving is out of reach for pure Python, so
reduced-scale measurement plus extrapolation stands in for it):

1. **Measure** our real Groth16 prover on reduced-scale circuits of
   increasing constraint count (:func:`measure_local_model`) and fit
   per-constraint time and memory.
2. **Count** the constraints of the full-scale statements the paper's
   baseline proved (:mod:`repro.baseline.circuits` estimators).
3. **Extrapolate** (1) × (2) to predict full-scale proving cost, and
   report it next to the paper's reported numbers.

:func:`paper_calibrated_model` inverts the paper's own numbers into
per-constraint costs (37 s / 3.9 GB over ~1.76M constraints ≈ 21 µs and
2.3 kB per constraint — libsnark-typical), so benches can show both the
locally-measured and the paper-derived scalings.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.baseline.circuits import (
    generic_poqoea_statement,
    generic_vpke_statement,
    multiplication_chain_circuit,
)
from repro.baseline.groth16 import prove, setup
from repro.baseline.qap import QAP


@dataclass(frozen=True)
class CostEstimate:
    """Predicted proving cost of a statement."""

    statement: str
    constraints: int
    seconds: float
    peak_bytes: float

    @property
    def peak_gib(self) -> float:
        return self.peak_bytes / (1024.0**3)


@dataclass(frozen=True)
class SnarkCostModel:
    """Linear per-constraint proving-cost model (time + memory)."""

    seconds_per_constraint: float
    bytes_per_constraint: float
    fixed_seconds: float = 0.0
    fixed_bytes: float = 0.0
    source: str = "unspecified"

    def estimate(self, statement: str, constraints: int) -> CostEstimate:
        return CostEstimate(
            statement=statement,
            constraints=constraints,
            seconds=self.fixed_seconds + self.seconds_per_constraint * constraints,
            peak_bytes=self.fixed_bytes + self.bytes_per_constraint * constraints,
        )

    def estimate_vpke(self) -> CostEstimate:
        size = generic_vpke_statement()
        return self.estimate(size.name, size.constraints)

    def estimate_poqoea(
        self, num_golds: int = 6, num_mismatches: int = 3
    ) -> CostEstimate:
        size = generic_poqoea_statement(num_golds, num_mismatches)
        return self.estimate(size.name, size.constraints)


def paper_calibrated_model() -> SnarkCostModel:
    """Per-constraint costs derived from the paper's own Table I.

    37 s and 3.9 GB for the ~1.76M-constraint generic VPKE statement give
    ~21 µs and ~2.3 kB per constraint — in line with published libsnark
    measurements on commodity hardware.
    """
    constraints = generic_vpke_statement().constraints
    return SnarkCostModel(
        seconds_per_constraint=37.0 / constraints,
        bytes_per_constraint=3.9 * (1024.0**3) / constraints,
        source="paper Table I (libsnark on Xeon E3-1220V2)",
    )


def measure_local_model(
    sizes: Sequence[int] = (8, 16, 32, 64),
) -> Tuple[SnarkCostModel, List[Tuple[int, float, int]]]:
    """Fit a cost model by timing our Groth16 prover at several sizes.

    Returns the fitted model and the raw ``(constraints, seconds,
    peak_bytes)`` samples.  The fit is least-squares linear in the
    constraint count (Groth16 proving is O(n log n); over this narrow
    range linear is an excellent approximation and is conservative when
    extrapolating).
    """
    samples: List[Tuple[int, float, int]] = []
    for size in sizes:
        system = multiplication_chain_circuit(size)
        qap = QAP.from_r1cs(system)
        proving_key, _ = setup(qap)
        assignment = system.full_assignment()

        tracemalloc.start()
        tracemalloc.reset_peak()
        start = time.perf_counter()
        prove(proving_key, qap, assignment)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        samples.append((system.num_constraints, elapsed, peak))

    # Least-squares fit: cost = fixed + slope * constraints.
    n = len(samples)
    xs = [float(s[0]) for s in samples]
    times = [s[1] for s in samples]
    mems = [float(s[2]) for s in samples]
    mean_x = sum(xs) / n
    var_x = sum((x - mean_x) ** 2 for x in xs) or 1.0

    def fit(ys: List[float]) -> Tuple[float, float]:
        mean_y = sum(ys) / n
        slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var_x
        return max(slope, 0.0), max(mean_y - slope * mean_x, 0.0)

    time_slope, time_fixed = fit(times)
    mem_slope, mem_fixed = fit(mems)
    model = SnarkCostModel(
        seconds_per_constraint=time_slope,
        bytes_per_constraint=mem_slope,
        fixed_seconds=time_fixed,
        fixed_bytes=mem_fixed,
        source="measured: pure-Python Groth16 on multiplication chains",
    )
    return model, samples
