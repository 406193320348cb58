"""The gas schedule: Ethereum Istanbul values and the itemizing meter."""

import pytest

from repro.chain.gas import (
    ECADD,
    ECMUL,
    GasMeter,
    GasPricing,
    PAPER_PRICING,
    SLOAD,
    SSTORE_RESET,
    SSTORE_SET,
    TX_BASE,
    calldata_cost,
    deployment_cost,
    keccak_cost,
    log_cost,
    pairing_cost,
)
from repro.errors import OutOfGas


def test_schedule_constants_are_ethereum_values():
    assert TX_BASE == 21_000
    assert SSTORE_SET == 20_000
    assert SSTORE_RESET == 5_000
    assert SLOAD == 800
    assert ECADD == 150
    assert ECMUL == 6_000


def test_calldata_cost_eip2028():
    assert calldata_cost(b"") == 0
    assert calldata_cost(b"\x00" * 10) == 40
    assert calldata_cost(b"\x01" * 10) == 160
    assert calldata_cost(b"\x00\x01") == 20


def test_keccak_cost_per_word():
    assert keccak_cost(0) == 30
    assert keccak_cost(32) == 36
    assert keccak_cost(33) == 42
    assert keccak_cost(64) == 42


def test_log_cost():
    assert log_cost(0, 0) == 375
    assert log_cost(2, 100) == 375 + 750 + 800


def test_pairing_cost_eip1108():
    assert pairing_cost(2) == 45_000 + 68_000
    assert pairing_cost(4) == 45_000 + 136_000


def test_deployment_cost():
    assert deployment_cost(1000) == 32_000 + 200_000


def test_meter_charges_and_itemizes():
    meter = GasMeter()
    meter.charge_sstore(fresh=True)
    meter.charge_sstore(fresh=False)
    meter.charge_sload(2)
    meter.charge_ecmul(3)
    assert meter.used == 20_000 + 5_000 + 1_600 + 18_000
    assert meter.breakdown["sstore"] == 25_000
    assert meter.breakdown["ecmul"] == 18_000


def test_meter_intrinsic():
    meter = GasMeter()
    meter.charge_intrinsic(b"\x01\x00")
    assert meter.used == TX_BASE + 16 + 4


def test_meter_out_of_gas():
    meter = GasMeter(gas_limit=100)
    with pytest.raises(OutOfGas):
        meter.charge(101, "boom")
    assert meter.used == 100  # exhausted: exactly its limit, as on Ethereum


def test_meter_rejects_negative():
    meter = GasMeter()
    with pytest.raises(ValueError):
        meter.charge(-5, "bad")


def test_meter_merge():
    a = GasMeter()
    a.charge(100, "x")
    b = GasMeter()
    b.charge(50, "x")
    b.charge(25, "y")
    merged = a.merged_with(b)
    assert merged.used == 175
    assert merged.breakdown == {"x": 150, "y": 25}


def test_pricing_conversion():
    pricing = GasPricing(gwei_per_gas=1.5, usd_per_ether=115.0)
    assert pricing.to_usd(1_000_000) == pytest.approx(0.1725)
    # The paper's Table III totals at these rates.
    assert PAPER_PRICING.to_usd(12_164_000) == pytest.approx(2.098, abs=0.01)
    assert PAPER_PRICING.to_usd(12_877_000) == pytest.approx(2.221, abs=0.01)
