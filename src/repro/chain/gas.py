"""The Ethereum gas schedule used by the chain simulator.

Dragoon's Table III is a *gas* table, so reproducing it faithfully means
charging the same schedule Ethereum charged when the paper ran (March
2020, post-Istanbul): EIP-2028 calldata prices and EIP-1108 BN-128
precompile prices.  Every constant here is the mainline Ethereum value;
the one calibrated quantity is the simulated contract bytecode size (see
:data:`HIT_CONTRACT_CODE_BYTES`), since we do not compile Solidity.

:class:`GasMeter` is how contracts account for gas: each state-changing
or precompile operation charges the meter, which keeps an itemized
breakdown so the benches can explain where gas goes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import OutOfGas

# -- intrinsic transaction costs ---------------------------------------------

TX_BASE = 21_000
CALLDATA_ZERO_BYTE = 4
CALLDATA_NONZERO_BYTE = 16  # EIP-2028 (Istanbul)

# -- storage / memory ----------------------------------------------------------

SSTORE_SET = 20_000  # zero -> non-zero
SSTORE_RESET = 5_000  # non-zero -> non-zero
SLOAD = 800  # Istanbul price

# -- hashing and logs -----------------------------------------------------------

KECCAK_BASE = 30
KECCAK_WORD = 6
LOG_BASE = 375
LOG_TOPIC = 375
LOG_DATA_BYTE = 8

# -- BN-128 precompiles (EIP-1108, Istanbul) --------------------------------------

ECADD = 150
ECMUL = 6_000
PAIRING_BASE = 45_000
PAIRING_PER_POINT = 34_000

# -- contract deployment ------------------------------------------------------------

CREATE_BASE = 32_000
CODE_DEPOSIT_BYTE = 200

#: Calibrated size of the compiled HIT contract (bytes).  The paper's
#: publish transaction costs ~1293k gas, which is dominated by deploying
#: the task contract; a ~5.3 kB Solidity contract plus the publish-time
#: storage writes lands in that range.  This is the single tuned constant
#: in the gas model.
HIT_CONTRACT_CODE_BYTES = 5_300

# -- misc --------------------------------------------------------------------------

COLD_ACCOUNT_ACCESS = 0  # pre-Berlin there is no cold-access surcharge
VALUE_TRANSFER = 9_000
MEMORY_WORD = 3


def calldata_cost(payload: bytes) -> int:
    """Intrinsic calldata gas: 16 per non-zero byte, 4 per zero byte."""
    nonzero = sum(1 for b in payload if b)
    zero = len(payload) - nonzero
    return nonzero * CALLDATA_NONZERO_BYTE + zero * CALLDATA_ZERO_BYTE


def keccak_cost(num_bytes: int) -> int:
    """Gas for hashing ``num_bytes`` with the keccak256 opcode."""
    words = (num_bytes + 31) // 32
    return KECCAK_BASE + KECCAK_WORD * words


def log_cost(num_topics: int, data_bytes: int) -> int:
    """Gas for a LOG opcode with ``num_topics`` topics."""
    return LOG_BASE + LOG_TOPIC * num_topics + LOG_DATA_BYTE * data_bytes


def pairing_cost(num_pairs: int) -> int:
    """Gas for the pairing-check precompile over ``num_pairs`` pairs."""
    return PAIRING_BASE + PAIRING_PER_POINT * num_pairs


def deployment_cost(code_bytes: int) -> int:
    """Gas for CREATE plus code deposit."""
    return CREATE_BASE + CODE_DEPOSIT_BYTE * code_bytes


@dataclass
class GasMeter:
    """Itemized gas accounting for a single transaction execution."""

    gas_limit: int = 30_000_000
    used: int = 0
    breakdown: Dict[str, int] = field(default_factory=dict)

    def charge(self, amount: int, label: str) -> None:
        """Charge ``amount`` gas under ``label``; raises on exhaustion.

        An exhausting charge takes only what the limit leaves, so an
        out-of-gas transaction has used exactly its limit, as on
        Ethereum; the message names the total the charge asked for."""
        if amount < 0:
            raise ValueError("cannot charge negative gas")
        wanted = self.used + amount
        charged = min(amount, self.gas_limit - self.used)
        self.used += charged
        self.breakdown[label] = self.breakdown.get(label, 0) + charged
        if wanted > self.gas_limit:
            raise OutOfGas(
                "gas limit %d exceeded (used %d at %r)"
                % (self.gas_limit, wanted, label)
            )

    # -- convenience wrappers matching contract idioms -----------------------

    def charge_intrinsic(self, payload: bytes) -> None:
        self.charge(TX_BASE, "tx-base")
        self.charge(calldata_cost(payload), "calldata")

    def charge_sstore(self, fresh: bool = True, count: int = 1) -> None:
        self.charge((SSTORE_SET if fresh else SSTORE_RESET) * count, "sstore")

    def charge_sload(self, count: int = 1) -> None:
        self.charge(SLOAD * count, "sload")

    def charge_keccak(self, num_bytes: int) -> None:
        self.charge(keccak_cost(num_bytes), "keccak")

    def charge_log(self, num_topics: int, data_bytes: int) -> None:
        self.charge(log_cost(num_topics, data_bytes), "log")

    def charge_ecmul(self, count: int = 1) -> None:
        self.charge(ECMUL * count, "ecmul")

    def charge_ecadd(self, count: int = 1) -> None:
        self.charge(ECADD * count, "ecadd")

    def charge_pairing(self, num_pairs: int) -> None:
        self.charge(pairing_cost(num_pairs), "pairing")

    def charge_value_transfer(self) -> None:
        self.charge(VALUE_TRANSFER, "value-transfer")

    def charge_deployment(self, code_bytes: int) -> None:
        self.charge(deployment_cost(code_bytes), "deploy")

    def merged_with(self, other: "GasMeter") -> "GasMeter":
        """A new meter whose usage is the sum of this one and ``other``."""
        merged = GasMeter(gas_limit=self.gas_limit)
        merged.used = self.used + other.used
        merged.breakdown = dict(self.breakdown)
        for label, amount in other.breakdown.items():
            merged.breakdown[label] = merged.breakdown.get(label, 0) + amount
        return merged


@dataclass(frozen=True)
class GasPricing:
    """Conversion of gas to USD (Table III used 1.5 gwei and $115/ETH)."""

    gwei_per_gas: float = 1.5
    usd_per_ether: float = 115.0

    def to_usd(self, gas: int) -> float:
        return gas * self.gwei_per_gas * 1e-9 * self.usd_per_ether


#: The exchange rates the paper applied on March 17, 2020.
PAPER_PRICING = GasPricing(gwei_per_gas=1.5, usd_per_ether=115.0)
