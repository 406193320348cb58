"""The event-bus metrics pipeline: chain events → marketplace telemetry.

A :class:`MetricsCollector` owns a cursor subscription on the chain
(:meth:`Chain.subscribe`) plus a per-block receipt fold, and turns the
raw stream into the numbers an operator of the deployed system would
watch:

* **throughput** — tasks published / settled / cancelled per block and
  overall (blocks per task, settled tasks per block);
* **latency** — commit→finalize and publish→finalize block counts, as
  histograms;
* **gas** — a :class:`~repro.core.protocol.GasReport` per task (the
  five fixed Table III slots *and* the dynamic ``extras`` ledger:
  timeout refunds, late-reveal gas), folded receipt by receipt with the
  exact :func:`~repro.core.protocol.fold_receipt` slotting rules;
* **worker earnings** — coin totals per worker label off ``paid``
  events;
* **mempool depth** — sampled by the runner before each block mines.

The collector never drives the chain; it only observes, exactly like an
off-chain indexer would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.chain.blocks import Block
from repro.chain.chain import Chain
from repro.core.protocol import GasReport, fold_receipt
from repro.obs import registry as _obs

_SIM_PUBLISHED = _obs.REGISTRY.counter(
    "sim_tasks_published_total", "Tasks the simulator observed published"
)
_SIM_SETTLED = _obs.REGISTRY.counter(
    "sim_tasks_settled_total", "Tasks the simulator observed finalized"
)
_SIM_CANCELLED = _obs.REGISTRY.counter(
    "sim_tasks_cancelled_total", "Tasks the simulator observed cancelled"
)


@dataclass
class BlockSample:
    """One block's worth of telemetry."""

    block_number: int
    transactions: int
    published: int = 0
    settled: int = 0
    cancelled: int = 0
    mempool_depth_before: int = 0


@dataclass
class LatencyStats:
    """A block-count histogram with the usual summary numbers."""

    histogram: Dict[int, int] = field(default_factory=dict)

    def record(self, blocks: int) -> None:
        self.histogram[blocks] = self.histogram.get(blocks, 0) + 1

    @property
    def count(self) -> int:
        return sum(self.histogram.values())

    @property
    def mean(self) -> float:
        total = self.count
        if not total:
            return 0.0
        return sum(k * v for k, v in self.histogram.items()) / total

    @property
    def minimum(self) -> int:
        return min(self.histogram) if self.histogram else 0

    @property
    def maximum(self) -> int:
        return max(self.histogram) if self.histogram else 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "min": self.minimum,
            "mean": round(self.mean, 4),
            "max": self.maximum,
            "histogram": {str(k): self.histogram[k] for k in sorted(self.histogram)},
        }


class MetricsCollector:
    """Accumulates marketplace telemetry from one chain's event bus."""

    def __init__(self, chain: Chain) -> None:
        self.chain = chain
        self._subscription = chain.subscribe()
        self.samples: List[BlockSample] = []
        self.tasks_published = 0
        self.tasks_settled = 0
        self.tasks_cancelled = 0
        self.commit_to_finalize = LatencyStats()
        self.publish_to_finalize = LatencyStats()
        self.gas_by_task: Dict[str, GasReport] = {}
        self.worker_earnings: Dict[str, int] = {}
        self._published_block: Dict[bytes, int] = {}  # contract addr -> block
        self._first_commit_block: Dict[bytes, int] = {}
        self._blocks_folded = 0  # receipt-fold cursor into chain.blocks
        self._transactions_folded = 0  # includes deployment blocks
        self._pending_mempool_depth = 0

    # ------------------------------------------------------------------
    # Sampling hooks (called by the runner)
    # ------------------------------------------------------------------

    def before_step(self) -> None:
        """Sample what the next block will inherit (mempool depth)."""
        self._pending_mempool_depth = len(self.chain.mempool)

    def on_block(self, block: Block) -> BlockSample:
        """Fold one mined block: its receipts and its event-log slice."""
        sample = BlockSample(
            block_number=block.number,
            transactions=len(block.transactions),
            mempool_depth_before=self._pending_mempool_depth,
        )
        self._pending_mempool_depth = 0
        self._fold_new_blocks()
        for record in self._subscription.poll():
            self._on_event(record.block_number, record.event, sample)
        self.samples.append(sample)
        return sample

    def _fold_new_blocks(self) -> None:
        """Fold receipts of every block sealed since the last fold.

        This catches both the blocks the step loop mines *and* the
        deployment blocks ``Chain.deploy_many`` seals between steps
        (publish gas), without rescanning history.
        """
        while self._blocks_folded < len(self.chain.blocks):
            block = self.chain.blocks[self._blocks_folded]
            self._transactions_folded += len(block.transactions)
            for receipt in block.receipts:
                contract_name = receipt.transaction.contract
                report = self.gas_by_task.setdefault(contract_name, GasReport())
                fold_receipt(report, receipt)
            self._blocks_folded += 1

    def _on_event(self, block_number: int, event, sample: BlockSample) -> None:
        name = event.name
        address = event.contract.value
        if name == "published":
            sample.published += 1
            self.tasks_published += 1
            _SIM_PUBLISHED.inc()
            self._published_block[address] = block_number
        elif name == "committed":
            self._first_commit_block.setdefault(address, block_number)
        elif name == "finalized":
            sample.settled += 1
            self.tasks_settled += 1
            _SIM_SETTLED.inc()
            # pop, not get: a settled task's bookkeeping is done, so the
            # maps stay proportional to in-flight tasks on long runs.
            committed = self._first_commit_block.pop(address, None)
            if committed is not None:
                self.commit_to_finalize.record(block_number - committed)
            published = self._published_block.pop(address, None)
            if published is not None:
                self.publish_to_finalize.record(block_number - published)
        elif name == "cancelled":
            sample.cancelled += 1
            self.tasks_cancelled += 1
            _SIM_CANCELLED.inc()
            self._first_commit_block.pop(address, None)
            self._published_block.pop(address, None)
        elif name == "paid":
            worker = event.payload["worker"]
            label = worker.label or worker.hex()
            self.worker_earnings[label] = (
                self.worker_earnings.get(label, 0)
                + event.payload["amount"]
            )

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @property
    def total_transactions(self) -> int:
        """Every transaction the run sealed — the engine-mined blocks
        *and* the deployment blocks ``deploy_many`` sealed between
        steps (per-block samples only cover the former)."""
        return self._transactions_folded

    @property
    def peak_mempool_depth(self) -> int:
        return max(
            (sample.mempool_depth_before for sample in self.samples), default=0
        )

    @property
    def total_gas(self) -> int:
        return sum(report.total for report in self.gas_by_task.values())

    def gas_per_settled_task(self) -> float:
        if not self.tasks_settled:
            return 0.0
        return self.total_gas / self.tasks_settled

    def extras_total(self) -> Dict[str, int]:
        """Dynamic-operation gas summed across every task's report.

        Labels are collapsed to the operation kind (``late-reveal``,
        ``cancel``, ...) so the table stays readable at fleet scale.
        """
        combined: Dict[str, int] = {}
        for report in self.gas_by_task.values():
            for label, gas in report.extras.items():
                kind = label.split(":", 1)[0]
                combined[kind] = combined.get(kind, 0) + gas
        return combined
