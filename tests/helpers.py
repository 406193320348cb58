"""Shared test helpers (importable, unlike conftest fixtures)."""

from __future__ import annotations

from repro.chain.transactions import scoped_tx_nonces
from repro.core.protocol import run_hit
from repro.core.task import HITTask, TaskParameters
from repro.crypto.rng import deterministic_entropy
from repro.store.trie import ChainStateTrie


def small_task(
    num_questions: int = 10,
    num_golds: int = 3,
    num_workers: int = 2,
    threshold: int = 2,
    budget: int = 100,
    answer_range=(0, 1),
) -> HITTask:
    """A compact task for protocol tests: golds at positions 0..G-1, all
    gold answers equal to the first option."""
    gold_indexes = list(range(num_golds))
    gold_answers = [answer_range[0] for _ in range(num_golds)]
    ground_truth = [answer_range[0]] * num_questions
    parameters = TaskParameters(
        num_questions=num_questions,
        budget=budget,
        num_workers=num_workers,
        answer_range=tuple(answer_range),
        quality_threshold=threshold,
        num_golds=num_golds,
    )
    return HITTask(
        parameters,
        ["question %d" % i for i in range(num_questions)],
        gold_indexes,
        gold_answers,
        ground_truth,
    )


def seeded_outcome():
    """A seeded two-worker HIT (one accepted, one rejected worker); its
    ``state_root`` is pinned as ``GOLDEN_SEEDED_ROOT``."""
    with scoped_tx_nonces(), deterministic_entropy(7):
        return run_hit(small_task(), [[0] * 10, [1] * 10])


class EagerHeaders:
    """A chain store that brings its own tracker up to date at every
    seal: the header timeline a read after every sealed block gives.

    It rides the chain's store hook, so the chain's own tracker keeps
    its place and can read as lazily as a test likes.
    """

    def __init__(self, chain) -> None:
        self.tracker = ChainStateTrie()
        self.tracker.ensure_header(chain)
        chain.attach_store(self)

    def on_attach(self, chain) -> None:
        pass

    def on_block(self, chain, block) -> None:
        self.tracker.ensure_header(chain)
