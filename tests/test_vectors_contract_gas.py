"""Gas regression pins: the Table III numbers must not drift silently.

These are golden-value tests on the gas model.  If a change to the
contract or the gas schedule moves a headline number outside the band
we validated against the paper, a test fails — exactly how a gas
regression would be caught in a real contract repository.
"""

import pytest

from repro.chain.gas import PAPER_PRICING
from repro.core.protocol import run_hit
from repro.core.task import make_imagenet_task, sample_worker_answers


@pytest.fixture(scope="module")
def imagenet_outcome():
    task = make_imagenet_task()
    answers = [sample_worker_answers(task, 0.97, seed=i) for i in range(4)]
    outcome = run_hit(task, answers)
    assert all(value > 0 for value in outcome.payments().values())
    return outcome


def test_publish_gas_band(imagenet_outcome):
    """Paper: ~1293k."""
    assert 1_150_000 < imagenet_outcome.gas.publish < 1_450_000


def test_submit_gas_band(imagenet_outcome):
    """Paper: ~2830k (ours runs ~9% leaner)."""
    for worker in imagenet_outcome.workers:
        submit = imagenet_outcome.gas.submit_cost(worker.label)
        assert 2_300_000 < submit < 3_200_000


def test_overall_usd_band(imagenet_outcome):
    """Paper best case: $2.09; must stay in the $1.8-$2.4 band and under
    the $4 MTurk fee."""
    usd = PAPER_PRICING.to_usd(imagenet_outcome.gas.total)
    assert 1.8 < usd < 2.4
    assert usd < 4.0


def test_rejection_gas_band():
    """Paper: ~180k for a 3-mismatch rejection."""
    task = make_imagenet_task()
    answers = [sample_worker_answers(task, 0.97, seed=i) for i in range(3)]
    # One worker misses exactly 3 golds.
    sheet = list(task.ground_truth)
    for index in task.gold_indexes[:3]:
        sheet[index] = 1 - sheet[index]
    answers.append(sheet)
    outcome = run_hit(task, answers)
    rejections = list(outcome.gas.rejections.values())
    assert len(rejections) == 1
    assert 140_000 < rejections[0] < 220_000


def test_commit_gas_small_and_flat(imagenet_outcome):
    """Commits are 32-byte-digest transactions: tens of k gas.  (The
    K-th commit also pays for the phase transition and all_committed
    event, so the band reaches slightly higher.)"""
    for cost in imagenet_outcome.gas.commits.values():
        assert 21_000 < cost < 100_000
