"""The paper's tables and demos: ``demo``, ``imagenet``, ``fees``,
``audit`` and ``incentives``."""

from __future__ import annotations

import argparse

from repro.analysis.costs import build_handling_fee_table, mturk_handling_fee
from repro.analysis.incentives import IncentiveParameters, strategy_profile
from repro.analysis.tables import render_gas_extras, render_table
from repro.chain.gas import PAPER_PRICING
from repro.cli.common import log, tiny_task
from repro.core.audit import GoldAuditLog
from repro.core.protocol import run_hit
from repro.core.task import (
    make_imagenet_task,
    make_street_parking_task,
    sample_worker_answers,
)
from repro.dragoon import Dragoon


def _cmd_demo(args: argparse.Namespace) -> int:
    task = make_street_parking_task(num_workers=2, budget=200)
    answers = [
        sample_worker_answers(task, 0.95, seed=1),
        sample_worker_answers(task, 0.2, seed=2),
    ]
    outcome = run_hit(task, answers)
    rows = [
        [w.label, outcome.payment_of(w), outcome.contract.verdict_of(w.address)]
        for w in outcome.workers
    ]
    log.info(render_table(["worker", "paid", "verdict"], rows, title="Demo HIT"))
    return 0


def _cmd_imagenet(args: argparse.Namespace) -> int:
    task = make_imagenet_task()
    accuracies = [0.98, 0.92, 0.60, 0.15]
    answers = [
        sample_worker_answers(task, accuracy, seed=i)
        for i, accuracy in enumerate(accuracies)
    ]
    outcome = run_hit(task, answers)
    rows = [
        [
            w.label,
            "%.0f%%" % (accuracies[i] * 100),
            task.quality_of(answers[i]),
            outcome.payment_of(w),
        ]
        for i, w in enumerate(outcome.workers)
    ]
    log.info(
        render_table(
            ["worker", "accuracy", "gold quality", "paid"],
            rows,
            title="ImageNet HIT (paper SVI policy)",
        )
    )
    log.info(
        "total gas: %dk ($%.2f)" % (
            outcome.gas.total // 1000, PAPER_PRICING.to_usd(outcome.gas.total)
        ),
        gas=outcome.gas.total,
    )
    return 0


def _cmd_fees(args: argparse.Namespace) -> int:
    task = make_imagenet_task()
    good = [sample_worker_answers(task, 0.97, seed=i) for i in range(4)]
    outcome = run_hit(task, good)
    table = build_handling_fee_table(outcome.gas, pricing=PAPER_PRICING)
    rows = [
        [row.operation, "~%dk" % (row.gas // 1000), "$%.2f" % row.usd]
        for row in table.rows
    ]
    log.info(render_table(["operation", "gas", "usd"], rows,
                          title="Table III reproduction (best case)"))
    log.info(render_gas_extras(outcome.gas.extras, pricing=PAPER_PRICING))
    log.info("MTurk fee for the same task: $%.2f" % mturk_handling_fee(20.0, 4))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    system = Dragoon()
    system.fund("honest-alice", 200)
    system.fund("mass-rejecter", 200)
    system.run_task("honest-alice", tiny_task(), [[0] * 10, [0] * 10],
                    worker_labels=["w0", "w1"])
    system.run_task("mass-rejecter", tiny_task(), [[1] * 10, [1] * 10],
                    worker_labels=["w2", "w3"])
    reputations = GoldAuditLog(system.chain).reputation()
    rows = [
        [
            label,
            reputation.tasks,
            "%.0f%%" % (100 * reputation.rejection_rate),
            "; ".join(reputation.flags) or "-",
        ]
        for label, reputation in sorted(reputations.items())
    ]
    log.info(render_table(["requester", "tasks", "rejection rate", "flags"],
                          rows, title="Requester reputations (public audit)"))
    return 0


def _cmd_incentives(args: argparse.Namespace) -> int:
    params = IncentiveParameters()
    for world, naive in (("Dragoon", False), ("naive transparent chain", True)):
        rows = [
            [o.name, "%.1f%%" % (100 * o.pay_probability),
             "$%.2f" % o.expected_reward, "$%.2f" % o.cost,
             "$%+.2f" % o.expected_utility]
            for o in strategy_profile(params, naive_chain=naive)
        ]
        log.info(render_table(
            ["strategy", "P[paid]", "E[reward]", "cost", "E[utility]"],
            rows, title="Worker strategies on %s" % world))
        log.info("")
    return 0


def add_parsers(sub) -> None:
    sub.add_parser("demo", help="run a small HIT end to end").set_defaults(
        func=_cmd_demo
    )
    sub.add_parser("imagenet", help="the paper's SVI ImageNet task").set_defaults(
        func=_cmd_imagenet
    )
    sub.add_parser("fees", help="Table III handling-fee reproduction").set_defaults(
        func=_cmd_fees
    )
    sub.add_parser("audit", help="gold-standard audit / reputations").set_defaults(
        func=_cmd_audit
    )
    sub.add_parser("incentives", help="worker strategy utilities").set_defaults(
        func=_cmd_incentives
    )
