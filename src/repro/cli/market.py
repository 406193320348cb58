"""Marketplace runs: ``serve`` (the session engine, block by block) and
``simulate`` (a seeded workload scenario)."""

from __future__ import annotations

import argparse
import shutil

from repro.analysis.tables import render_gas_extras, render_table
from repro.chain.gas import PAPER_PRICING
from repro.cli.common import (
    add_report_flags,
    add_tasks_flag,
    emit_report,
    log,
    resume_node,
    save_node,
    tiny_task,
)
from repro.core.session import StragglerScheduler
from repro.core.task import sample_worker_answers
from repro.dragoon import Dragoon, TaskArrival
from repro.obs.logging import add_logging_flags


def _add_metrics_flag(parser) -> None:
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write a MetricsRegistry snapshot (canonical "
                        "JSON) after the run; fold with `report metrics`")


def _write_metrics(args: argparse.Namespace) -> None:
    """The shared --metrics-out tail: snapshot the registry to a file."""
    if args.metrics_out:
        from repro.obs.registry import REGISTRY
        from repro.reporting.metricsfold import write_snapshot

        write_snapshot(args.metrics_out, REGISTRY.collect())
        log.info("metrics snapshot written to %s" % args.metrics_out,
                 metrics_out=args.metrics_out)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run N staggered tasks through the session engine; trace each block.

    Seeded end to end: worker answer sheets are sampled at fixed
    accuracies (0.95 / 0.30) from ``--seed``, and the whole run executes
    under deterministic entropy, so the same invocation prints the same
    trace — gas included.
    """
    from repro.crypto.rng import deterministic_entropy
    from repro.sim.seeding import derive_seed
    from repro.store import NodeStore

    arrivals = []
    for index in range(args.tasks):
        task = tiny_task()
        answers = [
            sample_worker_answers(
                task, accuracy, seed=derive_seed(args.seed, index, slot)
            )
            for slot, accuracy in enumerate((0.95, 0.30))
        ]
        # The first --stragglers tasks get a worker who reveals one
        # period late: the Fig. 4 deadline rejects it and the burned
        # gas lands in GasReport.extras.
        policies = (
            {0: StragglerScheduler(reveal=1)} if index < args.stragglers else None
        )
        arrivals.append(
            TaskArrival(
                at_block=index * args.stagger,
                requester_label="req-%d" % index,
                task=task,
                worker_answers=answers,
                worker_labels=["t%d/w0" % index, "t%d/w1" % index],
                worker_policies=policies,
            )
        )
    store = None
    if args.state_dir and NodeStore.exists(args.state_dir):
        store, chain, meta = resume_node(args.state_dir)
        dragoon = Dragoon(chain=chain)
        dragoon.restore_node_state(meta["extra"])
        dragoon.attach_store(store)
        # Long-lived requesters may have spent earlier budgets; top
        # them up so this run's publishes can freeze B.  After
        # attach_store, so the mints land in the next block's WAL
        # record and crash recovery sees them.
        for arrival in arrivals:
            dragoon.ensure_funds(
                arrival.requester_label, arrival.task.parameters.budget
            )
    elif args.state_dir:
        store = NodeStore.init(args.state_dir)
        dragoon = Dragoon()
        dragoon.attach_store(store)
    else:
        dragoon = Dragoon()
    with deterministic_entropy(args.seed):
        outcomes = dragoon.serve(arrivals)
    if store is not None:
        save_node(store, dragoon.chain)

    rows = []
    for trace in dragoon.engine.trace:
        events = ", ".join(
            "%s:%s" % (task.split(":")[1], name) for task, name in trace.events
        )
        phases = " ".join(
            "%s=%s" % (task.split(":")[1], phase)
            for task, phase in sorted(trace.phases.items())
        )
        rows.append(
            [trace.block_number, trace.period, trace.transactions,
             events or "-", phases or "-"]
        )
    log.info(render_table(
        ["block", "period", "txs", "events", "session phases"],
        rows,
        title="Session engine trace (%d tasks, stagger %d)"
        % (args.tasks, args.stagger),
    ))
    log.info(
        "chain height: %d blocks (lock-step sequential would need ~%d)"
        % (dragoon.chain.height, 5 * args.tasks),
        height=dragoon.chain.height,
    )
    paid = sum(
        1 for outcome in outcomes
        for value in outcome.payments().values() if value > 0
    )
    log.info(
        "settled %d tasks: %d workers paid, %d rejected"
        % (len(outcomes), paid, 2 * len(outcomes) - paid),
        settled=len(outcomes),
        paid=paid,
    )
    extras: dict = {}
    for outcome in outcomes:
        for operation, gas in outcome.gas.extras.items():
            extras[operation] = extras.get(operation, 0) + gas
    log.info(render_gas_extras(extras, pricing=PAPER_PRICING))
    _write_metrics(args)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    """Run a seeded marketplace workload scenario; print its report."""
    from repro.sim import preset, run_scenario

    scenario = preset(args.preset, seed=args.seed, tasks=args.tasks)
    store = None
    if args.state_dir:
        from repro.store import NodeStore

        if NodeStore.exists(args.state_dir):
            log.error(
                "error: %s already holds node state — a scenario runs "
                "from genesis; pick a fresh --state-dir or `node resume` "
                "the existing one" % args.state_dir,
                state_dir=args.state_dir,
            )
            return 2
        store = NodeStore.init(args.state_dir)
    elif args.checkpoint_every:
        log.error("error: --checkpoint-every needs --state-dir")
        return 2
    try:
        report = run_scenario(
            scenario, store=store, checkpoint_every=args.checkpoint_every
        )
    except BaseException:
        # A killed run with checkpoints is exactly what `node resume`
        # is for — keep it.  But a directory holding nothing resumable
        # would only block the identical retry with "already holds
        # node state", so clean it up.
        if store is not None and not store.manifest().get("checkpoints"):
            shutil.rmtree(args.state_dir, ignore_errors=True)
        raise
    report.check_invariants()

    log.info(render_table(
        ["metric", "value"],
        [
            ["tasks published", report.tasks_published],
            ["tasks settled", report.tasks_settled],
            ["tasks cancelled", report.tasks_cancelled],
            ["blocks", report.blocks],
            ["blocks per task", "%.2f" % report.blocks_per_task],
            ["settled per block", "%.2f" % report.settled_per_block],
            ["transactions", report.total_transactions],
            ["total gas", "%dk" % (report.total_gas // 1000)],
            ["gas per settled task",
             "%dk" % (int(report.gas_per_settled_task) // 1000)],
            ["peak mempool depth", report.peak_mempool_depth],
            ["enrollments", report.enrollments],
            ["dropped worker steps", report.dropped_steps],
        ],
        title="Scenario %r (seed %d)" % (scenario.name, scenario.seed),
    ))
    latency = report.commit_to_finalize
    log.info("commit->finalize latency: min %s, mean %s, max %s blocks"
             % (latency["min"], latency["mean"], latency["max"]))
    log.info(render_gas_extras(report.gas_extras, pricing=PAPER_PRICING))
    top = sorted(
        report.worker_earnings.items(), key=lambda pair: (-pair[1], pair[0])
    )[:5]
    log.info(render_table(
        ["worker", "coins earned"], top, title="Top earners",
    ))
    emit_report(report, args)
    _write_metrics(args)
    if store is not None:
        log.info("node state saved to %s" % args.state_dir,
                 state_dir=args.state_dir)
    return 0


def add_parsers(sub) -> None:
    serve = sub.add_parser(
        "serve",
        help="run staggered tasks through the session engine with a "
        "per-block event/phase trace",
    )
    serve.add_argument("--tasks", type=int, default=4,
                       help="number of arriving tasks (default 4)")
    serve.add_argument("--stagger", type=int, default=1,
                       help="blocks between consecutive arrivals (default 1)")
    serve.add_argument("--seed", type=int, default=0,
                       help="seed for worker-answer sampling and all "
                       "protocol randomness (default 0; same seed, "
                       "same output)")
    serve.add_argument("--stragglers", type=int, default=0,
                       help="give the first N tasks a worker who reveals "
                       "one period late (default 0)")
    serve.add_argument("--state-dir", default=None,
                       help="persist the node here: an existing state dir "
                       "is resumed (the marketplace lives across "
                       "invocations), a fresh one is initialized")
    _add_metrics_flag(serve)
    add_logging_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    simulate = sub.add_parser(
        "simulate",
        help="run a seeded marketplace workload scenario (repro.sim) "
        "and print its SimulationReport",
    )
    simulate.add_argument(
        "--preset", default="poisson",
        help="scenario preset: poisson, burst, diurnal, closed-loop, "
        "adversarial (default poisson)",
    )
    simulate.add_argument("--seed", type=int, default=0,
                          help="scenario seed (default 0)")
    add_tasks_flag(simulate)
    add_report_flags(simulate)
    simulate.add_argument("--state-dir", default=None,
                          help="persist chain state (WAL + snapshots) to "
                          "this fresh directory")
    simulate.add_argument("--checkpoint-every", type=int, default=0,
                          metavar="N",
                          help="write a resumable checkpoint every N blocks "
                          "(requires --state-dir; resume with `node resume`)")
    _add_metrics_flag(simulate)
    add_logging_flags(simulate)
    simulate.set_defaults(func=_cmd_simulate)
