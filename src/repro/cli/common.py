"""What more than one CLI family uses: the logger, flags, tasks, node I/O."""

from __future__ import annotations

import argparse

from repro.core.task import HITTask, TaskParameters
from repro.obs.logging import get_logger

#: Every line the CLI emits goes through the structured logger: the
#: default human rendering is byte-identical to the old print() output,
#: and --log-json swaps in one-JSON-object-per-line for machine readers.
log = get_logger("cli")


def add_tasks_flag(parser) -> None:
    """The ``--tasks`` resize of a scenario preset."""
    parser.add_argument("--tasks", type=int, default=None,
                        help="resize the preset to ~N tasks")


def add_report_flags(parser) -> None:
    """The ``--json``/``--out`` pair that :func:`emit_report` reads."""
    parser.add_argument("--json", action="store_true",
                        help="also print the canonical JSON report")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the canonical JSON report to FILE")


def emit_report(report, args: argparse.Namespace) -> None:
    """The shared --json/--out tail of the report-producing commands."""
    if args.json:
        # The canonical JSON report is program output, not a log line:
        # it must stay byte-identical under any logging mode.
        print(report.to_json())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")
        log.info("report written to %s" % args.out, out=args.out)


def tiny_task() -> HITTask:
    """Ten binary questions, 3 of them golds, for two workers; budget 100."""
    parameters = TaskParameters(10, 100, 2, (0, 1), 2, 3)
    return HITTask(parameters, ["q%d" % i for i in range(10)],
                   [0, 1, 2], [0, 0, 0], [0] * 10)


def resume_node(state_dir: str):
    """Load the node persisted at ``state_dir``: ``(store, chain, meta)``."""
    from repro.store import NodeStore

    store = NodeStore.open(state_dir)
    chain, meta = store.load(apply_runtime=True)
    log.info(
        "resumed node at height %d (state_root %s...)"
        % (chain.height, meta["state_root"].hex()[:16]),
        height=chain.height,
        state_dir=state_dir,
    )
    return store, chain, meta


def save_node(store, chain) -> None:
    """Snapshot ``chain`` to its store and say where it went."""
    root = store.save(chain)
    log.info(
        "node state saved to %s (height %d, state_root %s...)"
        % (store.state_dir, chain.height, root.hex()[:16]),
        state_dir=store.state_dir,
        height=chain.height,
    )
