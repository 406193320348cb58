"""A command-line interface for the Dragoon reproduction.

Downstream users drive the library from the shell::

    python -m repro.cli demo                 # quickstart task
    python -m repro.cli imagenet             # the paper's SVI experiment
    python -m repro.cli fees                 # Table III reproduction
    python -m repro.cli audit                # reputation demo
    python -m repro.cli incentives           # strategy utilities
    python -m repro.cli serve --tasks 4      # staggered session engine
    python -m repro.cli simulate --preset poisson --seed 7   # workload sim

    # A marketplace instance that lives across invocations:
    python -m repro.cli node init --state-dir ./mainnet
    python -m repro.cli serve --tasks 4 --state-dir ./mainnet
    python -m repro.cli node status --state-dir ./mainnet

    # Checkpoint a long simulation and resume it after a kill:
    python -m repro.cli simulate --preset diurnal --seed 7 \\
        --state-dir ./sim --checkpoint-every 16
    python -m repro.cli node resume --state-dir ./sim

    # Serve the node to out-of-process clients over JSON-RPC:
    python -m repro.cli node rpc-serve --state-dir ./mainnet --port 8545

    # Telemetry analytics: sweep a scenario grid into byte-reproducible
    # report artifacts; analyze span traces and metrics snapshots:
    python -m repro.cli report sweep --seed 7 --tasks 4 \\
        --axis budget=100,140 --axis accuracy=0.7,0.9 --out reports
    python -m repro.cli report trace run.jsonl
    python -m repro.cli report metrics before.json after.json --diff

Each subcommand prints a compact, self-explanatory report.  ``serve``
and ``simulate`` are seeded and run under deterministic entropy, so the
same invocation prints the same bytes every time.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
from typing import List, Optional

from repro.cli import market, node, report, tables
from repro.cli.common import log
from repro.obs.logging import configure_logging
from repro.obs.tracing import trace_to


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Dragoon reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tables.add_parsers(sub)
    market.add_parsers(sub)
    report.add_parsers(sub)
    node.add_parsers(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(
        level=getattr(args, "log_level", "info"),
        json_mode=getattr(args, "log_json", False),
    )
    # --trace scopes a JSONL span tracer to the whole command: every
    # block mine, session phase, and RPC dispatch inside lands
    # in the file; the run's outputs stay byte-identical either way.
    tracing = (
        trace_to(args.trace)
        if getattr(args, "trace", None)
        else contextlib.nullcontext()
    )
    # SIGTERM unwinds like Ctrl-C so the trace_to exit below flushes
    # and closes the span file — a terminated run leaves only complete
    # lines, never a span torn mid-write.  (While rpc-serve's event
    # loop runs, the loop's own handlers stop the server instead.)
    previous_sigterm = None
    try:
        previous_sigterm = signal.signal(
            signal.SIGTERM, signal.default_int_handler
        )
    except ValueError:
        pass  # not the main thread (tests driving main() directly)
    try:
        with tracing:
            return args.func(args)
    except KeyboardInterrupt:
        log.error("interrupted")
        return 130
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
