"""The end-to-end HIT benchmark: one command, three workloads.

    python3 perfbench/run.py --workload market --seed 1 --seconds 30 --trace 0

Every run is a closed loop of rounds (see ``workloads.py``) for
``--seconds`` seconds, from one process, with no process pools.  Each
round passes the correctness gates or counts as failed, and its timings
are dropped.  With ``--trace 0`` the run reports the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` it alternates each round dark
and traced (same inputs) and reports the per-layer metrics, including
the tracing overhead.  Reported timings are host-normalized seconds:
while a set-up repeat, a dark round or the cold load is timed, a timer
runs a fixed reference slice every 30 ms and keeps it off the clock, and the
timings are scaled by how fast the host ran the slices then
(``probes.HostPace``), so a shared host's changing speed does not read
as a change of the program; the table prints the measured values beside
them.  The last line of standard output is the JSON result; a table for
people precedes it.  Each run also writes a record
(with its provenance) and, when traced, its spans as span-schema-v1
JSONL under ``.perfbench/`` in the checkout; ``report trace FILE`` of
the program's CLI reads that file.

Exit status: 0 after a complete run, 2 when the checkout holds no
program source to measure.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("market", "durable", "rpc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: no program source under %s" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import bench

    bench.report(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
