"""Telemetry analytics: ``report sweep/trace/metrics/render``."""

from __future__ import annotations

import argparse
import json
import os

from repro.analysis.tables import render_table
from repro.cli.common import add_tasks_flag, log
from repro.obs.logging import add_logging_flags


def _add_bench_dir_flag(parser) -> None:
    parser.add_argument("--bench-dir", default=None, metavar="DIR",
                        help="fold benchmarks/results/*.json records "
                        "into the artifact set")


def _parse_axis_value(text: str):
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            raise SystemExit("error: axis value %r is not a number" % text)


def _load_sweep_spec(args: argparse.Namespace):
    from repro.reporting import sweep as sweeplib

    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            return sweeplib.spec_from_json(handle.read())
    axes = []
    for item in args.axis or []:
        axis, _, values = item.partition("=")
        if not values:
            raise SystemExit(
                "error: --axis takes name=v1,v2,..., got %r" % item
            )
        axes.append(
            (axis, tuple(_parse_axis_value(v) for v in values.split(",")))
        )
    if not axes:
        raise SystemExit("error: report sweep needs --spec or --axis")
    return sweeplib.SweepSpec(
        name=args.name,
        preset=args.preset,
        seed=args.seed,
        tasks=args.tasks,
        axes=tuple(axes),
        checkpoint_every=args.checkpoint_every,
    )


def _cmd_report_sweep(args: argparse.Namespace) -> int:
    """Run the scenario grid, then render the artifact set.

    The out dir afterwards holds the canonical spec, one record per
    cell, tables, plots, and the sha256 manifest — byte-identical for
    the same spec on any host, at any ``--procs``, so two runs can be
    compared with ``diff -r`` (that is exactly what CI does).
    """
    from repro.reporting import sweep as sweeplib
    from repro.reporting.render import render_reports

    spec = _load_sweep_spec(args)
    records = sweeplib.run_sweep(
        spec,
        args.out,
        work_dir=args.work_dir,
        procs=args.procs,
        force=args.force,
        progress=lambda message: log.info(message),
    )
    manifest = render_reports(
        args.out,
        records,
        sweeplib.spec_to_json(spec),
        sweeplib.grid_hash(spec),
        bench_dir=args.bench_dir,
    )
    log.info(
        "%d cells, %d artifacts under %s (grid %s...)"
        % (len(records), len(manifest["artifacts"]), args.out,
           manifest["grid"][:16]),
        out=args.out,
        grid=manifest["grid"],
    )
    return 0


def _fmt_ms(seconds: float) -> str:
    return "%.2fms" % (seconds * 1000.0)


def _cmd_report_trace(args: argparse.Namespace) -> int:
    """Analyze one JSONL span trace (see ``--trace`` on serve/simulate)."""
    from repro.reporting import traces

    analysis = traces.analyze_file(args.file)
    if analysis.truncated:
        log.info("note: torn tail cut — analyzing the intact prefix")
    rows = [
        [name, stats.count, _fmt_ms(stats.total),
         _fmt_ms(stats.to_dict().get("mean", 0.0)),
         _fmt_ms(stats.percentiles()["p50"]),
         _fmt_ms(stats.percentiles()["p90"]),
         _fmt_ms(stats.percentiles()["p99"])]
        for name, stats in sorted(analysis.by_name.items())
    ]
    log.info(render_table(
        ["span", "count", "total", "mean", "p50", "p90", "p99"], rows,
        title="Latency by span (%s)" % args.file,
    ))
    if analysis.by_phase:
        rows = [
            [phase, stats.count, _fmt_ms(stats.total),
             _fmt_ms(stats.percentiles()["p50"]),
             _fmt_ms(stats.percentiles()["p99"])]
            for phase, stats in sorted(analysis.by_phase.items())
        ]
        log.info(render_table(
            ["phase", "count", "total", "p50", "p99"], rows,
            title="Session phases",
        ))
    path = analysis.critical_path()
    if path:
        log.info(render_table(
            ["depth", "span", "duration"],
            [[i, hop["name"], _fmt_ms(hop["duration"])]
             for i, hop in enumerate(path)],
            title="Critical path",
        ))
    pool = analysis.utilization()
    if pool["spans"]:
        log.info(
            "pool: %d jobs, peak %d in flight, busy %s, mean "
            "concurrency %.2f"
            % (pool["spans"], pool["peak"], _fmt_ms(pool["busy_seconds"]),
               pool["mean"])
        )
    if analysis.worker:
        rows = [
            [pid, stats.count, _fmt_ms(stats.total)]
            for pid, stats in sorted(analysis.worker.items())
        ]
        log.info(render_table(
            ["pid", "spans", "worker-clock total"], rows,
            title="Worker attribution (per-process clocks)",
        ))
    if args.json:
        print(json.dumps(analysis.to_dict(), sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(analysis.to_dict(), sort_keys=True, indent=2)
            )
            handle.write("\n")
        log.info("analysis written to %s" % args.out, out=args.out)
    return 0


def _cmd_report_metrics(args: argparse.Namespace) -> int:
    """Diff, merge, or project registry snapshots (--metrics-out files)."""
    from repro.reporting import metricsfold

    snapshots = [metricsfold.read_snapshot(path) for path in args.files]
    if args.diff:
        if len(snapshots) != 2:
            log.error("error: --diff takes exactly two snapshots "
                      "(before after)")
            return 2
        folded = metricsfold.diff_snapshots(snapshots[0], snapshots[1])
    elif len(snapshots) == 1:
        folded = snapshots[0]
    else:
        folded = metricsfold.merge_snapshots(snapshots)
    if args.project:
        projected = metricsfold.deterministic_projection(
            folded, prefixes=tuple(args.prefix) or None
        )
        text = json.dumps(projected, sort_keys=True, indent=2) + "\n"
    else:
        text = metricsfold.snapshot_to_json(folded)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        log.info("snapshot written to %s" % args.out, out=args.out)
    else:
        print(text, end="")
    return 0


def _cmd_report_render(args: argparse.Namespace) -> int:
    """Re-render (or --check) the artifact set from on-disk cell records."""
    from repro.reporting import sweep as sweeplib
    from repro.reporting.render import render_reports, verify_manifest

    if args.check:
        manifest = verify_manifest(args.dir)
        log.info(
            "manifest verified: %d artifacts, grid %s..."
            % (len(manifest["artifacts"]), manifest["grid"][:16])
        )
        return 0
    with open(os.path.join(args.dir, "sweep.json"), encoding="utf-8") as h:
        spec = sweeplib.spec_from_json(h.read())
    cells_dir = os.path.join(args.dir, "cells")
    records = {}
    for name in sorted(os.listdir(cells_dir)):
        if name.endswith(".json"):
            with open(os.path.join(cells_dir, name), encoding="utf-8") as h:
                record = json.load(h)
            records[record["cell"]] = record
    manifest = render_reports(
        args.dir,
        records,
        sweeplib.spec_to_json(spec),
        sweeplib.grid_hash(spec),
        bench_dir=args.bench_dir,
    )
    log.info(
        "re-rendered %d artifacts under %s"
        % (len(manifest["artifacts"]), args.dir),
        out=args.dir,
    )
    return 0


def add_parsers(sub) -> None:
    report = sub.add_parser(
        "report",
        help="telemetry analytics: sweep a scenario grid, analyze "
        "traces, fold metrics, render byte-reproducible artifacts",
    )
    report_sub = report.add_subparsers(dest="report_command", required=True)
    report_sweep = report_sub.add_parser(
        "sweep",
        help="run a declarative scenario grid and render its report "
        "artifacts (tables, plots, sha256 manifest)",
    )
    report_sweep.add_argument("--spec", default=None, metavar="FILE",
                              help="sweep spec JSON (see reports/sweep.json; "
                              "overrides the flag-built grid)")
    report_sweep.add_argument("--name", default="sweep",
                              help="grid name for a flag-built spec")
    report_sweep.add_argument("--preset", default="poisson",
                              help="base scenario preset (default poisson)")
    report_sweep.add_argument("--seed", type=int, default=0,
                              help="base scenario seed (default 0)")
    add_tasks_flag(report_sweep)
    report_sweep.add_argument("--axis", action="append", metavar="NAME=V,V",
                              help="one grid axis, e.g. --axis "
                              "budget=100,140 --axis accuracy=0.7,0.9 "
                              "(axes: reward, budget, audit_threshold, "
                              "accuracy, stragglers, dropouts, seed)")
    report_sweep.add_argument("--checkpoint-every", type=int, default=0,
                              metavar="N",
                              help="checkpoint each cell every N blocks; an "
                              "interrupted sweep re-run resumes those cells")
    report_sweep.add_argument("--out", required=True, metavar="DIR",
                              help="artifact directory (byte-reproducible)")
    report_sweep.add_argument("--work-dir", default=None, metavar="DIR",
                              help="scratch for traces/state (default "
                              "OUT.work; not byte-reproducible)")
    report_sweep.add_argument("--procs", type=int, default=0, metavar="N",
                              help="fan cells across N processes "
                              "(0 = inline; records identical either way)")
    report_sweep.add_argument("--force", action="store_true",
                              help="re-run cells whose records already "
                              "exist")
    _add_bench_dir_flag(report_sweep)
    add_logging_flags(report_sweep)
    report_sweep.set_defaults(func=_cmd_report_sweep)
    report_trace = report_sub.add_parser(
        "trace",
        help="analyze a --trace JSONL span file: latency percentiles, "
        "critical path, pool utilization, worker attribution",
    )
    report_trace.add_argument("file", help="the JSONL trace file")
    report_trace.add_argument("--json", action="store_true",
                              help="also print the full analysis as JSON")
    report_trace.add_argument("--out", default=None, metavar="FILE",
                              help="write the full analysis JSON to FILE")
    add_logging_flags(report_trace)
    report_trace.set_defaults(func=_cmd_report_trace)
    report_metrics = report_sub.add_parser(
        "metrics",
        help="diff/merge/project registry snapshots (--metrics-out files)",
    )
    report_metrics.add_argument("files", nargs="+",
                                help="snapshot files; one is shown as-is, "
                                "several are merged (or --diff'd)")
    report_metrics.add_argument("--diff", action="store_true",
                                help="subtract the first snapshot from the "
                                "second (exactly two files)")
    report_metrics.add_argument("--project", action="store_true",
                                help="emit the deterministic projection "
                                "(counters + histogram counts) instead of "
                                "the full snapshot")
    report_metrics.add_argument("--prefix", action="append", default=[],
                                metavar="P",
                                help="restrict --project to family names "
                                "with this prefix (repeatable)")
    report_metrics.add_argument("--out", default=None, metavar="FILE",
                                help="write to FILE instead of stdout")
    add_logging_flags(report_metrics)
    report_metrics.set_defaults(func=_cmd_report_metrics)
    report_render = report_sub.add_parser(
        "render",
        help="re-render artifacts from a sweep dir's cell records, or "
        "--check its manifest hashes",
    )
    report_render.add_argument("--dir", required=True, metavar="DIR",
                               help="a `report sweep` output directory")
    _add_bench_dir_flag(report_render)
    report_render.add_argument("--check", action="store_true",
                               help="verify every artifact against "
                               "manifest.json instead of rewriting")
    add_logging_flags(report_render)
    report_render.set_defaults(func=_cmd_report_render)
