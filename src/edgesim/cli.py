"""Command-line front end: single runs, benchmark sweeps, validation.

Every output is a CSV with a documented name inside --out; nothing else
is written. Exit status is 0 only if every requested run completed.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from edgesim.config import ParseError, ValidationError, load_scenario
from edgesim.engine import ENGINES, prepare_run
from edgesim.harness import (
    bench_sweep,
    max_workers_from_env,
    parse_sweep,
    validate_equivalence,
    write_csv,
)
from edgesim.metrics import METRICS_CSV_FIELDS, metrics_csv_row


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgesim",
        description="Dual-engine edge/cloud offloading simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one scenario run")
    run_p.add_argument("--scenario", required=True, help="scenario JSON file")
    run_p.add_argument("--engine", required=True, choices=ENGINES)
    run_p.add_argument("--seed", required=True, type=int)
    run_p.add_argument("--out", default=None, help="directory for metrics.csv")
    run_p.add_argument(
        "--snapshots",
        action="store_true",
        help="log periodic per-AP device counts to locations.csv",
    )

    bench_p = sub.add_parser("bench", help="wall-time sweep over both engines")
    bench_p.add_argument("--scenario", required=True)
    bench_p.add_argument(
        "--sweep",
        required=True,
        help="devices=START:STOP:STEP or duration-min=START:STOP:STEP",
    )
    bench_p.add_argument("--iterations", type=int, default=30)
    bench_p.add_argument("--out", required=True)

    val_p = sub.add_parser("validate", help="cross-engine KS comparison")
    val_p.add_argument("--scenario", required=True)
    val_p.add_argument("--runs", type=int, default=500, help="runs per engine")
    val_p.add_argument("--out", required=True)

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_scenario(args.scenario)
    ctx = prepare_run(cfg, args.engine, args.seed, snapshots=args.snapshots)
    summary, stats = ctx.execute()
    print(summary.canonical())
    print(
        f"wall_time_s={stats.wall_time:.6f} "
        f"events_dispatched={stats.events_dispatched} "
        f"events_dropped={stats.events_dropped}"
    )
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        write_csv(
            os.path.join(args.out, "metrics.csv"),
            METRICS_CSV_FIELDS,
            [metrics_csv_row(args.engine, args.seed, summary)],
        )
        if args.snapshots:
            write_csv(
                os.path.join(args.out, "locations.csv"),
                ("time_s", "access_point", "device_count"),
                [[repr(t), ap, n] for t, ap, n in ctx.snapshot_log.rows],
            )
    elif args.snapshots:
        print("note: --snapshots without --out discards the location log")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = load_scenario(args.scenario)
    sweep_var, values = parse_sweep(args.sweep)
    rows = bench_sweep(cfg, sweep_var, values, args.iterations, out_dir=args.out)
    for row in rows:
        print(
            f"{row.sweep_var}={row.value:g} {row.engine}: "
            f"mean {row.mean_wall_s:.4f}s sd {row.sd_wall_s:.4f}s "
            f"peak queue {row.mean_peak_queue:.0f}"
        )
    print(f"wrote {os.path.join(args.out, 'bench.csv')}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = load_scenario(args.scenario)
    report = validate_equivalence(
        cfg, args.runs, out_dir=args.out, max_workers=max_workers_from_env()
    )
    for row in report.rows:
        flag = "REJECT" if row.reject_at_alpha else "ok"
        print(f"{row.metric}: d={row.d:.4f} p={row.p_value:.4f} [{flag}]")
    print(f"wrote {os.path.join(args.out, 'ks_report.csv')}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "validate":
            return _cmd_validate(args)
    except (ParseError, ValidationError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
