"""Campaign runners: benchmark sweeps and cross-engine KS validation.

Runs inside a campaign share nothing, so they may execute on worker
processes (EDGESIM_MAX_WORKERS caps the pool; default is serial).
Benchmark sweeps always run serially regardless: concurrent runs fight
for the CPU and corrupt the wall-time measurement. Result rows are
ordered by construction, never by completion.

Every CSV is written to a temp name and renamed into place, so a
crashed campaign leaves no partial file behind.
"""

from __future__ import annotations

import csv
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from edgesim.config import ScenarioConfig
from edgesim.engine import ENGINES, run_scenario
from edgesim.metrics import METRICS_CSV_FIELDS, MetricsSummary, metrics_csv_row
from edgesim.rng import run_seed
from edgesim.stats import ks_test, qq_pairs

ALPHA = 0.05

#: The five per-run metrics the validation campaign compares.
VALIDATION_METRICS = (
    "tasks_generated",
    "failed_rel_pct",
    "avg_service_time_s",
    "failed_mobility",
    "failed_vm",
)

DEVICE_SWEEP = "devices"
DURATION_SWEEP = "duration-min"


def max_workers_from_env() -> int:
    raw = os.environ.get("EDGESIM_MAX_WORKERS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"EDGESIM_MAX_WORKERS must be an integer, got {raw!r}")
    return max(1, value)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write-then-rename so readers never observe a partial file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    os.replace(tmp, path)


def _one_run(args) -> tuple[MetricsSummary, float, int]:
    cfg, engine, seed = args
    summary, stats = run_scenario(cfg, engine, seed)
    return summary, stats.wall_time, stats.peak_queue_size


def _run_many(
    cfg: ScenarioConfig,
    engine: str,
    seeds: Sequence[int],
    max_workers: int,
) -> list[tuple[MetricsSummary, float, int]]:
    jobs = [(cfg, engine, s) for s in seeds]
    if max_workers <= 1 or len(jobs) <= 1:
        return [_one_run(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(_one_run, jobs, chunksize=4))


@dataclass(frozen=True)
class BenchRow:
    sweep_var: str
    value: float
    engine: str
    mean_wall_s: float
    sd_wall_s: float
    mean_peak_queue: float


BENCH_CSV_FIELDS = (
    "sweep_var",
    "value",
    "engine",
    "mean_wall_s",
    "sd_wall_s",
    "mean_peak_queue",
)


def parse_sweep(text: str) -> tuple[str, list[float]]:
    """Parse 'devices=200:1000:200' / 'duration-min=30:150:30' (stop inclusive)."""
    if "=" not in text:
        raise ValueError(f"sweep spec needs var=start:stop:step, got {text!r}")
    var, _, rng = text.partition("=")
    if var not in (DEVICE_SWEEP, DURATION_SWEEP):
        raise ValueError(f"unknown sweep variable {var!r}")
    parts = rng.split(":")
    if len(parts) != 3:
        raise ValueError(f"sweep range needs start:stop:step, got {rng!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"sweep range must be numeric, got {rng!r}")
    if step <= 0 or stop < start:
        raise ValueError(f"sweep range must ascend, got {rng!r}")
    values = []
    v = start
    while v <= stop + 1e-9:
        values.append(v)
        v += step
    return var, values


def _cfg_at(cfg: ScenarioConfig, sweep_var: str, value: float) -> ScenarioConfig:
    if sweep_var == DEVICE_SWEEP:
        return replace(cfg, device_count=int(value))
    return replace(cfg, duration_min=value)


def bench_sweep(
    cfg: ScenarioConfig,
    sweep_var: str,
    values: Sequence[float],
    iterations: int,
    out_dir: Optional[str] = None,
    master_seed: Optional[int] = None,
) -> list[BenchRow]:
    """Mean/sd wall time per (sweep point, engine), distinct seed per iteration.

    Within a sweep point the engines alternate, baseline iteration i then
    renovated iteration i, so drift in host speed hits both engines alike
    instead of landing between two blocks of runs.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    master = cfg.master_seed if master_seed is None else master_seed
    # Build every point first, so a bad one fails before any run starts.
    points = [(value, _cfg_at(cfg, sweep_var, value)) for value in values]
    rows: list[BenchRow] = []
    for value, cfg_v in points:
        results = {engine: [] for engine in ENGINES}
        for i in range(iterations):
            for engine in ENGINES:
                seed = run_seed(master, f"bench-{sweep_var}={value:g}-{engine}", i)
                results[engine].append(_one_run((cfg_v, engine, seed)))
        for engine in ENGINES:
            walls = [r[1] for r in results[engine]]
            peaks = [r[2] for r in results[engine]]
            rows.append(
                BenchRow(
                    sweep_var=sweep_var,
                    value=value,
                    engine=engine,
                    mean_wall_s=statistics.fmean(walls),
                    sd_wall_s=statistics.stdev(walls) if len(walls) > 1 else 0.0,
                    mean_peak_queue=statistics.fmean(peaks),
                )
            )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(
            os.path.join(out_dir, "bench.csv"),
            BENCH_CSV_FIELDS,
            [
                [
                    r.sweep_var,
                    f"{r.value:g}",
                    r.engine,
                    repr(r.mean_wall_s),
                    repr(r.sd_wall_s),
                    repr(r.mean_peak_queue),
                ]
                for r in rows
            ],
        )
    return rows


@dataclass(frozen=True)
class KsRow:
    metric: str
    d: float
    p_value: float
    n: int
    m: int

    @property
    def reject_at_alpha(self) -> bool:
        return self.p_value < ALPHA


@dataclass
class ValidationReport:
    rows: list[KsRow]
    qq: dict[str, list[tuple[float, float]]]
    runs_per_engine: int


KS_CSV_FIELDS = ("metric", "d", "p", "reject_at_alpha")


def metric_samples(summaries: Sequence[MetricsSummary], metric: str) -> list[float]:
    """Per-run values of one metric; runs where it is undefined drop out."""
    out = []
    for s in summaries:
        v = getattr(s, metric)
        if v is not None:
            out.append(float(v))
    return out


def validate_equivalence(
    cfg: ScenarioConfig,
    runs_per_engine: int,
    out_dir: Optional[str] = None,
    master_seed: Optional[int] = None,
    max_workers: Optional[int] = None,
) -> ValidationReport:
    """KS-compare the two engines metric by metric over unmatched seeds.

    Seeds derive from per-engine run families on purpose: matched seeds
    would make the samples identical by construction and the test
    vacuous. Statistical agreement across independent streams is the
    claim being checked.
    """
    if runs_per_engine < 30:
        raise ValueError("need at least 30 runs per engine")
    master = cfg.master_seed if master_seed is None else master_seed
    workers = max_workers_from_env() if max_workers is None else max_workers

    all_summaries: dict[str, list[MetricsSummary]] = {}
    csv_rows = []
    for engine in ENGINES:
        seeds = [
            run_seed(master, f"validate-{engine}", i) for i in range(runs_per_engine)
        ]
        results = _run_many(cfg, engine, seeds, max_workers=workers)
        all_summaries[engine] = [r[0] for r in results]
        for seed, (summary, _, _) in zip(seeds, results):
            csv_rows.append(metrics_csv_row(engine, seed, summary))

    rows: list[KsRow] = []
    qq: dict[str, list[tuple[float, float]]] = {}
    base, reno = (all_summaries[e] for e in ENGINES)
    for metric in VALIDATION_METRICS:
        a = metric_samples(base, metric)
        b = metric_samples(reno, metric)
        rows.append(KsRow(metric, *ks_test(a, b)))
        qq[metric] = qq_pairs(a, b)

    report = ValidationReport(rows=rows, qq=qq, runs_per_engine=runs_per_engine)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(
            os.path.join(out_dir, "metrics.csv"), METRICS_CSV_FIELDS, csv_rows
        )
        write_csv(
            os.path.join(out_dir, "ks_report.csv"),
            KS_CSV_FIELDS,
            [
                [r.metric, repr(r.d), repr(r.p_value), int(r.reject_at_alpha)]
                for r in rows
            ],
        )
        for metric, pairs in qq.items():
            write_csv(
                os.path.join(out_dir, f"qq_{metric}.csv"),
                (f"quantile_{ENGINES[0]}", f"quantile_{ENGINES[1]}"),
                [[repr(x), repr(y)] for x, y in pairs],
            )
    return report
