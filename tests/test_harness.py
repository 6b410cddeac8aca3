"""Sweep parsing, benchmark rows, validation campaign plumbing."""

from __future__ import annotations

import csv
import os

import pytest

from edgesim import harness
from edgesim.config import ValidationError
from edgesim.harness import (
    BENCH_CSV_FIELDS,
    KS_CSV_FIELDS,
    VALIDATION_METRICS,
    bench_sweep,
    max_workers_from_env,
    metric_samples,
    parse_sweep,
    validate_equivalence,
    write_csv,
)
from edgesim.metrics import METRICS_CSV_FIELDS
from tests.conftest import make_cfg


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def tiny_cfg():
    # 8 devices, 3 minutes: fast enough to run dozens of times in a test
    return make_cfg(duration_min=3, device_count=8)


def test_parse_sweep_inclusive_stop():
    var, values = parse_sweep("devices=200:1000:200")
    assert var == "devices"
    assert values == [200.0, 400.0, 600.0, 800.0, 1000.0]


def test_parse_sweep_duration_variable():
    var, values = parse_sweep("duration-min=30:90:30")
    assert var == "duration-min"
    assert values == [30.0, 60.0, 90.0]


@pytest.mark.parametrize(
    "bad",
    [
        "devices",
        "cpus=1:2:1",
        "devices=1:2",
        "devices=1:2:3:4",
        "devices=a:b:c",
        "devices=5:1:1",
        "devices=1:5:0",
    ],
)
def test_parse_sweep_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_sweep(bad)


def test_max_workers_env(monkeypatch):
    monkeypatch.delenv("EDGESIM_MAX_WORKERS", raising=False)
    assert max_workers_from_env() == 1
    monkeypatch.setenv("EDGESIM_MAX_WORKERS", "6")
    assert max_workers_from_env() == 6
    monkeypatch.setenv("EDGESIM_MAX_WORKERS", "-3")
    assert max_workers_from_env() == 1
    monkeypatch.setenv("EDGESIM_MAX_WORKERS", "many")
    with pytest.raises(ValueError):
        max_workers_from_env()


def test_write_csv_leaves_no_temp(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(str(path), ("a", "b"), [[1, 2], [3, 4]])
    assert read_csv(str(path)) == [["a", "b"], ["1", "2"], ["3", "4"]]
    assert os.listdir(tmp_path) == ["out.csv"]


def test_bench_sweep_rows_and_csv(tmp_path):
    cfg = tiny_cfg()
    rows = bench_sweep(cfg, "devices", [4, 8], iterations=2, out_dir=str(tmp_path))
    # ordered by construction: value-major, engine-minor
    assert [(r.value, r.engine) for r in rows] == [
        (4, "baseline"),
        (4, "renovated"),
        (8, "baseline"),
        (8, "renovated"),
    ]
    assert all(r.mean_wall_s > 0 for r in rows)
    assert all(r.sd_wall_s >= 0 for r in rows)
    table = read_csv(str(tmp_path / "bench.csv"))
    assert table[0] == list(BENCH_CSV_FIELDS)
    assert len(table) == 1 + len(rows)


@pytest.mark.parametrize(
    "sweep_var, values, field",
    [("devices", [0, 10], "device_count"), ("duration-min", [0, 0.5], "duration_min")],
)
def test_bad_sweep_point_fails_before_any_run(monkeypatch, sweep_var, values, field):
    calls = []
    monkeypatch.setattr(harness, "_one_run", lambda args: calls.append(args))
    with pytest.raises(ValidationError) as excinfo:
        bench_sweep(tiny_cfg(), sweep_var, values, iterations=1)
    assert excinfo.value.field_path == field
    assert calls == []


def test_bench_requires_iterations():
    with pytest.raises(ValueError):
        bench_sweep(tiny_cfg(), "devices", [4], iterations=0)


def test_metric_samples_drop_undefined():
    class Stub:
        avg_service_time_s = None

    class Stub2:
        avg_service_time_s = 2.5

    assert metric_samples([Stub(), Stub2()], "avg_service_time_s") == [2.5]


def test_validation_requires_enough_runs():
    with pytest.raises(ValueError):
        validate_equivalence(tiny_cfg(), runs_per_engine=5)


def test_validation_campaign_outputs(tmp_path):
    cfg = tiny_cfg()
    report = validate_equivalence(
        cfg, runs_per_engine=30, out_dir=str(tmp_path), master_seed=11
    )
    assert report.runs_per_engine == 30
    assert [r.metric for r in report.rows] == list(VALIDATION_METRICS)
    for row in report.rows:
        assert 0.0 <= row.d <= 1.0
        assert 0.0 <= row.p_value <= 1.0
        assert row.n <= 30 and row.m <= 30

    metrics = read_csv(str(tmp_path / "metrics.csv"))
    assert metrics[0] == list(METRICS_CSV_FIELDS)
    assert len(metrics) == 1 + 60  # 30 runs x 2 engines

    ks = read_csv(str(tmp_path / "ks_report.csv"))
    assert ks[0] == list(KS_CSV_FIELDS)
    assert len(ks) == 1 + len(VALIDATION_METRICS)

    for metric in VALIDATION_METRICS:
        qq = read_csv(str(tmp_path / f"qq_{metric}.csv"))
        assert qq[0] == ["quantile_baseline", "quantile_renovated"]
        assert len(qq) == 1 + len(report.qq[metric])


def test_validation_seeds_differ_between_engines(tmp_path):
    # unmatched families: the baseline seed column and renovated seed
    # column must not overlap, otherwise the comparison is vacuous
    validate_equivalence(
        tiny_cfg(), runs_per_engine=30, out_dir=str(tmp_path), master_seed=11
    )
    rows = read_csv(str(tmp_path / "metrics.csv"))[1:]
    base_seeds = {r[1] for r in rows if r[0] == "baseline"}
    reno_seeds = {r[1] for r in rows if r[0] == "renovated"}
    assert base_seeds.isdisjoint(reno_seeds)
