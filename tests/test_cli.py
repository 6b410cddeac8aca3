"""End-to-end CLI runs against temp scenario files and output dirs."""

from __future__ import annotations

import csv
import json

import pytest

from edgesim.cli import main
from edgesim.harness import KS_CSV_FIELDS
from edgesim.metrics import METRICS_CSV_FIELDS
from tests.conftest import scenario_dict


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def scenario_file(tmp_path):
    d = scenario_dict(duration_min=3, device_count=8)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    return str(path)


def test_run_prints_summary_and_writes_csv(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(
        [
            "run",
            "--scenario", scenario_file,
            "--engine", "renovated",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "tasks_generated=" in printed
    assert "wall_time_s=" in printed
    table = read_csv(str(out / "metrics.csv"))
    assert table[0] == list(METRICS_CSV_FIELDS)
    assert len(table) == 2
    assert table[1][0] == "renovated"
    assert table[1][1] == "3"


def test_run_without_out_writes_nothing(scenario_file, tmp_path, capsys):
    rc = main(
        ["run", "--scenario", scenario_file, "--engine", "baseline", "--seed", "1"]
    )
    assert rc == 0
    assert not (tmp_path / "metrics.csv").exists()


def test_run_snapshots_writes_location_log(scenario_file, tmp_path):
    out = tmp_path / "snap"
    rc = main(
        [
            "run",
            "--scenario", scenario_file,
            "--engine", "baseline",
            "--seed", "3",
            "--out", str(out),
            "--snapshots",
        ]
    )
    assert rc == 0
    rows = read_csv(str(out / "locations.csv"))
    assert rows[0] == ["time_s", "access_point", "device_count"]
    # 3 min at 60 s period -> 3 snapshot times x 4 APs
    assert len(rows) == 1 + 3 * 4
    by_time = {}
    for t, _, count in rows[1:]:
        by_time.setdefault(t, 0)
        by_time[t] += int(count)
    assert all(total == 8 for total in by_time.values())


def test_matched_seed_cli_runs_agree(scenario_file, tmp_path):
    outs = {}
    for engine in ("baseline", "renovated"):
        out = tmp_path / engine
        main(
            [
                "run",
                "--scenario", scenario_file,
                "--engine", engine,
                "--seed", "9",
                "--out", str(out),
            ]
        )
        outs[engine] = read_csv(str(out / "metrics.csv"))[1]
    paired = zip(METRICS_CSV_FIELDS, outs["baseline"], outs["renovated"])
    for field, b, r in paired:
        if field in ("engine", "wall_time_s", "peak_queue_size"):
            continue
        assert b == r, field


def test_bench_writes_table(scenario_file, tmp_path, capsys):
    out = tmp_path / "bench"
    rc = main(
        [
            "bench",
            "--scenario", scenario_file,
            "--sweep", "devices=4:8:4",
            "--iterations", "2",
            "--out", str(out),
        ]
    )
    assert rc == 0
    table = read_csv(str(out / "bench.csv"))
    assert len(table) == 1 + 4  # 2 sweep points x 2 engines
    assert "mean" in capsys.readouterr().out


def test_validate_writes_reports(scenario_file, tmp_path, capsys):
    out = tmp_path / "val"
    rc = main(
        [
            "validate",
            "--scenario", scenario_file,
            "--runs", "30",
            "--out", str(out),
        ]
    )
    assert rc == 0
    ks = read_csv(str(out / "ks_report.csv"))
    assert ks[0] == list(KS_CSV_FIELDS)
    assert (out / "metrics.csv").exists()
    assert (out / "qq_avg_service_time_s.csv").exists()
    printed = capsys.readouterr().out
    assert "d=" in printed and "p=" in printed


def test_bad_scenario_file_exits_nonzero(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    rc = main(["run", "--scenario", missing, "--engine", "baseline", "--seed", "1"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_scenario_content_exits_nonzero(tmp_path, capsys):
    d = scenario_dict()
    d["profiles"][0]["weight"] = 0.4
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    rc = main(["run", "--scenario", str(path), "--engine", "baseline", "--seed", "1"])
    assert rc == 1
    assert "profiles.weights" in capsys.readouterr().err


def test_non_finite_number_exits_nonzero(tmp_path, capsys):
    # json accepts NaN; left unchecked, a renovated run would never end
    path = tmp_path / "nan.json"
    d = scenario_dict(duration_min=float("nan"))
    path.write_text(json.dumps(d), encoding="utf-8")
    assert "NaN" in path.read_text(encoding="utf-8")
    rc = main(["run", "--scenario", str(path), "--engine", "renovated", "--seed", "1"])
    assert rc == 1
    assert "duration_min" in capsys.readouterr().err


def test_negative_master_seed_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(scenario_dict(master_seed=-1)), encoding="utf-8")
    rc = main(["run", "--scenario", str(path), "--engine", "baseline", "--seed", "1"])
    assert rc == 1
    assert "master_seed" in capsys.readouterr().err


def test_bad_sweep_spec_exits_nonzero(scenario_file, tmp_path, capsys):
    rc = main(
        [
            "bench",
            "--scenario", scenario_file,
            "--sweep", "gpus=1:2:1",
            "--iterations", "1",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert rc == 1
    assert "sweep" in capsys.readouterr().err


def test_unknown_engine_rejected_by_argparse(scenario_file):
    with pytest.raises(SystemExit):
        main(["run", "--scenario", scenario_file, "--engine", "warp", "--seed", "1"])
