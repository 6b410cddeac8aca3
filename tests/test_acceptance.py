"""Acceptance suite: one test per release criterion, strictest first.

Each test prints a single summary line (visible with -rA / -s) naming the
criterion and the measured numbers next to the thresholds it must clear.
Scenario batteries draw their parameters from frozen stdlib Random seeds,
and every simulator seed derives from frozen masters, so the whole file
is deterministic run to run.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from edgesim.compute import (
    SINGLE_TIER,
    TWO_TIER,
    TWO_TIER_ORCHESTRATOR,
    PlacementPolicy,
)
from edgesim.config import load_scenario
from edgesim.engine import BASELINE, ENGINES, RENOVATED, prepare_run, run_scenario
from edgesim.harness import VALIDATION_METRICS, bench_sweep, metric_samples
from edgesim.kernel import EventKind, Kernel
from edgesim.load import TaskTypeProfile, generate_all, schedule_lazy
from edgesim.mobility import AccessPoint, EventDrivenMobility, PrecomputedMobility
from edgesim.rng import LOAD, DeviceStreams, run_seed
from edgesim.stats import ks_p_value, ks_statistic

DEFAULT = load_scenario("scenarios/default.json")
BENCH = load_scenario("scenarios/bench.json")
MASTER = 42


def random_aps(rnd: random.Random, n: int) -> list[AccessPoint]:
    return [
        AccessPoint(
            id=i,
            x_m=100.0 * i,
            y_m=0.0,
            attractiveness_s=rnd.uniform(60, 600),
            wlan_bandwidth_mbps=200.0,
        )
        for i in range(n)
    ]


def test_criterion_01_mobility_strategies_agree_exactly():
    """Precomputed and event-driven movement give identical visit histories.

    Trajectory equality is checked move by move with exact float
    comparison, which implies agreement on every device's location at
    every event boundary, and provider lookups are cross-checked at
    sampled times as well.
    """
    rnd = random.Random(101)
    t0 = time.perf_counter()
    scenarios = moves = 0
    for _ in range(50):
        devices = rnd.randint(3, 200)
        aps = random_aps(rnd, rnd.randint(2, 14))
        horizon = rnd.uniform(600, 3600)
        seed = rnd.getrandbits(32)

        pre = PrecomputedMobility(
            devices, aps, horizon, [DeviceStreams(seed, d) for d in range(devices)]
        )
        kernel = Kernel()
        event_driven = EventDrivenMobility(
            devices, aps, [DeviceStreams(seed, d) for d in range(devices)], kernel
        )
        history = {
            d: [(0.0, event_driven.location_of(d, 0.0))] for d in range(devices)
        }

        def on_move(ev):
            loc = event_driven.on_device_move(ev.payload, ev.time)
            history[ev.payload].append((ev.time, loc))

        kernel.run(horizon, on_move)

        for d in range(devices):
            traj = pre.trajectories[d]
            expected = [
                (t, loc)
                for t, loc in zip(traj.times, traj.locations)
                if t <= horizon
            ]
            assert history[d] == expected, f"device {d} diverged"
            moves += len(expected) - 1
        for _ in range(5):
            t = rnd.uniform(0.0, horizon)
            sample = rnd.sample(range(devices), min(10, devices))
            for d in sample:
                want = pre.location_of(d, t)
                got = next(
                    loc for vt, loc in reversed(history[d]) if vt <= t
                )
                assert want == got
        scenarios += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"criterion 1 PASS: {scenarios} scenarios, {moves} moves exact, "
        f"{elapsed:.1f}s (< 60s)"
    )


def test_criterion_02_load_strategies_agree_exactly():
    """Eager and lazy task generation emit the same (device, arrival) multiset."""
    rnd = random.Random(102)
    t0 = time.perf_counter()
    scenarios = tasks = 0
    for _ in range(50):
        devices = rnd.randint(3, 200)
        horizon = rnd.uniform(600, 3600)
        seed = rnd.getrandbits(32)
        profile = TaskTypeProfile(
            name="battery",
            interarrival_mean_s=rnd.uniform(5, 60),
            active_s=rnd.uniform(20, 600),
            idle_s=rnd.uniform(20, 600),
            upload_bytes=1_000_000,
            download_bytes=100_000,
            length_mi=3000.0,
            vm_utilization_pct=10.0,
            cloud_probability=0.0,
        )

        eager = Counter()
        for d in range(devices):
            gen = DeviceStreams(seed, d).get(LOAD)
            for arrival in generate_all(profile, horizon, gen):
                eager[(d, arrival)] += 1

        lazy = Counter()
        kernel = Kernel()
        streams = [DeviceStreams(seed, d) for d in range(devices)]
        ids = itertools.count()

        def handler(ev):
            if ev.kind == EventKind.TASK_ARRIVAL:
                lazy[(ev.payload.device, ev.payload.arrival)] += 1
            elif ev.kind == EventKind.ACTIVE_PERIOD_START:
                schedule_lazy(
                    ev.payload,
                    profile,
                    ev.time,
                    horizon,
                    streams[ev.payload].get(LOAD),
                    kernel,
                    ids.__next__,
                )
            else:
                raise AssertionError(f"unexpected event {ev.kind}")

        for d in range(devices):
            schedule_lazy(
                d, profile, 0.0, horizon, streams[d].get(LOAD), kernel, ids.__next__
            )
        kernel.run(horizon, handler)

        assert lazy == eager
        scenarios += 1
        tasks += sum(eager.values())
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"criterion 2 PASS: {scenarios} scenarios, {tasks} arrivals matched, "
        f"{elapsed:.1f}s (< 60s)"
    )


def test_criterion_03_determinism_and_matched_seed_equality():
    """Repeat runs are byte-identical; engines agree under matched seeds."""
    t0 = time.perf_counter()
    seed = run_seed(MASTER, "acceptance-determinism", 0)
    for engine in ENGINES:
        first, _ = run_scenario(DEFAULT, engine, seed)
        second, _ = run_scenario(DEFAULT, engine, seed)
        assert first.canonical() == second.canonical(), engine

    base, _ = run_scenario(DEFAULT, BASELINE, seed)
    reno, _ = run_scenario(DEFAULT, RENOVATED, seed)
    assert base.tasks_generated == reno.tasks_generated
    assert base.failed_network == reno.failed_network
    assert base.failed_mobility == reno.failed_mobility
    assert base.failed_vm == reno.failed_vm
    assert base.avg_service_time_s == reno.avg_service_time_s
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"criterion 3 PASS: byte-identical reruns, engines agree on "
        f"{base.tasks_generated} tasks, {elapsed:.1f}s (< 60s)"
    )


def test_criterion_04_conservation_suite():
    """Device counts, task accounting, VM and WAN budgets all conserve."""
    rnd = random.Random(104)
    t0 = time.perf_counter()
    policies = [
        PlacementPolicy(SINGLE_TIER),
        PlacementPolicy(TWO_TIER),
        PlacementPolicy(TWO_TIER_ORCHESTRATOR, 40.0),
    ]
    events_checked = 0
    for i in range(20):
        cfg = replace(
            DEFAULT,
            device_count=rnd.randint(20, 120),
            duration_min=float(rnd.randint(5, 12)),
            policy=rnd.choice(policies),
        )
        engine = ENGINES[i % 2]
        seed = run_seed(MASTER, "acceptance-conservation", i)
        n = cfg.device_count
        seen = 0

        def observer(ctx, ev):
            nonlocal seen
            assert sum(ctx.mobility.counts_all(ev.time)) == n
            seen += 1

        ctx = prepare_run(cfg, engine, seed)
        summary, stats = ctx.execute(observer)
        assert seen == stats.events_dispatched
        assert (
            summary.completed
            + summary.failed_network
            + summary.failed_mobility
            + summary.failed_vm
            == summary.tasks_generated
        )
        assert ctx.network.active_wan_transfers == 0
        assert all(vm.util_centipct == 0 for vm in ctx.compute.all_vms())
        events_checked += seen
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 4 PASS: 20 randomized runs, {events_checked} events "
        f"conserve devices, {elapsed:.1f}s"
    )


def test_criterion_05_ks_unit_correctness():
    """Tabulated statistics, exact-distribution cross-check, calibration."""
    t0 = time.perf_counter()
    assert ks_statistic([1, 2], [1.5, 2.5]) == pytest.approx(0.5, abs=1e-12)
    assert ks_statistic([1, 2, 3, 4], [2, 3, 4, 5]) == pytest.approx(0.25, abs=1e-12)
    assert ks_statistic([1, 2, 3], [1, 2, 3]) == pytest.approx(0.0, abs=1e-12)

    p = ks_p_value(0.036, 500, 500)
    assert 0.88 <= p <= 0.91
    assert abs(p - 0.9022) < 0.015

    # calibration: same-distribution pairs must reject near the nominal rate
    gen = np.random.Generator(np.random.Philox(key=20260822))
    trials, n = 1000, 100
    rejections = 0
    for _ in range(trials):
        a = gen.standard_normal(n)
        b = gen.standard_normal(n)
        d = ks_statistic(a, b)
        if ks_p_value(d, n, n) < 0.05:
            rejections += 1
    rate = rejections / trials
    assert 0.02 <= rate <= 0.08
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"criterion 5 PASS: exact statistics, p={p:.4f}, calibration "
        f"rate={rate:.3f} in [0.02, 0.08], {elapsed:.1f}s (< 120s)"
    )


def test_criterion_06_desk_scale_validation_campaign():
    """200 runs per engine per architecture; >= 14 of 15 cells keep p > 0.05."""
    t0 = time.perf_counter()
    architectures = {
        "single-tier": DEFAULT,
        "two-tier": replace(DEFAULT, policy=PlacementPolicy(TWO_TIER)),
        "orchestrator": replace(
            DEFAULT, policy=PlacementPolicy(TWO_TIER_ORCHESTRATOR, 40.0)
        ),
    }
    runs = 200
    cells = []
    for arch, cfg in architectures.items():
        summaries = {}
        for engine in ENGINES:
            family = f"validate-{arch}-{engine}"
            summaries[engine] = [
                run_scenario(cfg, engine, run_seed(MASTER, family, i))[0]
                for i in range(runs)
            ]
        for metric in VALIDATION_METRICS:
            a = metric_samples(summaries[BASELINE], metric)
            b = metric_samples(summaries[RENOVATED], metric)
            d = ks_statistic(a, b)
            cells.append((arch, metric, d, ks_p_value(d, len(a), len(b))))

    passing = sum(1 for _, _, _, p in cells if p > 0.05)
    for arch, metric, d, p in cells:
        flag = "ok" if p > 0.05 else "REJECT"
        print(f"  {arch:12s} {metric:20s} d={d:.4f} p={p:.4f} [{flag}]")
    assert passing >= 14, f"only {passing}/15 cells above 0.05"
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 6 PASS: {passing}/15 cells with p > 0.05 "
        f"({runs} runs/engine/architecture), {elapsed:.0f}s (target < 600s)"
    )


def test_criterion_07_queue_scaling_property():
    """Baseline queue grows with horizon; renovated queue stays flat."""
    t0 = time.perf_counter()
    seed = run_seed(MASTER, "acceptance-queue", 0)
    peaks = {}
    for minutes in (30.0, 150.0):
        cfg = replace(BENCH, duration_min=minutes)
        for engine in ENGINES:
            _, stats = run_scenario(cfg, engine, seed)
            peaks[(engine, minutes)] = stats.peak_queue_size
    base_ratio = peaks[(BASELINE, 150.0)] / peaks[(BASELINE, 30.0)]
    reno_ratio = peaks[(RENOVATED, 150.0)] / peaks[(RENOVATED, 30.0)]
    assert base_ratio >= 4.0
    assert reno_ratio <= 1.1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"criterion 7 PASS: baseline 150/30-min peak ratio {base_ratio:.2f} "
        f"(>= 4), renovated {reno_ratio:.2f} (<= 1.1), {elapsed:.1f}s (< 120s)"
    )


def test_criterion_08_registry_probe_asymptotics():
    """Append-only lookups cost >= 20x the pruned map's on a ~10k-task run."""
    t0 = time.perf_counter()
    cfg = replace(BENCH, device_count=400, duration_min=45.0)
    seed = run_seed(MASTER, "acceptance-registry", 0)
    probes = {}
    tasks = None
    for strategy in ("append-only", "pruned"):
        ctx = prepare_run(cfg, RENOVATED, seed, registry_strategy=strategy)
        summary, _ = ctx.execute()
        probes[strategy] = ctx.registry.probes
        tasks = summary.tasks_generated
    ratio = probes["append-only"] / probes["pruned"]
    assert ratio >= 20.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"criterion 8 PASS: {tasks} tasks, probe ratio {ratio:.0f} (>= 20), "
        f"{elapsed:.1f}s (< 60s)"
    )


def test_criterion_09_speedup_trend_across_device_sweep():
    """Renovated is faster at every sweep point and the gap keeps widening."""
    t0 = time.perf_counter()
    rows = bench_sweep(
        BENCH,
        "devices",
        [200, 400, 600, 800, 1000],
        iterations=10,
        master_seed=MASTER,
    )
    by_point = {}
    for row in rows:
        by_point.setdefault(row.value, {})[row.engine] = row.mean_wall_s
    ratios = []
    for value in sorted(by_point):
        walls = by_point[value]
        assert walls[RENOVATED] < walls[BASELINE], f"devices={value:g}"
        ratios.append(walls[BASELINE] / walls[RENOVATED])
    assert all(a <= b for a, b in zip(ratios, ratios[1:])), ratios
    elapsed = time.perf_counter() - t0
    pretty = ", ".join(f"{r:.1f}x" for r in ratios)
    print(
        f"criterion 9 PASS: speedups [{pretty}] non-decreasing, max "
        f"{max(ratios):.1f}x (absolute figure reported, not asserted), "
        f"{elapsed:.0f}s (target < 1200s)"
    )
