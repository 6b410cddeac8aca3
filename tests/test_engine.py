"""Full-run behavior: determinism, cross-engine agreement, conservation."""

from __future__ import annotations

from collections import Counter

import pytest

from edgesim.compute import SINGLE_TIER, TWO_TIER
from edgesim.config import parse_scenario_dict
from edgesim.engine import BASELINE, ENGINES, RENOVATED, prepare_run, run_scenario
from edgesim.kernel import EventKind
from edgesim.load import generate_all
from edgesim.rng import LOAD, DeviceStreams
from tests.conftest import make_cfg, scenario_dict

SEED = 2026_08


def model_view(summary) -> str:
    """Canonical text minus queue occupancy, which is engine-specific."""
    parts = summary.canonical().split(";")
    return ";".join(p for p in parts if not p.startswith("peak_queue_size="))


@pytest.mark.parametrize("engine", ENGINES)
def test_repeat_run_is_deterministic(small_cfg, engine):
    a, _ = run_scenario(small_cfg, engine, SEED)
    b, _ = run_scenario(small_cfg, engine, SEED)
    assert a.canonical() == b.canonical()


def test_engines_agree_on_every_metric(small_cfg):
    base, _ = run_scenario(small_cfg, BASELINE, SEED)
    reno, _ = run_scenario(small_cfg, RENOVATED, SEED)
    assert base.tasks_generated == reno.tasks_generated
    assert base.completed == reno.completed
    assert base.failed_network == reno.failed_network
    assert base.failed_mobility == reno.failed_mobility
    assert base.failed_vm == reno.failed_vm
    assert base.failed_rel_pct == reno.failed_rel_pct
    # bitwise float agreement, not approximate: same draws, same arithmetic
    assert base.avg_service_time_s == reno.avg_service_time_s
    assert model_view(base) == model_view(reno)
    # the queue footprint is the one thing that should differ
    assert base.peak_queue_size != reno.peak_queue_size


def test_seed_changes_the_outcome(small_cfg):
    a, _ = run_scenario(small_cfg, RENOVATED, 1)
    b, _ = run_scenario(small_cfg, RENOVATED, 2)
    assert a.canonical() != b.canonical()


def test_two_tier_with_zero_cloud_probability_matches_single_tier():
    ds = scenario_dict(policy={"variant": SINGLE_TIER})
    dt = scenario_dict(policy={"variant": TWO_TIER})
    for d in (ds, dt):
        d["profiles"][0]["cloud_probability"] = 0.0
    a, _ = run_scenario(parse_scenario_dict(ds), BASELINE, SEED)
    b, _ = run_scenario(parse_scenario_dict(dt), BASELINE, SEED)
    assert a.canonical() == b.canonical()


def test_renovated_queue_stays_smaller(small_cfg):
    _, base = run_scenario(small_cfg, BASELINE, SEED)
    _, reno = run_scenario(small_cfg, RENOVATED, SEED)
    assert reno.peak_queue_size < base.peak_queue_size


@pytest.mark.parametrize("engine", ENGINES)
def test_accounting_identity_after_drain(small_cfg, engine):
    s, _ = run_scenario(small_cfg, engine, SEED)
    assert s.tasks_generated > 0
    assert (
        s.completed + s.failed_network + s.failed_mobility + s.failed_vm
        == s.tasks_generated
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_shared_state_settles_to_zero(small_cfg, engine):
    ctx = prepare_run(small_cfg, engine, SEED)
    ctx.execute()
    assert ctx.network.active_wan_transfers == 0
    assert all(vm.util_centipct == 0 for vm in ctx.compute.all_vms())


def test_device_conservation_at_every_event(small_cfg):
    n = small_cfg.device_count
    checked = 0

    def observer(ctx, ev):
        nonlocal checked
        counts = ctx.mobility.counts_all(ev.time)
        assert sum(counts) == n
        checked += 1
        # every three hundredth event, recount from per-device locations
        if checked % 300 == 0:
            recount = Counter(
                ctx.mobility.location_of(d, ev.time) for d in range(n)
            )
            assert counts == [recount.get(ap, 0) for ap in range(len(counts))]

    _, stats = run_scenario(small_cfg, RENOVATED, SEED, observer=observer)
    assert checked == stats.events_dispatched


def test_registry_choice_is_metric_transparent(small_cfg):
    pruned = prepare_run(small_cfg, RENOVATED, SEED, registry_strategy="pruned")
    appendonly = prepare_run(
        small_cfg, RENOVATED, SEED, registry_strategy="append-only"
    )
    sp, _ = pruned.execute()
    sa, _ = appendonly.execute()
    assert sp.canonical() == sa.canonical()
    assert appendonly.registry.probes > pruned.registry.probes
    assert len(appendonly.registry) > len(pruned.registry) == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_snapshot_log_covers_horizon(small_cfg, engine):
    ctx = prepare_run(small_cfg, engine, SEED, snapshots=True)
    ctx.execute()
    rows = ctx.snapshot_log.rows
    n_aps = len(small_cfg.access_points)
    times = sorted({t for t, _, _ in rows})
    # period 60 over 600 s: snapshots at 60, 120, ..., 600 inclusive
    assert times == [60.0 * k for k in range(1, 11)]
    assert len(rows) == len(times) * n_aps
    for t in times:
        assert sum(c for rt, _, c in rows if rt == t) == small_cfg.device_count


def test_snapshots_require_a_period():
    cfg = make_cfg(snapshot_period_s=None)
    with pytest.raises(ValueError):
        prepare_run(cfg, RENOVATED, SEED, snapshots=True)


def test_record_sink_sees_every_task(small_cfg):
    sink = []
    s, _ = run_scenario(small_cfg, RENOVATED, SEED, record_sink=sink)
    assert len(sink) == s.tasks_generated
    assert len({r.props.task_id for r in sink}) == len(sink)


def test_observer_called_once_per_dispatch(small_cfg):
    seen = []
    _, stats = run_scenario(
        small_cfg, BASELINE, SEED, observer=lambda ctx, ev: seen.append(ev.kind)
    )
    assert len(seen) == stats.events_dispatched


def test_baseline_preenqueues_the_eager_arrival_list(small_cfg):
    ctx = prepare_run(small_cfg, BASELINE, SEED)
    # independent replay of the same substreams yields the same arrivals
    expected = 0
    for d in range(small_cfg.device_count):
        gen = DeviceStreams(SEED, d).get(LOAD)
        expected += len(
            generate_all(ctx.profiles[d], small_cfg.horizon_s, gen)
        )
    assert ctx.kernel.scheduled_count == expected
    summary, _ = ctx.execute()
    assert summary.tasks_generated == expected


def test_longer_executions_lose_more_tasks_to_movement():
    dq = scenario_dict()
    dq["profiles"][0]["length_mi"] = 800
    ds = scenario_dict()
    ds["profiles"][0]["length_mi"] = 40000
    sq, _ = run_scenario(parse_scenario_dict(dq), RENOVATED, SEED)
    ss, _ = run_scenario(parse_scenario_dict(ds), RENOVATED, SEED)
    assert ss.failed_mobility > sq.failed_mobility


def test_unknown_engine_rejected(small_cfg):
    with pytest.raises(ValueError):
        prepare_run(small_cfg, "turbo", SEED)


def test_second_execute_raises(small_cfg):
    ctx = prepare_run(small_cfg, RENOVATED, SEED)
    ctx.execute()
    with pytest.raises(RuntimeError):
        ctx.execute()


@pytest.mark.parametrize(
    "engine, kind",
    [
        (BASELINE, EventKind.DEVICE_MOVE),  # renovated-only kind
        (BASELINE, EventKind.ACTIVE_PERIOD_START),
        (RENOVATED, len(EventKind)),  # outside the taxonomy
        (RENOVATED, -1),  # must not wrap around to the last kind
    ],
)
def test_event_without_a_handler_fails_loudly(small_cfg, engine, kind):
    ctx = prepare_run(small_cfg, engine, SEED)
    ctx.kernel.schedule(1.0, kind, 0)
    with pytest.raises(ValueError, match="unhandled event kind"):
        ctx.execute()


def test_engines_agree_when_the_horizon_cuts_active_windows():
    # 90 s cuts the second 40 s active window; 10 s executions and dwells
    # of 20-40 s leave tasks in flight at the horizon whose devices the
    # baseline trajectories would still move after it.
    d = scenario_dict(duration_min=1.5, device_count=30)
    for ap, dwell in zip(d["access_points"], (20, 30, 40, 25)):
        ap["attractiveness_s"] = dwell
    d["profiles"][0]["length_mi"] = 40000
    cfg = parse_scenario_dict(d)
    for seed in range(4):
        sink = []
        base, _ = run_scenario(cfg, BASELINE, seed, record_sink=sink)
        reno, _ = run_scenario(cfg, RENOVATED, seed)
        assert any(r.finished_at > cfg.horizon_s for r in sink)
        assert model_view(base) == model_view(reno)
