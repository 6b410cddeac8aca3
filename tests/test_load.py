"""Task arrival generation: active-window loop, eager/lazy parity."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesim.kernel import EventKind, Kernel
from edgesim.load import (
    TaskProperties,
    TaskTypeProfile,
    generate_active_period,
    generate_all,
    sample_interarrival,
    schedule_lazy,
)
from edgesim.rng import LOAD, DeviceStreams


def profile(**overrides) -> TaskTypeProfile:
    base = dict(
        name="p",
        interarrival_mean_s=20.0,
        active_s=40.0,
        idle_s=20.0,
        upload_bytes=1_000_000,
        download_bytes=200_000,
        length_mi=5000.0,
        vm_utilization_pct=20.0,
        cloud_probability=0.0,
    )
    base.update(overrides)
    return TaskTypeProfile(**base)


class ScriptedGen:
    """Generator stub emitting gaps/mean as pre-encoded uniforms."""

    def __init__(self, gaps, mean):
        self.values = [-math.expm1(-g / mean) for g in gaps]

    def random(self):
        return self.values.pop(0)


def test_interarrival_analytic():
    assert sample_interarrival(5.0, 0.5) == pytest.approx(
        3.4657359027997265, rel=1e-12
    )
    assert sample_interarrival(5.0, 0.0) == 0.0


def test_interarrival_empirical_mean():
    # Monte-Carlo oracle: 1e6 draws at mean 5
    u = np.random.Generator(np.random.Philox(key=9090)).random(1_000_000)
    draws = -5.0 * np.log1p(-u)
    assert abs(float(draws.mean()) - 5.0) < 0.05


def test_active_period_hand_simulation():
    # gaps 10, 15, 25: third lands at 50, past the 40 s window
    gen = ScriptedGen([10, 15, 25], 20.0)
    arrivals, nxt = generate_active_period(profile(), 0.0, 1e9, gen)
    assert arrivals == pytest.approx([10.0, 25.0], rel=1e-12)
    assert nxt == 60.0


def test_active_period_first_draw_overshoots():
    gen = ScriptedGen([45], 20.0)
    arrivals, nxt = generate_active_period(profile(), 0.0, 1e9, gen)
    assert arrivals == []
    assert nxt == 60.0


def test_active_period_horizon_clamp():
    # window starts at 1790; a 4 s gap fits under horizon 1800, then stop
    gen = ScriptedGen([4, 10], 20.0)
    arrivals, _ = generate_active_period(profile(), 1790.0, 1800.0, gen)
    assert arrivals == pytest.approx([1794.0], rel=1e-12)
    gen2 = ScriptedGen([12], 20.0)
    arrivals2, _ = generate_active_period(profile(), 1790.0, 1800.0, gen2)
    assert arrivals2 == []  # 1802 is past the horizon


def test_active_period_requires_start_before_horizon():
    with pytest.raises(ValueError):
        generate_active_period(profile(), 1800.0, 1800.0, ScriptedGen([1], 20.0))


def test_generate_all_single_period_equals_one_call():
    p = profile(active_s=40.0, idle_s=20.0)
    a = generate_all(p, 40.0, DeviceStreams(21, 0).get(LOAD))
    b, _ = generate_active_period(p, 0.0, 40.0, DeviceStreams(21, 0).get(LOAD))
    assert a == b


def test_generate_all_expected_count():
    # Monte-Carlo oracle: horizon * duty_cycle / mean = 1800 * 0.75 / 5
    p = profile(interarrival_mean_s=5.0, active_s=45.0, idle_s=15.0)
    total = 0
    for d in range(500):
        total += len(generate_all(p, 1800.0, DeviceStreams(77, d).get(LOAD)))
    assert abs(total / 500 - 270.0) < 10.0


def test_arrivals_confined_to_active_windows():
    p = profile(interarrival_mean_s=7.0, active_s=33.0, idle_s=14.0)
    for d in range(20):
        for t in generate_all(p, 2000.0, DeviceStreams(13, d).get(LOAD)):
            k = int(t // p.cycle_s)
            offset = t - k * p.cycle_s
            assert 0.0 < offset < p.active_s
            assert t < 2000.0


@settings(max_examples=60)
@given(
    st.floats(min_value=2.0, max_value=60.0),
    st.floats(min_value=5.0, max_value=120.0),
    st.floats(min_value=0.0, max_value=120.0),
    st.integers(min_value=0, max_value=2**32),
)
def test_eager_equals_chained_periods(mean, active, idle, seed):
    # generate_all must be literally the fold of generate_active_period
    p = profile(interarrival_mean_s=mean, active_s=active, idle_s=idle)
    horizon = 900.0
    eager = generate_all(p, horizon, DeviceStreams(seed, 0).get(LOAD))
    gen = DeviceStreams(seed, 0).get(LOAD)
    chained, start = [], 0.0
    while start < horizon:
        period, start = generate_active_period(p, start, horizon, gen)
        chained.extend(period)
    assert eager == chained  # exact float equality


def test_schedule_lazy_enqueues_one_period_and_next_trigger():
    p = profile()
    kernel = Kernel()
    ids = iter(range(100)).__next__
    n = schedule_lazy(0, p, 0.0, 1e9, DeviceStreams(3, 0).get(LOAD), kernel, ids)
    events = []
    while (ev := kernel.pop_next()) is not None:
        events.append(ev)
    arrivals = [e for e in events if e.kind == EventKind.TASK_ARRIVAL]
    triggers = [e for e in events if e.kind == EventKind.ACTIVE_PERIOD_START]
    assert len(arrivals) == n
    assert [e.payload.arrival for e in arrivals] == sorted(
        e.payload.arrival for e in arrivals
    )
    assert all(isinstance(e.payload, TaskProperties) for e in arrivals)
    # exactly one next-period trigger, at period_start + cycle
    assert len(triggers) == 1
    assert triggers[0].time == 60.0
    assert triggers[0].payload == 0


def test_schedule_lazy_skips_trigger_past_horizon():
    p = profile()
    kernel = Kernel()
    schedule_lazy(
        0, p, 0.0, 50.0, DeviceStreams(3, 0).get(LOAD), kernel, iter(range(99)).__next__
    )
    kinds = []
    while (ev := kernel.pop_next()) is not None:
        kinds.append(ev.kind)
    assert EventKind.ACTIVE_PERIOD_START not in kinds  # next start 60 >= 50


def test_lazy_run_matches_eager_multiset():
    # cross-strategy oracle at unit scale; the acceptance suite runs the
    # full battery through the engine
    p = profile(interarrival_mean_s=9.0, active_s=30.0, idle_s=25.0)
    horizon = 700.0
    for d in range(10):
        eager = generate_all(p, horizon, DeviceStreams(55, d).get(LOAD))

        kernel = Kernel()
        gen = DeviceStreams(55, d).get(LOAD)
        ids = iter(range(10_000)).__next__
        collected = []
        schedule_lazy(d, p, 0.0, horizon, gen, kernel, ids)

        def handler(ev):
            if ev.kind == EventKind.TASK_ARRIVAL:
                collected.append(ev.payload.arrival)
            else:
                schedule_lazy(d, p, ev.time, horizon, gen, kernel, ids)

        kernel.run(horizon, handler)
        assert collected == eager  # dispatch order is arrival order
