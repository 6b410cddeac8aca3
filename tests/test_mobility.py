"""Mobility model: dwell/destination sampling, trajectories, counters.

Frozen constants come from three oracles: the analytic inverse
transform, hand simulation of the generation loop, and Monte-Carlo
renewal counts (see the movement-count test for the one place the
stored-trajectory convention matters).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgesim.kernel import EventKind, Kernel
from edgesim.mobility import (
    AccessPoint,
    DegenerateTopology,
    EventDrivenMobility,
    InconsistentState,
    PrecomputedMobility,
    Trajectory,
    UnknownLocation,
    pick_destination,
    place_initial,
    precompute_trajectory,
    sample_dwell,
)
from edgesim.rng import DESTINATION, DWELL, PLACEMENT, DeviceStreams


def ap(i: int, attractiveness: float = 300.0) -> AccessPoint:
    return AccessPoint(
        id=i, x_m=float(i), y_m=0.0, attractiveness_s=attractiveness,
        wlan_bandwidth_mbps=200.0,
    )


class FakeGen:
    """Stand-in generator yielding a scripted sequence of uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class FakeStreams:
    def __init__(self, mapping):
        self.mapping = {k: FakeGen(v) for k, v in mapping.items()}

    def get(self, purpose):
        return self.mapping[purpose]


# --- sample_dwell ---------------------------------------------------------

def test_dwell_analytic_inverse_transform():
    # -60 * ln(0.5), analytic oracle
    assert sample_dwell(60.0, 0.5) == pytest.approx(41.58883083359672, rel=1e-12)


def test_dwell_zero_at_u_zero():
    assert sample_dwell(10.0, 0.0) == 0.0


def test_dwell_empirical_mean():
    # Monte-Carlo oracle: 1e6 draws, expected mean 60
    u = np.random.Generator(np.random.Philox(key=2024)).random(1_000_000)
    draws = -60.0 * np.log1p(-u)
    # spot-check the vectorized oracle agrees with the scalar function
    assert sample_dwell(60.0, float(u[0])) == pytest.approx(float(draws[0]))
    assert abs(float(draws.mean()) - 60.0) < 0.5


def test_dwell_rejects_nonpositive_mean():
    with pytest.raises(ValueError):
        sample_dwell(0.0, 0.5)


@given(st.floats(min_value=0.0, max_value=0.999999))
def test_dwell_nonnegative_and_monotone_in_u(u):
    d = sample_dwell(30.0, u)
    assert d >= 0.0
    assert sample_dwell(30.0, min(u + 1e-6, 0.9999995)) >= d


# --- pick_destination -----------------------------------------------------

def test_destination_first_candidate():
    # candidates excluding current 2 are {0, 1, 3}
    assert pick_destination(2, 4, 0.0) == 0


def test_destination_skip_remap():
    # floor(0.7 * 3) = 2, third candidate of {0, 1, 3}
    assert pick_destination(2, 4, 0.7) == 3


def test_destination_degenerate_topology():
    with pytest.raises(DegenerateTopology):
        pick_destination(0, 1, 0.5)


def test_destination_uniform_over_non_current():
    # Monte-Carlo oracle: each non-current id at 1/3 +- 0.002
    gen = np.random.Generator(np.random.Philox(key=77))
    u = gen.random(1_000_000)
    counts = {0: 0, 1: 0, 3: 0}
    for x in u.tolist():
        counts[pick_destination(2, 4, x)] += 1
    for c in counts.values():
        assert abs(c / 1_000_000 - 1 / 3) < 0.002


@given(
    st.integers(min_value=0, max_value=13),
    st.integers(min_value=2, max_value=14),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_destination_in_range_and_never_current(current, n, u):
    if current >= n:
        current %= n
    dest = pick_destination(current, n, u)
    assert 0 <= dest < n
    assert dest != current


def test_placement_uniform_bounds():
    assert place_initial(4, 0.0) == 0
    assert place_initial(4, 0.999999) == 3


# --- precompute_trajectory -------------------------------------------------

def test_trajectory_tiny_horizon_single_movement():
    # first dwell 100 s with horizon just past 0: the loop runs once
    u_dwell = -math.expm1(-1.0)  # gap of one mean
    streams = FakeStreams({PLACEMENT: [0.0], DWELL: [u_dwell], DESTINATION: [0.0]})
    traj = precompute_trajectory(1e-9, [ap(0, 100.0), ap(1, 100.0)], streams)
    assert traj.times == pytest.approx([0.0, 100.0], rel=1e-12)
    assert traj.locations == [0, 1]
    assert traj.movement_count == 1


def test_trajectory_hand_simulated_keys():
    # dwell draws 100 then 250 (at attractiveness 100 then 250),
    # destinations forced to the first candidate: keys {0, 100, 350}
    u = -math.expm1(-1.0)
    streams = FakeStreams({PLACEMENT: [0.0], DWELL: [u, u], DESTINATION: [0.0, 0.0]})
    traj = precompute_trajectory(300.0, [ap(0, 100.0), ap(1, 250.0)], streams)
    assert traj.times == pytest.approx([0.0, 100.0, 350.0], rel=1e-12)
    assert traj.locations == [0, 1, 0]


def test_trajectory_invariants_and_movement_count():
    aps = [ap(i, 300.0) for i in range(5)]
    stored = []
    within = []
    for d in range(500):
        traj = precompute_trajectory(1800.0, aps, DeviceStreams(31, d))
        assert traj.times[0] == 0.0
        assert all(a < b for a, b in zip(traj.times, traj.times[1:]))
        assert traj.times[-1] > 1800.0  # generation overshoots the horizon
        stored.append(traj.movement_count)
        within.append(sum(1 for t in traj.times[1:] if t <= 1800.0))
    # renewal-process Monte-Carlo oracle: movements inside the horizon
    # average horizon/mean = 6; the stored trajectory keeps one extra
    # overshooting movement, so its count averages 7
    assert abs(sum(within) / 500 - 6.0) < 0.5
    assert abs(sum(stored) / 500 - 7.0) < 0.5


# --- PrecomputedMobility.location_of --------------------------------------

def test_floor_lookup():
    prov = PrecomputedMobility(1, [ap(0), ap(1), ap(2)], 300.0, [DeviceStreams(0, 0)])
    prov.trajectories[0] = Trajectory(times=[0.0, 100.0, 250.0], locations=[0, 1, 2])
    assert prov.location_of(0, 180.0) == 1
    assert prov.location_of(0, 100.0) == 1  # boundary: key equals t
    assert prov.location_of(0, 0.0) == 0
    with pytest.raises(ValueError):
        prov.location_of(0, -1.0)


# --- EventDrivenMobility ---------------------------------------------------

def placed(locations, n_aps, draws):
    """Scripted streams placing device d at locations[d] out of n_aps."""
    return [
        FakeStreams({PLACEMENT: [(loc + 0.5) / n_aps], **draws}) for loc in locations
    ]


def test_init_places_and_schedules_one_move_per_device():
    kernel = Kernel()
    aps = [ap(0), ap(1), ap(2)]
    streams = [
        FakeStreams({PLACEMENT: [0.0], DWELL: [0.5]}) for _ in range(3)
    ]
    mob = EventDrivenMobility(3, aps, streams, kernel)
    assert mob.counts_all(0.0) == [3, 0, 0]  # forced placement at AP 0
    assert len(kernel) == 3
    assert [mob.location_of(d, 0.0) for d in range(3)] == [0, 0, 0]


def test_init_first_move_times_match_precomputed_first_keys():
    # cross-strategy oracle: same streams, same first movement instant
    aps = [ap(i, 100.0 + 40 * i) for i in range(4)]
    kernel = Kernel()
    live = [DeviceStreams(5, d) for d in range(20)]
    EventDrivenMobility(20, aps, live, kernel)
    first_move = {}
    while len(kernel):
        ev = kernel.pop_next()
        assert ev.kind == EventKind.DEVICE_MOVE
        first_move[ev.payload] = ev.time
    fresh = [DeviceStreams(5, d) for d in range(20)]
    for d in range(20):
        traj = precompute_trajectory(600.0, aps, fresh[d])
        assert first_move[d] == traj.times[1]  # exact, same draws


def test_apply_movement_counter_update():
    aps = [ap(i) for i in range(4)]
    kernel = Kernel()
    # devices at APs 0, 2, 0; device 0's first move after 100 s (a third
    # of the mean), the others after 300 s
    streams = placed([0, 2, 0], 4, {DWELL: [-math.expm1(-1.0)]})
    streams[0] = placed(
        [0], 4, {DWELL: [-math.expm1(-1 / 3), -math.expm1(-0.25)], DESTINATION: [1 / 3]}
    )[0]
    mob = EventDrivenMobility(3, aps, streams, kernel)
    assert mob.counts_all(0.0) == [2, 0, 1, 0]
    ev = kernel.pop_next()
    assert ev.payload == 0 and ev.time == pytest.approx(100.0, rel=1e-12)
    # destination draw forced to AP 2 (candidates of 0 are {1,2,3})
    new = mob.on_device_move(0, ev.time)
    assert new == 2
    assert mob.counts_all(ev.time) == [1, 0, 2, 0]
    assert mob.location_of(0, ev.time) == 2
    # dwell of a quarter mean (75 s) at the new location: next move at 175
    ev = kernel.pop_next()
    assert ev.kind == EventKind.DEVICE_MOVE and ev.payload == 0
    assert ev.time == pytest.approx(175.0, rel=1e-12)


def test_apply_movement_underflow_aborts():
    aps = [ap(0), ap(1)]
    streams = placed([0], 2, {DESTINATION: [0.0], DWELL: [0.5, 0.5]})
    mob = EventDrivenMobility(1, aps, streams, Kernel())
    mob.counts[0] = 0  # counters out of step with the device's location
    with pytest.raises(InconsistentState):
        mob.on_device_move(0, 5.0)


def test_device_count_reads_and_bounds():
    streams = placed([2, 2, 0], 4, {DWELL: [0.5]})
    mob = EventDrivenMobility(3, [ap(i) for i in range(4)], streams, Kernel())
    assert mob.count_at(2, 0.0) == 2
    with pytest.raises(UnknownLocation):
        mob.count_at(7, 0.0)
    with pytest.raises(UnknownLocation):
        mob.count_at(-1, 0.0)


def test_replay_reproduces_baseline_trajectory_exactly():
    # drive only movement events; each move appended to a replay log
    # must recreate the precomputed trajectory, float for float
    aps = [ap(i, 120.0 + 60 * i) for i in range(4)]
    horizon = 2000.0
    n = 30
    kernel = Kernel()
    mob = EventDrivenMobility(n, aps, [DeviceStreams(11, d) for d in range(n)], kernel)
    replay = {d: [(0.0, mob.location_of(d, 0.0))] for d in range(n)}

    def handler(ev):
        new = mob.on_device_move(ev.payload, ev.time)
        replay[ev.payload].append((ev.time, new))
        assert sum(mob.counts_all(ev.time)) == n  # conservation at every event

    kernel.run(horizon, handler)

    fresh = [DeviceStreams(11, d) for d in range(n)]
    for d in range(n):
        traj = precompute_trajectory(horizon, aps, fresh[d])
        inside = [
            (t, loc) for t, loc in zip(traj.times, traj.locations) if t <= horizon
        ]
        assert replay[d] == inside  # exact float equality


def test_precomputed_provider_count_scan_matches_recount():
    aps = [ap(i) for i in range(3)]
    streams = [DeviceStreams(3, d) for d in range(40)]
    prov = PrecomputedMobility(40, aps, 1200.0, streams)
    for t in (0.0, 17.3, 600.0, 1199.9):
        counts = prov.counts_all(t)
        assert sum(counts) == 40
        recount = [0, 0, 0]
        for d in range(40):
            recount[prov.location_of(d, t)] += 1
        assert counts == recount
        for loc in range(3):
            assert prov.count_at(loc, t) == recount[loc]
