"""Placement rules, VM admission, and the task lifecycle pipeline."""

from __future__ import annotations

import pytest

from edgesim.compute import (
    SINGLE_TIER,
    TWO_TIER,
    TWO_TIER_ORCHESTRATOR,
    ComputeState,
    LifecycleDriver,
    PlacementPolicy,
    TaskStatus,
    VmState,
    execution_time,
    least_utilized,
    release,
    select_target,
    try_allocate,
)
from edgesim.kernel import Kernel
from edgesim.load import TaskProperties, TaskTypeProfile
from edgesim.metrics import MetricsCollector
from edgesim.mobility import AccessPoint
from edgesim.network import NetworkState
from edgesim.registry import make_registry
from edgesim.rng import DeviceStreams


def profile(**overrides) -> TaskTypeProfile:
    base = dict(
        name="p",
        interarrival_mean_s=20.0,
        active_s=40.0,
        idle_s=20.0,
        upload_bytes=2_500_000,
        download_bytes=1_250_000,
        length_mi=10_000.0,
        vm_utilization_pct=10.0,
        cloud_probability=0.0,
    )
    base.update(overrides)
    return TaskTypeProfile(**base)


class StaticMobility:
    """Every device pinned to one AP; fixed count there."""

    def __init__(self, loc=0, count=5, n_aps=4, bandwidth=100.0):
        self.loc = loc
        self.count = count
        self.aps = [
            AccessPoint(id=i, x_m=0.0, y_m=0.0, attractiveness_s=300.0,
                        wlan_bandwidth_mbps=bandwidth)
            for i in range(n_aps)
        ]

    def location_of(self, device, now):
        return self.loc

    def count_at(self, loc, now):
        return self.count


class TeleportingMobility(StaticMobility):
    """Device sits at `loc` until `jump_at`, then appears at `to_loc`."""

    def __init__(self, jump_at, to_loc, **kw):
        super().__init__(**kw)
        self.jump_at = jump_at
        self.to_loc = to_loc

    def location_of(self, device, now):
        return self.to_loc if now >= self.jump_at else self.loc


def vm(util_pct: float, vm_id=0, ap=0, mips=2000.0) -> VmState:
    v = VmState(vm_id, ap, mips)
    v.util_centipct = round(util_pct * 100)
    return v


# --- selection and admission ------------------------------------------------

def test_single_tier_picks_least_utilized():
    compute = ComputeState(n_aps=1, vms_per_ap=2, edge_mips=2000,
                           cloud_vm_count=1, cloud_mips=10000)
    compute.edge_vms[0][0].util_centipct = 4000
    compute.edge_vms[0][1].util_centipct = 1000
    target, wan = select_target(
        PlacementPolicy(SINGLE_TIER), profile(), 0, compute, DeviceStreams(1, 0)
    )
    assert target is compute.edge_vms[0][1]
    assert wan is False


def test_least_utilized_tie_break_is_first():
    vms = [vm(10, vm_id=0), vm(10, vm_id=1)]
    assert least_utilized(vms) is vms[0]


def test_two_tier_degenerate_probability_goes_edge():
    compute = ComputeState(1, 1, 2000, 1, 10000)
    target, wan = select_target(
        PlacementPolicy(TWO_TIER), profile(cloud_probability=0.0), 0, compute,
        DeviceStreams(1, 0),
    )
    assert target is compute.edge_vms[0][0]
    assert wan is False


def test_two_tier_certain_probability_goes_cloud():
    compute = ComputeState(1, 1, 2000, 1, 10000)
    target, wan = select_target(
        PlacementPolicy(TWO_TIER), profile(cloud_probability=1.0), 0, compute,
        DeviceStreams(1, 0),
    )
    assert target is compute.cloud_vms[0]
    assert wan is True


def test_orchestrator_threshold_rule():
    compute = ComputeState(1, 1, 2000, 1, 10000)
    compute.edge_vms[0][0].util_centipct = 7500
    pol = PlacementPolicy(TWO_TIER_ORCHESTRATOR, edge_utilization_threshold_pct=80.0)
    target, wan = select_target(pol, profile(vm_utilization_pct=10.0), 0, compute,
                                DeviceStreams(1, 0))
    assert target is compute.cloud_vms[0]  # 75 + 10 > 80
    assert wan is True
    # at 65 the same task stays on the edge
    compute.edge_vms[0][0].util_centipct = 6500
    target2, wan2 = select_target(pol, profile(vm_utilization_pct=10.0), 0, compute,
                                  DeviceStreams(1, 0))
    assert target2 is compute.edge_vms[0][0]
    assert wan2 is False


def test_orchestrator_threshold_boundary_is_exact():
    # 0.2% + 0.1% is 0.30000000000000004 in floats; in hundredths of a
    # percent it is exactly the 0.3% threshold, which does not cross it
    compute = ComputeState(1, 1, 2000, 1, 10000)
    compute.edge_vms[0][0].util_centipct = 20
    pol = PlacementPolicy(TWO_TIER_ORCHESTRATOR, edge_utilization_threshold_pct=0.3)
    target, wan = select_target(pol, profile(vm_utilization_pct=0.1), 0, compute,
                                DeviceStreams(1, 0))
    assert target is compute.edge_vms[0][0]
    assert wan is False
    compute.edge_vms[0][0].util_centipct = 21
    target, wan = select_target(pol, profile(vm_utilization_pct=0.1), 0, compute,
                                DeviceStreams(1, 0))
    assert target is compute.cloud_vms[0]
    assert wan is True


def test_orchestrator_requires_threshold():
    with pytest.raises(ValueError):
        PlacementPolicy(TWO_TIER_ORCHESTRATOR)
    with pytest.raises(ValueError):
        PlacementPolicy("round-robin")


def test_try_allocate_boundary():
    v = vm(90.0)
    assert try_allocate(v, profile(vm_utilization_pct=10.0)) is True
    assert v.utilization_pct == 100.0
    w = vm(95.0)
    assert try_allocate(w, profile(vm_utilization_pct=10.0)) is False
    assert w.utilization_pct == 95.0


def test_admit_release_round_trip_is_exact():
    v = vm(37.5)
    p = profile(vm_utilization_pct=12.3)
    before = v.util_centipct
    try_allocate(v, p)
    release(v, p)
    assert v.util_centipct == before  # integer bookkeeping, zero residue


def test_execution_time_proportions():
    assert execution_time(profile(length_mi=10_000), vm(0, mips=2000)) == 5.0
    assert execution_time(profile(length_mi=10_000), vm(0, mips=4000)) == 2.5


# --- lifecycle pipeline ------------------------------------------------------

def make_driver(mobility, policy=None, **net_kw):
    kernel = Kernel()
    net_kw.setdefault("wan_bandwidth_mbps", 200.0)
    net_kw.setdefault("wan_propagation_s", 0.1)
    network = NetworkState(mobility, **net_kw)
    compute = ComputeState(n_aps=len(mobility.aps), vms_per_ap=1, edge_mips=2000.0,
                           cloud_vm_count=1, cloud_mips=10_000.0)
    registry = make_registry("pruned")
    metrics = MetricsCollector()
    metrics.record_sink = []
    driver = LifecycleDriver(
        kernel, mobility, network, compute, registry,
        policy or PlacementPolicy(SINGLE_TIER),
        [DeviceStreams(1, d) for d in range(4)], metrics,
    )
    return kernel, driver, metrics


def run_pipeline(kernel, driver, *props_list, horizon=1e9):
    from edgesim.kernel import EventKind

    for props in props_list:
        kernel.schedule(props.arrival, EventKind.TASK_ARRIVAL, props)

    def handler(ev):
        if ev.kind == EventKind.TASK_ARRIVAL:
            driver.on_task_arrival(ev.payload, ev.time)
        elif ev.kind == EventKind.UPLOAD_DONE:
            driver.on_upload_done(ev.payload, ev.time)
        elif ev.kind == EventKind.EXEC_DONE:
            driver.on_exec_done(ev.payload, ev.time)
        elif ev.kind == EventKind.DOWNLOAD_DONE:
            driver.on_download_done(ev.payload, ev.time)

    kernel.run(horizon, handler)


def test_end_to_end_service_time_composition():
    # hand-composed pipeline: upload 1.0 + exec 5.0 + download 0.5
    kernel, driver, metrics = make_driver(StaticMobility(count=5, bandwidth=100.0))
    run_pipeline(kernel, driver, TaskProperties(0, 0, profile(), 3.0))
    (rec,) = metrics.record_sink
    assert rec.status is TaskStatus.COMPLETED
    assert rec.upload_done_at == pytest.approx(4.0, rel=1e-12)
    assert rec.exec_done_at == pytest.approx(9.0, rel=1e-12)
    assert rec.finished_at == pytest.approx(9.5, rel=1e-12)
    summary = metrics.build_summary(kernel.run(1e9, lambda ev: None))
    assert summary.avg_service_time_s == pytest.approx(6.5, rel=1e-12)


def test_device_that_moved_fails_mobility():
    # upload finishes at 1.0, execution at 6.0; the device jumps at 2.0,
    # so delivery finds it gone from AP 0
    mob = TeleportingMobility(jump_at=2.0, to_loc=3)
    kernel, driver, metrics = make_driver(mob)
    run_pipeline(kernel, driver, TaskProperties(0, 0, profile(), 0.0))
    (rec,) = metrics.record_sink
    assert rec.status is TaskStatus.FAILED_MOBILITY
    assert metrics.failed_mobility == 1
    assert rec.finished_at == rec.exec_done_at


def test_device_that_stayed_completes():
    mob = TeleportingMobility(jump_at=1e8, to_loc=3)
    kernel, driver, metrics = make_driver(mob)
    run_pipeline(kernel, driver, TaskProperties(0, 0, profile(), 0.0))
    (rec,) = metrics.record_sink
    assert rec.status is TaskStatus.COMPLETED


def test_cloud_task_survives_movement():
    # result rides the WAN to the device's current AP
    mob = TeleportingMobility(jump_at=2.0, to_loc=3)
    kernel, driver, metrics = make_driver(
        mob, policy=PlacementPolicy(TWO_TIER)
    )
    run_pipeline(
        kernel, driver, TaskProperties(0, 0, profile(cloud_probability=1.0), 0.0)
    )
    (rec,) = metrics.record_sink
    assert rec.target.is_cloud
    assert rec.status is TaskStatus.COMPLETED
    assert driver.network.active_wan_transfers == 0


def test_upload_congestion_short_circuits():
    # 101 devices on a capacity-100 AP: fails before any VM is touched
    kernel, driver, metrics = make_driver(
        StaticMobility(count=101), wlan_device_capacity=100
    )
    run_pipeline(kernel, driver, TaskProperties(0, 0, profile(), 0.0))
    (rec,) = metrics.record_sink
    assert rec.status is TaskStatus.FAILED_NETWORK
    assert all(v.util_centipct == 0 for v in driver.compute.all_vms())
    assert rec.upload_done_at is None


def test_vm_capacity_failure_at_upload_done():
    kernel, driver, metrics = make_driver(StaticMobility(count=1))
    driver.compute.edge_vms[0][0].util_centipct = 9500
    run_pipeline(
        kernel, driver, TaskProperties(0, 0, profile(vm_utilization_pct=10.0), 0.0)
    )
    (rec,) = metrics.record_sink
    assert rec.status is TaskStatus.FAILED_VM_CAPACITY
    assert metrics.failed_vm == 1
    # utilization untouched by the rejected task
    assert driver.compute.edge_vms[0][0].util_centipct == 9500


def test_vm_utilization_returns_to_zero_after_completion():
    kernel, driver, metrics = make_driver(StaticMobility(count=2))
    run_pipeline(
        kernel,
        driver,
        *(TaskProperties(i, 0, profile(), float(i)) for i in range(3)),
    )
    assert all(v.util_centipct == 0 for v in driver.compute.all_vms())
    assert metrics.completed == 3
