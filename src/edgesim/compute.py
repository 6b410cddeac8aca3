"""Edge/cloud compute tiers, placement policies, task lifecycle driver.

VM utilization is tracked in integer hundredths of a percent so that
admit/release sequences cancel exactly; the conservation suite asserts
zero residue after a run drains. Utilization gates admission only, it
never slows execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

from edgesim.kernel import EventKind, Kernel
from edgesim.load import TaskProperties, TaskTypeProfile
from edgesim.network import NetworkFailure, NetworkState
from edgesim.rng import POLICY, DeviceStreams

SINGLE_TIER = "single-tier"
TWO_TIER = "two-tier"
TWO_TIER_ORCHESTRATOR = "two-tier-orchestrator"

_VARIANTS = (SINGLE_TIER, TWO_TIER, TWO_TIER_ORCHESTRATOR)


@dataclass(frozen=True)
class PlacementPolicy:
    variant: str
    edge_utilization_threshold_pct: Optional[float] = None

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown policy variant: {self.variant!r}")
        if self.variant == TWO_TIER_ORCHESTRATOR:
            t = self.edge_utilization_threshold_pct
            if t is None or not 0 < t <= 100:
                raise ValueError("orchestrator threshold must be in (0, 100]")


class TaskStatus(Enum):
    IN_FLIGHT = "in-flight"
    COMPLETED = "completed"
    FAILED_NETWORK = "failed-network"
    FAILED_MOBILITY = "failed-mobility"
    FAILED_VM_CAPACITY = "failed-vm-capacity"


class VmState:
    """One VM; ap is None for the cloud tier."""

    __slots__ = ("id", "ap", "mips", "util_centipct")

    def __init__(self, vm_id: int, ap: Optional[int], mips: float) -> None:
        if mips <= 0:
            raise ValueError("mips must be positive")
        self.id = vm_id
        self.ap = ap
        self.mips = mips
        self.util_centipct = 0  # hundredths of a percent, exact

    @property
    def is_cloud(self) -> bool:
        return self.ap is None

    @property
    def utilization_pct(self) -> float:
        return self.util_centipct / 100.0


def _centipct(pct: float) -> int:
    return round(pct * 100)


def try_allocate(vm: VmState, profile: TaskTypeProfile) -> bool:
    """Admit iff the VM stays within 100%; admission adds the task's load."""
    add = _centipct(profile.vm_utilization_pct)
    if vm.util_centipct + add > 10000:
        return False
    vm.util_centipct += add
    return True


def release(vm: VmState, profile: TaskTypeProfile) -> None:
    vm.util_centipct -= _centipct(profile.vm_utilization_pct)
    if vm.util_centipct < 0:
        raise RuntimeError(f"VM {vm.id} utilization underflow")


def execution_time(profile: TaskTypeProfile, vm: VmState) -> float:
    return profile.length_mi / vm.mips


class ComputeState:
    """Edge VMs grouped per access point, plus the cloud pool."""

    def __init__(
        self,
        n_aps: int,
        vms_per_ap: int,
        edge_mips: float,
        cloud_vm_count: int,
        cloud_mips: float,
    ) -> None:
        if vms_per_ap < 1 or cloud_vm_count < 1:
            raise ValueError("need at least one VM per tier")
        next_id = 0
        self.edge_vms: list[list[VmState]] = []
        for ap in range(n_aps):
            group = []
            for _ in range(vms_per_ap):
                group.append(VmState(next_id, ap, edge_mips))
                next_id += 1
            self.edge_vms.append(group)
        self.cloud_vms = []
        for _ in range(cloud_vm_count):
            self.cloud_vms.append(VmState(next_id, None, cloud_mips))
            next_id += 1

    def all_vms(self):
        for group in self.edge_vms:
            yield from group
        yield from self.cloud_vms


def least_utilized(vms: Sequence[VmState]) -> VmState:
    best = vms[0]
    for vm in vms[1:]:
        if vm.util_centipct < best.util_centipct:
            best = vm
    return best


def select_target(
    policy: PlacementPolicy,
    profile: TaskTypeProfile,
    device_loc: int,
    compute: ComputeState,
    streams: DeviceStreams,
) -> tuple[VmState, bool]:
    """Pick the VM a task is sent to; second element says a WAN leg is needed.

    Two-tier flips one coin per task from the device's policy substream;
    the orchestrator variant is a deterministic threshold rule and draws
    nothing. Admission is not checked here.
    """
    edge = least_utilized(compute.edge_vms[device_loc])
    if policy.variant == SINGLE_TIER:
        return edge, False
    if policy.variant == TWO_TIER:
        u = streams.get(POLICY).random()
        if u < profile.cloud_probability:
            return least_utilized(compute.cloud_vms), True
        return edge, False
    # orchestrator: offload to cloud iff the best local VM would cross the
    # threshold by taking this task, in the exact units admission uses
    if edge.util_centipct + _centipct(profile.vm_utilization_pct) > _centipct(
        policy.edge_utilization_threshold_pct
    ):
        return least_utilized(compute.cloud_vms), True
    return edge, False


@dataclass
class TaskRecord:
    props: TaskProperties
    target: VmState
    origin_loc: int
    submitted_at: float
    wan_needed: bool
    upload_done_at: Optional[float] = None
    exec_done_at: Optional[float] = None
    finished_at: Optional[float] = None
    status: TaskStatus = TaskStatus.IN_FLIGHT
    wan_held: bool = field(default=False, repr=False)


class LifecycleDriver:
    """Glue from TaskArrival through upload, execution, and delivery.

    One instance per run. Every terminal transition hands the record to
    the metrics sink and retires it from the registry, in that order, so
    pruning loses no information.
    """

    def __init__(
        self,
        kernel: Kernel,
        mobility,
        network: NetworkState,
        compute: ComputeState,
        registry,
        policy: PlacementPolicy,
        streams: Sequence[DeviceStreams],
        metrics,
    ) -> None:
        self.kernel = kernel
        self.mobility = mobility
        self.network = network
        self.compute = compute
        self.registry = registry
        self.policy = policy
        self.streams = streams
        self.metrics = metrics

    def _terminal(self, record: TaskRecord, status: TaskStatus, now: float) -> None:
        record.status = status
        record.finished_at = now
        self.metrics.on_terminal(record)
        self.registry.retire(record.props.task_id)

    def on_task_arrival(self, props: TaskProperties, now: float) -> None:
        self.metrics.on_generated()
        loc = self.mobility.location_of(props.device, now)
        vm, wan_needed = select_target(
            self.policy, props.profile, loc, self.compute, self.streams[props.device]
        )
        record = TaskRecord(
            props=props,
            target=vm,
            origin_loc=loc,
            submitted_at=now,
            wan_needed=wan_needed,
        )
        self.registry.register(record)

        delay = self.network.wlan_delay(loc, props.profile.upload_bytes, now)
        if isinstance(delay, NetworkFailure):
            self._terminal(record, TaskStatus.FAILED_NETWORK, now)
            return
        if wan_needed:
            wan = self.network.wan_delay(props.profile.upload_bytes)
            if isinstance(wan, NetworkFailure):
                self._terminal(record, TaskStatus.FAILED_NETWORK, now)
                return
            self.network.wan_start()
            record.wan_held = True
            delay += wan
        self.kernel.schedule(now + delay, EventKind.UPLOAD_DONE, props.task_id)

    def on_upload_done(self, task_id: int, now: float) -> None:
        record = self.registry.lookup(task_id)
        record.upload_done_at = now
        if record.wan_held:
            self.network.wan_end()
            record.wan_held = False
        if not try_allocate(record.target, record.props.profile):
            self._terminal(record, TaskStatus.FAILED_VM_CAPACITY, now)
            return
        exec_s = execution_time(record.props.profile, record.target)
        self.kernel.schedule(now + exec_s, EventKind.EXEC_DONE, task_id)

    def on_exec_done(self, task_id: int, now: float) -> None:
        record = self.registry.lookup(task_id)
        record.exec_done_at = now
        release(record.target, record.props.profile)
        profile = record.props.profile
        device = record.props.device

        if record.target.is_cloud:
            # Result rides the WAN back to wherever the device is now, so
            # movement cannot fail a cloud task.
            wan = self.network.wan_delay(profile.download_bytes)
            if isinstance(wan, NetworkFailure):
                self._terminal(record, TaskStatus.FAILED_NETWORK, now)
                return
            cur = self.mobility.location_of(device, now)
            wlan = self.network.wlan_delay(cur, profile.download_bytes, now)
            if isinstance(wlan, NetworkFailure):
                self._terminal(record, TaskStatus.FAILED_NETWORK, now)
                return
            self.network.wan_start()
            record.wan_held = True
            self.kernel.schedule(now + wan + wlan, EventKind.DOWNLOAD_DONE, task_id)
            return

        cur = self.mobility.location_of(device, now)
        if cur != record.origin_loc:
            self._terminal(record, TaskStatus.FAILED_MOBILITY, now)
            return
        wlan = self.network.wlan_delay(record.origin_loc, profile.download_bytes, now)
        if isinstance(wlan, NetworkFailure):
            self._terminal(record, TaskStatus.FAILED_NETWORK, now)
            return
        self.kernel.schedule(now + wlan, EventKind.DOWNLOAD_DONE, task_id)

    def on_download_done(self, task_id: int, now: float) -> None:
        record = self.registry.lookup(task_id)
        if record.wan_held:
            self.network.wan_end()
            record.wan_held = False
        self._terminal(record, TaskStatus.COMPLETED, now)
