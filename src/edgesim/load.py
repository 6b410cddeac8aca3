"""Idle/active task arrival model in two strategies.

A device alternates fixed-length active and idle windows; during an
active window, tasks arrive as a Poisson process with the profile's
mean inter-arrival time. Baseline generates every arrival of the whole
run before t=0; the lazy strategy generates one active period at a time,
driven by ActivePeriodStart events.

Both call generate_active_period with the same per-device load stream,
so arrival times match float for float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from edgesim.kernel import EventKind
from edgesim.rng import Stream


@dataclass(frozen=True)
class TaskTypeProfile:
    name: str
    interarrival_mean_s: float
    active_s: float
    idle_s: float
    upload_bytes: int
    download_bytes: int
    length_mi: float
    vm_utilization_pct: float
    cloud_probability: float

    def __post_init__(self) -> None:
        if self.interarrival_mean_s <= 0:
            raise ValueError("interarrival_mean_s must be positive")
        if self.active_s <= 0:
            raise ValueError("active_s must be positive")
        if self.idle_s < 0:
            raise ValueError("idle_s must be non-negative")
        if self.upload_bytes <= 0 or self.download_bytes <= 0:
            raise ValueError("transfer sizes must be positive")
        if self.length_mi <= 0:
            raise ValueError("length_mi must be positive")
        if not 0 < self.vm_utilization_pct <= 100:
            raise ValueError("vm_utilization_pct must be in (0, 100]")
        if not 0 <= self.cloud_probability <= 1:
            raise ValueError("cloud_probability must be in [0, 1]")

    @property
    def cycle_s(self) -> float:
        return self.active_s + self.idle_s


class TaskProperties(NamedTuple):
    task_id: int
    device: int
    profile: TaskTypeProfile
    arrival: float


def sample_interarrival(mean_s: float, u: float) -> float:
    """Exponential inter-arrival gap, inverse transform."""
    if mean_s <= 0:
        raise ValueError("mean_s must be positive")
    return -mean_s * math.log1p(-u)


def generate_active_period(
    profile: TaskTypeProfile,
    period_start: float,
    horizon: float,
    gen: Stream,
) -> tuple[list[float], float]:
    """Arrival times inside one active window, plus the next window's start.

    The first arrival sits one exponential gap past the window start; a
    task lands only while the virtual time is inside both the active
    window and the horizon. An empty list just means the first gap
    overshot. Returns arrival times only; the caller owns task ids.
    """
    if period_start >= horizon:
        raise ValueError("period_start must precede the horizon")
    arrivals: list[float] = []
    vt = period_start + sample_interarrival(profile.interarrival_mean_s, gen.random())
    while vt - period_start < profile.active_s and vt < horizon:
        arrivals.append(vt)
        vt += sample_interarrival(profile.interarrival_mean_s, gen.random())
    return arrivals, period_start + profile.cycle_s


def generate_all(
    profile: TaskTypeProfile,
    horizon: float,
    gen: Stream,
) -> list[float]:
    """Eager strategy: every arrival of the run, generated before t=0."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    arrivals: list[float] = []
    start = 0.0
    while start < horizon:
        period, start = generate_active_period(profile, start, horizon, gen)
        arrivals.extend(period)
    return arrivals


def schedule_lazy(
    device: int,
    profile: TaskTypeProfile,
    period_start: float,
    horizon: float,
    gen: Stream,
    kernel,
    assign_id,
) -> int:
    """Lazy strategy: enqueue one period's arrivals plus the next period trigger.

    Called once at init with period_start 0 and then from every
    ActivePeriodStart dispatch. Nothing beyond the next period start ever
    sits in the queue, which is what keeps its size horizon-independent.
    Returns the number of arrivals enqueued.
    """
    arrivals, next_start = generate_active_period(profile, period_start, horizon, gen)
    for t in arrivals:
        props = TaskProperties(assign_id(), device, profile, t)
        kernel.schedule(t, EventKind.TASK_ARRIVAL, props)
    if next_start < horizon:
        kernel.schedule(next_start, EventKind.ACTIVE_PERIOD_START, device)
    return len(arrivals)
