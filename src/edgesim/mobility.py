"""Nomadic mobility in two strategies.

Baseline: every device's full trajectory is precomputed before t=0 and
stored as parallel sorted lists; location queries are floor-lookups and
per-location device counts require a scan over all devices.

Event-driven: devices move when a DeviceMove event fires; per-location
counters make count queries O(1).

Both strategies consume the same per-device dwell/destination/placement
substreams, so they realise the exact same movement history.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from edgesim.kernel import EventKind, Kernel
from edgesim.rng import DESTINATION, DWELL, PLACEMENT, DeviceStreams


class DegenerateTopology(ValueError):
    """Fewer than two locations: nowhere to move to."""


class InconsistentState(RuntimeError):
    """A per-location counter would underflow. Indicates a bug; abort."""


class UnknownLocation(LookupError):
    """Location id outside 0..L-1."""


@dataclass(frozen=True)
class AccessPoint:
    id: int
    x_m: float
    y_m: float
    attractiveness_s: float
    wlan_bandwidth_mbps: float

    def __post_init__(self) -> None:
        if self.attractiveness_s <= 0:
            raise ValueError("attractiveness_s must be positive")
        if self.wlan_bandwidth_mbps <= 0:
            raise ValueError("wlan_bandwidth_mbps must be positive")


def sample_dwell(attractiveness_s: float, u: float) -> float:
    """Exponential dwell via inverse transform; mean = attractiveness_s."""
    if attractiveness_s <= 0:
        raise ValueError("attractiveness_s must be positive")
    # log1p keeps precision for small u; u=0 gives a zero dwell.
    return -attractiveness_s * math.log1p(-u)


def pick_destination(current: int, n_locations: int, u: float) -> int:
    """Uniform choice over the L-1 locations other than `current`.

    floor(u*(L-1)) indexes the candidate list [0..L-1] minus current;
    ids >= current shift up by one to skip it.
    """
    if n_locations < 2:
        raise DegenerateTopology(f"need at least 2 locations, got {n_locations}")
    idx = int(u * (n_locations - 1))
    if idx >= n_locations - 1:  # guard u rounding up to 1.0
        idx = n_locations - 2
    return idx if idx < current else idx + 1


def place_initial(n_locations: int, u: float) -> int:
    """Uniform initial placement over all L locations."""
    loc = int(u * n_locations)
    return loc if loc < n_locations else n_locations - 1


@dataclass
class Trajectory:
    """One device's full movement history, baseline strategy.

    times[0] = 0 holds the initial placement. Keys are strictly
    increasing and the last one overshoots the horizon: generation stops
    only once a movement lands past the end of the scenario.
    """

    times: list[float]
    locations: list[int]

    @property
    def movement_count(self) -> int:
        return len(self.times) - 1


def precompute_trajectory(
    horizon: float,
    aps: Sequence[AccessPoint],
    streams: DeviceStreams,
) -> Trajectory:
    """Generate the device's whole trajectory up front.

    Listing-order parity with the event-driven strategy comes free from
    the per-purpose substreams: each strategy consumes the k-th dwell and
    k-th destination variate at the same point of the movement history,
    so the trajectories match exactly.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    n = len(aps)
    placement = streams.get(PLACEMENT)
    dwell_gen = streams.get(DWELL)
    dest_gen = streams.get(DESTINATION)

    loc = place_initial(n, placement.random())
    times = [0.0]
    locs = [loc]
    t = 0.0
    while t <= horizon:
        t += sample_dwell(aps[loc].attractiveness_s, dwell_gen.random())
        loc = pick_destination(loc, n, dest_gen.random())
        times.append(t)
        locs.append(loc)
    return Trajectory(times, locs)


class PrecomputedMobility:
    """Baseline provider: floor-lookups into per-device trajectory lists.

    Queries clamp `now` to the horizon. The trajectories overshoot it,
    but movement stops there, as it does when the event-driven engine
    drops DEVICE_MOVE events past the horizon.
    """

    strategy = "precomputed"

    def __init__(
        self,
        n_devices: int,
        aps: Sequence[AccessPoint],
        horizon: float,
        streams: Sequence[DeviceStreams],
    ) -> None:
        self.aps = aps
        self.horizon = horizon
        self.trajectories = [
            precompute_trajectory(horizon, aps, streams[d]) for d in range(n_devices)
        ]

    def location_of(self, device: int, now: float) -> int:
        """Floor lookup: location at the greatest movement time <= now."""
        if now < 0:
            raise ValueError("now must be non-negative")
        traj = self.trajectories[device]
        return traj.locations[bisect_right(traj.times, min(now, self.horizon)) - 1]

    def count_at(self, loc: int, now: float) -> int:
        # The scan over every device is the cost being benchmarked.
        now = min(now, self.horizon)
        total = 0
        for traj in self.trajectories:
            if traj.locations[bisect_right(traj.times, now) - 1] == loc:
                total += 1
        return total

    def counts_all(self, now: float) -> list[int]:
        now = min(now, self.horizon)
        counts = [0] * len(self.aps)
        for traj in self.trajectories:
            counts[traj.locations[bisect_right(traj.times, now) - 1]] += 1
        return counts


class EventDrivenMobility:
    """Renovated provider: per-location counters updated by DeviceMove events.

    Construction places every device and schedules its first move on
    `kernel`; each move schedules the next one there.
    """

    strategy = "event-driven"

    def __init__(
        self,
        n_devices: int,
        aps: Sequence[AccessPoint],
        streams: Sequence[DeviceStreams],
        kernel: Kernel,
    ) -> None:
        n = len(aps)
        if n < 2:
            raise DegenerateTopology(f"need at least 2 locations, got {n}")
        if n_devices < 1:
            raise ValueError("need at least one device")
        self.aps = aps
        self.streams = streams
        self.kernel = kernel
        self.loc_of: list[int] = []
        self.counts = [0] * n
        for d in range(n_devices):
            loc = place_initial(n, streams[d].get(PLACEMENT).random())
            self.loc_of.append(loc)
            self.counts[loc] += 1
            u = streams[d].get(DWELL).random()
            kernel.schedule(
                sample_dwell(aps[loc].attractiveness_s, u), EventKind.DEVICE_MOVE, d
            )

    def on_device_move(self, device: int, now: float) -> int:
        """Move one device: destination, counters, dwell at the new spot, reschedule."""
        streams = self.streams[device]
        old = self.loc_of[device]
        new = pick_destination(old, len(self.aps), streams.get(DESTINATION).random())
        counts = self.counts
        if counts[old] <= 0:
            raise InconsistentState(
                f"count at location {old} would underflow moving device {device}"
            )
        counts[old] -= 1
        counts[new] += 1
        self.loc_of[device] = new
        u = streams.get(DWELL).random()
        dwell = sample_dwell(self.aps[new].attractiveness_s, u)
        self.kernel.schedule(now + dwell, EventKind.DEVICE_MOVE, device)
        return new

    def location_of(self, device: int, now: float) -> int:
        return self.loc_of[device]

    def count_at(self, loc: int, now: float) -> int:
        """O(1) counter read, the renovated replacement for the device scan."""
        if not 0 <= loc < len(self.counts):
            raise UnknownLocation(f"location {loc} outside 0..{len(self.counts) - 1}")
        return self.counts[loc]

    def counts_all(self, now: float) -> list[int]:
        return list(self.counts)
