"""The benchmark's workloads: what each simulates, for which engines, and why.

A workload turns the benchmark's ``--seed`` into a list of legs. A leg is
one scenario (as the JSON dict ``edgesim.config.parse_scenario_dict``
reads) plus the run seed, run on each of its engines. The engines only
ever see the generated scenario and run seed.

Every horizon here is a whole multiple of each task type's active+idle
cycle (60 s and 120 s), as in scenarios/default.json, so active windows
close before the horizon and almost no task is still in flight there.
Tasks that are in flight at the horizon are where the engines disagree
today: baseline's precomputed trajectories keep moving devices past the
horizon while the renovated engine drops those DEVICE_MOVE events. The
smoke sizes straddle the horizon; seeds 2, 4 and 7 of the smoke wide
legs show it, the smoke's own seed 1 does not.

Every workload declares a floor for the share of tasks that complete the
whole upload, execute and download path. Below it the timings would
measure the congestion-rejection path instead of the task lifecycle, so
the benchmark stops with an error.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

BASELINE, RENOVATED = "baseline", "renovated"
BOTH = (BASELINE, RENOVATED)

# The three task types of scenarios/default.json at half its arrival rate,
# which keeps baseline's quadratic registry within a few seconds at 250
# devices.
PROFILES = [
    {"name": "interactive", "weight": 0.5, "interarrival_mean_s": 30, "active_s": 40,
     "idle_s": 20, "upload_bytes": 1500000, "download_bytes": 300000,
     "length_mi": 3000, "vm_utilization_pct": 15, "cloud_probability": 0.25},
    {"name": "analytics", "weight": 0.3, "interarrival_mean_s": 60, "active_s": 60,
     "idle_s": 60, "upload_bytes": 2500000, "download_bytes": 250000,
     "length_mi": 9000, "vm_utilization_pct": 30, "cloud_probability": 0.55},
    {"name": "telemetry", "weight": 0.2, "interarrival_mean_s": 16, "active_s": 20,
     "idle_s": 40, "upload_bytes": 250000, "download_bytes": 50000,
     "length_mi": 1200, "vm_utilization_pct": 8, "cloud_probability": 0.1},
]

ATTRACTIVENESS_S = (120, 180, 240, 300)


@dataclass(frozen=True)
class Leg:
    name: str
    scenario: dict
    seed: int
    engines: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    completed_floor_pct: float
    legs: Callable[[int, bool], list[Leg]]  # (benchmark seed, smoke) -> legs

    def engines(self, legs: list[Leg]) -> tuple[str, ...]:
        return tuple(e for e in BOTH if any(e in leg.engines for leg in legs))


def run_seed(workload: str, seed: int, index: int) -> int:
    """Run seed number `index` of a workload under a benchmark seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def scaled_scenario(devices: int, aps: int, minutes: float, policy: dict) -> dict:
    """Square grid of APs, about devices/aps devices each, under WLAN capacity.

    Cloud VMs and concurrent WAN transfers grow with the device count, so
    two-tier placement does not fail on the backhaul at scale.
    """
    side = math.ceil(math.sqrt(aps))
    return {
        "duration_min": minutes,
        "device_count": devices,
        "policy": policy,
        "access_points": [
            {"x_m": 150 * (i % side), "y_m": 150 * (i // side),
             "attractiveness_s": ATTRACTIVENESS_S[i % len(ATTRACTIVENESS_S)],
             "wlan_bandwidth_mbps": 200}
            for i in range(aps)
        ],
        "edge": {"vms_per_ap": 4, "mips": 4000},
        "cloud": {"vm_count": max(8, devices // 50), "mips": 20000},
        "network": {"wan_bandwidth_mbps": 1000, "wan_propagation_s": 0.15,
                    "wan_transfer_capacity": max(50, devices // 10)},
        "profiles": PROFILES,
        "snapshot_period_s": None,
    }


def contrast_legs(seed: int, smoke: bool) -> list[Leg]:
    devices, aps, minutes = (40, 2, 3) if smoke else (250, 5, 20)
    policy = {"variant": "two-tier-orchestrator", "edge_utilization_threshold_pct": 25}
    return [Leg("contrast", scaled_scenario(devices, aps, minutes, policy),
                run_seed("contrast", seed, 0), BOTH)]


def wide_legs(seed: int, smoke: bool) -> list[Leg]:
    # The full run is renovated only: baseline's append-only registry is
    # quadratic in task count, about two minutes at this size. A short
    # matched leg at half the scale keeps a cross-engine check and a
    # baseline timing in every run, at about a second per pass.
    devices, aps, minutes = (80, 4, 3) if smoke else (2000, 40, 20)
    short = (40, 2, 1) if smoke else (1000, 20, 2)
    policy = {"variant": "two-tier"}
    return [
        Leg("wide", scaled_scenario(devices, aps, minutes, policy),
            run_seed("wide", seed, 0), (RENOVATED,)),
        Leg("wide-short", scaled_scenario(*short, policy),
            run_seed("wide", seed, 1), BOTH),
    ]


def campaign_legs(seed: int, smoke: bool) -> list[Leg]:
    path = os.path.join(os.path.dirname(__file__), "..", "scenarios", "default.json")
    with open(path, encoding="utf-8") as fh:
        scenario = json.load(fh)
    runs = 2 if smoke else 6
    return [Leg(f"campaign-{i}", scenario, run_seed("campaign", seed, i), BOTH)
            for i in range(runs)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "contrast",
            "both engines, matched seeds, 250 devices at 50 per AP for 20 minutes: the "
            "paper's contrast on a full task lifecycle, where all three baseline costs show",
            95.0,
            contrast_legs,
        ),
        Workload(
            "wide",
            "renovated at 2000 devices over 40 APs for 20 minutes with two-tier WAN legs, "
            "the scale users run it at; kernel and handler costs dominate",
            95.0,
            wide_legs,
        ),
        Workload(
            "campaign",
            "6 seeds of scenarios/default.json back to back, repeated, both engines: "
            "set-up, mostly RNG substream construction, runs hundreds of times",
            85.0,
            campaign_legs,
        ),
    )
}
