"""Scenario ingestion: JSON in, validated ScenarioConfig out.

Validation errors name the offending field with a dotted path so a bad
file is diagnosable without reading this module. serialize_scenario is
the exact inverse of parsing: serialize(parse(f)) parses to an equal
config.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Optional

from edgesim.compute import SINGLE_TIER, PlacementPolicy
from edgesim.load import TaskTypeProfile
from edgesim.mobility import AccessPoint


class ParseError(ValueError):
    """File unreadable or not valid JSON."""


class ValidationError(ValueError):
    def __init__(self, field_path: str, message: str) -> None:
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


@dataclass(frozen=True)
class EdgeSpec:
    vms_per_ap: int
    mips: float


@dataclass(frozen=True)
class CloudSpec:
    vm_count: int
    mips: float


@dataclass(frozen=True)
class NetworkSpec:
    wan_bandwidth_mbps: float
    wan_propagation_s: float
    wlan_device_capacity: float = 100
    wan_transfer_capacity: float = 50


@dataclass(frozen=True)
class WeightedProfile:
    weight: float
    profile: TaskTypeProfile


@dataclass(frozen=True)
class ScenarioConfig:
    duration_min: float
    device_count: int
    access_points: tuple[AccessPoint, ...]
    profiles: tuple[WeightedProfile, ...]
    policy: PlacementPolicy = PlacementPolicy(SINGLE_TIER)
    edge: EdgeSpec = EdgeSpec(vms_per_ap=2, mips=4000.0)
    cloud: CloudSpec = CloudSpec(vm_count=4, mips=20000.0)
    network: NetworkSpec = NetworkSpec(
        wan_bandwidth_mbps=500.0, wan_propagation_s=0.15
    )
    snapshot_period_s: Optional[float] = 60.0
    master_seed: int = 1

    @property
    def horizon_s(self) -> float:
        return self.duration_min * 60.0


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise ValidationError(f"{path}{key}", "missing required field")
    return obj[key]


def _number(value: Any, path: str) -> float:
    """A finite float. JSON's NaN and Infinity would stall or skew a run."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(path, f"must be finite, got {value!r}")
    return number


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(path, f"expected an integer, got {value!r}")
    return value


def _parse_access_point(obj: dict, index: int) -> AccessPoint:
    path = f"access_points[{index}]"
    if not isinstance(obj, dict):
        raise ValidationError(path, "expected an object")
    if "id" in obj and obj["id"] != index:
        raise ValidationError(f"{path}.id", f"must equal position {index}")
    try:
        return AccessPoint(
            id=index,
            x_m=_number(_require(obj, "x_m", path + "."), f"{path}.x_m"),
            y_m=_number(_require(obj, "y_m", path + "."), f"{path}.y_m"),
            attractiveness_s=_number(
                _require(obj, "attractiveness_s", path + "."),
                f"{path}.attractiveness_s",
            ),
            wlan_bandwidth_mbps=_number(
                _require(obj, "wlan_bandwidth_mbps", path + "."),
                f"{path}.wlan_bandwidth_mbps",
            ),
        )
    except ValueError as err:
        if isinstance(err, ValidationError):
            raise
        raise ValidationError(path, str(err)) from err


_PROFILE_NUMBER_FIELDS = (
    "interarrival_mean_s",
    "active_s",
    "idle_s",
    "length_mi",
    "vm_utilization_pct",
    "cloud_probability",
)


def _parse_profile(obj: dict, index: int) -> WeightedProfile:
    path = f"profiles[{index}]"
    if not isinstance(obj, dict):
        raise ValidationError(path, "expected an object")
    weight = _number(_require(obj, "weight", path + "."), f"{path}.weight")
    if weight < 0:
        raise ValidationError(f"{path}.weight", "must be non-negative")
    kwargs: dict[str, Any] = {
        "name": str(_require(obj, "name", path + ".")),
        "upload_bytes": _integer(
            _require(obj, "upload_bytes", path + "."), f"{path}.upload_bytes"
        ),
        "download_bytes": _integer(
            _require(obj, "download_bytes", path + "."), f"{path}.download_bytes"
        ),
    }
    for name in _PROFILE_NUMBER_FIELDS:
        kwargs[name] = _number(_require(obj, name, path + "."), f"{path}.{name}")
    try:
        profile = TaskTypeProfile(**kwargs)
    except ValueError as err:
        raise ValidationError(path, str(err)) from err
    return WeightedProfile(weight=weight, profile=profile)


def _parse_policy(obj: Any) -> PlacementPolicy:
    if not isinstance(obj, dict):
        raise ValidationError("policy", "expected an object")
    variant = _require(obj, "variant", "policy.")
    threshold = obj.get("edge_utilization_threshold_pct")
    if threshold is not None:
        threshold = _number(threshold, "policy.edge_utilization_threshold_pct")
    try:
        return PlacementPolicy(variant, threshold)
    except ValueError as err:
        raise ValidationError("policy", str(err)) from err


def parse_scenario_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ValidationError("", "scenario root must be a JSON object")

    duration_min = _number(_require(data, "duration_min", ""), "duration_min")
    if duration_min <= 0:
        raise ValidationError("duration_min", "must be positive")
    device_count = _integer(_require(data, "device_count", ""), "device_count")
    if device_count < 1:
        raise ValidationError("device_count", "must be at least 1")

    aps_raw = _require(data, "access_points", "")
    if not isinstance(aps_raw, list) or len(aps_raw) < 2:
        raise ValidationError("access_points", "need a list of at least 2")
    aps = tuple(_parse_access_point(o, i) for i, o in enumerate(aps_raw))

    profiles_raw = _require(data, "profiles", "")
    if not isinstance(profiles_raw, list) or not profiles_raw:
        raise ValidationError("profiles", "need a non-empty list")
    profiles = tuple(_parse_profile(o, i) for i, o in enumerate(profiles_raw))
    total = sum(wp.weight for wp in profiles)
    if abs(total - 1.0) > 1e-9:
        raise ValidationError("profiles.weights", f"must sum to 1, got {total!r}")

    kwargs: dict[str, Any] = dict(
        duration_min=duration_min,
        device_count=device_count,
        access_points=aps,
        profiles=profiles,
    )
    if "policy" in data:
        kwargs["policy"] = _parse_policy(data["policy"])
    if "edge" in data:
        e = data["edge"]
        if not isinstance(e, dict):
            raise ValidationError("edge", "expected an object")
        kwargs["edge"] = EdgeSpec(
            vms_per_ap=_integer(
                _require(e, "vms_per_ap", "edge."), "edge.vms_per_ap"
            ),
            mips=_number(_require(e, "mips", "edge."), "edge.mips"),
        )
        if kwargs["edge"].vms_per_ap < 1:
            raise ValidationError("edge.vms_per_ap", "must be at least 1")
        if kwargs["edge"].mips <= 0:
            raise ValidationError("edge.mips", "must be positive")
    if "cloud" in data:
        c = data["cloud"]
        if not isinstance(c, dict):
            raise ValidationError("cloud", "expected an object")
        kwargs["cloud"] = CloudSpec(
            vm_count=_integer(
                _require(c, "vm_count", "cloud."), "cloud.vm_count"
            ),
            mips=_number(_require(c, "mips", "cloud."), "cloud.mips"),
        )
        if kwargs["cloud"].vm_count < 1:
            raise ValidationError("cloud.vm_count", "must be at least 1")
        if kwargs["cloud"].mips <= 0:
            raise ValidationError("cloud.mips", "must be positive")
    if "network" in data:
        n = data["network"]
        if not isinstance(n, dict):
            raise ValidationError("network", "expected an object")
        kwargs["network"] = NetworkSpec(
            wan_bandwidth_mbps=_number(
                _require(n, "wan_bandwidth_mbps", "network."),
                "network.wan_bandwidth_mbps",
            ),
            wan_propagation_s=_number(
                _require(n, "wan_propagation_s", "network."),
                "network.wan_propagation_s",
            ),
            wlan_device_capacity=_number(
                n.get("wlan_device_capacity", 100), "network.wlan_device_capacity"
            ),
            wan_transfer_capacity=_number(
                n.get("wan_transfer_capacity", 50), "network.wan_transfer_capacity"
            ),
        )
        # The sender counts itself among the contenders, so a capacity
        # below 1 fails every transfer.
        for name in ("wlan_device_capacity", "wan_transfer_capacity"):
            if getattr(kwargs["network"], name) < 1:
                raise ValidationError(f"network.{name}", "must be at least 1")
        if kwargs["network"].wan_bandwidth_mbps <= 0:
            raise ValidationError("network.wan_bandwidth_mbps", "must be positive")
        if kwargs["network"].wan_propagation_s < 0:
            raise ValidationError(
                "network.wan_propagation_s", "must be non-negative"
            )
    if "snapshot_period_s" in data:
        period = data["snapshot_period_s"]
        if period is not None:
            period = _number(period, "snapshot_period_s")
            if period <= 0:
                raise ValidationError("snapshot_period_s", "must be positive")
        kwargs["snapshot_period_s"] = period
    if "master_seed" in data:
        kwargs["master_seed"] = _integer(data["master_seed"], "master_seed")

    return ScenarioConfig(**kwargs)


def parse_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ParseError(f"cannot read scenario file {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ParseError(f"scenario file {path} is not valid JSON: {err}") from err
    return parse_scenario_dict(data)


load_scenario = parse_scenario


def serialize_scenario(cfg: ScenarioConfig) -> dict:
    policy: dict[str, Any] = {"variant": cfg.policy.variant}
    if cfg.policy.edge_utilization_threshold_pct is not None:
        policy["edge_utilization_threshold_pct"] = (
            cfg.policy.edge_utilization_threshold_pct
        )
    return {
        "duration_min": cfg.duration_min,
        "device_count": cfg.device_count,
        "master_seed": cfg.master_seed,
        "policy": policy,
        "access_points": [
            {
                "id": ap.id,
                "x_m": ap.x_m,
                "y_m": ap.y_m,
                "attractiveness_s": ap.attractiveness_s,
                "wlan_bandwidth_mbps": ap.wlan_bandwidth_mbps,
            }
            for ap in cfg.access_points
        ],
        "edge": {"vms_per_ap": cfg.edge.vms_per_ap, "mips": cfg.edge.mips},
        "cloud": {"vm_count": cfg.cloud.vm_count, "mips": cfg.cloud.mips},
        "network": {
            "wan_bandwidth_mbps": cfg.network.wan_bandwidth_mbps,
            "wan_propagation_s": cfg.network.wan_propagation_s,
            "wlan_device_capacity": cfg.network.wlan_device_capacity,
            "wan_transfer_capacity": cfg.network.wan_transfer_capacity,
        },
        "profiles": [
            {
                "name": wp.profile.name,
                "weight": wp.weight,
                "interarrival_mean_s": wp.profile.interarrival_mean_s,
                "active_s": wp.profile.active_s,
                "idle_s": wp.profile.idle_s,
                "upload_bytes": wp.profile.upload_bytes,
                "download_bytes": wp.profile.download_bytes,
                "length_mi": wp.profile.length_mi,
                "vm_utilization_pct": wp.profile.vm_utilization_pct,
                "cloud_probability": wp.profile.cloud_probability,
            }
            for wp in cfg.profiles
        ],
        "snapshot_period_s": cfg.snapshot_period_s,
    }


def save_scenario(cfg: ScenarioConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize_scenario(cfg), fh, indent=2)
        fh.write("\n")
