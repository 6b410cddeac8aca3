"""Scenario ingestion: JSON in, validated ScenarioConfig out.

Each scenario field is declared once, as a field of a frozen dataclass:
the model's own records (AccessPoint, TaskTypeProfile, PlacementPolicy)
or the specs below. The field's annotation picks its JSON reader, a
default lets the field be absent, and serialize_scenario walks the same
fields back out, so serialize(parse(f)) parses to an equal config.

A field's rule lives in its dataclass's __post_init__, so a config built
with dataclasses.replace is held to it too. The specs and ScenarioConfig
raise ValidationError at the field name, which the reader prefixes with
the object's path (``network.wan_bandwidth_mbps``). The model records
raise ValueError, reported at the object's path (``profiles[0]``).
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import Any, Optional, get_args, get_origin, get_type_hints

from edgesim.compute import SINGLE_TIER, PlacementPolicy
from edgesim.load import TaskTypeProfile
from edgesim.mobility import AccessPoint


class ParseError(ValueError):
    """File unreadable or not valid JSON."""


class ValidationError(ValueError):
    def __init__(self, field_path: str, message: str) -> None:
        super().__init__(f"{field_path}: {message}" if field_path else message)
        self.field_path = field_path
        self.message = message


def _check(ok: bool, field_path: str, message: str) -> None:
    if not ok:
        raise ValidationError(field_path, message)


@dataclass(frozen=True)
class EdgeSpec:
    vms_per_ap: int
    mips: float

    def __post_init__(self) -> None:
        _check(self.vms_per_ap >= 1, "vms_per_ap", "must be at least 1")
        _check(self.mips > 0, "mips", "must be positive")


@dataclass(frozen=True)
class CloudSpec:
    vm_count: int
    mips: float

    def __post_init__(self) -> None:
        _check(self.vm_count >= 1, "vm_count", "must be at least 1")
        _check(self.mips > 0, "mips", "must be positive")


@dataclass(frozen=True)
class NetworkSpec:
    wan_bandwidth_mbps: float
    wan_propagation_s: float
    wlan_device_capacity: float = 100.0
    wan_transfer_capacity: float = 50.0

    def __post_init__(self) -> None:
        # The sender counts itself among the contenders, so a capacity
        # below 1 fails every transfer.
        for name in ("wlan_device_capacity", "wan_transfer_capacity"):
            _check(getattr(self, name) >= 1, name, "must be at least 1")
        _check(self.wan_bandwidth_mbps > 0, "wan_bandwidth_mbps", "must be positive")
        _check(self.wan_propagation_s >= 0, "wan_propagation_s", "must be non-negative")


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

    def __post_init__(self) -> None:
        _check(self.duration_min > 0, "duration_min", "must be positive")
        _check(self.device_count >= 1, "device_count", "must be at least 1")
        _check(len(self.access_points) >= 2, "access_points", "need at least 2")
        _check(len(self.profiles) >= 1, "profiles", "need at least 1")
        for i, wp in enumerate(self.profiles):
            _check(wp.weight >= 0, f"profiles[{i}].weight", "must be non-negative")
        total = sum(wp.weight for wp in self.profiles)
        _check(abs(total - 1.0) <= 1e-9, "profiles.weights", f"must sum to 1, got {total!r}")
        period = self.snapshot_period_s
        _check(period is None or period > 0, "snapshot_period_s", "must be positive")
        _check(self.master_seed >= 0, "master_seed", "must be non-negative")

    @property
    def horizon_s(self) -> float:
        return self.duration_min * 60.0


def _object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(path, "expected a JSON object")
    return value


def _require(obj: dict, key: str, prefix: str) -> Any:
    if key not in obj:
        raise ValidationError(f"{prefix}{key}", "missing required field")
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


def _access_point(value: Any, path: str, index: int) -> AccessPoint:
    # The id is the position; a file may repeat it but not contradict it.
    if _object(value, path).get("id", index) != index:
        raise ValidationError(f"{path}.id", f"must equal position {index}")
    return _build(AccessPoint, {**value, "id": index}, path)


def _weighted_profile(value: Any, path: str, index: int) -> WeightedProfile:
    # The weight sits beside the profile's own fields in the file.
    weight = _require(_object(value, path), "weight", f"{path}.")
    return WeightedProfile(
        _number(weight, f"{path}.weight"), _build(TaskTypeProfile, value, path)
    )


_ITEM_READERS = {AccessPoint: _access_point, WeightedProfile: _weighted_profile}


def _read(kind: Any, value: Any, path: str) -> Any:
    """Read one JSON value as the annotated type `kind`."""
    if kind is float:
        return _number(value, path)
    if kind is int:
        return _integer(value, path)
    if kind is str:
        return str(value)
    if kind == Optional[float]:
        return None if value is None else _number(value, path)
    if get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ValidationError(path, "expected a list")
        item = _ITEM_READERS[get_args(kind)[0]]
        return tuple(item(v, f"{path}[{i}]", i) for i, v in enumerate(value))
    return _build(kind, value, path)


def _build(cls: type, value: Any, path: str) -> Any:
    """Read the JSON object at `path` into the config dataclass `cls`."""
    obj = _object(value, path)
    prefix = f"{path}." if path else ""
    kinds = get_type_hints(cls)
    kwargs = {
        f.name: _read(kinds[f.name], _require(obj, f.name, prefix), prefix + f.name)
        for f in fields(cls)
        if f.name in obj or f.default is MISSING
    }
    try:
        return cls(**kwargs)
    except ValidationError as err:
        raise ValidationError(prefix + err.field_path, err.message) from err
    except ValueError as err:
        raise ValidationError(path, str(err)) from err


def parse_scenario_dict(data: Any) -> ScenarioConfig:
    return _build(ScenarioConfig, data, "")


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ParseError(f"cannot read scenario file {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ParseError(f"scenario file {path} is not valid JSON: {err}") from err
    return parse_scenario_dict(data)


def _plain(value: Any) -> Any:
    """The JSON form of a config value, field by field as _build reads it."""
    if isinstance(value, WeightedProfile):
        return {"weight": value.weight, **_plain(value.profile)}
    if is_dataclass(value):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in fields(value)
            # a None that the default restores (the policy's threshold) is left out
            if not (f.default is None and getattr(value, f.name) is None)
        }
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def serialize_scenario(cfg: ScenarioConfig) -> dict:
    return _plain(cfg)


def save_scenario(cfg: ScenarioConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize_scenario(cfg), fh, indent=2)
        fh.write("\n")
