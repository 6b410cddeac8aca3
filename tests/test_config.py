"""Scenario parsing, validation diagnostics, serialization round trip."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from edgesim.compute import TWO_TIER_ORCHESTRATOR
from edgesim.config import (
    ParseError,
    ScenarioConfig,
    ValidationError,
    load_scenario,
    parse_scenario_dict,
    save_scenario,
    serialize_scenario,
)
from tests.conftest import make_cfg, scenario_dict


def minimal_dict() -> dict:
    d = scenario_dict()
    for key in ("policy", "edge", "cloud", "network", "snapshot_period_s", "master_seed"):
        del d[key]
    return d


def test_minimal_scenario_gets_defaults():
    cfg = parse_scenario_dict(minimal_dict())
    assert cfg.policy.variant == "single-tier"
    assert (cfg.edge.vms_per_ap, cfg.edge.mips) == (2, 4000.0)
    assert (cfg.cloud.vm_count, cfg.cloud.mips) == (4, 20000.0)
    assert cfg.network.wan_bandwidth_mbps == 500.0
    assert cfg.network.wlan_device_capacity == 100
    assert cfg.network.wan_transfer_capacity == 50
    assert cfg.snapshot_period_s == 60.0
    assert cfg.master_seed == 1


def test_horizon_is_duration_in_seconds():
    assert make_cfg(duration_min=10).horizon_s == 600.0


def test_parsed_types_are_structured():
    cfg = make_cfg()
    assert isinstance(cfg, ScenarioConfig)
    assert len(cfg.access_points) == 4
    assert cfg.access_points[2].attractiveness_s == 120.0
    assert cfg.profiles[0].profile.cycle_s == 60.0


def field_path_of(excinfo) -> str:
    return excinfo.value.field_path


def test_weights_must_sum_to_one():
    d = scenario_dict()
    d["profiles"][0]["weight"] = 0.9
    with pytest.raises(ValidationError) as excinfo:
        parse_scenario_dict(d)
    assert field_path_of(excinfo) == "profiles.weights"


def test_missing_required_field_names_it():
    d = scenario_dict()
    del d["duration_min"]
    with pytest.raises(ValidationError) as excinfo:
        parse_scenario_dict(d)
    assert field_path_of(excinfo) == "duration_min"


def test_nested_missing_field_names_position():
    d = scenario_dict()
    del d["access_points"][1]["x_m"]
    with pytest.raises(ValidationError) as excinfo:
        parse_scenario_dict(d)
    assert field_path_of(excinfo) == "access_points[1].x_m"


def test_device_count_must_be_integer():
    with pytest.raises(ValidationError) as excinfo:
        make_cfg(device_count=5.5)
    assert field_path_of(excinfo) == "device_count"


def test_bool_is_not_a_number():
    # True would silently coerce to 1.0 without the explicit bool check
    with pytest.raises(ValidationError):
        make_cfg(duration_min=True)


def test_nonpositive_duration_rejected():
    with pytest.raises(ValidationError):
        make_cfg(duration_min=0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
def test_duration_must_be_finite(value):
    # Kernel.run's horizon test never fires on NaN, so the run would not end
    with pytest.raises(ValidationError) as excinfo:
        make_cfg(duration_min=value)
    assert field_path_of(excinfo) == "duration_min"


def test_attractiveness_must_be_finite():
    d = scenario_dict()
    d["access_points"][2]["attractiveness_s"] = float("nan")
    with pytest.raises(ValidationError) as excinfo:
        parse_scenario_dict(d)
    assert field_path_of(excinfo) == "access_points[2].attractiveness_s"


def test_profile_number_must_be_finite():
    d = scenario_dict()
    d["profiles"][0]["active_s"] = float("inf")
    with pytest.raises(ValidationError) as excinfo:
        parse_scenario_dict(d)
    assert field_path_of(excinfo) == "profiles[0].active_s"


@pytest.mark.parametrize(
    "section, name, value",
    [
        ("edge", "vms_per_ap", 0),
        ("edge", "mips", 0),
        ("cloud", "vm_count", 0),
        ("cloud", "mips", -1),
        ("network", "wan_bandwidth_mbps", 0),
        ("network", "wan_propagation_s", -0.1),
        ("network", "wlan_device_capacity", 0.5),
        ("network", "wan_transfer_capacity", 0),
    ],
)
def test_section_range_rule_names_dotted_path(section, name, value):
    d = scenario_dict()
    d[section][name] = value
    with pytest.raises(ValidationError) as excinfo:
        parse_scenario_dict(d)
    assert field_path_of(excinfo) == f"{section}.{name}"


def test_negative_master_seed_rejected():
    # SeedSequence rejects it later, in the middle of a campaign
    with pytest.raises(ValidationError) as excinfo:
        make_cfg(master_seed=-1)
    assert field_path_of(excinfo) == "master_seed"
    assert make_cfg(master_seed=0).master_seed == 0


@pytest.mark.parametrize("change", [{"device_count": 0}, {"snapshot_period_s": 0}])
def test_replace_is_validated(change):
    with pytest.raises(ValidationError) as excinfo:
        replace(make_cfg(), **change)
    assert field_path_of(excinfo) == next(iter(change))


def test_capacity_defaults_do_not_depend_on_file_shape():
    without_network = minimal_dict()
    with_network = minimal_dict()
    with_network["network"] = {"wan_bandwidth_mbps": 500.0, "wan_propagation_s": 0.15}
    a = serialize_scenario(parse_scenario_dict(without_network))
    b = serialize_scenario(parse_scenario_dict(with_network))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert isinstance(a["network"]["wlan_device_capacity"], float)
    assert isinstance(a["network"]["wan_transfer_capacity"], float)


SHIPPED = sorted(Path(__file__).resolve().parent.parent.glob("scenarios/*.json"))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_shipped_scenario_round_trips(path):
    cfg = load_scenario(str(path))
    data = serialize_scenario(cfg)
    assert parse_scenario_dict(data) == cfg
    assert serialize_scenario(parse_scenario_dict(data)) == data


@pytest.mark.parametrize("name", ["wlan_device_capacity", "wan_transfer_capacity"])
@pytest.mark.parametrize("value", [0, -3, 0.5])
def test_network_capacity_must_be_at_least_one(name, value):
    # the sender is one of the contenders, so a capacity below 1 fails every task
    d = scenario_dict()
    d["network"][name] = value
    with pytest.raises(ValidationError) as excinfo:
        parse_scenario_dict(d)
    assert field_path_of(excinfo) == f"network.{name}"
    d["network"][name] = 1
    assert getattr(parse_scenario_dict(d).network, name) == 1


def test_fewer_than_two_access_points_rejected():
    d = scenario_dict()
    d["access_points"] = d["access_points"][:1]
    with pytest.raises(ValidationError) as excinfo:
        parse_scenario_dict(d)
    assert field_path_of(excinfo) == "access_points"


def test_explicit_ap_id_must_match_position():
    d = scenario_dict()
    d["access_points"][0]["id"] = 3
    with pytest.raises(ValidationError) as excinfo:
        parse_scenario_dict(d)
    assert field_path_of(excinfo) == "access_points[0].id"


def test_profile_invariant_error_carries_profile_path():
    d = scenario_dict()
    d["profiles"][0]["interarrival_mean_s"] = -1
    with pytest.raises(ValidationError) as excinfo:
        parse_scenario_dict(d)
    assert field_path_of(excinfo) == "profiles[0]"


def test_byte_counts_must_be_integers():
    d = scenario_dict()
    d["profiles"][0]["upload_bytes"] = 1.5e6
    with pytest.raises(ValidationError) as excinfo:
        parse_scenario_dict(d)
    assert field_path_of(excinfo) == "profiles[0].upload_bytes"


def test_unknown_policy_variant_rejected():
    with pytest.raises(ValidationError) as excinfo:
        make_cfg(policy={"variant": "mystery"})
    assert field_path_of(excinfo) == "policy"


def test_orchestrator_policy_requires_threshold():
    with pytest.raises(ValidationError):
        make_cfg(policy={"variant": TWO_TIER_ORCHESTRATOR})
    cfg = make_cfg(
        policy={
            "variant": TWO_TIER_ORCHESTRATOR,
            "edge_utilization_threshold_pct": 80,
        }
    )
    assert cfg.policy.edge_utilization_threshold_pct == 80.0


def test_snapshot_period_nullable():
    assert make_cfg(snapshot_period_s=None).snapshot_period_s is None
    with pytest.raises(ValidationError):
        make_cfg(snapshot_period_s=0)


def test_serialize_parse_round_trip():
    cfg = make_cfg()
    assert parse_scenario_dict(serialize_scenario(cfg)) == cfg


def test_round_trip_preserves_policy_threshold():
    cfg = make_cfg(
        policy={
            "variant": TWO_TIER_ORCHESTRATOR,
            "edge_utilization_threshold_pct": 72.5,
        }
    )
    assert parse_scenario_dict(serialize_scenario(cfg)) == cfg


def test_file_round_trip(tmp_path):
    cfg = make_cfg()
    path = tmp_path / "scenario.json"
    save_scenario(cfg, str(path))
    assert load_scenario(str(path)) == cfg


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_scenario(str(tmp_path / "nope.json"))


def test_malformed_json_is_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_scenario(str(path))


def test_json_root_must_be_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([1, 2, 3]), encoding="utf-8")
    with pytest.raises(ValidationError):
        load_scenario(str(path))
