"""Configuration layer: profile table, rate selection, thresholds,
traffic, and the JSON schema."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, strategies as st

from vrfplan import (
    CpriProfile,
    InvalidConfigError,
    PlanningConfig,
    ProfileRow,
    RateSet,
    RruChainSpec,
    SimConfig,
    ThresholdPolicy,
    TrafficSpec,
    blocking_for_planning,
    config_from_dict,
    default_profile,
    default_thresholds,
    load_config,
    select_rates,
    spec_from_planning,
)


# ---------------------------------------------------------------------------
# profile table

def test_profile_top_row():
    row = default_profile().rows[-1]
    assert row.bandwidth_mhz == 20.0
    assert row.fft_size == 2048
    assert row.prb_count == 100
    assert row.rate_mbps == 1228.8
    assert row.max_users == 50


def test_profile_bottom_row():
    row = default_profile().rows[0]
    assert row.bandwidth_mhz == 1.25
    assert row.fft_size == 128
    assert row.prb_count == 6
    assert row.rate_mbps == 76.8
    assert row.max_users == 3


def test_profile_user_capacity_is_half_the_prbs():
    for row in default_profile().rows:
        assert row.max_users == row.prb_count // 2
    by_prb = {row.prb_count: row.max_users for row in default_profile().rows}
    assert by_prb[75] == 37


def test_profile_row_is_checked_when_built():
    with pytest.raises(InvalidConfigError, match="profile.fft_size"):
        ProfileRow(1.25, 0, 6, 76.8, 3)
    with pytest.raises(InvalidConfigError, match="profile.max_users"):
        ProfileRow(1.25, 128, 6, 76.8, 4)


def test_profile_refuses_a_row_that_is_not_a_profile_row():
    with pytest.raises(InvalidConfigError, match="ProfileRow"):
        CpriProfile(rows=((1.25, 128, 6, 76.8, 3),))


# ---------------------------------------------------------------------------
# rate selection

def test_select_rates_ladders():
    profile = default_profile()
    assert select_rates(profile, 1).rates == (1228.8,)
    assert select_rates(profile, 3).rates == (307.2, 614.4, 1228.8)
    assert select_rates(profile, 4).rates == (153.6, 307.2, 614.4, 1228.8)


def test_select_rates_capacities_follow_selected_rows():
    profile = default_profile()
    by_rate = {row.rate_mbps: row.max_users for row in profile.rows}
    for n_d in (1, 2, 3, 4):
        rs = select_rates(profile, n_d)
        assert rs.capacities == tuple(by_rate[r] for r in rs.rates)
        assert rs.server_count == 50


def test_select_rates_rejects_bad_count():
    profile = default_profile()
    for bad in (0, -1, 7, 2.0, True):
        with pytest.raises(InvalidConfigError):
            select_rates(profile, bad)


def test_select_rates_requires_halving_chain():
    profile = default_profile()
    # 921.6 is in the table but off the halving chain from 1228.8, so a
    # 6-deep ladder cannot be formed even though the table has 6 rows
    with pytest.raises(InvalidConfigError):
        select_rates(profile, 6)


# ---------------------------------------------------------------------------
# thresholds

def test_default_thresholds_examples():
    profile = default_profile()
    t3 = default_thresholds(select_rates(profile, 3), 1)
    assert (t3.forward, t3.reverse) == ((12, 25), (11, 24))
    t2 = default_thresholds(select_rates(profile, 2), 2)
    assert (t2.forward, t2.reverse) == ((25,), (23,))
    t4 = default_thresholds(select_rates(profile, 4), 4)
    assert (t4.forward, t4.reverse) == ((6, 12, 25), (2, 8, 21))


@given(n_d=st.integers(2, 4), gap=st.integers(1, 4))
def test_default_thresholds_always_valid(n_d, gap):
    rs = select_rates(default_profile(), n_d)
    policy = default_thresholds(rs, gap)
    assert len(policy.forward) == n_d - 1
    assert policy.forward == rs.capacities[:-1]
    assert all(f - r == gap for f, r in zip(policy.forward, policy.reverse))
    assert all(r >= 1 for r in policy.reverse)
    assert all(b > a for a, b in zip(policy.forward, policy.forward[1:]))
    assert all(b > a for a, b in zip(policy.reverse, policy.reverse[1:]))


def test_default_thresholds_rejects_oversized_gap():
    rs = select_rates(default_profile(), 4)  # smallest capacity step is 6
    with pytest.raises(InvalidConfigError):
        default_thresholds(rs, 6)


def test_threshold_policy_validation():
    with pytest.raises(InvalidConfigError):
        ThresholdPolicy(forward=(12, 25), reverse=(11,))
    with pytest.raises(InvalidConfigError):
        ThresholdPolicy(forward=(12, 25), reverse=(13, 24))
    with pytest.raises(InvalidConfigError):
        ThresholdPolicy(forward=(25, 12), reverse=(24, 11))
    with pytest.raises(InvalidConfigError):
        ThresholdPolicy(forward=(12, 25), reverse=(12, 24))


def test_threshold_policy_rejects_bool():
    # bool is an int subclass; True must not pass as a threshold of one
    with pytest.raises(InvalidConfigError, match="thresholds"):
        ThresholdPolicy(forward=(3,), reverse=(True,))


# ---------------------------------------------------------------------------
# traffic

def _unit(a, mu, servers):
    """A one-rate unit of `servers` calls: lambda = a * servers * mu."""
    return RruChainSpec(rate_set=RateSet(rates=(100.0,), capacities=(servers,)),
                        thresholds=ThresholdPolicy(forward=(), reverse=()),
                        traffic=TrafficSpec(a=a, mu=mu))


def test_unit_lam_examples():
    assert _unit(0.2, 0.5, 50).lam == pytest.approx(5.0, rel=1e-15)
    assert _unit(0.2, 1.0, 50).lam == pytest.approx(10.0, rel=1e-15)
    assert _unit(0.5, 0.5, 50).lam == pytest.approx(12.5, rel=1e-15)


@given(a=st.floats(0.01, 0.99), mu=st.floats(0.05, 10.0),
       servers=st.integers(1, 80))
def test_traffic_round_trip(a, mu, servers):
    unit = _unit(a, mu, servers)
    assert unit.traffic.a == pytest.approx(a, rel=1e-12)
    assert unit.lam / (unit.rate_set.server_count * unit.traffic.mu) == pytest.approx(a, rel=1e-12)


def test_traffic_validation():
    with pytest.raises(InvalidConfigError, match="a"):
        TrafficSpec(a=0.0, mu=0.5)
    with pytest.raises(InvalidConfigError, match="a"):
        TrafficSpec(a=1.0, mu=0.5)
    for a in (True, "0.25", math.nan):
        with pytest.raises(InvalidConfigError, match="a"):
            TrafficSpec(a=a, mu=0.5)
    for mu in (0.0, -1.0, math.inf, math.nan, True, "0.5"):
        with pytest.raises(InvalidConfigError, match="mu"):
            TrafficSpec(a=0.25, mu=mu)


# ---------------------------------------------------------------------------
# rate set validation

def test_rate_set_validation():
    with pytest.raises(InvalidConfigError):
        RateSet(rates=(200.0, 100.0), capacities=(3, 6))
    with pytest.raises(InvalidConfigError):
        RateSet(rates=(100.0, 200.0), capacities=(6, 3))
    with pytest.raises(InvalidConfigError):
        RateSet(rates=(100.0,), capacities=(3, 6))
    with pytest.raises(InvalidConfigError):
        RateSet(rates=(), capacities=())
    with pytest.raises(InvalidConfigError):
        RateSet(rates=(100.0, math.inf), capacities=(3, 6))
    # every rate is a number, and bool is not one
    for rates in (("a", 2.0), (True, 2.0)):
        with pytest.raises(InvalidConfigError, match="rate_set"):
            RateSet(rates=rates, capacities=(3, 6))
    # the top capacity is the unit's server count K: a whole number of calls
    for capacities in ((3, 6.5), (3, 6.0), (True, 6)):
        with pytest.raises(InvalidConfigError, match="capacities"):
            RateSet(rates=(100.0, 200.0), capacities=capacities)


def test_planning_ladders_sit_on_the_lowest_rate_grid():
    profile = default_profile()
    for n_d in range(1, 6):
        rs = select_rates(profile, n_d)
        assert rs.steps == tuple(2 ** i for i in range(n_d))
        assert rs.unit_mbps == rs.rates[0]


def test_rate_set_grid_unit_divides_every_rate():
    rs = RateSet(rates=(100.0, 250.0, 400.0), capacities=(3, 6, 9))
    assert rs.steps == (2, 5, 8) and rs.unit_mbps == 50.0
    # a wake-up adds the lowest step, an upgrade the difference of two
    assert rs.jumps == (2, 3, 3)
    assert RateSet(rates=(90.0, 120.0), capacities=(3, 6)).steps == (3, 4)


def test_rate_set_refuses_a_ladder_with_no_grid_unit():
    # sqrt(2) is irrational: no denominator up to the cap puts it on a grid
    with pytest.raises(InvalidConfigError, match="grid unit"):
        RateSet(rates=(100.0, 100.0 * math.sqrt(2.0)), capacities=(3, 6))
    # two rates too close to tell apart on any grid the search tries
    with pytest.raises(InvalidConfigError, match="grid unit"):
        RateSet(rates=(100.0, 100.0 + 1e-8), capacities=(3, 6))


# ---------------------------------------------------------------------------
# planning config and the JSON schema

def test_planning_config_derives_rates_and_thresholds():
    cfg = config_from_dict({"a": 0.25, "n_d": 3, "cluster_size": 17})
    assert cfg.rate_set.rates == (307.2, 614.4, 1228.8)
    assert cfg.thresholds.forward == (12, 25)
    assert cfg.thresholds.reverse == (11, 24)
    assert cfg.link_capacity_mbps == 10000.0
    assert RruChainSpec.from_planning(cfg).lam == pytest.approx(0.25 * 50 * 0.5)


def test_config_from_dict_rejects_unknown_key():
    with pytest.raises(InvalidConfigError):
        config_from_dict({"a": 0.25, "n_d": 3, "cluster_size": 17, "bogus": 1})


def test_config_from_dict_rejects_missing_required():
    with pytest.raises(InvalidConfigError):
        config_from_dict({"a": 0.25, "n_d": 3})


def test_config_from_dict_rejects_bad_types():
    with pytest.raises(InvalidConfigError):
        config_from_dict({"a": "big", "n_d": 3, "cluster_size": 17})
    with pytest.raises(InvalidConfigError):
        config_from_dict({"a": 0.25, "n_d": 3.5, "cluster_size": 17})
    with pytest.raises(InvalidConfigError):
        config_from_dict({"a": 0.25, "n_d": 3, "cluster_size": True})


def test_planning_config_rejects_bool_cluster_size():
    # bool is an int subclass; True must not pass as a cluster of one
    traffic = TrafficSpec(a=0.25, mu=0.5)
    with pytest.raises(InvalidConfigError, match="cluster_size"):
        PlanningConfig(profile=default_profile(), n_d=3, threshold_gap=1,
                       traffic=traffic, cluster_size=True)


def test_planning_config_rejects_a_non_numeric_link():
    with pytest.raises(InvalidConfigError, match="fha_capacity_mbps"):
        PlanningConfig(profile=default_profile(), n_d=3, threshold_gap=1,
                       traffic=TrafficSpec(a=0.25, mu=0.5), cluster_size=8,
                       link_capacity_mbps="1e4")


#: n_d=2 selects (614.4, 1228.8): a link of 614.4 carries only the lowest rate.
@pytest.mark.parametrize("key, field, value", [
    ("cluster_size", "cluster_size", 0),
    ("cluster_size", "cluster_size", True),
    ("cluster_size", "cluster_size", 2.5),
    ("cluster_size", "cluster_size", "16"),
    ("fha_capacity_mbps", "link_capacity_mbps", "1e4"),
    ("fha_capacity_mbps", "link_capacity_mbps", math.nan),
    ("fha_capacity_mbps", "link_capacity_mbps", 614.4),
    ("fha_capacity_mbps", "link_capacity_mbps", None),
])
def test_every_cluster_type_checks_size_and_link_alike(key, field, value):
    # a config file, a cluster spec and a simulation refuse a bad N or C
    # with the same field and the same message
    planning = config_from_dict({"a": 0.25, "n_d": 2, "cluster_size": 10})
    routes = (
        lambda: config_from_dict({"a": 0.25, "n_d": 2, "cluster_size": 10, key: value}),
        lambda: dataclasses.replace(spec_from_planning(planning), **{field: value}),
        lambda: dataclasses.replace(SimConfig.from_planning(planning, 200_000, 1),
                                    **{field: value}),
    )
    errors = []
    for route in routes:
        with pytest.raises(InvalidConfigError) as caught:
            route()
        errors.append((caught.value.field, str(caught.value)))
    assert errors[0][0] == key
    assert errors[1:] == errors[:1] * 2


@pytest.mark.parametrize("build, field", [
    (lambda spec, cfg: dataclasses.replace(spec, rate_set=None), "rate_set"),
    (lambda spec, cfg: dataclasses.replace(spec, rate_set=(614.4, 1228.8)), "rate_set"),
    (lambda spec, cfg: dataclasses.replace(spec, rates=None), "rates"),
    (lambda spec, cfg: dataclasses.replace(spec, rates=((12.5,), (0.1,))), "rates"),
    (lambda spec, cfg: dataclasses.replace(cfg, unit=None), "unit"),
    (lambda spec, cfg: dataclasses.replace(cfg, unit=spec.rate_set), "unit"),
], ids=["rate_set-none", "rate_set-tuple", "rates-none", "rates-tuple", "unit-none",
        "unit-rate_set"])
def test_cluster_types_refuse_a_wrong_typed_field_by_name(build, field):
    planning = config_from_dict({"a": 0.25, "n_d": 2, "cluster_size": 10})
    spec, cfg = spec_from_planning(planning), SimConfig.from_planning(planning, 200_000, 1)
    with pytest.raises(InvalidConfigError) as caught:
        build(spec, cfg)
    assert caught.value.field == field


def test_list_built_rate_sets_and_policies_equal_tuple_built_and_hash():
    pairs = (
        (RateSet(rates=[614.4, 1228.8], capacities=[25, 50]),
         RateSet(rates=(614.4, 1228.8), capacities=(25, 50))),
        (ThresholdPolicy(forward=[3], reverse=[2]), ThresholdPolicy(forward=(3,), reverse=(2,))),
    )
    for listed, tupled in pairs:
        assert listed == tupled
        assert hash(listed) == hash(tupled)


#: A three-rate ladder whose top row serves 40 calls.
PROFILE_40 = [
    {"bandwidth_mhz": 5.0, "fft_size": 512, "prb_count": 20, "rate_mbps": 200.0, "max_users": 10},
    {"bandwidth_mhz": 10.0, "fft_size": 1024, "prb_count": 40, "rate_mbps": 400.0, "max_users": 20},
    {"bandwidth_mhz": 20.0, "fft_size": 2048, "prb_count": 80, "rate_mbps": 800.0, "max_users": 40},
]


def test_custom_profile_takes_its_server_count_from_the_top_row():
    cfg = config_from_dict({"profile": PROFILE_40, "a": 0.25, "n_d": 3, "cluster_size": 20})
    unit = RruChainSpec.from_planning(cfg)
    assert cfg.rate_set.server_count == 40
    assert unit.forward_at(3) == 40
    assert unit.lam == 0.25 * 40 * 0.5
    assert 0.0 < blocking_for_planning(cfg).total < 1.0


def test_config_from_dict_rejects_server_count():
    # the server count is the profile's top row; there is nothing to set
    with pytest.raises(InvalidConfigError, match="server_count"):
        config_from_dict({"a": 0.25, "n_d": 3, "cluster_size": 8, "server_count": 50})


@pytest.mark.parametrize("field, value", [
    ("prb_count", 80.9), ("rate_mbps", "800.0"), ("fft_size", True),
    ("max_users", 40.0), ("bandwidth_mhz", math.inf),
])
def test_profile_rows_are_not_coerced(field, value):
    rows = [dict(row) for row in PROFILE_40]
    rows[-1][field] = value
    with pytest.raises(InvalidConfigError, match=field):
        config_from_dict({"profile": rows, "a": 0.25, "n_d": 3, "cluster_size": 8})


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"a": 0.2, "n_d": 2, "cluster_size": 12,
                                "threshold_gap": 2, "mu": 1.0}))
    cfg = load_config(str(path))
    assert isinstance(cfg, PlanningConfig)
    assert cfg.cluster_size == 12
    assert cfg.threshold_gap == 2
    assert cfg.traffic.mu == 1.0


def test_load_config_gap_override_is_validated(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"a": 0.2, "n_d": 3, "cluster_size": 12, "threshold_gap": 2}))
    assert load_config(str(path)).threshold_gap == 2
    assert load_config(str(path), threshold_gap=4).threshold_gap == 4
    with pytest.raises(InvalidConfigError, match="threshold_gap"):
        load_config(str(path), threshold_gap=0)


def test_load_config_bad_file(tmp_path):
    with pytest.raises(InvalidConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidConfigError):
        load_config(str(bad))
