"""Cluster model: state enumeration, product-form law, reversibility,
and the blocking decomposition."""

import dataclasses
import gc
import itertools
import math
import time
from decimal import Decimal

import numpy as np
import pytest

from vrfplan import (
    AggregatorSpec,
    CapacityError,
    InvalidConfigError,
    RateSet,
    blocking,
    blocking_for_planning,
    config_from_dict,
    spec_from_planning,
)
from vrfplan import aggregator, oracle, rru
from vrfplan.aggregator import enumerate_states, product_form
from vrfplan.oracle import build_generator, detailed_balance_check

from enumerated_oracle import enumerated_blocking, log_space_blocking
from util import engset_marginal, mk_chain, rate_level_distribution


def toy_spec(n=6, bc=600.0, lam=1.5, mu=0.5):
    """Small two-level cluster: unit ladder (100, 200), link 6x the low rate."""
    chain = mk_chain((100.0, 200.0), (3, 6), (3,), (2,), lam, mu)
    return AggregatorSpec(cluster_size=n, rate_set=chain.rate_set,
                          link_capacity_mbps=bc,
                          rates=rru.transition_rates(chain))


def single_level_spec(n, bc=10000.0, a=0.2):
    chain = mk_chain((1228.8,), (50,), (), (), a * 50 * 0.5, 0.5)
    return AggregatorSpec(cluster_size=n, rate_set=chain.rate_set,
                          link_capacity_mbps=bc,
                          rates=rru.transition_rates(chain))


# ---------------------------------------------------------------------------
# grid limit and state enumeration

def test_grid_limit_values():
    # floor(C / unit) for a cluster large enough not to cap it
    assert RateSet((1228.8,), (50,)).grid_limit(10000.0, 100) == 8
    assert RateSet((614.4, 1228.8), (25, 50)).grid_limit(10000.0, 100) == 16
    assert RateSet((100.0,), (6,)).grid_limit(600.0, 100) == 6
    # capped at every unit on the top rate, which also bounds an unbounded link
    assert RateSet((614.4, 1228.8), (25, 50)).grid_limit(10000.0, 5) == 10
    assert RateSet((614.4, 1228.8), (25, 50)).grid_limit(math.inf, 5) == 10
    # a capacity computed as k * unit divides a few ulps under k
    assert 31 * 76.8 / 76.8 < 31
    assert RateSet((76.8, 153.6), (3, 6)).grid_limit(31 * 76.8, 100) == 31


def test_grid_limit_admits_every_multiple_of_the_unit():
    # k * u computed in floating point, and k * u typed as a decimal
    units = ("76.8", "153.6", "307.2", "614.4", "1228.8", "100", "50")
    for u in units:
        rate_set = RateSet((float(u),), (1,))
        assert rate_set.unit_mbps == float(u)
        short = [k for k in range(1, 20000) if rate_set.grid_limit(k * float(u), 20000) != k]
        assert short == [], (u, short[:5])
    for u in units[:5]:
        rate_set = RateSet((float(u),), (1,))
        typed = [k for k in range(1, 5000)
                 if rate_set.grid_limit(float(Decimal(u) * k), 5000) != k]
        assert typed == [], (u, typed[:5])


def test_cluster_size_rejects_bool():
    spec = toy_spec()
    with pytest.raises(InvalidConfigError, match="cluster_size"):
        AggregatorSpec(cluster_size=True, rate_set=spec.rate_set,
                       link_capacity_mbps=spec.link_capacity_mbps, rates=spec.rates)


@pytest.mark.parametrize("value", ["1e4", None, b"600"])
def test_link_capacity_rejects_non_numbers(value):
    with pytest.raises(InvalidConfigError, match="fha_capacity_mbps"):
        dataclasses.replace(toy_spec(), link_capacity_mbps=value)


def test_toy_lattice_has_sixteen_states():
    space = enumerate_states(toy_spec())
    assert len(space) == 16


def test_single_level_enumeration():
    space = enumerate_states(single_level_spec(5, bc=10 * 1228.8))
    assert len(space) == 6
    assert sorted(space.vectors) == [(k,) for k in range(6)]


def test_enumeration_leaves_no_garbage_cycles():
    spec = spec_from_planning(config_from_dict({"a": 0.25, "n_d": 3, "cluster_size": 20}))
    gc.collect()
    space = enumerate_states(spec)
    assert gc.collect() == 0
    assert len(space) == 819


def test_enumerated_states_respect_both_constraints():
    spec = toy_spec()
    space = enumerate_states(spec)
    for k in space.vectors:
        assert sum(k) <= spec.cluster_size
        load = sum(c * d for c, d in zip(k, spec.rate_set.rates))
        assert load <= spec.link_capacity_mbps + 1e-9


def test_state_caps_raise_capacity_error(monkeypatch):
    # the toy lattice has 16 states: a cap of 15 refuses it, 16 does not
    spec = toy_spec()
    monkeypatch.setattr(aggregator, "DEFAULT_STATE_CAP", 15)
    with pytest.raises(CapacityError, match="state space exceeds 15 states"):
        enumerate_states(spec)
    monkeypatch.setattr(aggregator, "DEFAULT_STATE_CAP", 16)
    space = enumerate_states(spec)
    monkeypatch.setattr(oracle, "_GENERATOR_STATE_CAP", 15)
    with pytest.raises(CapacityError, match="16 states exceeds the 15-state cap"):
        build_generator(spec, space=space)
    monkeypatch.setattr(oracle, "_GENERATOR_STATE_CAP", 16)
    assert build_generator(spec, space=space).shape == (16, 16)


# ---------------------------------------------------------------------------
# transition rates of the cluster chain

def test_transition_rate_examples():
    spec = toy_spec()
    space = enumerate_states(spec)
    q = build_generator(spec, space=space)

    def rate(k_from, k_to):
        return q[space.vectors.index(k_from), space.vectors.index(k_to)]

    lam1 = spec.rates.up[1]
    mu1 = spec.rates.down[0]
    assert rate((2, 1), (1, 2)) == pytest.approx(2 * lam1)
    assert rate((0, 0), (1, 0)) == pytest.approx(6 * 1.5)      # N idle units at lambda
    assert rate((1, 0), (0, 0)) == pytest.approx(mu1)
    assert rate((2, 1), (2, 2)) == 0.0


# ---------------------------------------------------------------------------
# product form

def test_single_level_product_form_is_binomial_weighted():
    spec = single_level_spec(6, bc=10 * 1228.8)
    space = enumerate_states(spec)
    probs = product_form(spec, binomial_n="true", space=space)
    expect = engset_marginal(6, spec.rates.up[0] / spec.rates.down[0], 6)
    order = np.argsort([k[0] for k in space.vectors])
    assert np.abs(probs[order] - expect).max() < 1e-12


def test_empty_state_probability_is_inverse_weight_sum():
    spec = toy_spec()
    space = enumerate_states(spec)
    probs = product_form(spec, binomial_n="true", space=space)
    n = spec.cluster_size
    r1 = spec.rates.up[0] / spec.rates.down[0]
    r2 = spec.rates.up[1] / spec.rates.down[1]
    total = 0.0
    for k1, k2 in space.vectors:
        total += (math.factorial(n)
                  / (math.factorial(n - k1 - k2) * math.factorial(k1) * math.factorial(k2))
                  * r1 ** (k1 + k2) * r2 ** k2)
    empty = probs[space.vectors.index((0, 0))]
    assert empty == pytest.approx(1.0 / total, rel=1e-12)


def test_product_form_matches_direct_solve():
    spec = toy_spec()
    space = enumerate_states(spec)
    pf = product_form(spec, binomial_n="true", space=space)
    direct = oracle.steady_state(build_generator(spec, space=space))
    assert np.abs(pf - direct).max() < 1e-10


def test_product_form_matches_direct_solve_three_levels():
    rng = np.random.default_rng(71)
    for _ in range(6):
        rho = float(rng.uniform(0.5, 20.0))
        chain = mk_chain((307.2, 614.4, 1228.8), (12, 25, 50), (12, 25), (11, 24),
                         rho * 0.5, 0.5)
        n = int(rng.integers(2, 9))
        spec = AggregatorSpec(cluster_size=n, rate_set=chain.rate_set,
                              link_capacity_mbps=float(rng.uniform(1.5, 5.0)) * 1228.8,
                              rates=rru.transition_rates(chain))
        space = enumerate_states(spec)
        pf = product_form(spec, binomial_n="true", space=space)
        direct = oracle.steady_state(build_generator(spec, space=space))
        assert np.abs(pf - direct).max() < 1e-8
        assert abs(pf.sum() - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# reversibility

def balance_residual(spec):
    """The product form's largest pair imbalance under the spec's chain."""
    space = enumerate_states(spec)
    return detailed_balance_check(product_form(spec, binomial_n="true", space=space),
                                  build_generator(spec, space=space))


def test_detailed_balance_small_specs():
    assert balance_residual(toy_spec()) < 1e-10
    chain3 = mk_chain((307.2, 614.4, 1228.8), (12, 25, 50), (12, 25), (11, 24), 5.0, 0.5)
    spec3 = AggregatorSpec(cluster_size=6, rate_set=chain3.rate_set,
                           link_capacity_mbps=3000.0,
                           rates=rru.transition_rates(chain3))
    assert balance_residual(spec3) < 1e-10


def test_detailed_balance_single_level_is_tight():
    assert balance_residual(single_level_spec(6)) < 1e-14


def test_perturbed_service_rate_breaks_balance():
    spec = toy_spec()
    space = enumerate_states(spec)
    probs = product_form(spec, binomial_n="true", space=space)
    bumped = AggregatorSpec(
        cluster_size=spec.cluster_size, rate_set=spec.rate_set,
        link_capacity_mbps=spec.link_capacity_mbps,
        rates=rru.RruRates(up=spec.rates.up,
                           down=(spec.rates.down[0] * 1.01, spec.rates.down[1])))
    assert detailed_balance_check(probs, build_generator(bumped, space=space)) > 1e-6


# ---------------------------------------------------------------------------
# blocking

def test_blocking_zero_when_capacity_suffices():
    for n in (2, 5, 8):
        report = blocking(single_level_spec(n, bc=10000.0, a=0.2))
        assert report.total == 0.0
        assert all(p == 0.0 for p in report.per_rate)


def test_blocking_positive_beyond_link_capacity():
    report = blocking(single_level_spec(9, bc=10000.0, a=0.2))
    assert report.total > 0.5


def test_blocking_matches_flow_count_on_direct_chain():
    spec = toy_spec(n=6, bc=350.0)
    space = enumerate_states(spec)
    pi = oracle.steady_state(build_generator(spec, space=space))
    lam0, lam1 = spec.rates.up
    d1, d2 = spec.rate_set.rates
    offered = blocked = 0.0
    for i, (k1, k2) in enumerate(space.vectors):
        load = k1 * d1 + k2 * d2
        idle = spec.cluster_size - k1 - k2
        offered += pi[i] * (idle * lam0 + k1 * lam1)
        if idle > 0 and load + d1 > spec.link_capacity_mbps + 1e-6:
            blocked += pi[i] * idle * lam0
        if k1 > 0 and load + (d2 - d1) > spec.link_capacity_mbps + 1e-6:
            blocked += pi[i] * k1 * lam1
    report = enumerated_blocking(spec, binomial_n="true", space=space)
    assert report.total == pytest.approx(blocked / offered, abs=1e-9)
    assert blocking(spec, binomial_n="true").total == pytest.approx(blocked / offered, abs=1e-9)


def test_blocking_components_sum_and_bound():
    spec = toy_spec(n=6, bc=350.0)
    space = enumerate_states(spec)
    report = blocking(spec, binomial_n="true")
    assert report.total == pytest.approx(sum(report.per_rate), abs=1e-14)
    probs = product_form(spec, binomial_n="true", space=space)
    k_mat = np.array(space.vectors, dtype=float)
    idle = spec.cluster_size - space.totals
    shares = [float((idle * spec.rates.up[0] * probs).sum()),
              float((k_mat[:, 0] * spec.rates.up[1] * probs).sum())]
    # both levels' attempts are the whole offered flow
    for part, share in zip(report.per_rate, shares):
        assert part <= share / sum(shares) + 1e-12


def test_blocking_monotone_in_cluster_size_and_load():
    totals = [blocking_for_planning(config_from_dict({"a": 0.25, "n_d": 2, "cluster_size": n}))
              .total for n in range(10, 17)]
    assert all(b >= a - 1e-12 for a, b in zip(totals, totals[1:]))
    by_load = [blocking_for_planning(config_from_dict({"a": a, "n_d": 2, "cluster_size": 15}))
               .total for a in (0.2, 0.25, 0.3)]
    assert all(b >= a - 1e-12 for a, b in zip(by_load, by_load[1:]))


def test_unconstrained_link_recovers_independent_units(monkeypatch):
    chain = mk_chain((100.0, 200.0), (3, 6), (3,), (2,), 1.5, 0.5)
    spec = AggregatorSpec(cluster_size=5, rate_set=chain.rate_set,
                          link_capacity_mbps=math.inf,
                          rates=rru.transition_rates(chain))
    space = enumerate_states(spec)
    assert enumerated_blocking(spec, space=space).total == 0.0
    probs = product_form(spec, space=space)
    k_mat = np.array(space.vectors, dtype=float)
    n = spec.cluster_size
    marginal = [
        float(((n - space.totals) * probs).sum()) / n,
        float((k_mat[:, 0] * probs).sum()) / n,
        float((k_mat[:, 1] * probs).sum()) / n,
    ]
    levels = rate_level_distribution(spec.rates)
    assert np.abs(np.array(marginal) - levels).max() < 1e-9
    _no_enumeration(monkeypatch)
    for conv in ("effective", "true"):
        report = blocking(spec, conv)
        assert report.total == 0.0 and report.binomial_n == 5


def test_unbounded_link_with_hundreds_of_units(monkeypatch):
    # every occupancy vector fits: C(N + M, M) states, none blocks
    spec = spec_from_planning(config_from_dict(
        {"a": 0.25, "n_d": 5, "cluster_size": 400, "fha_capacity_mbps": math.inf}))
    _no_enumeration(monkeypatch)
    for conv in ("effective", "true"):
        t0 = time.perf_counter()
        report = blocking(spec, conv)
        assert time.perf_counter() - t0 < 1.0
        assert report.total == 0.0 and report.per_rate == (0.0,) * 5
        assert report.binomial_n == 400


# ---------------------------------------------------------------------------
# planning glue and conventions

def test_planning_glue_round_trip():
    planning = config_from_dict({"a": 0.25, "n_d": 3, "cluster_size": 17})
    spec = spec_from_planning(planning)
    assert spec.cluster_size == 17
    assert spec.rate_set.rates == (307.2, 614.4, 1228.8)
    report = blocking_for_planning(planning)
    assert 1e-3 < report.total < 2e-3


def test_binomial_conventions_agree_below_saturation():
    # 17 < link capacity / lowest rate
    planning = config_from_dict({"a": 0.25, "n_d": 3, "cluster_size": 17})
    eff = blocking_for_planning(planning, binomial_n="effective")
    true = blocking_for_planning(planning, binomial_n="true")
    assert eff.total == pytest.approx(true.total, rel=1e-12)


def test_binomial_conventions_differ_when_saturated():
    # the link only carries 8 at the top rate
    planning = config_from_dict({"a": 0.2, "n_d": 1, "cluster_size": 9})
    eff = blocking_for_planning(planning, binomial_n="effective")
    true = blocking_for_planning(planning, binomial_n="true")
    assert eff.binomial_n == 8
    assert true.binomial_n == 9
    assert eff.total != true.total
    assert 0.99 < eff.total < 1.0
    assert 0.99 < true.total < 1.0


# ---------------------------------------------------------------------------
# grid convolution against the enumerated oracle

def _no_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("state enumeration on the grid path")
    monkeypatch.setattr(aggregator, "enumerate_states", refuse)


def _assert_reports_close(got, want, rel):
    assert got.binomial_n == want.binomial_n and got.convention == want.convention
    for x, w in zip(got.per_rate + (got.total,), want.per_rate + (want.total,)):
        assert x == w or abs(x - w) <= rel * abs(w), (got, want)


def _assert_log_totals_close(got, want, rel):
    """log P_B within `rel` of its size, or of 1 where P_B is near 1: there
    log P_B ~ P_B - 1, which no sum of the flows resolves more finely."""
    assert got.log_total == want.log_total or (
        abs(got.log_total - want.log_total) <= rel * max(1.0, abs(want.log_total)))


def test_grid_path_matches_enumerated_oracle(monkeypatch):
    cases = []
    for a in (0.2, 0.3, 0.5):
        for n_d in range(1, 6):
            for n in (4, 8, 12, 16, 20):
                spec = spec_from_planning(config_from_dict({"a": a, "n_d": n_d, "cluster_size": n}))
                space = enumerate_states(spec)
                cases.append((spec, {conv: enumerated_blocking(spec, conv, space=space)
                                     for conv in ("effective", "true")}))
    _no_enumeration(monkeypatch)
    for spec, oracle in cases:
        for conv, want in oracle.items():
            _assert_reports_close(blocking(spec, conv), want, 1e-9)


def test_grid_path_at_link_edges():
    # links at an exact multiple of the lowest rate, where float slack and
    # grid rounding could disagree, and links narrower than the top rate
    for link, n_d, n in itertools.product((10 * 1228.8, 1228.8, 1000.0), (1, 2, 3, 5),
                                          (2, 9, 10, 11, 14)):
        if link <= 1228.8 and n_d == 1:
            continue    # the link must exceed the lowest rate
        spec = spec_from_planning(config_from_dict(
            {"a": 0.3, "n_d": n_d, "cluster_size": n, "fha_capacity_mbps": link}))
        space = enumerate_states(spec)
        for conv in ("effective", "true"):
            _assert_reports_close(blocking(spec, conv),
                                  enumerated_blocking(spec, conv, space=space), 1e-9)


def test_rates_off_the_lowest_rate_grid_solve_on_a_finer_grid(monkeypatch):
    # 250 is no multiple of 100, but both are multiples of 50
    chain = mk_chain((100.0, 250.0), (3, 6), (3,), (2,), 1.5, 0.5)
    spec = AggregatorSpec(cluster_size=6, rate_set=chain.rate_set,
                          link_capacity_mbps=700.0,
                          rates=rru.transition_rates(chain))
    assert spec.rate_set.steps == (2, 5) and spec.rate_set.unit_mbps == 50.0
    space = enumerate_states(spec)
    oracle = {conv: enumerated_blocking(spec, conv, space=space) for conv in ("effective", "true")}
    assert oracle["effective"].total > 0.0
    calls = []
    original = aggregator.enumerate_states
    monkeypatch.setattr(aggregator, "enumerate_states",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    for conv, want in oracle.items():
        _assert_reports_close(blocking(spec, conv), want, 1e-12)
    assert calls == []


def test_row_near_the_halving_chain_lands_on_the_lowest_rate(monkeypatch):
    # a custom row 9e-7 Mbit/s off the halving chain: select_rates matches it
    # within its tolerance, and the grid takes the lowest rate as its unit
    profile = [{"bandwidth_mhz": 5.0, "fft_size": 512, "prb_count": 25,
                "rate_mbps": 307.2, "max_users": 12},
               {"bandwidth_mhz": 10.0, "fft_size": 1024, "prb_count": 50,
                "rate_mbps": 614.4000009, "max_users": 25},
               {"bandwidth_mhz": 20.0, "fft_size": 2048, "prb_count": 100,
                "rate_mbps": 1228.8, "max_users": 50}]
    cases = []
    for n_d, n in ((2, 17), (3, 17), (3, 30)):
        spec = spec_from_planning(config_from_dict(
            {"a": 0.3, "n_d": n_d, "cluster_size": n, "profile": profile}))
        assert spec.rate_set.steps == (1, 2, 4)[:n_d]
        assert spec.rate_set.unit_mbps == spec.rate_set.rates[0]
        space = enumerate_states(spec)
        cases.append((spec, {conv: enumerated_blocking(spec, conv, space=space)
                             for conv in ("effective", "true")}))
    _no_enumeration(monkeypatch)
    for spec, oracle in cases:
        for conv, want in oracle.items():
            assert want.total > 0.0
            _assert_reports_close(blocking(spec, conv), want, 1e-9)


def test_hundreds_of_units_on_a_fat_link(monkeypatch):
    spec = spec_from_planning(config_from_dict(
        {"a": 0.25, "n_d": 5, "cluster_size": 400, "fha_capacity_mbps": 200000.0}))
    _no_enumeration(monkeypatch)
    for conv in ("effective", "true"):
        t0 = time.perf_counter()
        report = blocking(spec, conv)
        assert time.perf_counter() - t0 < 1.0
        parts = np.array(report.per_rate)
        assert np.isfinite(parts).all() and ((parts >= 0.0) & (parts <= 1.0)).all()
        assert math.fsum(report.per_rate) == pytest.approx(report.total, rel=1e-12)
        assert 0.0 < report.total < 1.0


# ---------------------------------------------------------------------------
# tilted powers against the log-space oracle

@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.slow
def test_blocking_matches_the_log_space_oracle_across_loads_links_and_sizes():
    for a, n_d, gbps, n, gap in itertools.product((0.05, 0.1, 0.25, 0.5, 0.8), range(1, 6),
                                                  (2.5, 10, 25, 100, 200),
                                                  (32, 40, 64, 120, 250, 600), (1, 2)):
        spec = spec_from_planning(config_from_dict(
            {"a": a, "n_d": n_d, "cluster_size": n, "threshold_gap": gap,
             "fha_capacity_mbps": gbps * 1000.0}))
        never_blocks = n * spec.rate_set.steps[-1] <= spec.grid_limit
        for conv in ("effective", "true"):
            got = blocking(spec, conv)
            want = log_space_blocking(spec, conv)
            _assert_reports_close(got, want, 1e-10)
            _assert_log_totals_close(got, want, 1e-10)
            assert (got.log_total == -math.inf) == never_blocks
            if never_blocks:
                assert got.per_rate == (0.0,) * n_d and got.total == 0.0
            else:
                # positive unless P_B lies below the float range, where
                # the log-space oracle reads 0 too
                assert got.total > 0.0 or want.total == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blocking_near_the_float_range_on_a_terabit_link(monkeypatch):
    # 2 000 units on a 1 Tbit/s link: G = 13 020 loads and P_B ~ 3.7e-296,
    # so far in the tail of t = 0 that the grid edge takes one tilt
    spec = spec_from_planning(config_from_dict(
        {"a": 0.2, "n_d": 5, "cluster_size": 2000, "fha_capacity_mbps": 1e6}))
    assert spec.grid_limit == 13020
    tilts = []
    real = aggregator._tilt
    monkeypatch.setattr(aggregator, "_tilt", lambda *args: tilts.append(1) or real(*args))
    for conv in ("effective", "true"):
        tilts.clear()
        got = blocking(spec, conv)
        assert tilts == [1]
        assert 1e-296 < got.total < 1e-295
        assert all(p > 0.0 for p in got.per_rate)
        want = log_space_blocking(spec, conv)
        _assert_reports_close(got, want, 1e-9)
        _assert_log_totals_close(got, want, 1e-9)


def test_log_total_resolves_blocking_below_the_float_range():
    # 120 units at load 0.1 on 100 Gbit/s: P_B ~ e^-1386, far below 5e-324
    spec = spec_from_planning(config_from_dict(
        {"a": 0.1, "n_d": 5, "cluster_size": 120, "fha_capacity_mbps": 1e5}))
    for conv in ("effective", "true"):
        got, want = blocking(spec, conv), log_space_blocking(spec, conv)
        assert got.total == 0.0 and -1400.0 < got.log_total < -1300.0
        assert abs(got.log_total - want.log_total) <= 1e-10 * abs(want.log_total)


def test_log_total_is_the_log_of_the_total():
    for n, link in ((14, 10000.0), (40, 25000.0)):
        report = blocking(spec_from_planning(config_from_dict(
            {"a": 0.3, "n_d": 3, "cluster_size": n, "fha_capacity_mbps": link})))
        assert report.log_total == pytest.approx(math.log(report.total), rel=1e-12)
    # 4 units at the top rate fit 10 Gbit/s: no load blocks
    report = blocking(spec_from_planning(config_from_dict(
        {"a": 0.3, "n_d": 3, "cluster_size": 4, "fha_capacity_mbps": 10000.0})))
    assert report.total == 0.0 and report.log_total == -math.inf

