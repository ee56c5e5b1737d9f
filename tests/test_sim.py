"""Event-driven simulator: arrival processes, switching rules, counters,
estimators, and cross-checks against exact references."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sps

from vrfplan import (
    ArrivalProcess,
    InvalidConfigError,
    SimConfig,
    blocking_for_planning,
    config_from_dict,
    transition_rates,
)
from vrfplan import sim
from vrfplan.oracle import build_global_chain

import reference_sim
from util import TwoUnitExact, erlang_b, mk_chain, takacs_loss


def draws(process, rng, count):
    """Inter-arrival times by inversion of seeded uniforms, as `sim.run`
    draws them."""
    return process.quantile(rng.random(count))


def batch_se(numer, denom):
    ratios = np.array(numer) / np.maximum(np.array(denom, dtype=float), 1.0)
    return float(ratios.std(ddof=1) / math.sqrt(len(ratios)))


# ---------------------------------------------------------------------------
# arrival processes

def test_arrival_rejects_bad_shape():
    with pytest.raises(InvalidConfigError):
        ArrivalProcess(rate=1.0, shape=0.0)
    # the longest gap, at u = 1 - 2**-53, is 36.7**(1/shape): past the float
    # range below a shape of about 0.0051, found with no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shape in (0.001, 0.004):
            with pytest.raises(InvalidConfigError, match="float range"):
                ArrivalProcess(rate=1.0, shape=shape)
        assert math.isfinite(ArrivalProcess(rate=1.0, shape=0.01).quantile(1.0 - 2.0**-53))


def test_shape_one_reduces_to_exponential():
    rng = np.random.default_rng(5)
    w = ArrivalProcess(rate=2.0, shape=1.0)
    samples = draws(w, rng, 100_000)
    d, p = sps.kstest(samples, sps.expon(scale=0.5).cdf)
    assert p > 0.01


def test_heavy_tail_sample_mean():
    rng = np.random.default_rng(7)
    w = ArrivalProcess(rate=1.0, shape=0.9)
    samples = draws(w, rng, 1_000_000)
    expect = math.gamma(1 + 1 / 0.9)
    assert expect == pytest.approx(1.0522, abs=5e-5)
    assert samples.mean() == pytest.approx(expect, rel=0.01)


def test_light_tail_sample_variance():
    rng = np.random.default_rng(11)
    k = 1.5
    w = ArrivalProcess(rate=2.0, shape=k)
    samples = draws(w, rng, 1_000_000)
    scale = 1.0 / 2.0
    expect = scale**2 * (math.gamma(1 + 2 / k) - math.gamma(1 + 1 / k) ** 2)
    assert samples.var() == pytest.approx(expect, rel=0.02)


def test_quantile_monotone_and_positive():
    w = ArrivalProcess(rate=3.0, shape=0.9)
    grid = np.linspace(0.01, 0.99, 50)
    q = w.quantile(grid)
    assert (np.diff(q) > 0).all()
    assert q.min() > 0.0


def test_quantile_on_arrays_matches_scalar_formula():
    # numpy's log1p and power may differ from libm's in the last bit
    u = np.random.default_rng(3).random(20_000)
    for process in (ArrivalProcess(rate=2.0),
                    ArrivalProcess(rate=3.0, shape=0.9),
                    ArrivalProcess(rate=0.5, shape=1.5)):
        want = np.array([reference_sim.scalar_quantile(process, x) for x in u])
        np.testing.assert_allclose(process.quantile(u), want, rtol=1e-14, atol=0.0)


def test_t_quantile_literal_matches_scipy():
    assert sim.T_QUANTILE == pytest.approx(float(sps.t.ppf(0.975, sim.BATCH_COUNT - 1)),
                                           rel=1e-15)


# ---------------------------------------------------------------------------
# switching rules, as the unit chain the simulator's tables come from

# forward (3, 7), reverse (2, 6), ten servers
CHAIN = build_global_chain(mk_chain((1.0, 2.0, 3.0), (3, 7, 10), (3, 7), (2, 6), 1.0, 0.5))


def moves(chain, users, level):
    """States one event takes (users, level) to, by added and removed calls."""
    row = chain.q[chain.index_of(users, level)]
    targets = [chain.states[j] for j in np.nonzero(row > 0.0)[0]]
    return ({s for s in targets if s[0] == users + 1},
            {s for s in targets if s[0] == users - 1})


def test_rate_after_arrival_rules():
    assert moves(CHAIN, 3, 1)[0] == {(4, 2)}      # on the threshold
    assert moves(CHAIN, 0, 0)[0] == {(1, 1)}      # wake-up
    assert moves(CHAIN, 4, 2)[0] == {(5, 2)}      # interior
    assert moves(CHAIN, 9, 3)[0] == {(10, 3)}     # below capacity
    assert moves(CHAIN, 10, 3)[0] == set()        # full unit: cause-1 case
    assert (2, 0) not in CHAIN.states             # an idle unit holds no calls
    assert (4, 1) not in CHAIN.states             # beyond the band


def test_rate_after_departure_rules():
    assert moves(CHAIN, 3, 2)[1] == {(2, 1)}      # on the reverse threshold
    assert moves(CHAIN, 1, 1)[1] == {(0, 0)}      # switches off
    assert moves(CHAIN, 8, 3)[1] == {(7, 3)}      # interior
    assert moves(CHAIN, 4, 2)[1] == {(3, 2)}
    assert moves(CHAIN, 0, 0)[1] == set()         # departures need an active unit
    assert (0, 1) not in CHAIN.states             # no call count below zero


# ---------------------------------------------------------------------------
# configuration validation

def test_sim_config_validation():
    planning = config_from_dict({"a": 0.25, "n_d": 2, "cluster_size": 10})
    good = SimConfig.from_planning(planning, 200_000, 1)
    with pytest.raises(InvalidConfigError):
        dataclasses.replace(good, events=10_000)
    with pytest.raises(InvalidConfigError):
        dataclasses.replace(good, seed=None)
    for seed in (-1, 2**128):
        with pytest.raises(InvalidConfigError, match="seed"):
            dataclasses.replace(good, seed=seed)
    with pytest.raises(InvalidConfigError):
        dataclasses.replace(good, link_capacity_mbps=100.0)
    with pytest.raises(InvalidConfigError):
        dataclasses.replace(good, shape=0.0)
    with pytest.raises(InvalidConfigError):
        dataclasses.replace(good, reconfig_latency=-0.5)
    for latency in (math.nan, math.inf):
        with pytest.raises(InvalidConfigError, match="reconfig_latency"):
            dataclasses.replace(good, reconfig_latency=latency)


def test_sim_config_rejects_bool_cluster_size():
    # bool is an int subclass; True must not pass as a cluster of one
    planning = config_from_dict({"a": 0.25, "n_d": 2, "cluster_size": 10})
    good = SimConfig.from_planning(planning, 200_000, 1)
    with pytest.raises(InvalidConfigError, match="cluster_size"):
        dataclasses.replace(good, cluster_size=True)


@pytest.mark.parametrize("field, value, name", [
    ("link_capacity_mbps", "1e4", "fha_capacity_mbps"),
    ("link_capacity_mbps", None, "fha_capacity_mbps"),
    ("reconfig_latency", "0.5", "reconfig_latency"),
    ("reconfig_latency", [0.5], "reconfig_latency"),
    ("shape", "1.5", "arrival"),
    ("shape", True, "arrival"),
])
def test_sim_config_rejects_non_numbers(field, value, name):
    planning = config_from_dict({"a": 0.25, "n_d": 2, "cluster_size": 10})
    good = SimConfig.from_planning(planning, 200_000, 1)
    with pytest.raises(InvalidConfigError, match=name):
        dataclasses.replace(good, **{field: value})


@pytest.mark.parametrize("field, value", [("rate", "2"), ("rate", None), ("rate", math.inf),
                                          ("shape", "0.9")])
def test_arrival_rejects_non_numbers(field, value):
    with pytest.raises(InvalidConfigError, match="arrival"):
        dataclasses.replace(ArrivalProcess(rate=2.0, shape=0.9), **{field: value})


# ---------------------------------------------------------------------------
# counters and reproducibility

def test_conservation_and_batches():
    for shape in (1.0, 1.5, 0.9):
        planning = config_from_dict({"a": 0.3, "n_d": 3, "cluster_size": 15})
        stats = sim.run(SimConfig.from_planning(planning, 150_000, 3, shape=shape))
        assert stats.arrivals == stats.accepted + stats.blocked_rru + stats.blocked_fha
        assert stats.events_processed == 150_000
        assert stats.warmup_events == 7_500
        assert len(stats.batch_arrivals) == 20
        assert sum(stats.batch_arrivals) == stats.arrivals
        assert sum(stats.batch_blocked_fha) == stats.blocked_fha
        assert sum(stats.batch_blocked_rru) == stats.blocked_rru
        assert sum(stats.batch_attempts) == stats.upgrade_attempts


def test_bit_identical_reruns():
    planning = config_from_dict({"a": 0.25, "n_d": 3, "cluster_size": 16})
    a = sim.run(SimConfig.from_planning(planning, 120_000, 99))
    b = sim.run(SimConfig.from_planning(planning, 120_000, 99))
    assert a == b


def test_seed_changes_outcome():
    planning = config_from_dict({"a": 0.25, "n_d": 3, "cluster_size": 16})
    a = sim.run(SimConfig.from_planning(planning, 120_000, 1))
    b = sim.run(SimConfig.from_planning(planning, 120_000, 2))
    assert a.arrivals != b.arrivals or a.blocked_fha != b.blocked_fha


def test_capacity_is_never_exceeded():
    # a heavily saturated link
    planning = config_from_dict({"a": 0.3, "n_d": 2, "cluster_size": 16})
    stats = sim.run(SimConfig.from_planning(planning, 150_000, 13))
    assert stats.c_max <= planning.link_capacity_mbps + 1e-6
    # integral average can sit an epsilon above the max when pinned there
    assert 0.0 < stats.c_time_average <= stats.c_max + 1e-6


def test_under_capacity_cluster_never_blocks_on_link():
    # 8 x 1228.8 fits in 10000
    planning = config_from_dict({"a": 0.2, "n_d": 1, "cluster_size": 8})
    stats = sim.run(SimConfig.from_planning(planning, 1_000_000, 17))
    assert stats.blocked_fha == 0
    assert stats.estimate_fha_flow == 0.0
    assert stats.c_max <= 8 * 1228.8 + 1e-9


def test_oversubscribed_cluster_blocks_on_link():
    # 9 x 1228.8 exceeds 10000
    planning = config_from_dict({"a": 0.2, "n_d": 1, "cluster_size": 9})
    stats = sim.run(SimConfig.from_planning(planning, 1_000_000, 19))
    assert stats.blocked_fha > 0


# ---------------------------------------------------------------------------
# estimator cross-checks against exact references

def test_single_unit_blocking_is_erlang_loss():
    chain = mk_chain((100.0,), (5,), (), (), 2.5, 1.0)
    cfg = sim.SimConfig(unit=chain, cluster_size=1, link_capacity_mbps=1000.0,
                        events=300_000, seed=9)
    stats = sim.run(cfg)
    se = batch_se(stats.batch_blocked_rru, stats.batch_arrivals)
    oracle = erlang_b(2.5, 5)
    assert oracle == pytest.approx(0.0697, abs=5e-5)
    assert abs(stats.estimate_rru_per_arrival - oracle) <= 3 * se
    assert stats.blocked_fha == 0


def weibull_laplace(rate, shape):
    """E[exp(-s T)] for T = X^(1/shape) / rate, X ~ Exp(1): the
    inter-arrival law `ArrivalProcess` samples."""
    def laplace(s):
        value, _ = integrate.quad(
            lambda x: math.exp(-x - s * x ** (1.0 / shape) / rate), 0.0, math.inf,
            epsabs=1e-13, epsrel=1e-12)
        return value
    return laplace


def test_takacs_loss_with_poisson_arrivals_is_erlang_b():
    assert takacs_loss(weibull_laplace(2.5, 1.0), 5, 1.0) == pytest.approx(
        erlang_b(2.5, 5), rel=1e-9)


@pytest.mark.parametrize("shape, pinned", [(0.9, 0.073078), (1.5, 0.054977)])
def test_single_unit_renewal_blocking_is_takacs_loss(shape, pinned):
    # one rate and a wide link: the unit is a GI/M/5/5 loss system
    chain = mk_chain((100.0,), (5,), (), (), 2.5, 1.0)
    cfg = sim.SimConfig(unit=chain, cluster_size=1, link_capacity_mbps=1000.0,
                        events=300_000, seed=9, shape=shape)
    oracle = takacs_loss(weibull_laplace(2.5, shape), 5, 1.0)
    assert oracle == pytest.approx(pinned, abs=5e-7)
    stats = sim.run(cfg)
    se = batch_se(stats.batch_blocked_rru, stats.batch_arrivals)
    assert abs(stats.estimate_rru_per_arrival - oracle) <= 3 * se
    assert stats.blocked_fha == 0


def test_two_unit_cluster_matches_exact_chain():
    model = TwoUnitExact()
    exact = model.blocked_attempt_fraction()
    assert exact == pytest.approx(0.41992, abs=5e-5)
    spec = model.chain_spec()
    cfg = sim.SimConfig(unit=spec, cluster_size=2, link_capacity_mbps=model.bc,
                        events=1_000_000, seed=31)
    stats = sim.run(cfg)
    se = batch_se(stats.batch_blocked_fha, stats.batch_attempts)
    assert abs(stats.estimate_fha_per_attempt - exact) <= 3 * se
    # the censored-flow estimate has an exact value too; the analytic
    # cluster model gives 0.30893 for the same quantity
    flow = model.homogenized_flow_share(transition_rates(spec).up)
    assert flow == pytest.approx(0.32786, abs=5e-5)
    assert abs(stats.estimate_fha_flow - flow) <= 3 * stats.stderr


def test_flow_estimate_matches_exact_single_level_model():
    # one rate level: the cluster chain solves exactly, so the flow-share
    # estimate must land on the analytic value
    planning = config_from_dict({"a": 0.2, "n_d": 1, "cluster_size": 9})
    report = blocking_for_planning(planning, binomial_n="true")
    stats = sim.run(SimConfig.from_planning(planning, 300_000, 77))
    assert abs(stats.estimate_fha_flow - report.total) <= 3 * stats.stderr


# ---------------------------------------------------------------------------
# delayed downgrades

def test_latency_defers_downgrades():
    planning = config_from_dict({"a": 0.3, "n_d": 3, "cluster_size": 14})
    immediate = sim.run(SimConfig.from_planning(planning, 200_000, 42))
    delayed = sim.run(SimConfig.from_planning(planning, 200_000, 42, latency=10.0))
    assert delayed.arrivals == delayed.accepted + delayed.blocked_rru + delayed.blocked_fha
    # units linger at high rates, so the average carried rate goes up
    assert delayed.c_time_average > immediate.c_time_average + 500.0
    assert delayed.c_max <= planning.link_capacity_mbps + 1e-6


def test_zero_latency_equals_default():
    planning = config_from_dict({"a": 0.25, "n_d": 2, "cluster_size": 12})
    assert sim.run(SimConfig.from_planning(planning, 120_000, 5)) == sim.run(
        SimConfig.from_planning(planning, 120_000, 5, latency=0.0))


# ---------------------------------------------------------------------------
# the merged arrival timeline

def merged_arrivals(process, seed, n, block, count):
    """The first `count` arrival times and units of `sim.run`'s timeline."""
    times, units = [], []
    for window_times, window_units in sim._arrival_windows(seed, n, process.quantile, block):
        times += window_times
        units += window_units
        if len(times) >= count:
            return np.array(times[:count]), np.array(units[:count])


@pytest.mark.parametrize("shape", [1.0, 0.9, 1.5])
def test_arrival_merge(shape):
    process = ArrivalProcess(rate=2.0, shape=shape)
    seed, n, count = 5, 16, 30_000
    times, units = merged_arrivals(process, seed, n, sim._UNIFORM_BLOCK, count)
    assert (np.diff(times) >= 0.0).all()
    # unit r's arrival times are the running sums of its own substream's
    # inter-arrival quantiles, in order
    for r in range(n):
        mine = times[units == r]
        assert len(mine) > 0
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(r + 1))
        np.testing.assert_array_equal(mine, np.cumsum(process.quantile(rng.random(len(mine)))))
    # blocks smaller than the cluster, and ones that do not divide the default
    for block in (7, 1000):
        other_times, other_units = merged_arrivals(process, seed, n, block, count)
        np.testing.assert_array_equal(other_times, times)
        np.testing.assert_array_equal(other_units, units)


# ---------------------------------------------------------------------------
# the heap-free engine against the previous heap engine

#: Clusters of the engine comparison: planning configs (a, n_d, N) on the
#: default link, and (None) a toy ladder (100, 250) on a 700 Mbit/s link
#: that blocks, whose grid unit is 50 Mbit/s rather than its lowest rate.
ENGINE_CLUSTERS = {"0.2-1-9": (0.2, 1, 9), "0.25-3-16": (0.25, 3, 16),
                   "0.5-2-13": (0.5, 2, 13), "toy-100-250": None}
#: Inter-arrival shapes of the engine comparison, by arrival label.
ENGINE_SHAPES = {"poisson-1.0": 1.0, "weibull-0.9": 0.9, "weibull-1.5": 1.5}
#: Every (shape, latency, cluster), and one case whose long latency lets
#: delayed downgrades cascade: an expiry that steps a unit down re-arms
#: the next one between two active levels.
ENGINE_CASES = [
    pytest.param(shape, latency, cluster, id=f"{shape_id}-{latency}-{cluster_id}")
    for shape_id, shape in ENGINE_SHAPES.items()
    for latency in (0.0, 0.5)
    for cluster_id, cluster in ENGINE_CLUSTERS.items()
] + [pytest.param(1.0, 2.0, (0.2, 4, 12), id="poisson-1.0-2.0-0.2-4-12")]
#: Combined batch-means standard errors two engines' estimates may differ by.
ENGINE_SE_MULTIPLE = 4.0


@pytest.mark.parametrize("shape, latency, cluster", ENGINE_CASES)
def test_engine_matches_reference_engine(cluster, latency, shape):
    # the engines draw different streams, so their estimates agree only
    # in distribution: within a multiple of the combined standard error
    # fixed beforehand. The integer bookkeeping is exact in both.
    if cluster is None:
        chain = mk_chain((100.0, 250.0), (3, 6), (3,), (2,), 1.5, 0.5)
        assert chain.rate_set.steps == (2, 5)
        cfg = SimConfig(unit=chain, cluster_size=6, link_capacity_mbps=700.0,
                        events=100_000, seed=23, shape=shape, reconfig_latency=latency)
    else:
        a, n_d, n = cluster
        planning = config_from_dict({"a": a, "n_d": n_d, "cluster_size": n})
        cfg = SimConfig.from_planning(planning, 100_000, 23, shape, latency)
    got, want = sim.run(cfg), reference_sim.run(cfg)
    if cluster is None:
        assert want.blocked_fha > 0 and got.blocked_fha > 0
    for stats in (got, want):
        assert stats.arrivals == stats.accepted + stats.blocked_rru + stats.blocked_fha
        assert stats.events_processed == cfg.events
        assert (stats.warmup_events, stats.seed) == (cfg.events // 20, cfg.seed)
    for quantity, ((g, g_se), (w, w_se)) in {
        "flow": [(s.estimate_fha_flow, s.stderr) for s in (got, want)],
        "per attempt": [(s.estimate_fha_per_attempt, batch_se(s.batch_blocked_fha, s.batch_attempts))
                        for s in (got, want)],
    }.items():
        assert abs(g - w) <= ENGINE_SE_MULTIPLE * math.hypot(g_se, w_se), (quantity, g, g_se, w, w_se)


@pytest.mark.parametrize("latency", [0.0, 0.5])
def test_block_size_does_not_change_the_stream(monkeypatch, latency):
    # a block smaller than the cluster refills during the initial
    # scheduling as well as inside every batch
    planning = config_from_dict({"a": 0.3, "n_d": 3, "cluster_size": 16})
    cfg = SimConfig.from_planning(planning, 100_000, 21, 0.9, latency)
    default = sim.run(cfg)
    monkeypatch.setattr(sim, "_UNIFORM_BLOCK", 7)
    assert sim.run(cfg) == default
