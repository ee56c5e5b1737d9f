"""Event-driven simulator: arrival processes, switching rules, counters,
estimators, and cross-checks against exact references."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sps

from vrfplan import (
    ArrivalProcess,
    InvalidConfigError,
    InvalidParameterError,
    SimConfig,
    SimStats,
    blocking_for_planning,
    config_from_dict,
    reconfig_arrival_probability,
    transition_rates,
)
from vrfplan import sim
from vrfplan.rru import build_global_chain

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


def test_mean_interarrival():
    assert ArrivalProcess(rate=4.0).mean_interarrival == pytest.approx(0.25)
    w = ArrivalProcess(rate=1.0, shape=0.9)
    assert w.mean_interarrival == pytest.approx(math.gamma(1 + 1 / 0.9), rel=1e-12)


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


# ---------------------------------------------------------------------------
# reconfiguration-within-a-window probability

def test_reconfig_probability_printed_values():
    per_second = 10.0 / 60.0
    assert round(reconfig_arrival_probability(per_second, 0.5, 1), 4) == 0.0767
    assert round(reconfig_arrival_probability(per_second, 0.5, 2), 4) == 0.0032
    assert reconfig_arrival_probability(per_second, 0.5, 3) == pytest.approx(8.8739e-5, rel=1e-4)
    assert round(reconfig_arrival_probability(per_second, 5.0, 2), 4) == 0.1509
    assert round(reconfig_arrival_probability(per_second, 5.0, 3), 4) == 0.0419
    assert round(reconfig_arrival_probability(per_second, 5.0, 4), 4) == 0.0087


def test_reconfig_probability_matches_scipy_poisson_pmf():
    for rate in (10.0 / 60.0, 1.0, 7.5):
        for window in (0.05, 0.5, 5.0):
            for n in range(8):
                want = float(sps.poisson.pmf(n, rate * window))
                assert reconfig_arrival_probability(rate, window, n) == pytest.approx(
                    want, rel=1e-12)


def test_t_quantile_literal_matches_scipy():
    assert sim.T_QUANTILE == pytest.approx(float(sps.t.ppf(0.975, sim.BATCH_COUNT - 1)),
                                           rel=1e-15)


def test_reconfig_probability_validation():
    with pytest.raises(InvalidParameterError):
        reconfig_arrival_probability(-1.0, 0.5, 1)
    with pytest.raises(InvalidParameterError):
        reconfig_arrival_probability(1.0, 0.5, -1)


def test_reconfig_probability_rejects_infinite_inputs():
    # an infinite rate, window or product would give NaN, not an error
    for rate, window in ((math.inf, 1.0), (1.0, math.inf), (1e200, 1e200)):
        for n in (0, 1):
            with pytest.raises(InvalidParameterError):
                reconfig_arrival_probability(rate, window, n)
    with pytest.raises(InvalidParameterError):
        reconfig_arrival_probability(1.0, 0.5, 1.5)


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
        sim.SimConfig(**{**good.__dict__, "events": 10_000})
    with pytest.raises(InvalidConfigError):
        sim.SimConfig(**{**good.__dict__, "seed": None})
    with pytest.raises(InvalidConfigError):
        sim.SimConfig(**{**good.__dict__, "link_capacity_mbps": 100.0})
    with pytest.raises(InvalidConfigError):
        sim.SimConfig(**{**good.__dict__, "shape": 0.0})
    with pytest.raises(InvalidConfigError):
        sim.SimConfig(**{**good.__dict__, "reconfig_latency": -0.5})
    with pytest.raises(InvalidConfigError, match="reconfig_latency"):
        sim.SimConfig(**{**good.__dict__, "reconfig_latency": math.nan})


def test_sim_config_rejects_bool_cluster_size():
    # bool is an int subclass; True must not pass as a cluster of one
    planning = config_from_dict({"a": 0.25, "n_d": 2, "cluster_size": 10})
    good = SimConfig.from_planning(planning, 200_000, 1)
    with pytest.raises(InvalidConfigError, match="cluster_size"):
        sim.SimConfig(**{**good.__dict__, "cluster_size": True})


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


@pytest.mark.parametrize("field, value", [("rate", "2"), ("rate", None), ("shape", "0.9")])
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
# the segment engine against the previous per-event engine

#: Clusters of the engine comparison: planning configs (a, n_d, N) on the
#: default link, and (None) a toy ladder (100, 250) on a 700 Mbit/s link
#: that blocks, whose grid unit is 50 Mbit/s rather than its lowest rate.
ENGINE_CLUSTERS = {"0.2-1-9": (0.2, 1, 9), "0.25-3-16": (0.25, 3, 16),
                   "0.5-2-13": (0.5, 2, 13), "toy-100-250": None}
#: Inter-arrival shapes of the engine comparison, by arrival label.
ENGINE_SHAPES = {"poisson-1.0": 1.0, "weibull-0.9": 0.9, "weibull-1.5": 1.5}


@pytest.mark.parametrize("cluster", list(ENGINE_CLUSTERS.values()), ids=list(ENGINE_CLUSTERS))
@pytest.mark.parametrize("latency", [0.0, 0.5])
@pytest.mark.parametrize("shape", list(ENGINE_SHAPES.values()), ids=list(ENGINE_SHAPES))
def test_engine_matches_reference_engine(cluster, latency, shape):
    # same stream, same heap order: every count is equal; the integrals
    # are summed in another order and the uniforms transformed by numpy,
    # so floats agree to a tolerance fixed beforehand. The reference
    # engine compares loads in Mbit/s with a float slack, the library in
    # integer grid units.
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
        assert want.blocked_fha > 0
    for field in dataclasses.fields(SimStats):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if isinstance(w, float) or (isinstance(w, tuple) and isinstance(w[0], float)):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0, err_msg=field.name)
        else:
            assert g == w, field.name


@pytest.mark.parametrize("latency", [0.0, 0.5])
def test_block_size_does_not_change_the_stream(monkeypatch, latency):
    # a block smaller than the cluster refills during the initial
    # scheduling as well as inside every batch
    planning = config_from_dict({"a": 0.3, "n_d": 3, "cluster_size": 16})
    cfg = SimConfig.from_planning(planning, 100_000, 21, 0.9, latency)
    default = sim.run(cfg)
    monkeypatch.setattr(sim, "_UNIFORM_BLOCK", 7)
    assert sim.run(cfg) == default
