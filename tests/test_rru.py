"""Per-unit threshold chain: closed-form coefficients, conditional
distributions, level-transition rates, and the decomposition identity."""

import math
import tracemalloc

import numpy as np
import pytest

from vrfplan import (InvalidConfigError, InvalidParameterError, RruRates, VrfError,
                     config_from_dict, transition_rates)
from vrfplan import oracle, rru
from vrfplan.oracle import build_global_chain
from vrfplan.rru import partition_coefficients

from util import erlang_b, mk_chain, rate_level_distribution


def toy_chain(rho=1.5):
    """The small two-level reference ladder: F=(3,), R=(2,), six servers."""
    mu = 0.5
    return mk_chain((100.0, 200.0), (3, 6), (3,), (2,), rho * mu, mu)


def unit_spec(a, n_d, gap):
    planning = config_from_dict({"a": a, "n_d": n_d, "cluster_size": 8, "threshold_gap": gap})
    return rru.RruChainSpec(rate_set=planning.rate_set, thresholds=planning.thresholds,
                            traffic=planning.traffic)


def unit_spec_mu(a, mu):
    """The default three-level unit at load a and service rate mu."""
    return rru.RruChainSpec.from_planning(config_from_dict({"a": a, "mu": mu, "n_d": 3,
                                                            "cluster_size": 8}))


def conditional(spec, level):
    """The level's conditional user-count distribution: its coefficients,
    normalised."""
    coef = partition_coefficients(spec, level)
    return coef / coef.sum()


def global_partition_mass(chain, level):
    pi = oracle.steady_state(chain.q)
    return float(pi[list(chain.partition_indices(level))].sum())


# ---------------------------------------------------------------------------
# global chain structure

def test_single_level_chain_is_loss_birth_death():
    spec = mk_chain((100.0,), (3,), (), (), 1.0, 1.0)
    chain = build_global_chain(spec)
    assert len(chain.states) == 4
    q = chain.q
    for u in range(3):
        assert q[chain.index_of(u, 1 if u else 0), chain.index_of(u + 1, 1)] == pytest.approx(1.0)
        assert q[chain.index_of(u + 1, 1), chain.index_of(u, 1 if u else 0)] == pytest.approx(u + 1.0)
    pi = oracle.steady_state(q)
    assert pi == pytest.approx(np.array([6, 6, 3, 1]) / 16.0, abs=1e-12)


def test_two_level_chain_crossing_edges():
    chain = build_global_chain(toy_chain())
    lam = toy_chain().lam
    mu = toy_chain().traffic.mu
    # at the forward threshold an arrival crosses into the higher level
    assert chain.q[chain.index_of(3, 1), chain.index_of(4, 2)] == pytest.approx(lam)
    # at one past the reverse threshold a departure falls back down
    assert chain.q[chain.index_of(3, 2), chain.index_of(2, 1)] == pytest.approx(3 * mu)


def test_three_level_chain_states_span_legal_bands():
    spec = mk_chain((307.2, 614.4, 1228.8), (12, 25, 50), (12, 25), (11, 24), 5.0, 0.5)
    chain = build_global_chain(spec)
    for users, level in chain.states:
        if level == 0:
            assert users == 0
            continue
        lo = 0 if level == 1 else spec.reverse_before(level) + 1
        hi = spec.forward_at(level)
        assert lo <= users <= hi
    # every (users, level) pair in the legal bands appears exactly once
    assert len(set(chain.states)) == len(chain.states)
    expected = 1 + sum(len([u for u in spec.user_range(level) if u > 0 or level > 1])
                       for level in (1, 2, 3))
    assert len(chain.states) == expected


# ---------------------------------------------------------------------------
# coefficients

def test_level_one_coefficients_are_load_powers():
    # with reverse threshold 3, level-1 coefficients up to that index are
    # plain rho^i / i!; past it the hysteresis overlap adjusts them
    spec = mk_chain((100.0, 200.0), (4, 8), (4,), (3,), 1.0, 1.0)
    coef = partition_coefficients(spec, 1)
    assert coef[0] == pytest.approx(1.0, abs=0.0)
    assert coef[2] == pytest.approx(0.5, rel=1e-12)
    for i in range(4):
        assert coef[i] == pytest.approx(1.0 / math.factorial(i), rel=1e-12)


def test_upper_level_base_coefficient_is_one():
    for rho in (0.3, 1.5, 4.5):
        spec = toy_chain(rho)
        for level in (2,):
            assert partition_coefficients(spec, level)[0] == pytest.approx(1.0, abs=0.0)
    spec3 = mk_chain((307.2, 614.4, 1228.8), (12, 25, 50), (12, 25), (11, 24), 5.0, 0.5)
    assert partition_coefficients(spec3, 2)[0] == pytest.approx(1.0, abs=0.0)
    assert partition_coefficients(spec3, 3)[0] == pytest.approx(1.0, abs=0.0)


def test_coefficients_match_conditional_chain_ratios():
    spec = toy_chain(1.5)
    chain = build_global_chain(spec)
    pi = oracle.steady_state(chain.q)
    for level in (1, 2):
        idx = list(chain.partition_indices(level))
        ratios = pi[idx] / pi[idx[0]]
        coef = partition_coefficients(spec, level)
        assert np.abs(coef / ratios - 1.0).max() < 1e-9


#: Loads of the per-unit grid, from nearly idle to nearly saturated.
GRID_LOADS = (1e-4, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 0.9999)


def unit_grid():
    """Every (a, n_d, gap) of the per-unit grid whose gap fits the ladder."""
    for a in GRID_LOADS:
        for n_d in range(1, 6):
            for gap in range(1, 6):
                try:
                    yield (a, n_d, gap), unit_spec(a, n_d, gap)
                except VrfError:
                    continue        # the gap does not fit the ladder's smallest step


def test_closed_form_matches_chain_oracle_on_every_level():
    checked = 0
    for key, spec in unit_grid():
        for level in range(1, spec.level_count + 1):
            closed = partition_coefficients(spec, level)
            exact = np.exp(oracle._oracle_log_coefficients(spec, level))
            assert closed == pytest.approx(exact, rel=1e-12), key + (level,)
        checked += 1
    # depths 1-4 admit gaps 1-5; depth 5, lowest capacity 3, gaps 1 and 2
    assert checked == len(GRID_LOADS) * (5 + 5 + 5 + 5 + 2)


#: transition_rates of (a, n_d, gap) as computed by the scalar scipy
#: closed forms before they were vectorised.
RECORDED_RATES = {
    (0.25, 3, 1): ((6.25, 0.7514491465108236, 0.004925098462540736),
                   (5.0501146969836674e-05, 0.6441690930419636, 3.4480927375748536)),
    (0.1, 1, 1): ((2.5,), (0.01695913726576059,)),
    (0.5, 2, 2): ((12.5, 0.6919338222446656), (3.67554411968933e-10, 0.6193184937975214)),
    (0.05, 4, 1): ((1.25, 0.027423827576523452, 0.0004723596725888165, 1.2884928436907012e-11),
                   (0.11457455770850884, 1.0978836294977359, 2.5490393617123175,
                    5.773157278668059)),
    (0.75, 4, 3): ((18.75, 4.1368113588777, 3.4144175754604915, 1.9044292459893846),
                   (0.0005286478997805888, 9.05717311633822e-05, 3.366856847172023e-05,
                    0.01667854887997005)),
    (0.9, 5, 2): ((22.5, 7.225261655566122, 6.685626893860781, 5.714056960770318,
                   3.657970776318362),
                  (0.168173168411037, 0.0018928230459507704, 0.00012102077968900756,
                   1.1733393632099654e-05, 0.0018076303695752991)),
}


@pytest.mark.parametrize("key", sorted(RECORDED_RATES))
def test_transition_rates_match_recorded_values(key):
    up, down = RECORDED_RATES[key]
    rates = transition_rates(unit_spec(*key))
    assert rates.up == pytest.approx(up, rel=1e-12)
    assert rates.down == pytest.approx(down, rel=1e-12)


def custom_unit(a, rows):
    """The unit of a custom profile of `rows`, each (rate Mbit/s, calls),
    switching among all of them."""
    profile = [{"bandwidth_mhz": 1.0 + k, "fft_size": 128, "prb_count": 2 * calls,
                "rate_mbps": rate, "max_users": calls} for k, (rate, calls) in enumerate(rows)]
    planning = config_from_dict({"profile": profile, "a": a, "n_d": len(rows),
                                 "cluster_size": 4, "threshold_gap": 2})
    return rru.RruChainSpec.from_planning(planning)


def test_large_unit_rates_take_memory_linear_in_servers():
    # a (users x users) scratch would take over 100 MB here
    spec = custom_unit(0.001, ((600.0, 4), (1200.0, 2000)))
    tracemalloc.start()
    try:
        rates = transition_rates(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert all(math.isfinite(r) and r > 0.0 for r in rates.up + rates.down)


def test_rates_name_the_level_whose_upgrade_rate_underflows():
    # at a = 0.001 a 1000-call forward threshold is reached with
    # probability exp(-5221): no double holds the upgrade rate
    spec = custom_unit(0.001, ((600.0, 1000), (1200.0, 2000)))
    with pytest.raises(InvalidParameterError,
                       match=r"out of level 1 underflows a double at load a=0\.001 .*"
                             r"level 2 is unreachable"):
        transition_rates(spec)


def test_coefficients_reject_bad_level():
    with pytest.raises(InvalidParameterError):
        partition_coefficients(toy_chain(), 0)
    with pytest.raises(InvalidParameterError):
        partition_coefficients(toy_chain(), 3)


# ---------------------------------------------------------------------------
# conditional distributions

def test_single_level_distribution_is_loss_occupancy():
    spec = mk_chain((100.0,), (3,), (), (), 1.0, 1.0)
    assert tuple(spec.user_range(1)) == (0, 1, 2, 3)
    assert conditional(spec, 1) == pytest.approx(np.array([6, 6, 3, 1]) / 16.0, rel=1e-12)


def test_upper_level_distribution_matches_global_conditional():
    spec = toy_chain(1.5)
    chain = build_global_chain(spec)
    pi = oracle.steady_state(chain.q)
    idx = list(chain.partition_indices(2))
    assert np.abs(conditional(spec, 2) - pi[idx] / pi[idx].sum()).max() < 1e-9


def test_distributions_normalized_across_random_loads():
    rng = np.random.default_rng(61)
    for _ in range(20):
        rho = float(rng.uniform(0.1, 40.0))
        spec = mk_chain((307.2, 614.4, 1228.8), (12, 25, 50), (12, 25), (11, 24),
                        rho * 0.5, 0.5)
        for level in (1, 2, 3):
            p = conditional(spec, level)
            assert p.min() >= 0.0
            assert abs(p.sum() - 1.0) < 1e-10


def test_single_level_blocking_is_erlang_b():
    for rho in (0.5, 2.5, 10.0, 30.0):
        spec = mk_chain((1228.8,), (50,), (), (), rho * 0.5, 0.5)
        assert conditional(spec, 1)[50] == pytest.approx(erlang_b(rho, 50), rel=1e-12)
    spec5 = mk_chain((100.0,), (5,), (), (), 2.5, 1.0)
    assert conditional(spec5, 1)[5] == pytest.approx(erlang_b(2.5, 5), rel=1e-12)


def test_threshold_occupancy_increases_with_load():
    last = {1: -1.0, 2: -1.0}
    for rho in (0.2, 0.8, 2.0, 3.5, 5.0, 5.8):
        spec = toy_chain(rho)
        for level in (1, 2):
            here = conditional(spec, level)[-1]       # at the forward threshold
            assert here > last[level]
            last[level] = here


# ---------------------------------------------------------------------------
# level-transition rates and the level marginal

def test_wakeup_rate_is_raw_arrival_rate():
    for rho in (0.4, 1.5, 4.0):
        spec = toy_chain(rho)
        assert transition_rates(spec).up[0] == spec.lam


def test_single_level_rates_reproduce_idle_probability():
    spec = mk_chain((1228.8,), (50,), (), (), 5.0, 0.5)
    rates = transition_rates(spec)
    chain = build_global_chain(spec)
    pi = oracle.steady_state(chain.q)
    two_state_off = rates.down[0] / (rates.up[0] + rates.down[0])
    assert two_state_off == pytest.approx(float(pi[chain.index_of(0, 0)]), rel=1e-9)
    levels = rate_level_distribution(rates)
    assert levels[0] == pytest.approx(two_state_off, rel=1e-12)


def test_level_marginal_matches_partition_masses():
    cases = [
        toy_chain(1.5),
        mk_chain((307.2, 614.4, 1228.8), (12, 25, 50), (12, 25), (11, 24), 5.0, 0.5),
        mk_chain((153.6, 307.2, 614.4, 1228.8), (6, 12, 25, 50), (6, 12, 25),
                 (5, 11, 24), 6.25, 0.5),
    ]
    for spec in cases:
        chain = build_global_chain(spec)
        levels = rate_level_distribution(transition_rates(spec))
        pi = oracle.steady_state(chain.q)
        off = float(pi[chain.index_of(0, 0)])
        assert levels[0] == pytest.approx(off, abs=1e-9)
        for level in range(1, spec.level_count + 1):
            mass = global_partition_mass(chain, level)
            if level == 1:
                mass -= off
            assert levels[level] == pytest.approx(mass, abs=1e-9)
        assert levels.min() > 0.0
        assert abs(levels.sum() - 1.0) < 1e-12


def test_decomposition_reconstructs_global_distribution():
    # occupancy of any global state factors into level mass times the
    # conditional distribution within the level
    cases = [
        (toy_chain(1.5), 1e-8),
        (mk_chain((307.2, 614.4, 1228.8), (12, 25, 50), (12, 25), (11, 24), 10.0, 0.5), 1e-8),
        (mk_chain((153.6, 307.2, 614.4, 1228.8), (6, 12, 25, 50), (6, 12, 25),
                  (3, 9, 22), 12.5, 0.5), 1e-8),
    ]
    for spec, tol in cases:
        chain = build_global_chain(spec)
        pi = oracle.steady_state(chain.q)
        levels = rate_level_distribution(transition_rates(spec))
        off = float(pi[chain.index_of(0, 0)])
        for level in range(1, spec.level_count + 1):
            dist = conditional(spec, level)
            mass = global_partition_mass(chain, level)
            if level == 1:
                # the off state sits inside level 1's conditional law but is
                # carried separately by the level marginal
                recon_off = mass * dist[0]
                assert abs(recon_off - off) < tol
            for users, p in zip(spec.user_range(level), dist):
                if users == 0:
                    continue
                global_p = float(pi[chain.index_of(users, level)])
                assert abs(mass * p - global_p) < tol


# ---------------------------------------------------------------------------
# the rates against their definition

def chain_rates(spec):
    """transition_rates' definition read off the full chain's steady state."""
    chain = build_global_chain(spec)
    pi = oracle.steady_state(chain.q)
    lam, mu = spec.lam, spec.traffic.mu
    up, down = [lam], []
    for level in range(1, spec.level_count + 1):
        idx = [i for i in chain.partition_indices(level) if chain.states[i] != (0, 0)]
        mass = pi[idx].sum()
        entry = spec.reverse_before(level) + 1
        down.append(entry * mu * pi[chain.index_of(entry, level)] / mass)
        if level < spec.level_count:
            up.append(lam * pi[chain.index_of(spec.forward_at(level), level)] / mass)
    return tuple(up), tuple(down)


def test_transition_rates_match_their_chain_definition():
    # the default ladders, and a custom one of 300 calls away from them
    large = (("custom", 0.5), custom_unit(0.5, ((300.0, 75), (600.0, 150), (1200.0, 300))))
    for key, spec in [*unit_grid(), large]:
        up, down = chain_rates(spec)
        rates = transition_rates(spec)
        assert rates.up == pytest.approx(up, rel=1e-12), key
        assert rates.down == pytest.approx(down, rel=1e-12), key


# ---------------------------------------------------------------------------
# refusals

def three_level_chain(forward, reverse):
    return mk_chain((100.0, 200.0, 400.0), (3, 6, 9), forward, reverse, 1.0, 0.5)


@pytest.mark.parametrize("build, error, match", [
    (lambda: mk_chain((100.0, 200.0), (3, 6), (), (), 1.0, 0.5),
     InvalidConfigError, "need exactly 1"),
    (lambda: three_level_chain((4, 6), (2, 5)), InvalidConfigError, "exceeds rate capacity"),
    # R_2 <= F_1 would put level 2's gateway above its reverse threshold
    (lambda: three_level_chain((3, 6), (2, 3)), InvalidConfigError, "must exceed forward"),
    (lambda: RruRates(up=(1.0, 0.5), down=(1.0,)), InvalidParameterError, "equal length"),
    (lambda: RruRates(up=(1.0,), down=(0.0,)), InvalidParameterError, "positive"),
    # a service rate near the float limit overflows a rate to inf, or makes
    # lambda inf and the rates NaN
    (lambda: RruRates(up=(1.0,), down=(math.inf,)), InvalidParameterError, "finite"),
    (lambda: RruRates(up=(math.nan,), down=(1.0,)), InvalidParameterError, "finite"),
    (lambda: RruRates(up=(1.0, 1.0), down=(1.0, 1.0)), InvalidParameterError, "below the raw"),
    # lambda = a K mu past the float range, or below it, never reaches the
    # recurrences
    (lambda: unit_spec_mu(0.25, 5e307), InvalidParameterError,
     r"lambda = a\*K\*mu = 0\.25 \* 50 \* 5e\+307 is not a positive finite"),
    (lambda: unit_spec_mu(1e-200, 1e-200), InvalidParameterError, "positive finite"),
], ids=["threshold-count", "forward-above-capacity", "reverse-not-above-forward",
        "rates-length", "rate-not-positive", "rate-inf", "rate-nan",
        "upgrade-not-below-arrival", "lambda-inf", "lambda-zero"])
def test_unit_and_rates_refuse_what_the_recurrence_cannot_take(build, error, match):
    with pytest.raises(error, match=match):
        build()
