"""End-to-end acceptance checks for the planning library.

Each test prints one PASS/FAIL line with its tolerance and timing (echoed
again in the terminal summary). The two simulation checks (7 and 8) judge
each grid point by how finely a 1e6-event run resolves its analytic
blocking P_B, a regime decided before simulating: not simulated below 1e-4,
order of magnitude in [1e-4, 1e-3), 3 stderr (or strict shape ordering)
in between, and saturated once 1 - P_B < 1e-3. At a saturated point check
7 judges the unblocked complement as it judges the rare end, and check 8
asks every arrival shape to block at least 1 - 1e-3 of the flow.

Check 8 passes. Check 7 fails by design at 32 knee-band points (load 0.3
at depth 3 N=18-20 and depth 4 N=17-20; load 0.5 at depth 2 N=11-15,
depth 3 N=10-15, 17-20 and depth 4 N=11-20), with P_B from ~0.1 up to
~0.996. There the simulator measures 3-19 stderr more blocking than the
analytic model. The cause is in the model, not in the simulator:
the model homogenizes each unit, while a unit refused an upgrade stays
pinned at its forward threshold. On the two-unit joint chain of
`util.TwoUnitExact` (link 350) the model gives a censored-flow share of
0.3089 against the exact 0.3279, which the simulator matches (test_sim).
The check reports the gap instead of loosening its tolerance; see the
README. Both simulation checks carry the `slow` marker, so that
`pytest -m "not slow"` leaves them out.
"""

import math
import time

import numpy as np
import pytest

from vrfplan import SimConfig, aggregator, config_from_dict, oracle, rru, sim
from vrfplan.cli import _coordinate_seed
from vrfplan.oracle import _random_chain_spec

from chain_reduction import band_ratio_oracle
from util import engset_marginal, erlang_b, mk_chain, rate_level_distribution

EVENTS = 1_000_000


def _line(record, idx, passed, text):
    line = f"[{idx:2d}/10] {'PASS' if passed else 'FAIL'} {text}"
    record(line)
    return line


def _blocking(a, n_d, n, gap=1, convention="effective"):
    planning = config_from_dict({"a": a, "n_d": n_d, "cluster_size": n, "threshold_gap": gap})
    return aggregator.blocking_for_planning(planning, binomial_n=convention).total


def _max_n_below(a, n_d, threshold, inclusive=False):
    """Largest cluster size in 4..24 whose blocking stays under threshold."""
    best = 0
    for n in range(4, 25):
        pb = _blocking(a, n_d, n)
        if pb <= threshold if inclusive else pb < threshold:
            best = n
    return best


def _simulate(a, n_d, n, shape, label):
    planning = config_from_dict({"a": a, "n_d": n_d, "cluster_size": n})
    seed = _coordinate_seed(0, a, n_d, 1, label, n, EVENTS)
    return sim.run(SimConfig.from_planning(planning, EVENTS, seed, shape=shape))


# How finely a run of EVENTS events resolves a blocking probability, decided
# from the analytic value before simulating; checks 7 and 8 share the gates.
# Blocking under RARE is seen too seldom to simulate at all, and under
# RESOLVED only to an order of magnitude. The saturated end mirrors this:
# when 1 - P_B < RESOLVED the unblocked flow comes from a few idle
# excursions, the batch means are far from normal and 3 stderr is no bound.
RARE = 1e-4
RESOLVED = 1e-3
NOT_SIMULATED = "not simulated"
MAGNITUDE = "order of magnitude"
STDERR = "3 se"
SATURATED = "saturated"
REGIMES = (NOT_SIMULATED, MAGNITUDE, STDERR, SATURATED)


def _regime(pb):
    if pb < RARE:
        return NOT_SIMULATED
    if pb < RESOLVED:
        return MAGNITUDE
    if 1.0 - pb < RESOLVED:
        return SATURATED
    return STDERR


def _same_magnitude(est, ref):
    return est == 0.0 or 0.1 <= est / ref <= 10.0


# ---------------------------------------------------------------------------
# 1. closed-form level coefficients vs chain-reduction oracle

def test_level_coefficients_match_reduction_oracle(record_check):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    bands = {"fold": 0, "censor": 0}
    for _ in range(50):
        spec = _random_chain_spec(rng)
        chain = oracle.build_global_chain(spec)
        for level in range(1, spec.level_count + 1):
            closed = rru.partition_coefficients(spec, level)
            ratios, method = band_ratio_oracle(chain, level)
            bands[method] += 1
            worst = max(worst, float(np.max(np.abs(closed / ratios - 1.0))))
    el = time.perf_counter() - t0
    passed = worst < 1e-9 and el < 60.0
    _line(record_check, 1, passed,
          f"closed-form level coefficients vs reduction oracle: 50 random "
          f"ladders, {bands['fold']} fold-back + {bands['censor']} censored "
          f"bands, max rel err {worst:.2e} (tol 1e-9), {el:.1f}s (limit 60s)")
    assert passed


# ---------------------------------------------------------------------------
# 2. cluster product form vs direct solve

def test_cluster_product_form_matches_direct_solve(record_check):
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_pi = 0.0
    worst_db = 0.0
    checked = 0
    while checked < 25:
        chain = _random_chain_spec(rng)
        if chain.level_count > 3:
            continue
        n = int(rng.integers(1, 7))
        link = float(rng.uniform(1.2, n + 0.5)) * chain.rate_set.rates[-1]
        spec = aggregator.AggregatorSpec(
            cluster_size=n, rate_set=chain.rate_set, link_capacity_mbps=link,
            rates=rru.transition_rates(chain))
        space = aggregator.enumerate_states(spec)
        pf = aggregator.product_form(spec, binomial_n="true", space=space)
        direct = oracle.steady_state(aggregator.build_generator(spec, space=space))
        worst_pi = max(worst_pi, float(np.max(np.abs(pf - direct))))
        worst_db = max(worst_db,
                       aggregator.detailed_balance_check(spec, binomial_n="true",
                                                         space=space))
        checked += 1
    el = time.perf_counter() - t0
    passed = worst_pi < 1e-8 and worst_db < 1e-10 and el < 60.0
    _line(record_check, 2, passed,
          f"product form vs direct solve: {checked} random clusters (N<=6, "
          f"<=3 levels), max |dpi| {worst_pi:.2e} (tol 1e-8), max balance "
          f"residual {worst_db:.2e} (tol 1e-10), {el:.1f}s (limit 60s)")
    assert passed


# ---------------------------------------------------------------------------
# 3. fixed-rate units saturate the link past eight units

def _single_rate_pb(n, nb, cap, r):
    """Blocked share of wake-up flow for a one-level cluster, by hand.

    Each unit collapses to off/active with active-to-off odds r, so the
    active count is a truncated binomial over 0..cap; only the full link
    (cap active) refuses the n - cap still-idle units.
    """
    w = [math.comb(nb, k) * r**k for k in range(cap + 1)]
    den = sum((n - k) * wk for k, wk in enumerate(w))
    return w[cap] * (n - cap) / den


def test_single_rate_cluster_saturates_at_link_limit(record_check):
    t0 = time.perf_counter()
    # with one rate level the per-unit stream is 1228.8 Mbit/s, so a
    # 10 Gbit/s link carries exactly eight units; the active/off odds are
    # r = sum_{i=1..50} rho^i/i! with per-unit offered load rho = 10
    r = math.fsum(10.0**i / math.factorial(i) for i in range(1, 51))
    vals = {n: _blocking(0.2, 1, n) for n in range(2, 21)}
    nine_true = _blocking(0.2, 1, 9, convention="true")
    ok_zero = all(vals[n] == 0.0 for n in range(2, 9))
    ok_nine = (abs(vals[9] / _single_rate_pb(9, 8, 8, r) - 1.0) < 1e-12
               and abs(nine_true / _single_rate_pb(9, 9, 8, r) - 1.0) < 1e-12
               and vals[9] > 0.5)
    ok_ten = abs(vals[10] / _single_rate_pb(10, 8, 8, r) - 1.0) < 1e-12
    ok_tail = all(vals[n] > 0.99 for n in range(10, 21))
    el = time.perf_counter() - t0
    passed = ok_zero and ok_nine and ok_ten and ok_tail
    _line(record_check, 3, passed,
          f"single-rate link saturation: P_B = 0 exactly through N=8, "
          f"P_B(9) = {vals[9]:.6f} capped-count / {nine_true:.6f} true-count "
          f"(> 0.5 required, ~0.9 expected qualitatively), P_B > 0.99 for "
          f"N=10..20; hand closed forms matched to 1e-12, {el:.1f}s")
    assert passed


# ---------------------------------------------------------------------------
# 4. variable-rate sizing at load 0.2

def test_low_load_sizing_gains_from_deeper_ladders(record_check):
    t0 = time.perf_counter()
    per_depth = {nd: _max_n_below(0.2, nd, 1e-4) for nd in (2, 3, 4)}
    family = min(per_depth.values())
    el = time.perf_counter() - t0
    passed = abs(family - 15) <= 1 and abs(per_depth[4] - 18) <= 1
    _line(record_check, 4, passed,
          f"sizing at load 0.2, blocking < 1e-4: every ladder depth >= 2 "
          f"carries N = {family} (target 15 +/- 1); depth 4 carries "
          f"N = {per_depth[4]} (target 18 +/- 1); per depth {per_depth}, "
          f"{el:.1f}s")
    assert passed


# ---------------------------------------------------------------------------
# 5. service-grade table at load 0.25

def test_quarter_load_cluster_size_targets(record_check):
    t0 = time.perf_counter()
    deep = _max_n_below(0.25, 3, 1e-3, inclusive=True)
    shallow = _max_n_below(0.25, 2, 1e-3, inclusive=True)
    el = time.perf_counter() - t0
    passed = abs(deep - 17) <= 1 and abs(shallow - 15) <= 1
    _line(record_check, 5, passed,
          f"sizing at load 0.25, blocking <= 1e-3: max N = {deep} with a "
          f"3-level ladder (target 17 +/- 1) and {shallow} with 2 levels "
          f"(target 15 +/- 1), {el:.1f}s")
    assert passed


# ---------------------------------------------------------------------------
# 6. hysteresis width only ever increases blocking

def test_wider_hysteresis_gap_never_reduces_blocking(record_check):
    t0 = time.perf_counter()
    worst_drop = 0.0
    strongest = 0.0
    for n in range(8, 21):
        series = [_blocking(0.2, 3, n, gap=g) for g in (1, 2, 3, 4)]
        worst_drop = min(worst_drop,
                         min(b - a for a, b in zip(series, series[1:])))
        strongest = max(strongest, series[-1] - series[0])
    el = time.perf_counter() - t0
    passed = worst_drop >= -1e-12 and strongest > 1e-12
    _line(record_check, 6, passed,
          f"wider switching gap never lowers blocking: load 0.2, 3-level "
          f"ladder, N = 8..20, gaps 1..4 non-decreasing (worst step "
          f"{worst_drop:.1e}, slack 1e-12), strictly increasing at some N "
          f"(largest spread {strongest:.2e}), {el:.1f}s")
    assert passed


# ---------------------------------------------------------------------------
# 7. simulation agrees with the analytics across the load grid

@pytest.mark.slow
def test_simulation_confirms_analytics_across_load_grid(record_check):
    t0 = time.perf_counter()
    failures = []
    regimes = dict.fromkeys(REGIMES, 0)
    for a in (0.2, 0.3, 0.5):
        for n_d in (1, 2, 3, 4):
            for n in range(8, 21):
                pb = _blocking(a, n_d, n, convention="true")
                regime = _regime(pb)
                regimes[regime] += 1
                if regime == NOT_SIMULATED:
                    continue
                stats = _simulate(a, n_d, n, 1.0, "poisson")
                est, se = stats.estimate_fha_flow, stats.stderr
                diff = abs(est - pb)
                if regime == MAGNITUDE:
                    ok = _same_magnitude(est, pb)
                else:
                    # rule-of-three fallback covers fully saturated runs in
                    # which every batch blocks everything and se collapses
                    ok = (diff <= 3.0 * se or diff <= 1e-6
                          or (se == 0.0
                              and diff <= 3.0 / max(stats.upgrade_attempts, 1)))
                if regime == SATURATED and not ok:
                    # judge the unblocked complement as the rare end is judged
                    q, q_sim = 1.0 - pb, 1.0 - est
                    ok = q_sim < RESOLVED if q < RARE else _same_magnitude(q_sim, q)
                if not ok:
                    failures.append(
                        f"  a={a} depth={n_d} N={n}: analytic {pb:.3e} "
                        f"sim {est:.3e} se {se:.1e}")
    el = time.perf_counter() - t0
    total = sum(regimes.values())
    passed = not failures and el < 1800.0
    _line(record_check, 7, passed,
          f"simulation vs analytics on the load grid: "
          f"{total - regimes[NOT_SIMULATED]} of {total} points simulated at "
          f"1e6 events, {len(failures)} outside tolerance; judged by "
          f"{regimes[STDERR]} x 3 stderr (1e-3 <= P_B <= 1 - 1e-3), "
          f"{regimes[MAGNITUDE]} x order of magnitude (P_B in [1e-4, 1e-3)), "
          f"{regimes[SATURATED]} x saturated (1 - P_B < 1e-3: 3 stderr, or "
          f"the complement below 1e-3 or to an order of magnitude), "
          f"{regimes[NOT_SIMULATED]} not simulated (P_B < 1e-4), "
          f"{el:.0f}s (limit 1800s)")
    assert passed, "disagreeing points:\n" + "\n".join(failures)


# ---------------------------------------------------------------------------
# 8. heavier interarrival tails block less, lighter tails block more

@pytest.mark.slow
def test_interarrival_shape_orders_blocking(record_check):
    t0 = time.perf_counter()
    failures = []
    regimes = dict.fromkeys(REGIMES, 0)
    for n_d in (2, 3, 4):
        for n in range(8, 21):
            regime = _regime(_blocking(0.3, n_d, n, convention="true"))
            regimes[regime] += 1
            if regime in (NOT_SIMULATED, MAGNITUDE):
                continue
            spiky = _simulate(0.3, n_d, n, 1.5, "weibull:1.5")
            plain = _simulate(0.3, n_d, n, 1.0, "poisson")
            bursty = _simulate(0.3, n_d, n, 0.9, "weibull:0.9")
            hi, mid, lo = (spiky.estimate_fha_flow, plain.estimate_fha_flow,
                           bursty.estimate_fha_flow)
            if regime == SATURATED:
                # every shape blocks all but a sliver no run can order
                ok = min(hi, mid, lo) >= 1.0 - RESOLVED
            else:
                ok = hi > mid > lo
            if not ok:
                failures.append(
                    f"  depth={n_d} N={n} ({regime}): k=1.5 {hi:.5f}, "
                    f"poisson {mid:.5f}, k=0.9 {lo:.5f}")
    el = time.perf_counter() - t0
    passed = not failures and el < 900.0
    _line(record_check, 8, passed,
          f"interarrival shape orders blocking: load 0.3, "
          f"{regimes[STDERR] + regimes[SATURATED]} (depth, N) points x 3 "
          f"arrival shapes at 1e6 events; strict ordering k=1.5 > poisson > "
          f"k=0.9 at {regimes[STDERR]} points with 1e-3 <= P_B <= 1 - 1e-3, "
          f"every shape >= 1 - 1e-3 at {regimes[SATURATED]} saturated points, "
          f"{regimes[NOT_SIMULATED] + regimes[MAGNITUDE]} points with "
          f"P_B < 1e-3 skipped; {len(failures)} violations, {el:.0f}s "
          f"(limit 900s)")
    assert passed, "violations:\n" + "\n".join(failures)


# ---------------------------------------------------------------------------
# 9. reconfiguration-window hit probabilities

def test_reconfiguration_window_probabilities(record_check):
    rate = 10.0 / 60.0
    half = [sim.reconfig_arrival_probability(rate, 0.5, n) for n in (1, 2, 3)]
    five = [sim.reconfig_arrival_probability(rate, 5.0, n) for n in (2, 3, 4)]
    got_half = [f"{half[0]:.4f}", f"{half[1]:.4f}", f"{half[2]:.4e}"]
    got_five = [f"{v:.4f}" for v in five]
    passed = (got_half == ["0.0767", "0.0032", "8.8739e-05"]
              and got_five == ["0.1509", "0.0419", "0.0087"])
    _line(record_check, 9, passed,
          f"reconfiguration-window probabilities at 10 arrivals/min: 0.5s "
          f"window n=1..3 -> {got_half}, 5s window n=2..4 -> {got_five} "
          f"(exact to printed precision)")
    assert passed


# ---------------------------------------------------------------------------
# 10. single-level degenerate forms

def test_single_level_reduces_to_textbook_forms(record_check):
    t0 = time.perf_counter()
    worst_eb = 0.0
    for k in (3, 6, 12, 25, 37, 50):
        for rho in (0.1, 0.5, 2.5, 10.0, 30.0, 45.0):
            if rho >= k:
                continue
            chain = mk_chain((76.8,), (k,), (), (), rho * 0.5, 0.5)
            coef = rru.partition_coefficients(chain, 1)
            worst_eb = max(worst_eb, abs(coef[k] / coef.sum() / erlang_b(rho, k) - 1.0))

    worst_en = 0.0
    for a_load, n in ((0.2, 12), (0.3, 10), (0.5, 9)):
        planning = config_from_dict({"a": a_load, "n_d": 1, "cluster_size": n})
        spec = aggregator.spec_from_planning(planning)
        space = aggregator.enumerate_states(spec)
        probs = aggregator.product_form(spec, binomial_n="true", space=space)
        p_off = rate_level_distribution(spec.rates)[0]
        expect = engset_marginal(n, (1.0 - p_off) / p_off, len(space) - 1)
        worst_en = max(worst_en, float(np.max(np.abs(probs - expect))))
    el = time.perf_counter() - t0
    passed = worst_eb < 1e-12 and worst_en < 1e-10
    _line(record_check, 10, passed,
          f"single-level degenerate forms: unit blocking vs Erlang-B, max rel "
          f"err {worst_eb:.2e} (tol 1e-12) over 27 load/server pairs; cluster "
          f"marginal vs truncated binomial, max abs err {worst_en:.2e} "
          f"(tol 1e-10), {el:.1f}s")
    assert passed
