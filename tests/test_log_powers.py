"""The powers of one unit's polynomial behind the grid solve.

`vrfplan.aggregator._log_powers` builds f^(nb-1) up to x^G from tilted
probabilities: `blocking` reads every flow off that one power. Its
contract: zero coefficients are exactly zero (-inf); every coefficient at
least e^-600 of the largest of the power over the loads 0..G + s_M keeps
its relative accuracy; a smaller one reads -inf or keeps it too. The
power is held to `sequential_log_powers` (one unit at a time in log
space) and to exact rational powers. `blocked_log_powers`, the oracle the
`blocking` grids are held to, is held to `sequential_log_powers` too.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vrfplan import aggregator, config_from_dict
from vrfplan.aggregator import _log_powers, spec_from_planning

from enumerated_oracle import _BLOCKED_FROM, blocked_log_powers, sequential_log_powers

#: Ladders of grid steps: the paper's halving chains, and steps that
#: leave loads no sum of them reaches (1 under (2, 3); 1, 2, 4 under (3, 5)).
LADDERS = ((1,), (1, 2), (2, 3), (3, 5), (1, 2, 4), (1, 3, 7), (1, 2, 4, 8), (1, 2, 4, 8, 16))
#: Coefficients this many nats below the largest of their power may read -inf.
_FLOOR = 600.0


@st.composite
def power_cases(draw):
    """(log_w, steps, gmax, nb): weights anywhere in +-500 nats; nb from 1
    to 130; grid limits from load 0 alone up to nb * s_M."""
    steps = draw(st.sampled_from(LADDERS))
    log_w = np.array(draw(st.lists(st.floats(-500.0, 500.0), min_size=len(steps),
                                   max_size=len(steps))))
    nb = draw(st.one_of(st.sampled_from((1, 2, 3)), st.integers(1, 130)))
    gmax = draw(st.one_of(st.integers(0, 2 * steps[-1]), st.integers(0, min(nb * steps[-1], 600))))
    return log_w, steps, gmax, nb


def _assert_power_close(got, want, rel, scale=1.0, floor=math.inf, peak=None):
    """Same zero coefficients (-inf), and every other log coefficient
    within `rel` * max(`scale`, |log c|) nats, a relative error of the
    coefficient itself. A coefficient more than `floor` nats below `peak`
    (by default the largest of `want`) may read -inf instead."""
    assert got.shape == want.shape
    small = want < (want.max() if peak is None else peak) - floor
    assert np.array_equal(got == -math.inf, (want == -math.inf) | (small & (got == -math.inf)))
    fin = got != -math.inf
    assert (np.abs(got[fin] - want[fin]) <= rel * np.maximum(scale, np.abs(want[fin]))).all()


def _assert_contract(log_w, steps, gmax, nb, scale):
    """`_log_powers` against the sequential f^(nb-1), its peak taken over
    the loads 0..G + s_M: a load in a lattice hole just under G can be far
    below its neighbour past G under every tilt."""
    wide = sequential_log_powers(log_w, steps, gmax + steps[-1], nb)[0]
    _assert_power_close(_log_powers(log_w, steps, gmax, nb), wide[:gmax + 1],
                        1e-12, scale, _FLOOR, wide.max())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(power_cases())
def test_log_powers_match_the_sequential_oracle(case):
    log_w, steps, gmax, nb = case
    # a log coefficient sums up to nb weights of up to max|log w| nats each,
    # and no float sum resolves it more finely than a rounding at that size
    _assert_contract(log_w, steps, gmax, nb, max(1.0, nb * float(np.max(np.abs(log_w)))))


def test_a_lattice_hole_under_the_grid_limit_is_judged_against_the_load_past_it():
    # f = 1 + e^-500 x + e^500 x^2 to the 31st (nb = 32), up to x^11: load
    # 11 is e^-497 of load 10, and e^-1000 of load 12 past G, so no tilt
    # keeps both it and the loads around it in floating point
    log_w = np.array([-500.0, 500.0])
    want = sequential_log_powers(log_w, (1, 2), 12, 32)[0]
    assert want[10] - want[11] < _FLOOR < want[12] - want[11]
    assert _log_powers(log_w, (1, 2), 11, 32)[11] == -math.inf
    _assert_contract(log_w, (1, 2), 11, 32, 32 * 500.0)


def _spy(monkeypatch, name):
    """Record the results of every call to `aggregator.<name>`."""
    calls = []
    real = getattr(aggregator, name)

    def spy(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(aggregator, name, spy)
    return calls


def _unit(a, n_d, n, link, gap=1):
    spec = spec_from_planning(config_from_dict(
        {"a": a, "n_d": n_d, "cluster_size": n, "threshold_gap": gap,
         "fha_capacity_mbps": link}))
    return (np.cumsum(np.log(spec.rates.up) - np.log(spec.rates.down)),
            spec.rate_set.steps, spec.grid_limit)


@pytest.mark.parametrize("link, n_d, n", [
    (25000.0, 3, 52), (25000.0, 4, 50), (100000.0, 3, 210), (100000.0, 3, 220),
    (40000.0, 4, 74),
])
def test_t0_alone_resolves_clusters_near_the_knee(monkeypatch, link, n_d, n):
    # t = 0 resolves the grid edge of every cluster near its knee: no tilt
    tilts = _spy(monkeypatch, "_tilt")
    for a, gap in itertools.product((0.22, 0.25, 0.28), (1, 2)):
        log_w, steps, gmax = _unit(a, n_d, n, link, gap)
        assert gmax < n * steps[-1]
        _log_powers(log_w, steps, gmax, n)
    assert tilts == []


def test_a_grid_edge_below_t0_is_tilted_to(monkeypatch):
    # f = 1 + e^300 x to the 4th (nb = 5), up to x^1: at t = 0 both loads
    # lie below e^-898 of the power's mass at load 4, so neither resolves
    # and the edge takes a tilt; load 1 is e^-300.4 of load 2 past G, well
    # within the contract's e^-600
    log_w = np.array([300.0])
    tilts = _spy(monkeypatch, "_tilt")
    log_fm1 = _log_powers(log_w, (1,), 1, 5)
    assert len(tilts) == 1
    assert log_fm1 == pytest.approx([0.0, math.log(4.0) + 300.0], rel=1e-12)
    _assert_contract(log_w, (1,), 1, 5, 4 * 300.0)


def test_a_solve_at_t0_makes_only_the_products_of_binary_powering(monkeypatch):
    # 52 units: f^51 by binary powering, 51 = 0b110011, is 4 products
    # into the power and 5 squarings, and no product builds f^52
    log_w, steps, gmax = _unit(0.25, 3, 52, 25000.0)
    tilts, products = _spy(monkeypatch, "_tilt"), _spy(monkeypatch, "_times")
    _log_powers(log_w, steps, gmax, 52)
    assert tilts == []
    assert len(products) == 9


def test_a_power_whose_low_tail_underflows_is_trimmed(monkeypatch):
    # 210 units on 100 Gbit/s: the last products start past load 150 of
    # the 326, their lower loads below the smallest normal float
    log_w, steps, gmax = _unit(0.25, 3, 210, 100000.0)
    products = _spy(monkeypatch, "_times")
    _assert_contract(log_w, steps, gmax, 210, 1.0)
    assert max(first for _, first in products) > 150


@pytest.mark.parametrize("nb", [32, 33, 100, 250])
@pytest.mark.parametrize("n_d", [1, 3, 5])
def test_the_blocked_oracle_matches_the_sequential_build(n_d, nb):
    # both rows, f^(nb-1) and f^nb, on the ladders (1,), (1, 2, 4) and
    # (1, 2, 4, 8, 16), up to a grid limit of one top step, half the
    # power's degree and one step past it
    assert nb >= _BLOCKED_FROM
    for a in (0.1, 0.25, 0.6):
        log_w, steps, _ = _unit(a, n_d, nb, math.inf)
        assert steps == tuple(2 ** i for i in range(n_d))
        for gmax in (steps[-1], nb * steps[-1] // 2, (nb + 1) * steps[-1]):
            want = sequential_log_powers(log_w, steps, gmax, nb)
            for got, row in zip(blocked_log_powers(log_w, steps, gmax, nb), want):
                _assert_power_close(got, row, 1e-12)


def _exact_log(c: Fraction) -> float:
    """log c of a positive rational to about one rounding."""
    k = c.numerator.bit_length() - c.denominator.bit_length()
    return math.log(float(c / Fraction(2) ** k)) + k * math.log(2.0)


def _exact_power(weights, steps, gmax, n):
    """Log coefficients of f^n up to x^gmax in exact rational arithmetic:
    f = P / q with q the weights' common denominator, and the integer
    polynomial P raised by repeated multiplication."""
    q = math.lcm(*(w.denominator for w in weights))
    nums = [int(w * q) for w in weights]
    poly = [1] + [0] * gmax
    for _ in range(n):
        new = [q * c for c in poly]
        for p, s in zip(nums, steps):
            for load in range(s, gmax + 1):
                new[load] += p * poly[load - s]
        poly = new
    return np.array([_exact_log(Fraction(c, q ** n)) if c else -math.inf for c in poly])


@pytest.mark.parametrize("steps, weights, gmax, n", [
    ((1, 2, 4), (Fraction(3, 7), Fraction(5, 2), Fraction(9, 4)), 100, 64),
    ((1, 2, 4), (Fraction(2, 3), Fraction(4, 9), Fraction(1, 5)), 97, 100),
    ((2, 3), (Fraction(7, 3), Fraction(1, 11)), 100, 81),
    ((1, 2, 4, 8), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 6)), 120, 90),
    ((1, 2, 4, 8, 16), (Fraction(3, 2), Fraction(5, 4), Fraction(7, 8), Fraction(1, 2),
                        Fraction(1, 4)), 110, 77),
])
def test_log_powers_match_exact_rational_powers(steps, weights, gmax, n):
    exact = _exact_power(weights, steps, gmax, n - 1)
    log_w = np.log([float(w) for w in weights])
    fin = exact != -math.inf

    def worst(got):
        _assert_power_close(got, exact, 1e-12)
        return float(np.max(np.abs(got[fin] - exact[fin])))

    assert worst(_log_powers(log_w, steps, gmax, n)) <= worst(
        sequential_log_powers(log_w, steps, gmax, n)[0])


def test_scratch_stays_within_a_few_rows_of_the_full_product():
    # an unbounded link: G = N * s_M = 6 400 loads for 400 units at n_d = 5
    spec = spec_from_planning(config_from_dict(
        {"a": 0.25, "n_d": 5, "cluster_size": 400, "fha_capacity_mbps": math.inf}))
    steps, gmax = spec.rate_set.steps, spec.grid_limit
    log_w = np.cumsum(np.log(spec.rates.up) - np.log(spec.rates.down))
    tracemalloc.start()
    try:
        _log_powers(log_w, steps, gmax, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a convolution's full product of 2G + 1 loads, the powers it reads,
    # and the result rows with their masks and temporaries
    assert peak <= 6 * (2 * gmax + 1) * 8
