"""The powers of one unit's polynomial behind the grid solve.

`vrfplan.aggregator._log_powers` builds f^(nb-1) and f^nb up to x^G from
tilted probabilities. Its contract: zero coefficients are exactly zero
(-inf); every coefficient at least e^-600 of the largest of its power
over the loads 0..G + s_M keeps its relative accuracy; a smaller one
reads -inf or keeps it too. The powers are held to `sequential_log_powers`
(one unit at a time in log space) and to exact rational powers.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vrfplan import config_from_dict
from vrfplan.aggregator import _log_powers, spec_from_planning

from enumerated_oracle import sequential_log_powers

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


def _assert_powers_close(got, want, rel, scale=1.0, floor=math.inf, peaks=None):
    """Same zero coefficients (-inf), and every other log coefficient
    within `rel` * max(`scale`, |log c|) nats, a relative error of the
    coefficient itself. A coefficient more than `floor` nats below the
    peak of its row (by default the row's largest) may read -inf instead."""
    for g, w, peak in zip(got, want, peaks or [w.max() for w in want]):
        assert g.shape == w.shape
        small = w < peak - floor
        assert np.array_equal(g == -math.inf, (w == -math.inf) | (small & (g == -math.inf)))
        fin = g != -math.inf
        assert (np.abs(g[fin] - w[fin]) <= rel * np.maximum(scale, np.abs(w[fin]))).all()


def _assert_contract(log_w, steps, gmax, nb, scale):
    """`_log_powers` against the sequential powers, each row's peak taken
    over the loads 0..G + s_M: a load in a lattice hole just under G can
    be far below its neighbour past G under every tilt."""
    wide = sequential_log_powers(log_w, steps, gmax + steps[-1], nb)
    _assert_powers_close(_log_powers(log_w, steps, gmax, nb), [w[:gmax + 1] for w in wide],
                         1e-12, scale, _FLOOR, [w.max() for w in wide])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(power_cases())
def test_blocked_powers_match_the_sequential_oracle(case):
    log_w, steps, gmax, nb = case
    # a log coefficient sums up to nb weights of up to max|log w| nats each,
    # and no float sum resolves it more finely than a rounding at that size
    _assert_contract(log_w, steps, gmax, nb, max(1.0, nb * float(np.max(np.abs(log_w)))))


def test_a_lattice_hole_under_the_grid_limit_is_judged_against_the_load_past_it():
    # f = 1 + e^-500 x + e^500 x^2 to the 31st, up to x^11: load 11 is e^-497
    # of load 10, and e^-1000 of load 12 past G, so no tilt keeps both it
    # and the loads around it in floating point
    log_w = np.array([-500.0, 500.0])
    want = sequential_log_powers(log_w, (1, 2), 12, 31)[1]
    assert want[10] - want[11] < _FLOOR < want[12] - want[11]
    assert _log_powers(log_w, (1, 2), 11, 31)[1][11] == -math.inf
    _assert_contract(log_w, (1, 2), 11, 31, 31 * 500.0)


def _exact_log(c: Fraction) -> float:
    """log c of a positive rational to about one rounding."""
    k = c.numerator.bit_length() - c.denominator.bit_length()
    return math.log(float(c / Fraction(2) ** k)) + k * math.log(2.0)


def _exact_powers(weights, steps, gmax, n):
    """Log coefficients of f^(n-1) and f^n up to x^gmax in exact rational
    arithmetic: f = P / q with q the weights' common denominator, and the
    integer polynomial P raised by repeated multiplication."""
    q = math.lcm(*(w.denominator for w in weights))
    nums = [int(w * q) for w in weights]
    poly = [1] + [0] * gmax
    prev = poly
    for _ in range(n):
        new = [q * c for c in poly]
        for p, s in zip(nums, steps):
            for load in range(s, gmax + 1):
                new[load] += p * poly[load - s]
        prev, poly = poly, new
    return [np.array([_exact_log(Fraction(c, q ** m)) if c else -math.inf for c in coeffs])
            for m, coeffs in ((n - 1, prev), (n, poly))]


@pytest.mark.parametrize("steps, weights, gmax, n", [
    ((1, 2, 4), (Fraction(3, 7), Fraction(5, 2), Fraction(9, 4)), 100, 64),
    ((1, 2, 4), (Fraction(2, 3), Fraction(4, 9), Fraction(1, 5)), 97, 100),
    ((2, 3), (Fraction(7, 3), Fraction(1, 11)), 100, 81),
    ((1, 2, 4, 8), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 6)), 120, 90),
    ((1, 2, 4, 8, 16), (Fraction(3, 2), Fraction(5, 4), Fraction(7, 8), Fraction(1, 2),
                        Fraction(1, 4)), 110, 77),
])
def test_blocked_powers_match_exact_rational_powers(steps, weights, gmax, n):
    exact = _exact_powers(weights, steps, gmax, n)
    log_w = np.log([float(w) for w in weights])

    def worst(got):
        _assert_powers_close(got, exact, 1e-12)
        return max(float(np.max(np.abs(g[e != -math.inf] - e[e != -math.inf])))
                   for g, e in zip(got, exact))

    assert worst(_log_powers(log_w, steps, gmax, n)) <= worst(
        sequential_log_powers(log_w, steps, gmax, n))


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
