"""The powers of one unit's polynomial behind the grid solve.

`vrfplan.aggregator._log_powers` builds f^(nb-1) and f^nb one unit at a
time below `_BLOCKED_FROM` units and by blocks of b units above it. Both
are held to `sequential_log_powers` (one unit at a time at every size)
and to exact rational powers.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vrfplan import config_from_dict
from vrfplan.aggregator import (
    _BLOCKED_FROM,
    _MAX_SPAN,
    _block_size,
    _log_powers,
    spec_from_planning,
)

from enumerated_oracle import sequential_log_powers

#: Ladders of grid steps: the paper's halving chains, and steps that
#: leave loads no sum of them reaches (1 under (2, 3); 1, 2, 4 under (3, 5)).
LADDERS = ((1,), (1, 2), (2, 3), (3, 5), (1, 2, 4), (1, 3, 7), (1, 2, 4, 8), (1, 2, 4, 8, 16))


@st.composite
def power_cases(draw):
    """(log_w, steps, gmax, nb): weights anywhere in +-500 nats; nb at the
    blocking threshold or one and two units past a whole number of blocks;
    grid limits below one block's span as well as up to nb * s_M."""
    steps = draw(st.sampled_from(LADDERS))
    log_w = np.array(draw(st.lists(st.floats(-500.0, 500.0), min_size=len(steps),
                                   max_size=len(steps))))
    n = draw(st.integers(_BLOCKED_FROM, 130))
    b = _block_size(n, steps[-1])
    nb = draw(st.sampled_from((1, _BLOCKED_FROM - 1, _BLOCKED_FROM, _BLOCKED_FROM + 1,
                               (n - 1) // b * b + 1, (n - 1) // b * b + 2)))
    span = _block_size(nb, steps[-1]) * steps[-1]
    gmax = draw(st.one_of(st.integers(0, span), st.integers(0, min(nb * steps[-1], 600))))
    return log_w, steps, gmax, nb


def _assert_powers_close(got, want, rel, scale=1.0):
    """Same zero coefficients (-inf), and every other log coefficient
    within `rel` * max(`scale`, |log c|) nats, a relative error of the
    coefficient itself."""
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g == -math.inf, w == -math.inf)
        assert np.isfinite(g[w != -math.inf]).all()
        fin = w != -math.inf
        assert (np.abs(g[fin] - w[fin]) <= rel * np.maximum(scale, np.abs(w[fin]))).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(power_cases())
def test_blocked_powers_match_the_sequential_oracle(case):
    log_w, steps, gmax, nb = case
    # a log coefficient sums up to nb weights of up to max|log w| nats each,
    # and no float sum resolves it more finely than a rounding at that size
    scale = max(1.0, nb * float(np.max(np.abs(log_w))))
    _assert_powers_close(_log_powers(log_w, steps, gmax, nb),
                         sequential_log_powers(log_w, steps, gmax, nb), 1e-12, scale)


def test_small_clusters_keep_the_sequential_loop_bit_for_bit():
    rng = np.random.default_rng(11)
    for steps in LADDERS:
        log_w = rng.uniform(-5.0, 5.0, len(steps))
        for nb in (1, 2, 17, _BLOCKED_FROM - 1):
            assert _block_size(nb, steps[-1]) == 1
            for got, want in zip(_log_powers(log_w, steps, nb * steps[-1], nb),
                                 sequential_log_powers(log_w, steps, nb * steps[-1], nb)):
                assert np.array_equal(got, want)


def test_block_sizes_are_powers_of_two_within_the_span():
    for top_step in (1, 2, 4, 8, 16, 64, 65):
        for nb in range(1, 2000):
            b = _block_size(nb, top_step)
            assert b & (b - 1) == 0
            if nb < _BLOCKED_FROM or top_step > _MAX_SPAN // 2:
                assert b == 1
            elif 2 * b * top_step <= _MAX_SPAN:
                # the power of two nearest sqrt(nb) / 2 on a log scale
                assert abs(math.log2(b) - math.log2(math.sqrt(nb) / 2)) <= 0.5
            else:
                # or the largest below it whose span fits
                assert b * top_step <= _MAX_SPAN
                assert math.log2(b) <= math.log2(math.sqrt(nb) / 2) + 0.5


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
    assert _block_size(n, steps[-1]) > 1
    exact = _exact_powers(weights, steps, gmax, n)
    log_w = np.log([float(w) for w in weights])

    def worst(got):
        _assert_powers_close(got, exact, 1e-12)
        return max(float(np.max(np.abs(g[e != -math.inf] - e[e != -math.inf])))
                   for g, e in zip(got, exact))

    assert worst(_log_powers(log_w, steps, gmax, n)) <= worst(
        sequential_log_powers(log_w, steps, gmax, n))


def test_scratch_stays_within_one_block_span_of_rows():
    # an unbounded link: G = N * s_M = 6 400 loads for 400 units at n_d = 5
    spec = spec_from_planning(config_from_dict(
        {"a": 0.25, "n_d": 5, "cluster_size": 400, "fha_capacity_mbps": math.inf}))
    steps, gmax = spec.rate_set.steps, spec.grid_limit
    log_w = np.cumsum(np.log(spec.rates.up) - np.log(spec.rates.down))
    assert _block_size(400, steps[-1]) > 1
    tracemalloc.start()
    try:
        _log_powers(log_w, steps, gmax, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the block product's (_MAX_SPAN + 1) rows, the unit step's M + 1 rows,
    # and a few single rows: the padded input, the results and temporaries
    assert peak <= (_MAX_SPAN + 1 + len(steps) + 1 + 8) * (gmax + 1) * 8
