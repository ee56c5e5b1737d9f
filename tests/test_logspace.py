"""Log-space helpers: log-sum-exp, the two-float log-sum and the
log-factorial table."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vrfplan._logspace import log_factorials, logaddexp, logsumexp, logsumexp_floats


def test_logsumexp_matches_direct_sum_and_keeps_infinities():
    a = np.array([[0.0, -1.0, 2.5], [-math.inf, -math.inf, -math.inf], [-800.0, -801.0, -math.inf]])
    assert logsumexp(a[0]) == pytest.approx(math.log(1.0 + math.exp(-1.0) + math.exp(2.5)), rel=1e-15)
    assert logsumexp(a[1]) == -math.inf
    # far below exp's range, where a direct sum would underflow to log(0)
    assert logsumexp(a[2]) == pytest.approx(-800.0 + math.log1p(math.exp(-1.0)), rel=1e-15)
    assert logsumexp(np.empty(0)) == -math.inf
    assert math.isnan(logsumexp([0.0, math.nan, -math.inf]))
    assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0), rel=1e-15)


def test_log_factorials_across_the_exact_range():
    lf = log_factorials(400)
    assert lf[0] == lf[1] == 0.0
    assert lf[5] == pytest.approx(math.log(120.0), rel=1e-15)
    for k in range(2, 401):
        assert lf[k] == pytest.approx(math.lgamma(k + 1.0), rel=2e-15), k


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.one_of(
    st.tuples(finite, finite),
    # within exp's reach of each other, where the log1p term shows
    st.tuples(st.floats(-1e6, 1e6), st.floats(-40.0, 40.0)).map(lambda p: (p[0], p[0] + p[1])),
    finite.map(lambda x: (x, x)),
    st.tuples(st.sampled_from([math.inf, -math.inf]), finite | st.just(math.inf)
              | st.just(-math.inf)),
    st.tuples(finite, st.sampled_from([math.inf, -math.inf])),
))
def test_float_logaddexp_is_numpys_bit_for_bit(pair):
    # the recorded rates and the golden texts depend on these bits
    x, y = pair
    with np.errstate(all="ignore"):     # x - y may overflow to inf
        want = float(np.logaddexp(x, y))
    assert struct.pack("<d", logaddexp(x, y)) == struct.pack("<d", want)


def test_float_logsumexp_matches_the_array_one():
    xs = [0.0, -1.0, 2.5, -800.0, -math.inf]
    assert logsumexp_floats(xs) == pytest.approx(logsumexp(xs), rel=1e-15)
    assert logsumexp_floats([-800.0, -801.0]) == pytest.approx(logsumexp([-800.0, -801.0]),
                                                               rel=1e-15)
    assert logsumexp_floats([-math.inf, -math.inf]) == -math.inf
    assert logsumexp_floats([1.0, math.inf]) == math.inf
