"""Log-space helpers: log-sum-exp and the log-factorial table."""

import math

import numpy as np
import pytest

from vrfplan._logspace import log_factorials, logsumexp


def test_logsumexp_matches_direct_sum_and_keeps_infinities():
    a = np.array([[0.0, -1.0, 2.5], [-math.inf, -math.inf, -math.inf], [-800.0, -801.0, -math.inf]])
    rows = logsumexp(a, axis=1)
    assert rows[0] == pytest.approx(math.log(1.0 + math.exp(-1.0) + math.exp(2.5)), rel=1e-15)
    assert rows[1] == -math.inf
    # far below exp's range, where a direct sum would underflow to log(0)
    assert rows[2] == pytest.approx(-800.0 + math.log1p(math.exp(-1.0)), rel=1e-15)
    assert logsumexp(a[0]) == pytest.approx(rows[0], rel=1e-15)
    assert logsumexp(np.empty((2, 0)), axis=1).tolist() == [-math.inf, -math.inf]
    assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0), rel=1e-15)


def test_log_factorials_across_the_exact_range():
    lf = log_factorials(400)
    assert lf[0] == lf[1] == 0.0
    assert lf[5] == pytest.approx(math.log(120.0), rel=1e-15)
    for k in range(2, 401):
        assert lf[k] == pytest.approx(math.lgamma(k + 1.0), rel=2e-15), k
