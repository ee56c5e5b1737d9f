"""Log-space helpers shared by the closed forms and the cluster solve:
the log-sum-exp of one array and a log-factorial table.

Plain numpy and `math`, so that the query path imports no scipy module.
"""

from __future__ import annotations

import math

import numpy as np


def logsumexp(a) -> float:
    """log(sum(exp(a))) over every entry of `a`, shifted by the maximum so
    that nothing overflows. An empty array, or one of only -inf, gives
    -inf; NaN and +inf propagate."""
    a = np.asarray(a, dtype=float)
    top = np.max(a, initial=-math.inf)
    if not math.isfinite(top):
        return float(top)
    return float(np.log(np.sum(np.exp(a - top))) + top)


#: log k! up to here is taken from the exact integer factorial; beyond it
#: that product costs time quadratic in k, and `math.lgamma` is as close.
_EXACT_FACTORIALS = 200


def log_factorials(n: int) -> np.ndarray:
    """log(k!) for k = 0..n, to index with integer arrays in place of a
    vectorised log-gamma function; every entry is within about one
    rounding (under 2.5e-16 relative) of the true value."""
    out = np.zeros(n + 1)
    fact = 1
    for k in range(2, n + 1):
        if k <= _EXACT_FACTORIALS:
            fact *= k
            out[k] = math.log(fact)
        else:
            out[k] = math.lgamma(k + 1.0)
    return out
