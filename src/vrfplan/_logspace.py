"""Log-space helpers shared by the closed forms and the cluster solve.

Plain numpy and `math`, so that the query path imports no scipy module.
"""

from __future__ import annotations

import math

import numpy as np


def logsumexp(a, axis: int | None = None) -> np.ndarray | float:
    """log(sum(exp(a))) over `axis` (all entries when None), shifted by the
    maximum so that nothing overflows. An empty slice, or one of only -inf,
    gives -inf."""
    a = np.asarray(a, dtype=float)
    top = np.max(a, axis=axis, keepdims=True, initial=-math.inf)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - top), axis=axis, keepdims=True)) + top
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


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
