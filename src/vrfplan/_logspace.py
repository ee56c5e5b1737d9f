"""Log-space helpers shared by the closed forms and the cluster solve:
the log-sum-exp of one array or of a few floats, the log-sum of two
floats, and a log-factorial table.

Plain numpy and `math`, so that the query path imports no scipy module.
The float helpers serve the per-unit recurrences, whose lists are short
enough that numpy's per-call overhead would cost more than the arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

_LOG2 = math.log(2.0)


def logsumexp(a) -> float:
    """log(sum(exp(a))) over every entry of `a`, shifted by the maximum so
    that nothing overflows. An empty array, or one of only -inf, gives
    -inf; NaN and +inf propagate."""
    a = np.asarray(a, dtype=float)
    top = np.max(a, initial=-math.inf)
    if not math.isfinite(top):
        return float(top)
    return float(np.log(np.sum(np.exp(a - top))) + top)


def logsumexp_floats(xs: list[float]) -> float:
    """`logsumexp` of a non-empty list of floats, summed by `math.fsum`.
    A list whose maximum is not finite gives that maximum."""
    top = max(xs)
    if not math.isfinite(top):
        return top
    return top + math.log(math.fsum(math.exp(x - top) for x in xs))


def logaddexp(x: float, y: float) -> float:
    """`np.logaddexp` of two floats in `math`, bit for bit: numpy's own
    branches over the same libm `exp` and `log1p`."""
    if x == y:      # equal infinities too, without inf - inf
        return x + _LOG2
    d = x - y
    if d > 0:
        return x + math.log1p(math.exp(-d))
    if d <= 0:
        return y + math.log1p(math.exp(d))
    return d        # NaN


def log_factorials(n: int) -> list[float]:
    """log(k!) for k = 0..n as a list of floats (an array of it indexes
    with integer arrays in place of a vectorised log-gamma function);
    `math.lgamma` puts every entry within a few roundings of the true
    value (at most 5.2e-16 relative, at k = 2, over k <= 20 000)."""
    return list(map(math.lgamma, range(1, n + 2)))
