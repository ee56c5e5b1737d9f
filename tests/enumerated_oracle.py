"""Slower oracles for the load-grid solve.

`vrfplan.aggregator.blocking` judges every flow by an integer comparison
of loads on the rate set's grid. `enumerated_blocking` lists the feasible
states instead (`enumerate_states`), weights them by the product form, and
judges each flow against the link in Mbit/s with a float slack, as the
library did before the grid became its only path.

`sequential_log_powers` and `blocked_log_powers` build in log space the
powers of one unit's polynomial that `vrfplan.aggregator._log_powers`
builds from tilted probabilities: one unit at a time, and by blocks of
units as the library did before it tilted the unit. `log_space_blocking`
is `blocking` on the blocked powers.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np

from vrfplan import aggregator
from vrfplan.aggregator import (
    AggregatorSpec,
    BlockingReport,
    StateSpace,
    _binomial_count,
    blocking,
    enumerate_states,
    product_form,
)

#: Slack for floating-point comparisons against the link capacity (Mbit/s).
_CAPACITY_SLACK = 1e-6


def enumerated_blocking(
    spec: AggregatorSpec,
    binomial_n: str = "effective",
    space: StateSpace | None = None,
) -> BlockingReport:
    """`blocking` over the listed states: a state blocks upgrades out of
    level m when its load plus d_{m+1} - d_m exceeds the capacity, and
    wake-ups when its load plus d_1 does."""
    if space is None:
        space = enumerate_states(spec)
    probs = product_form(spec, binomial_n, space)
    m = spec.rate_set.count
    rates = spec.rate_set.rates
    n = spec.cluster_size
    b_c = spec.link_capacity_mbps
    k_mat = np.array(space.vectors, dtype=float)
    idle = n - space.totals

    flows = [idle * spec.rates.up[0]]
    blocked_masks = [(space.totals < n) & (space.loads + rates[0] > b_c + _CAPACITY_SLACK)]
    for level in range(1, m):
        step = rates[level] - rates[level - 1]
        flows.append(k_mat[:, level - 1] * spec.rates.up[level])
        blocked_masks.append(
            (k_mat[:, level - 1] > 0) & (space.loads + step > b_c + _CAPACITY_SLACK)
        )

    offered = float(sum((f * probs).sum() for f in flows))
    blocked_parts = [float((f * probs)[mask].sum()) for f, mask in zip(flows, blocked_masks)]
    per_rate = tuple(part / offered for part in blocked_parts)
    return BlockingReport(
        per_rate=per_rate,
        total=float(sum(per_rate)),
        binomial_n=_binomial_count(spec, binomial_n),
        offered_flow=offered,
        blocked_flow=float(sum(blocked_parts)),
        convention=binomial_n,
    )


def log_space_blocking(spec: AggregatorSpec, binomial_n: str = "effective") -> BlockingReport:
    """`blocking` with its powers built by `blocked_log_powers`."""
    with mock.patch.object(aggregator, "_log_powers", blocked_log_powers):
        return blocking(spec, binomial_n)


def _times_unit(g: np.ndarray, log_w: np.ndarray, steps: tuple[int, ...]) -> np.ndarray:
    """Log coefficients of g·f: one log-sum-exp over the unit's M + 1 states."""
    terms = np.full((len(steps) + 1, len(g)), -math.inf)
    terms[0] = g
    for row, (lw, s) in enumerate(zip(log_w, steps), start=1):
        terms[row, s:] = g[:max(len(g) - s, 0)] + lw
    return np.logaddexp.reduce(terms, axis=0)


def sequential_log_powers(log_w: np.ndarray, steps: tuple[int, ...], gmax: int,
                          nb: int) -> tuple[np.ndarray, np.ndarray]:
    """Log coefficients of f^(nb-1) and f^nb up to x^gmax, where
    f(x) = 1 + sum_l w_l x^(s_l): nb multiplications by f."""
    g = np.full(gmax + 1, -math.inf)
    g[0] = 0.0
    prev = g
    for _ in range(nb):
        prev, g = g, _times_unit(g, log_w, steps)
    return prev, g


#: From this many units `blocked_log_powers` multiplies by blocks.
_BLOCKED_FROM = 32
#: Largest load span b * s_M of one block f^b.
_MAX_SPAN = 64
#: Terms this far below their load's largest are raised to it before
#: `exp`: each is then under 1e-304 and cannot move a sum of at least 1.
_EXP_FLOOR = -700.0


def blocked_log_powers(log_w: np.ndarray, steps: tuple[int, ...], gmax: int,
                       nb: int) -> tuple[np.ndarray, np.ndarray]:
    """`sequential_log_powers` below `_BLOCKED_FROM` units; from there on
    f^(nb-1) is built by blocks f^b of b units, b the power of two nearest
    sqrt(nb)/2 (on a log scale) whose span b·s_M fits `_MAX_SPAN`. f^b and
    f^r, r = (nb - 1) mod b, come from unit steps, and each block product
    is one pass over the (b·s_M + 1) × (G + 1) log terms, each load's terms
    shifted by their maximum before `exp`."""
    b = 1
    if nb >= _BLOCKED_FROM:
        while 8 * b * b <= nb and 2 * b * steps[-1] <= _MAX_SPAN:
            b *= 2
    if b == 1:
        return sequential_log_powers(log_w, steps, gmax, nb)
    span = min(b * steps[-1], gmax)
    blocks, rest = divmod(nb - 1, b)
    # g sits at padded[span:], so that padded[j:j + gmax + 1] is g
    # shifted up by span - j loads
    padded = np.full(span + gmax + 1, -math.inf)
    padded[span] = 0.0
    block = padded[span:2 * span + 1]
    for i in range(b):
        if i == rest:
            padded[span:2 * span + 1] = block
        block = _times_unit(block, log_w, steps)
    windows = np.lib.stride_tricks.sliding_window_view(padded, gmax + 1)
    kernel = block[::-1, None]
    degree = rest * steps[-1]
    for _ in range(blocks):
        # f^n is zero above n * s_M: only the loads up to there are summed
        degree = min(degree + span, gmax)
        terms = windows[:, :degree + 1] + kernel
        top = terms.max(axis=0)
        empty = top == -math.inf
        top[empty] = 0.0
        sums = np.exp(np.maximum(terms - top, _EXP_FLOOR)).sum(axis=0)
        padded[span:span + degree + 1] = np.where(empty, -math.inf, np.log(sums) + top)
    g = padded[span:]
    return g, _times_unit(g, log_w, steps)
