"""Slower oracles for the load-grid solve.

`vrfplan.aggregator.blocking` judges every flow by an integer comparison
of loads on the rate set's grid. `enumerated_blocking` lists the feasible
states instead (`enumerate_states`), weights them by the product form, and
judges each flow against the link in Mbit/s with a float slack, as the
library did before the grid became its only path.

`sequential_log_powers` builds the powers of one unit's polynomial that
`vrfplan.aggregator._log_powers` builds by blocks of units, one unit at a
time.
"""

from __future__ import annotations

import math

import numpy as np

from vrfplan.aggregator import (
    AggregatorSpec,
    BlockingReport,
    StateSpace,
    _binomial_count,
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


def sequential_log_powers(log_w: np.ndarray, steps: tuple[int, ...], gmax: int,
                          nb: int) -> tuple[np.ndarray, np.ndarray]:
    """Log coefficients of f^(nb-1) and f^nb up to x^gmax, where
    f(x) = 1 + sum_l w_l x^(s_l): nb multiplications by f, each one
    log-sum-exp over the unit's M + 1 states."""
    g = np.full(gmax + 1, -math.inf)
    g[0] = 0.0
    terms = np.full((len(steps) + 1, gmax + 1), -math.inf)
    prev = g
    for _ in range(nb):
        terms[0] = g
        for row, (lw, s) in enumerate(zip(log_w, steps), start=1):
            terms[row, s:] = g[:max(gmax + 1 - s, 0)] + lw
        prev, g = g, np.logaddexp.reduce(terms, axis=0)
    return prev, g
