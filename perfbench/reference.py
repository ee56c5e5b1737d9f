"""Reference answers computed apart from vrfplan.

Nothing here imports the package. The rate ladder is the paper's CPRI
table, the per-unit level rates come from a GTH elimination of the dense
(users, level) chain built here, and cluster blocking comes from a dynamic
program over (active units, load in units of the lowest rate) instead of
the package's state enumeration.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: The halving chain down from the top CPRI rate: (rate Mbit/s, calls).
LADDER = ((1228.8, 50), (614.4, 25), (307.2, 12), (153.6, 6), (76.8, 3))
MU = 0.5


def ladder(n_d: int) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Ascending rates and capacities of an n_d-level ladder."""
    rows = LADDER[:n_d][::-1]
    return tuple(r for r, _ in rows), tuple(c for _, c in rows)


def thresholds(n_d: int, gap: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Forward thresholds at each lower rate's capacity, reverse `gap` below."""
    forward = ladder(n_d)[1][:-1]
    return forward, tuple(f - gap for f in forward)


def gth_steady_state(q: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible rate matrix by GTH elimination.

    Only additions of non-negative terms are used, so every entry keeps
    its relative accuracy however small it is.
    """
    p = np.array(q, dtype=float)
    np.fill_diagonal(p, 0.0)
    n = p.shape[0]
    for k in range(n - 1, 0, -1):
        p[:k, k] /= p[k, :k].sum()
        p[:k, :k] += np.outer(p[:k, k], p[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ p[:k, k]
    return pi / pi.sum()


@functools.cache
def unit_rates(a: float, n_d: int, gap: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Level up/down rates of one unit from its full (users, level) chain.

    up[0] is the wake-up (arrival) rate, up[l] the rate of leaving level l
    upward (arrival at the forward threshold); down[l-1] the rate of
    leaving level l downward (departure from the lowest user count of the
    level). Level 1 is conditioned on the unit being active.
    """
    caps = ladder(n_d)[1]
    k_top = caps[-1]
    lam = a * k_top * MU
    forward, reverse = thresholds(n_d, gap)
    fwd = list(forward) + [k_top]
    low = [1] + [r + 1 for r in reverse]
    states = [(0, 0)] + [(u, lv) for lv in range(1, n_d + 1)
                         for u in range(low[lv - 1], fwd[lv - 1] + 1)]
    index = {s: i for i, s in enumerate(states)}
    q = np.zeros((len(states), len(states)))
    q[0, index[(1, 1)]] = lam
    for u, lv in states[1:]:
        i = index[(u, lv)]
        if u < fwd[lv - 1]:
            q[i, index[(u + 1, lv)]] += lam
        elif lv < n_d:
            q[i, index[(u + 1, lv + 1)]] += lam
        if u == low[lv - 1] and lv > 1:
            q[i, index[(u - 1, lv - 1)]] += u * MU
        elif u == 1:
            q[i, 0] += u * MU
        else:
            q[i, index[(u - 1, lv)]] += u * MU
    pi = gth_steady_state(q)
    up = [lam]
    down = []
    for lv in range(1, n_d + 1):
        members = {u: pi[index[(u, lv)]] for u in range(low[lv - 1], fwd[lv - 1] + 1)}
        mass = math.fsum(members.values())
        down.append(float(low[lv - 1] * MU * members[low[lv - 1]] / mass))
        if lv < n_d:
            up.append(float(lam * members[fwd[lv - 1]] / mass))
    return tuple(up), tuple(down)


def _logsumexp(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return -math.inf
    top = float(np.max(x))
    if top == -math.inf:
        return -math.inf
    return top + math.log(float(np.exp(x - top).sum()))


@functools.cache
def cluster_blocking(cluster_size: int, n_d: int, link_mbps: float,
                     up: tuple[float, ...], down: tuple[float, ...],
                     convention: str) -> tuple[float, tuple[float, ...]]:
    """(total, per-flow components) of link blocking for N units.

    The product form is a multinomial over N units, each off or at level l
    with weight w_l = prod_{i<l} up[i]/down[i], with the binomial count
    nb = N ("true") or the link's unit limit ("effective"), truncated to
    states whose load fits the link. Rates double up the ladder, so every
    load is an integer number of lowest-rate units and the truncated sum
    is a convolution over (active units, load). The expected number of
    units at level l in a class is w_l times the class with one such unit
    removed, which gives each upgrade flow without listing states.
    """
    rates = ladder(n_d)[0]
    steps = [int(round(r / rates[0])) for r in rates]
    if any(abs(s * rates[0] - r) > 1e-9 * r for s, r in zip(steps, rates)):
        raise ValueError("rates are not on an integer grid of the lowest rate")
    n = cluster_size
    gmax = int(math.floor(link_mbps / rates[0] + 1e-9))
    nb = n if convention == "true" else min(n, gmax)
    lw = np.cumsum(np.log(up) - np.log(down))

    log_g = np.full((n + 1, gmax + 1), -math.inf)
    log_g[0, 0] = 0.0
    for level, s in enumerate(steps):
        acc = log_g.copy()
        for k in range(1, min(n, gmax // s) + 1):
            shifted = np.full_like(log_g, -math.inf)
            shifted[k:, k * s:] = log_g[:n + 1 - k, :gmax + 1 - k * s] + (
                k * lw[level] - math.lgamma(k + 1))
            acc = np.logaddexp(acc, shifted)
        log_g = acc

    t = np.arange(n + 1)
    log_f = np.full(n + 1, -math.inf)
    ok = t <= nb
    log_f[ok] = [math.lgamma(nb + 1) - math.lgamma(nb - x + 1) for x in t[ok]]
    log_z = _logsumexp(log_f[:, None] + log_g)
    log_p = log_f[:, None] + log_g - log_z
    g = np.arange(gmax + 1)

    # wake-ups: (N - t) idle units, refused when one more lowest rate overflows
    idle = (n - t)[:, None].astype(float)
    with np.errstate(divide="ignore"):
        log_wake = log_p + np.log(idle) + math.log(up[0])
    offered = [log_wake]
    blocked = [log_wake[:, g + steps[0] > gmax]]
    for level in range(len(steps) - 1):
        s, jump = steps[level], steps[level + 1] - steps[level]
        log_h = np.full_like(log_p, -math.inf)
        log_h[1:, s:] = (log_f[1:, None] + lw[level] + log_g[:n, :gmax + 1 - s]
                         + math.log(up[level + 1]) - log_z)
        offered.append(log_h)
        blocked.append(log_h[:, g + jump > gmax])
    log_total = _logsumexp(np.concatenate([x.ravel() for x in offered]))
    parts = tuple(math.exp(_logsumexp(b.ravel()) - log_total) for b in blocked)
    return math.fsum(parts), parts


def single_rate_blocking(a: float, cluster_size: int, link_mbps: float,
                         convention: str) -> float:
    """Hand closed form for a one-level ladder (acceptance check 3).

    Each unit is off or active with odds r = sum_{i=1..K} rho^i / i!, the
    active count is a binomial truncated at the link's unit limit `cap`,
    and only a full link refuses the N - cap idle units.
    """
    rate, k_top = LADDER[0]
    rho = a * k_top
    r = math.fsum(rho ** i / math.factorial(i) for i in range(1, k_top + 1))
    cap = int(math.floor(link_mbps / rate + 1e-9))
    n = cluster_size
    if n <= cap:
        return 0.0
    nb = n if convention == "true" else cap
    w = [math.comb(nb, k) * r ** k for k in range(cap + 1)]
    return w[cap] * (n - cap) / math.fsum((n - k) * wk for k, wk in enumerate(w))
