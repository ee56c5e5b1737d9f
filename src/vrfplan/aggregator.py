"""Cluster-level model: N rate-switching units sharing one link.

The cluster state is the occupancy vector k = (k_1..k_M) counting units
per rate level. Feasible states keep both the unit count and the summed
line rate within bounds. The chain built from the per-unit level rates
is reversible, so its steady state has a product form; blocking is the
share of offered level-upgrade flow (wake-ups included) that lands in
states where the needed extra bandwidth does not fit.

Every rate is an integer multiple of the rate set's grid unit, so a load
is an integer on a grid that ends at the rate set's grid limit G.
Blocking is a convolution over that grid, and no state is listed: every
flow is one unit facing the others, read off one power of one unit's
polynomial, built from tilted probabilities by direct convolutions of
positive terms, so its cost grows as log(N) G^2, not with the number of
states. The enumerated state space (`enumerate_states`, `product_form`)
is the oracle for that path; only `vrfplan.oracle`, which builds and
solves its dense chain, and the tests use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._logspace import log_factorials, logsumexp, logsumexp_floats
from .config import PlanningConfig, RateSet, check_cluster
from .errors import CapacityError, InvalidConfigError, InvalidParameterError
from .rru import RruChainSpec, RruRates, transition_rates

#: Refuse to enumerate more states than this.
DEFAULT_STATE_CAP = 5_000_000

_CONVENTIONS = ("effective", "true")


@dataclass(frozen=True)
class AggregatorSpec:
    """Cluster description: size, selectable rates, link capacity, and the
    per-unit level-transition rates driving upgrades and downgrades.
    `grid_limit` is the largest load the link admits, in grid units of the
    rate set."""

    cluster_size: int
    rate_set: RateSet
    link_capacity_mbps: float
    rates: RruRates
    grid_limit: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid_limit",
                           check_cluster(self.rate_set, self.cluster_size, self.link_capacity_mbps))
        if not isinstance(self.rates, RruRates):
            raise InvalidConfigError("rates", f"must be RruRates, got {type(self.rates).__name__}")
        if self.rates.level_count != self.rate_set.count:
            raise InvalidParameterError(
                f"rate count mismatch: {self.rates.level_count} transition-rate levels "
                f"vs {self.rate_set.count} rates"
            )


@dataclass(frozen=True)
class StateSpace:
    """The enumerated feasible occupancy vectors, lexicographically ordered."""

    vectors: tuple[tuple[int, ...], ...]
    loads: np.ndarray
    totals: np.ndarray

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class BlockingReport:
    """Per-flow and total blocking of the cluster.

    `per_rate[0]` is the blocked share attributable to wake-ups of idle
    units; `per_rate[m]` for m >= 1 to upgrades out of level m. Each
    component is that flow's blocked fraction of the total offered
    upgrade flow, so the components sum to `total` and all lie in [0, 1].
    `log_total` is the natural log of the total, resolved where `total`
    underflows to 0.0; it is -inf only when the link never blocks
    (N s_M <= G).
    """

    per_rate: tuple[float, ...]
    total: float
    binomial_n: int
    convention: str
    log_total: float


def _binomial_count(spec: AggregatorSpec, convention: str) -> int:
    if convention not in _CONVENTIONS:
        raise InvalidParameterError(
            f"binomial_n must be one of {_CONVENTIONS}, got {convention!r}"
        )
    if convention == "true":
        return spec.cluster_size
    return min(spec.cluster_size, spec.grid_limit // spec.rate_set.steps[0])


def enumerate_states(spec: AggregatorSpec) -> StateSpace:
    """All occupancy vectors with total units <= N and load <= capacity,
    in lexicographic order."""
    vectors: list[tuple[int, ...]] = []
    loads: list[float] = []
    totals: list[int] = []
    load_limit = spec.link_capacity_mbps * (1.0 + 1e-12) + 1e-9
    _walk(spec, load_limit, (vectors, loads, totals), [], 0, 0.0)
    return StateSpace(
        vectors=tuple(vectors),
        loads=np.array(loads),
        totals=np.array(totals, dtype=int),
    )


def _walk(spec: AggregatorSpec, load_limit: float,
          out: tuple[list, list, list], prefix: list[int], used: int, load: float) -> None:
    """Append every feasible completion of `prefix` to the `out` lists.

    A module-level function rather than a closure: a recursive closure
    refers to itself, and that cycle would keep the lists alive after
    `enumerate_states` returns."""
    rates = spec.rate_set.rates
    level = len(prefix)
    if level == len(rates):
        vectors, loads, totals = out
        vectors.append(tuple(prefix))
        loads.append(load)
        totals.append(used)
        if len(vectors) > DEFAULT_STATE_CAP:
            raise CapacityError(
                f"state space exceeds {DEFAULT_STATE_CAP} states; reduce the cluster size, "
                f"rate count, or capacity"
            )
        return
    d = rates[level]
    k_max = spec.cluster_size - used
    if not math.isinf(load_limit):
        k_max = min(k_max, int((load_limit - load) // d))
    for k in range(k_max + 1):
        new_load = load + k * d
        if new_load > load_limit:
            break
        prefix.append(k)
        _walk(spec, load_limit, out, prefix, used + k, new_load)
        prefix.pop()


def product_form(
    spec: AggregatorSpec,
    binomial_n: str = "effective",
    space: StateSpace | None = None,
) -> np.ndarray:
    """Steady-state probabilities over the feasible states.

    The chain is reversible, so each state's weight is a choose-term in
    the number of active units times a product of upgrade/downgrade rate
    ratios; the exponent of the level-i ratio is the count of units at
    level i or above. Evaluated in log space and normalized by
    log-sum-exp.

    `binomial_n` selects the unit count in the choose-term: "effective"
    caps it at the number of units the link can carry at the lowest rate;
    "true" always uses the cluster size (exact for the capacity-truncated
    chain, see `oracle.detailed_balance_check`).
    """
    if space is None:
        space = enumerate_states(spec)
    nb = _binomial_count(spec, binomial_n)
    k_mat = np.array(space.vectors, dtype=float)
    suffix = np.cumsum(k_mat[:, ::-1], axis=1)[:, ::-1]
    ratio_logs = np.array([
        math.log(spec.rates.up[i]) - math.log(spec.rates.down[i])
        for i in range(spec.rate_set.count)
    ])
    lf = np.array(log_factorials(spec.cluster_size))
    idle = nb - space.totals
    lw = np.where(
        idle >= 0,      # more active units than nb give a zero choose-term
        lf[nb] - lf[np.maximum(idle, 0)] - lf[k_mat.astype(int)].sum(axis=1)
        + suffix @ ratio_logs,
        -math.inf,
    )
    probs = np.exp(lw - logsumexp(lw))
    return probs / probs.sum()


def blocking(spec: AggregatorSpec, binomial_n: str = "effective") -> BlockingReport:
    """Blocking decomposition: the share of offered upgrade flow denied
    for lack of link capacity, split by the level the request came from.

    A state blocks upgrades out of level m when swapping one unit's rate
    d_m for d_{m+1} would take the load past the grid limit, and wake-ups
    when adding d_1 would; the offered flow aggregates every upgrade and
    wake-up attempt rate over all states. Both the total and each
    component lie in [0, 1] by construction.

    The product form is a multinomial over nb units truncated at the
    link, so every flow is one unit facing the other nb - 1: row l of one
    table is a unit at level l (0 = idle) with the others at L - s_l,
    w_l [f^(nb-1)]_(L - s_l) (w_0 = 1, s_0 = 0), and level l's flow at
    load L is that row times nb up_l. Under "effective" the N - nb spare
    units idle in every state, whose summed weight [f^nb]_L is the
    table's column L, and wake at up_0 each. A flow is blocked at the
    loads L > G - jump, so each level's blocked flow sums the suffix of
    its row from G + 1 - jump.

    Nearly all the time goes to that one power (`_log_powers`): t = 0,
    and a second tilt only where t = 0 leaves the loads near the grid
    limit G unresolved; each tilt is about 2 log2(nb) direct convolutions
    of at most G + 1 loads, at most about 3/4 (G + 1)^2 multiply-adds
    each, with no exponential per term. `log_total` is log P_B from the
    same log flows, finite wherever the link blocks, even where `total`
    underflows to 0.0.
    """
    nb = _binomial_count(spec, binomial_n)
    gmax = spec.grid_limit
    up, down = spec.rates.up, spec.rates.down
    log_w = np.cumsum(np.log(up) - np.log(down))
    log_fm1 = _log_powers(log_w, spec.rate_set.steps, gmax, nb)
    table = np.full((len(up) + 1, gmax + 1), -math.inf)
    for row, s, lw in zip(table, (0,) + spec.rate_set.steps, [0.0, *log_w]):
        row[s:] = log_fm1[:max(gmax + 1 - s, 0)] + lw
    # logs of nb and of each rate added, not of their product, which
    # overflows at a huge mu
    flows = table[:-1] + (math.log(nb) + np.log(up))[:, None]
    spare = spec.cluster_size - nb
    if spare:
        flows[0] = np.logaddexp(flows[0], np.logaddexp.reduce(table, axis=0)
                                + (math.log(spare) + math.log(up[0])))
    log_offered = logsumexp(flows)
    log_blocked = [logsumexp(row[max(gmax + 1 - jump, 0):])
                   for row, jump in zip(flows, spec.rate_set.jumps)]
    per_rate = tuple(math.exp(b - log_offered) for b in log_blocked)
    return BlockingReport(
        per_rate=per_rate,
        total=float(sum(per_rate)),
        binomial_n=nb,
        convention=binomial_n,
        log_total=logsumexp_floats(log_blocked) - log_offered,
    )


#: A product drops its leading probabilities below the smallest normal
#: float (`_times`): they are subnormal or zero.
_UNDERFLOW = np.finfo(float).tiny
#: Tilted probabilities below this read -inf. What n unit factors dropped
#: or underflowed moves a probability of p^n by about n `_UNDERFLOW`
#: (see `_times`), a relative n eps from here on: the order of the
#: rounding of the sums themselves.
_RESOLVED = _UNDERFLOW / np.finfo(float).eps
#: A product whose full length passes the grid splits its shorter factor
#: in halves from this many loads a half (`_times`).
_SPLIT_FROM = 64
#: A power whose t = 0 probabilities at the loads G - s_M..G all lie below
#: this leaves the grid edge to a tilt at G (see `_log_powers`).
_EDGE_RESOLVED = 1e-20


def _log_powers(log_w: np.ndarray, steps: tuple[int, ...], gmax: int,
                nb: int) -> np.ndarray:
    """Log coefficients of f^(nb-1) up to x^gmax, where
    f(x) = 1 + sum_l w_l x^(s_l) is one unit: off, or at level l.

    Tilted by t, one unit is the probability vector p_(s_l) =
    w_l e^(t s_l) / f(e^t), p_0 = 1 / f(e^t), and
    [f^n]_L = f(e^t)^n e^(-L t) [p^n]_L. p^(nb-1) comes from binary
    powering by direct convolutions cut at x^gmax (`_times`). Every
    product adds only positive terms, so a coefficient keeps its relative
    accuracy while its tilted probability is at least `_RESOLVED` (below
    it reads -inf), and a zero stays exactly zero.

    t = 0 comes first. The power's probabilities sum to at most 1, so its
    largest over the loads 0..G + s_M is at least its largest, P_edge,
    over the edge G - s_M..G, and a coefficient within e^-600 of the
    largest over 0..G + s_M (the contract of `tests/test_log_powers.py`)
    has P >= e^-600 P_edge. With P_edge >= `_EDGE_RESOLVED` that is at
    least e^-600 1e-20 ~ 2.6e-281, while what the products underflowed or
    dropped moves it by about nb `_UNDERFLOW` (`_times`), under 1e-302 up
    to 10^5 units: the power is resolved. Only when G < nb s_M and its
    edge lies below `_EDGE_RESOLVED` is the tilt that puts nb units' mean
    load at G added; it resolves the loads near G, where `blocking` reads
    the blocked flows, however far in a tail of t = 0 they lie, and each
    load takes the tilt with the larger P. A load just under G in a
    lattice hole (an odd load under 1 + e^-500 x + e^500 x^2) may still
    read -inf: under every tilt it is more than the float range below a
    load past G.

    A tilt costs about 2 log2(nb) convolutions of at most about
    3/4 (G + 1)^2 multiply-adds each, fewer where a low tail underflowed,
    and a few rows of 2G + 1 floats.
    """
    unit = list(zip((0,) + steps, [0.0] + log_w.tolist()))
    tilts = [_tilted_power(unit, 0.0, gmax, nb - 1)]
    _, _, prob, first = tilts[0]
    # t = 0 leaves every load G - s_M..G below _EDGE_RESOLVED
    if gmax < nb * steps[-1] and (prob[max(gmax - steps[-1] - first, 0):] < _EDGE_RESOLVED).all():
        # a grid of load 0 alone (G = 0) tilts to half a load
        tilts.append(_tilted_power(unit, _tilt(unit, max(gmax, 0.5) / nb), gmax, nb - 1))
    loads = np.arange(gmax + 1)
    out = np.full(gmax + 1, -math.inf)
    best = np.zeros(gmax + 1)
    for t, log_z, prob, first in tilts:
        span = slice(first, first + len(prob))
        better = (prob >= _RESOLVED) & (prob > best[span])
        best[span][better] = prob[better]
        out[span][better] = (nb - 1) * log_z - loads[span][better] * t + np.log(prob[better])
    return out


def _tilted_power(unit: list[tuple[int, float]], t: float, gmax: int, n: int):
    """(t, log f(e^t), probabilities, first load) of p^n up to x^gmax for
    the unit tilted by t."""
    log_z = _tilted(unit, t)[0]
    p = np.zeros(min(unit[-1][0], gmax) + 1)
    for s, lw in unit:
        if s <= gmax:
            p[s] = math.exp(lw + t * s - log_z)
    power, base = (np.ones(1), 0), (p, 0)
    while n:
        if n & 1:
            power = _times(*power, *base, gmax)
        n >>= 1
        if n:
            base = _times(*base, *base, gmax)
    return t, log_z, *power


def _times(a: np.ndarray, a_first: int, b: np.ndarray, b_first: int,
           gmax: int) -> tuple[np.ndarray, int]:
    """The product of two probability rows, given with their first loads,
    cut at x^gmax and with its leading probabilities below `_UNDERFLOW`
    dropped, as (row, first load); a row of nothing starts past gmax.
    A row sums to at most 1, so what is missing from a factor moves no
    entry of the product by more than the factor's largest missing entry;
    each product of binary powering adds at most `_UNDERFLOW` to that, and
    p^n, made of n unit factors, about n `_UNDERFLOW` in all.

    When the full product would pass gmax, the shorter factor b is split
    in halves: its upper half meets only the part of a that lands at or
    under gmax, which saves up to a quarter of the multiply-adds."""
    first = a_first + b_first
    if first > gmax:
        return np.zeros(0), gmax + 1
    keep = gmax + 1 - first
    if len(a) < len(b):
        a, b = b, a
    half = len(b) // 2
    if _SPLIT_FROM <= half < keep < len(a) + len(b) - 1:
        prod = np.zeros(keep)
        low = np.convolve(a, b[:half])[:keep]
        prod[:len(low)] = low
        prod[half:] += np.convolve(a[:keep - half], b[half:])[:keep - half]
    else:
        prod = np.convolve(a, b)[:keep]
    if prod[0] < _UNDERFLOW:
        normal = prod >= _UNDERFLOW
        lead = int(normal.argmax())
        if not normal[lead]:
            return np.zeros(0), gmax + 1
        prod, first = prod[lead:], first + lead
    return prod, first


def _tilted(unit: list[tuple[int, float]], t: float) -> tuple[float, float, float]:
    """log f(e^t), and the mean and variance of one unit's load tilted by
    t, for the unit's states as (load, log weight) pairs."""
    logs = [lw + t * s for s, lw in unit]
    top = max(logs)
    weights = [math.exp(x - top) for x in logs]
    total = sum(weights)
    mean = sum(w * s for w, (s, _) in zip(weights, unit)) / total
    var = sum(w * (s - mean) ** 2 for w, (s, _) in zip(weights, unit)) / total
    return top + math.log(total), mean, var


def _tilt(unit: list[tuple[int, float]], mean: float) -> float:
    """A tilt at which one unit's mean load is `mean` (0 < mean < s_M)
    within 1e-3 of its distance to either end.

    Newton steps on t, each kept inside a bisection bracket. The bracket
    starts from bounds on the tilted mean m(t): m(t) <= s_M W e^t for
    t <= 0, with W the sum of the level weights, and
    s_M - m(t) <= s_M e^(-t) (1 + W') / w_M for t >= 0, with W' the sum
    of the weights below the top level."""
    s_top, log_top = unit[-1]
    lo = min(0.0, math.log(mean / s_top) - _tilted(unit[1:], 0.0)[0])
    hi = max(0.0, math.log(s_top / (s_top - mean)) + _tilted(unit[:-1], 0.0)[0] - log_top)
    tol = 1e-3 * min(mean, s_top - mean)
    t = 0.0
    while True:
        _, m, var = _tilted(unit, t)
        if abs(m - mean) <= tol:
            return t
        if m < mean:
            lo = t
        else:
            hi = t
        step = t - (m - mean) / var if var > 0.0 else math.nan
        t = step if lo < step < hi else 0.5 * (lo + hi)
        if not lo < t < hi:
            return t    # the bracket is down to two adjacent floats


def spec_from_planning(planning: PlanningConfig) -> AggregatorSpec:
    """Assemble the cluster spec from a planning configuration: derive the
    per-unit level-transition rates, then attach cluster size and link."""
    return AggregatorSpec(
        cluster_size=planning.cluster_size,
        rate_set=planning.rate_set,
        link_capacity_mbps=planning.link_capacity_mbps,
        rates=transition_rates(RruChainSpec.from_planning(planning)),
    )


def blocking_for_planning(planning: PlanningConfig, binomial_n: str = "effective") -> BlockingReport:
    """Blocking decomposition straight from a planning configuration."""
    return blocking(spec_from_planning(planning), binomial_n=binomial_n)
