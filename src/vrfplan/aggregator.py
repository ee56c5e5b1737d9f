"""Cluster-level model: N rate-switching units sharing one link.

The cluster state is the occupancy vector k = (k_1..k_M) counting units
per rate level. Feasible states keep both the unit count and the summed
line rate within bounds. The chain built from the per-unit level rates
is reversible, so its steady state has a product form; blocking is the
share of offered level-upgrade flow (wake-ups included) that lands in
states where the needed extra bandwidth does not fit.

Every rate is an integer multiple of the rate set's grid unit, so a load
is an integer on a grid that ends at the rate set's grid limit G. Blocking
and the state count are convolutions over that grid, and no state is
listed. Blocking reads the powers of one unit's polynomial, built from
tilted probabilities by direct convolutions of positive terms: its cost
grows as log(N) G^2, not with the state count. The enumerated state
space (`enumerate_states`, `product_form`, `build_generator`,
`detailed_balance_check`) is the oracle for that path; only the suites
of `vrfplan.oracle` and the tests use it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ._logspace import log_factorials, logsumexp
from .config import PlanningConfig, RateSet, check_cluster
from .errors import CapacityError, InvalidConfigError, InvalidParameterError
from .rru import RruChainSpec, RruRates, transition_rates

#: Refuse to enumerate more states than this.
DEFAULT_STATE_CAP = 5_000_000
#: Refuse to count states over a table of more bytes than this: 8 a cell
#: for int64, or a pointer and a Python integer once a count can pass 2**63.
_COUNT_BYTE_CAP = 2**28
#: Dense generator assembly is quadratic in states; cap it separately.
_GENERATOR_STATE_CAP = 5_000

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

    def index_of(self, k: tuple[int, ...]) -> int:
        return self.vectors.index(k)


@dataclass(frozen=True)
class BlockingReport:
    """Per-flow and total blocking of the cluster.

    `per_rate[0]` is the blocked share attributable to wake-ups of idle
    units; `per_rate[m]` for m >= 1 to upgrades out of level m. Each
    component is that flow's blocked fraction of the total offered
    upgrade flow, so the components sum to `total` and all lie in [0, 1].
    """

    per_rate: tuple[float, ...]
    total: float
    binomial_n: int
    offered_flow: float
    blocked_flow: float
    convention: str


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


def count_states(spec: AggregatorSpec) -> int:
    """Number of feasible occupancy vectors, `len(enumerate_states(spec))`,
    counted over (active units, load in grid units) without listing them.
    A table of more than `_COUNT_BYTE_CAP` bytes raises `CapacityError`."""
    steps = spec.rate_set.steps
    gmax = spec.grid_limit
    units = min(spec.cluster_size, gmax // steps[0])
    # the number of vectors of at most `units` units, which bounds every count
    most = math.comb(units + len(steps), len(steps))
    if units * steps[-1] <= gmax:
        # every vector fits the link: all of them, no table
        return most
    cells = (units + 1) * (gmax + 1)
    # machine integers where no count can pass `most`: ~10x faster and
    # smaller; past 2**63 a cell points to an integer of up to `most`'s size
    exact = np.int64 if most < 2**63 else object
    size = cells * (8 if exact is np.int64 else 8 + sys.getsizeof(most))
    if size > _COUNT_BYTE_CAP:
        raise CapacityError(
            f"counting states for N={spec.cluster_size}, G={gmax} needs a table of "
            f"{cells} cells, {size} bytes, over the {_COUNT_BYTE_CAP}-byte cap"
        )
    counts = np.zeros((units + 1, gmax + 1), dtype=exact)
    counts[0, 0] = 1
    for s in steps:
        # any number of units at this level: c'[t, L] = c[t, L] + c'[t-1, L-s]
        for t in range(1, units + 1):
            counts[t, s:] += counts[t - 1, :max(gmax + 1 - s, 0)]
    return int(counts.sum())


def _upward_moves(spec: AggregatorSpec, space: StateSpace):
    """Each pair of feasible states one wake-up or one upgrade apart, as
    (i, j, rate i -> j, rate j -> i) with j the state above i.

    The move into `level` (0-based) goes up at `movers * up[level]`, where
    the movers are the idle units, N - sum(k), for a wake-up and the units
    one level lower, k[level - 1], for an upgrade; it comes back down at
    `dst[level] * down[level]`."""
    n = spec.cluster_size
    up, down = spec.rates.up, spec.rates.down
    index = {k: i for i, k in enumerate(space.vectors)}
    for i, k in enumerate(space.vectors):
        for level in range(len(k)):
            dst = list(k)
            dst[level] += 1
            if level:
                dst[level - 1] -= 1
                movers = k[level - 1]
            else:
                movers = n - sum(k)
            j = index.get(tuple(dst))
            if j is not None:
                yield i, j, movers * up[level], dst[level] * down[level]


def build_generator(spec: AggregatorSpec, space: StateSpace | None = None) -> np.ndarray:
    """Dense rate matrix over the feasible states, for direct solving.

    Intended as an oracle on small instances; large state spaces are
    rejected.
    """
    if space is None:
        space = enumerate_states(spec)
    n = len(space)
    if n > _GENERATOR_STATE_CAP:
        raise CapacityError(
            f"dense generator for {n} states exceeds the {_GENERATOR_STATE_CAP}-state cap"
        )
    q = np.zeros((n, n))
    for i, j, up, down in _upward_moves(spec, space):
        q[i, j] = up
        q[j, i] = down
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


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
    chain, see `detailed_balance_check`).
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
    lf = log_factorials(spec.cluster_size)
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
    link, so the summed weight of the states at load L (in grid units) is
    the coefficient [f^nb]_L. The idle units at load L weigh
    (N - nb) [f^nb]_L + nb [f^(nb-1)]_L, and the units at level l weigh
    nb w_l [f^(nb-1)]_(L - s_l); a flow is blocked at the loads L > G - jump,
    so each level's blocked flow sums the suffix of its row from G + 1 - jump.

    Nearly all the time goes to those two powers (`_log_powers`): one or
    two tilts, each about 2 log2(nb) direct convolutions of at most G + 1
    loads (G the grid limit), so at most about 4 log2(nb) (G + 1)^2
    multiply-adds, with no exponential per term.
    """
    nb = _binomial_count(spec, binomial_n)
    steps = spec.rate_set.steps
    gmax = spec.grid_limit
    up, down = spec.rates.up, spec.rates.down
    log_w = np.cumsum(np.log(up) - np.log(down))
    log_fm1, log_f = _log_powers(log_w, steps, gmax, nb)
    spare = spec.cluster_size - nb
    idle = log_fm1 + math.log(nb)
    if spare:
        idle = np.logaddexp(idle, log_f + math.log(spare))
    flows = np.full((len(steps), gmax + 1), -math.inf)
    flows[0] = idle + math.log(up[0])
    for level in range(1, len(steps)):
        s = steps[level - 1]
        flows[level, s:] = (log_fm1[:max(gmax + 1 - s, 0)] + math.log(nb) + log_w[level - 1]
                            + math.log(up[level]))
    log_offered = logsumexp(flows)
    log_blocked = [logsumexp(row[max(gmax + 1 - jump, 0):])
                   for row, jump in zip(flows, spec.rate_set.jumps)]
    per_rate = tuple(math.exp(b - log_offered) for b in log_blocked)
    log_z = logsumexp(log_f)
    return BlockingReport(
        per_rate=per_rate,
        total=float(sum(per_rate)),
        binomial_n=nb,
        offered_flow=math.exp(log_offered - log_z),
        blocked_flow=math.fsum(math.exp(b - log_z) for b in log_blocked),
        convention=binomial_n,
    )


#: Tilted probabilities below the smallest normal float read -inf: a
#: subnormal has lost digits.
_RESOLVED = np.finfo(float).tiny


def _log_powers(log_w: np.ndarray, steps: tuple[int, ...], gmax: int,
                nb: int) -> tuple[np.ndarray, np.ndarray]:
    """Log coefficients of f^(nb-1) and f^nb up to x^gmax, where
    f(x) = 1 + sum_l w_l x^(s_l) is one unit: off, or at level l.

    Tilted by t, one unit is the probability vector p_(s_l) =
    w_l e^(t s_l) / f(e^t), p_0 = 1 / f(e^t), and
    [f^n]_L = f(e^t)^n e^(-L t) [p^n]_L. p^(nb-1) comes from binary
    powering by direct convolutions cut at x^gmax, p^nb from one more
    product by p. Every product adds only positive terms, so a coefficient
    keeps its relative accuracy while its tilted probability is a normal
    float (below `_RESOLVED` it reads -inf), and a zero stays exactly zero.

    Each load takes the larger probability of t = 0 and, when G < nb s_M
    and nb units' mean load lies outside [G - s_M, G], the tilt that puts
    that mean at G: that one resolves the loads near G, where `blocking`
    reads the blocked flows, however far in a tail of t = 0 they lie, and
    t = 0 the top of a power that ends near G. A load just under G in a
    lattice hole (an odd load under 1 + e^-500 x + e^500 x^2) may still
    read -inf: under every tilt it is more than the float range below a
    load past G.

    A tilt costs about 2 log2(nb) convolutions of up to (G + 1)^2
    multiply-adds, and a few rows of 2G + 1 floats.
    """
    unit = list(zip((0,) + steps, [0.0] + log_w.tolist()))
    log_z, mean, _ = _tilted(unit, 0.0)
    tilts = [(0.0, log_z)]
    if gmax < nb * steps[-1] and not gmax - steps[-1] <= nb * mean <= gmax:
        # a grid of load 0 alone (G = 0) tilts to half a load
        t = _tilt(unit, max(gmax, 0.5) / nb)
        tilts.append((t, _tilted(unit, t)[0]))
    loads = np.arange(gmax + 1)
    out = np.full((2, gmax + 1), -math.inf)
    best = np.zeros((2, gmax + 1))
    for t, log_z in tilts:
        p = np.zeros(min(steps[-1], gmax) + 1)
        for s, lw in unit:
            if s <= gmax:
                p[s] = math.exp(lw + t * s - log_z)
        power, base, k = np.ones(1), p, nb - 1
        while k:
            if k & 1:
                power = np.convolve(power, base)[:gmax + 1]
            k >>= 1
            if k:
                base = np.convolve(base, base)[:gmax + 1]
        for row, (n, prob) in enumerate(((nb - 1, power),
                                         (nb, np.convolve(power, p)[:gmax + 1]))):
            span = len(prob)
            better = (prob >= _RESOLVED) & (prob > best[row, :span])
            best[row, :span][better] = prob[better]
            out[row, :span][better] = (n * log_z - loads[:span][better] * t
                                       + np.log(prob[better]))
    return out[0], out[1]


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


def detailed_balance_check(
    spec: AggregatorSpec,
    binomial_n: str = "true",
    space: StateSpace | None = None,
) -> float:
    """Largest one-pair imbalance |P(i) q_ij - P(j) q_ji| under the
    product-form probabilities; near zero certifies reversibility."""
    if space is None:
        space = enumerate_states(spec)
    probs = product_form(spec, binomial_n, space)
    return max((abs(probs[i] * up - probs[j] * down)
                for i, j, up, down in _upward_moves(spec, space)), default=0.0)


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
