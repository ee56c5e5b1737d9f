"""Cluster-level model: N rate-switching units sharing one link.

The cluster state is the occupancy vector k = (k_1..k_M) counting units
per rate level. Feasible states keep both the unit count and the summed
line rate within bounds. The chain built from the per-unit level rates
is reversible, so its steady state has a product form; blocking is the
share of offered level-upgrade flow (wake-ups included) that lands in
states where the needed extra bandwidth does not fit.

When every rate is an integer multiple of the lowest, blocking is a
convolution over the link load in lowest-rate units and no state is
listed; the enumerated state space is the oracle for that path and the
fallback off the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._logspace import log_factorials, logsumexp
from .config import PlanningConfig, RateSet
from .errors import CapacityError, InvalidParameterError
from .rru import RruChainSpec, RruRates, transition_rates

#: Refuse to enumerate more states than this.
DEFAULT_STATE_CAP = 5_000_000
#: Dense generator assembly is quadratic in states; cap it separately.
_GENERATOR_STATE_CAP = 5_000
#: Slack for floating-point comparisons against the link capacity (Mbit/s).
_CAPACITY_SLACK = 1e-6

_CONVENTIONS = ("effective", "true")


@dataclass(frozen=True)
class AggregatorSpec:
    """Cluster description: size, selectable rates, link capacity, and the
    per-unit level-transition rates driving upgrades and downgrades."""

    cluster_size: int
    rate_set: RateSet
    link_capacity_mbps: float
    rates: RruRates

    def __post_init__(self) -> None:
        if not isinstance(self.cluster_size, int) or self.cluster_size < 1:
            raise InvalidParameterError(f"cluster_size must be an integer >= 1, got {self.cluster_size!r}")
        if not self.link_capacity_mbps > self.rate_set.rates[0]:
            raise InvalidParameterError("link capacity must exceed the lowest rate")
        if self.rates.level_count != self.rate_set.count:
            raise InvalidParameterError(
                f"rate count mismatch: {self.rates.level_count} transition-rate levels "
                f"vs {self.rate_set.count} rates"
            )

    @property
    def lam(self) -> float:
        """Per-unit wake-up arrival rate."""
        return self.rates.up[0]


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


def max_rru(link_capacity_mbps: float, lowest_rate_mbps: float) -> int:
    """Largest number of units that fit on the link at the lowest rate."""
    if not link_capacity_mbps > 0 or not lowest_rate_mbps > 0:
        raise InvalidParameterError("capacity and rate must be positive")
    if math.isinf(link_capacity_mbps):
        raise InvalidParameterError("link capacity must be finite")
    return int(math.floor(link_capacity_mbps / lowest_rate_mbps + 1e-9))


def _binomial_count(spec: AggregatorSpec, convention: str) -> int:
    if convention not in _CONVENTIONS:
        raise InvalidParameterError(
            f"binomial_n must be one of {_CONVENTIONS}, got {convention!r}"
        )
    if convention == "true" or math.isinf(spec.link_capacity_mbps):
        return spec.cluster_size
    return min(spec.cluster_size, max_rru(spec.link_capacity_mbps, spec.rate_set.rates[0]))


def enumerate_states(spec: AggregatorSpec, state_cap: int = DEFAULT_STATE_CAP) -> StateSpace:
    """All occupancy vectors with total units <= N and load <= capacity,
    in lexicographic order."""
    vectors: list[tuple[int, ...]] = []
    loads: list[float] = []
    totals: list[int] = []
    load_limit = spec.link_capacity_mbps * (1.0 + 1e-12) + 1e-9
    _walk(spec, state_cap, load_limit, (vectors, loads, totals), [], 0, 0.0)
    return StateSpace(
        vectors=tuple(vectors),
        loads=np.array(loads),
        totals=np.array(totals, dtype=int),
    )


def _walk(spec: AggregatorSpec, state_cap: int, load_limit: float,
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
        if len(vectors) > state_cap:
            raise CapacityError(
                f"state space exceeds {state_cap} states; reduce the cluster size, "
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
        _walk(spec, state_cap, load_limit, out, prefix, used + k, new_load)
        prefix.pop()


def _grid_steps(spec: AggregatorSpec) -> tuple[int, ...] | None:
    """Each rate in units of the lowest, or None when the link is unbounded
    or some rate is not an integer multiple (to 1e-9 relative) of the lowest."""
    rates = spec.rate_set.rates
    if math.isinf(spec.link_capacity_mbps):
        return None
    steps = tuple(int(round(r / rates[0])) for r in rates)
    if any(abs(s * rates[0] - r) > 1e-9 * r for s, r in zip(steps, rates)):
        return None
    return steps


def count_states(spec: AggregatorSpec) -> int:
    """Number of feasible occupancy vectors, `len(enumerate_states(spec))`.

    On the rate grid the vectors are counted over (active units, load in
    lowest-rate units) without listing them; off the grid they are listed.
    """
    steps = _grid_steps(spec)
    if steps is None:
        return len(enumerate_states(spec))
    gmax = max_rru(spec.link_capacity_mbps, spec.rate_set.rates[0])
    units = min(spec.cluster_size, gmax)     # every active unit takes >= 1 grid unit
    counts = np.zeros((units + 1, gmax + 1), dtype=object)
    counts[0, 0] = 1
    for s in steps:
        # any number of units at this level: c'[t, L] = c[t, L] + c'[t-1, L-s]
        for t in range(1, units + 1):
            counts[t, s:] += counts[t - 1, :max(gmax + 1 - s, 0)]
    return int(counts.sum())


def transition_rate(
    k_from: tuple[int, ...], k_to: tuple[int, ...], spec: AggregatorSpec
) -> float:
    """Rate of the direct transition between two feasible states; zero for
    non-adjacent pairs."""
    m = spec.rate_set.count
    if len(k_from) != m or len(k_to) != m:
        raise InvalidParameterError(f"states must have {m} components")
    diff = [b - a for a, b in zip(k_from, k_to)]
    nonzero = [(i, d) for i, d in enumerate(diff) if d != 0]
    if len(nonzero) == 1:
        i, d = nonzero[0]
        if i == 0 and d == 1:
            # wake-up of one idle unit
            return (spec.cluster_size - sum(k_from)) * spec.rates.up[0]
        if i == 0 and d == -1:
            return k_from[0] * spec.rates.down[0]
        return 0.0
    if len(nonzero) == 2:
        (i, di), (j, dj) = nonzero
        if j == i + 1 and di == -1 and dj == 1:
            # one unit upgrades from level i+1 to level i+2 (1-based)
            return k_from[i] * spec.rates.up[i + 1]
        if j == i + 1 and di == 1 and dj == -1:
            return k_from[j] * spec.rates.down[j]
        return 0.0
    return 0.0


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
    index = {k: i for i, k in enumerate(space.vectors)}
    m = spec.rate_set.count
    q = np.zeros((n, n))
    for i, k in enumerate(space.vectors):
        neighbors = []
        up = list(k)
        up[0] += 1
        neighbors.append(tuple(up))
        down = list(k)
        down[0] -= 1
        neighbors.append(tuple(down))
        for level in range(m - 1):
            shift = list(k)
            shift[level] -= 1
            shift[level + 1] += 1
            neighbors.append(tuple(shift))
            shift = list(k)
            shift[level] += 1
            shift[level + 1] -= 1
            neighbors.append(tuple(shift))
        for dst in neighbors:
            j = index.get(dst)
            if j is None:
                continue
            rate = transition_rate(k, dst, spec)
            if rate > 0.0:
                q[i, j] += rate
                q[i, i] -= rate
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


def blocking(
    spec: AggregatorSpec,
    binomial_n: str = "effective",
    space: StateSpace | None = None,
) -> BlockingReport:
    """Blocking decomposition: the share of offered upgrade flow denied
    for lack of link capacity, split by the level the request came from.

    A state blocks upgrades out of level m when swapping one unit's rate
    d_m for d_{m+1} would exceed the capacity, and wake-ups when adding
    d_1 would; the offered flow aggregates every upgrade and wake-up
    attempt rate over all states. Both the total and each component lie
    in [0, 1] by construction.

    Without `space`, a finite link and rates that are integer multiples
    of the lowest one are solved by convolution over the load
    (`_grid_blocking`); otherwise the states are enumerated.
    """
    if space is None:
        steps = _grid_steps(spec)
        if steps is not None:
            return _grid_blocking(spec, binomial_n, steps)
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


def _log_powers(log_w: np.ndarray, steps: tuple[int, ...], gmax: int,
                nb: int) -> tuple[np.ndarray, np.ndarray]:
    """Log coefficients of f^(nb-1) and f^nb up to x^gmax, where
    f(x) = 1 + sum_l w_l x^(s_l) is one unit: off, or at level l.

    Multiplying by f one unit at a time adds only positive terms, so
    every coefficient keeps its relative accuracy however small it is.
    """
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


def _grid_blocking(spec: AggregatorSpec, binomial_n: str,
                   steps: tuple[int, ...]) -> BlockingReport:
    """`blocking` for rates on an integer grid of the lowest rate.

    The product form is a multinomial over nb units truncated at the
    link, so the summed weight of the states at load L (in lowest-rate
    units) is the coefficient [f^nb]_L. The idle units at load L weigh
    (N - nb) [f^nb]_L + nb [f^(nb-1)]_L, and the units at level l weigh
    nb w_l [f^(nb-1)]_(L - s_l); a flow at load L is blocked when its
    jump in load takes it past gmax.
    """
    nb = _binomial_count(spec, binomial_n)
    gmax = max_rru(spec.link_capacity_mbps, spec.rate_set.rates[0])
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
    jumps = np.diff(steps, prepend=0)
    past = np.arange(gmax + 1) + jumps[:, None] > gmax
    log_blocked = logsumexp(np.where(past, flows, -math.inf), axis=1)
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
    index = {k: i for i, k in enumerate(space.vectors)}
    m = spec.rate_set.count
    worst = 0.0
    for i, k in enumerate(space.vectors):
        neighbors = []
        up = list(k)
        up[0] += 1
        neighbors.append(tuple(up))
        for level in range(m - 1):
            shift = list(k)
            shift[level] -= 1
            shift[level + 1] += 1
            neighbors.append(tuple(shift))
        for dst in neighbors:
            j = index.get(dst)
            if j is None:
                continue
            forward = probs[i] * transition_rate(k, dst, spec)
            backward = probs[j] * transition_rate(dst, k, spec)
            worst = max(worst, abs(forward - backward))
    return worst


def spec_from_planning(planning: PlanningConfig) -> AggregatorSpec:
    """Assemble the cluster spec from a planning configuration: derive the
    per-unit level-transition rates, then attach cluster size and link."""
    chain = RruChainSpec(rate_set=planning.rate_set, thresholds=planning.thresholds,
                         traffic=planning.traffic)
    return AggregatorSpec(
        cluster_size=planning.cluster_size,
        rate_set=planning.rate_set,
        link_capacity_mbps=planning.link_capacity_mbps,
        rates=transition_rates(chain),
    )


def blocking_for_planning(planning: PlanningConfig, binomial_n: str = "effective") -> BlockingReport:
    """Blocking decomposition straight from a planning configuration."""
    return blocking(spec_from_planning(planning), binomial_n=binomial_n)
