"""Cluster-level model: N rate-switching units sharing one link.

The cluster state is the occupancy vector k = (k_1..k_M) counting units
per rate level. Feasible states keep both the unit count and the summed
line rate within bounds. The chain built from the per-unit level rates
is reversible, so its steady state has a product form; blocking is the
share of offered level-upgrade flow (wake-ups included) that lands in
states where the needed extra bandwidth does not fit.

Every rate is an integer multiple of the rate set's grid unit, so a load
is an integer on a grid that ends at the rate set's grid limit. Blocking
and the state count are convolutions over that grid, and no state is
listed. The enumerated state space (`enumerate_states`, `product_form`,
`build_generator`, `detailed_balance_check`) is the oracle for that path;
only `vrfplan validate` and the tests use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._logspace import log_factorials, logsumexp
from .config import PlanningConfig, RateSet, _is_number
from .errors import CapacityError, InvalidParameterError
from .rru import RruChainSpec, RruRates, transition_rates

#: Refuse to enumerate more states than this.
DEFAULT_STATE_CAP = 5_000_000
#: Dense generator assembly is quadratic in states; cap it separately.
_GENERATOR_STATE_CAP = 5_000

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
        if (not isinstance(self.cluster_size, int) or isinstance(self.cluster_size, bool)
                or self.cluster_size < 1):
            raise InvalidParameterError(f"cluster_size must be an integer >= 1, got {self.cluster_size!r}")
        if (not _is_number(self.link_capacity_mbps)
                or not self.link_capacity_mbps > self.rate_set.rates[0]):
            raise InvalidParameterError(
                f"link capacity must be a number above the lowest rate, got {self.link_capacity_mbps!r}")
        if self.rates.level_count != self.rate_set.count:
            raise InvalidParameterError(
                f"rate count mismatch: {self.rates.level_count} transition-rate levels "
                f"vs {self.rate_set.count} rates"
            )

    @property
    def lam(self) -> float:
        """Per-unit wake-up arrival rate."""
        return self.rates.up[0]

    @property
    def grid_limit(self) -> int:
        """Largest load the link admits, in grid units of the rate set."""
        return self.rate_set.grid_limit(self.link_capacity_mbps, self.cluster_size)


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


def count_states(spec: AggregatorSpec) -> int:
    """Number of feasible occupancy vectors, `len(enumerate_states(spec))`,
    counted over (active units, load in grid units) without listing them."""
    steps = spec.rate_set.steps
    gmax = spec.grid_limit
    units = min(spec.cluster_size, gmax // steps[0])
    if units * steps[-1] <= gmax:
        # every vector fits the link: C(units + M, M) of them, no table
        return math.comb(units + len(steps), len(steps))
    # machine integers where no count can pass C(units + M, M), the number
    # of vectors of at most `units` units: ~10x faster and smaller
    exact = np.int64 if math.comb(units + len(steps), len(steps)) < 2**63 else object
    counts = np.zeros((units + 1, gmax + 1), dtype=exact)
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
    nb w_l [f^(nb-1)]_(L - s_l); a flow at load L is blocked when its
    jump in load takes it past the grid limit.

    Nearly all the time goes to those two powers (`_log_powers`): about
    nb · (M + 1) · G log-sum-exp terms below 32 units, and about
    nb · s_M · G exponentials, in (nb - 1) / b array passes of b units
    each, from there on (G the grid limit, s_M the top rate's step).
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


#: Below this many units f^nb is built one unit at a time.
_BLOCKED_FROM = 32
#: Largest load span b * s_M of one block f^b, which bounds the scratch
#: of a block product at _MAX_SPAN + 1 rows of the grid.
_MAX_SPAN = 64
#: Terms this far below their load's largest are raised to it before
#: `exp`: each is then under 1e-304 and cannot move a sum of at least 1,
#: and `exp` never takes its slow path to a subnormal or zero result.
_EXP_FLOOR = -700.0


def _block_size(nb: int, top_step: int) -> int:
    """Units per block: 1 below `_BLOCKED_FROM` units, else the power of
    two nearest sqrt(nb)/2 (on a log scale), halved until its span
    b * s_M fits `_MAX_SPAN`."""
    b = 1
    if nb >= _BLOCKED_FROM:
        while 8 * b * b <= nb and 2 * b * top_step <= _MAX_SPAN:
            b *= 2
    return b


def _log_powers(log_w: np.ndarray, steps: tuple[int, ...], gmax: int,
                nb: int) -> tuple[np.ndarray, np.ndarray]:
    """Log coefficients of f^(nb-1) and f^nb up to x^gmax, where
    f(x) = 1 + sum_l w_l x^(s_l) is one unit: off, or at level l.

    Below `_BLOCKED_FROM` units the powers are built one unit at a time
    (`_times_unit`). From there on they are built a block of b units at a
    time: f^b and f^r, r = (nb - 1) mod b, come from b unit steps on the
    block's span, each of the (nb - 1) // b block products (`_times_block`)
    adds b units, and one unit step gives f^nb. Every product adds only
    positive terms, so every coefficient keeps its relative accuracy
    however small it is, and the fewer products round fewer times.
    """
    terms = np.full((len(steps) + 1, gmax + 1), -math.inf)
    b = _block_size(nb, steps[-1])
    if b == 1:
        g = np.full(gmax + 1, -math.inf)
        g[0] = 0.0
        for _ in range(nb - 1):
            g = _times_unit(g, log_w, steps, terms)
    else:
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
            block = _times_unit(block, log_w, steps, terms[:, :span + 1])
        windows = np.lib.stride_tricks.sliding_window_view(padded, gmax + 1)
        scratch = np.empty((span + 1, gmax + 1))
        kernel = np.ascontiguousarray(block[::-1, None])
        degree = rest * steps[-1]
        for _ in range(blocks):
            # f^n is zero above n * s_M: only the loads up to there are summed
            degree = min(degree + span, gmax)
            padded[span:span + degree + 1] = _times_block(windows[:, :degree + 1], kernel,
                                                          scratch[:, :degree + 1])
        g = padded[span:]
    return g, _times_unit(g, log_w, steps, terms)


def _times_unit(g: np.ndarray, log_w: np.ndarray, steps: tuple[int, ...],
                terms: np.ndarray) -> np.ndarray:
    """Log coefficients of g·f: one log-sum-exp over the unit's M + 1
    states. `terms` is scratch of (M + 1) rows as wide as g, -inf below
    each row's step."""
    terms[0] = g
    for row, (lw, s) in enumerate(zip(log_w, steps), start=1):
        terms[row, s:] = g[:max(len(g) - s, 0)] + lw
    return np.logaddexp.reduce(terms, axis=0)


def _times_block(windows: np.ndarray, kernel: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Log coefficients of g·h for a block h of span k = len(kernel) - 1.

    `windows[j]` is g shifted up by k - j loads (-inf below the shift) and
    `kernel[j]` is the log coefficient k - j of h, so row j of `scratch`
    holds every term with that coefficient of h. Each load's terms are
    shifted by their maximum, so their sum lies in [1, k + 1]; a load with
    no term stays -inf."""
    np.add(windows, kernel, out=scratch)
    top = scratch.max(axis=0)
    empty = top == -math.inf
    top[empty] = 0.0
    scratch -= top
    np.maximum(scratch, _EXP_FLOOR, out=scratch)
    np.exp(scratch, out=scratch)
    out = scratch.sum(axis=0)
    np.log(out, out=out)
    out += top
    out[empty] = -math.inf
    return out


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
    return AggregatorSpec(
        cluster_size=planning.cluster_size,
        rate_set=planning.rate_set,
        link_capacity_mbps=planning.link_capacity_mbps,
        rates=transition_rates(RruChainSpec.from_planning(planning)),
    )


def blocking_for_planning(planning: PlanningConfig, binomial_n: str = "effective") -> BlockingReport:
    """Blocking decomposition straight from a planning configuration."""
    return blocking(spec_from_planning(planning), binomial_n=binomial_n)
