"""The exact checks behind the closed forms.

Slow, direct solves that `vrfplan validate` and the tests hold the fast
paths to:

- the GTH steady state of an irreducible rate matrix, with its input and
  irreducibility checks. State-reduction elimination uses no subtractions,
  so entries hundreds of orders of magnitude below the largest keep their
  relative accuracy;
- one unit's full (users, level) chain, whose conditional in-level
  distributions are the oracle of `rru`'s per-level coefficients;
- the dense rate matrix of the enumerated cluster chain
  (`build_generator`), whose direct solve and detailed balance
  (`detailed_balance_check`) certify `aggregator.product_form`;
- the three `validate` suites (`run_suites`).

The planning query path never imports this module; it needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import aggregator, rru, sim
from .config import DEFAULT_SERVICE_RATE, RateSet, ThresholdPolicy, TrafficSpec, config_from_dict
from .errors import CapacityError, InvalidParameterError, NumericalError, StructuralError, VrfError

#: Stationary-solve residual bound, relative to the largest exit rate.
RESIDUAL_TOL = 1e-10
_ROW_SUM_TOL = 1e-9
#: Dense generator assembly is quadratic in states; cap it.
_GENERATOR_STATE_CAP = 5_000


# ---------------------------------------------------------------------------
# stationary solve

def _check_generator(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise InvalidParameterError(f"rate matrix must be square, got shape {q.shape}")
    off = q.copy()
    np.fill_diagonal(off, 0.0)
    if off.min() < -1e-12:
        raise InvalidParameterError("off-diagonal rates must be non-negative")
    scale = max(1.0, float(np.abs(q).max()))
    if np.abs(q.sum(axis=1)).max() > _ROW_SUM_TOL * scale:
        raise InvalidParameterError("every row of a rate matrix must sum to zero")
    return q


def _reachable(edges: np.ndarray) -> np.ndarray:
    """States reachable from state 0 along the `True` entries of `edges`."""
    seen = np.zeros(edges.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen
    while frontier.any():
        frontier = edges[frontier].any(axis=0) & ~seen
        seen |= frontier
    return seen


def _assert_irreducible(off: np.ndarray) -> None:
    """Raise if the positive-rate graph is not strongly connected, naming
    the first state outside state 0's communicating class: the states that
    state 0 reaches and that reach it."""
    edges = off > 0.0
    mutual = _reachable(edges) & _reachable(edges.T)
    if not mutual.all():
        culprit = int(np.argmin(mutual))
        raise StructuralError(
            f"chain is reducible: state {culprit} and state 0 are not mutually reachable"
        )


def _gth(off: np.ndarray) -> np.ndarray:
    """Stationary vector from a non-negative off-diagonal rate (or jump
    probability) matrix by state-reduction elimination.

    Eliminates states from the highest index down, folding each state's
    flow into the survivors, then back-substitutes. Every operation is a
    sum, product, or quotient of non-negative numbers.
    """
    a = off.copy()
    n = a.shape[0]
    if n == 1:
        return np.array([1.0])
    row_total = np.empty(n)
    for k in range(n - 1, 0, -1):
        s = a[k, :k].sum()
        if s <= 0.0:
            raise StructuralError(
                f"chain is reducible: states {k}.. cannot reach the states below"
            )
        row_total[k] = s
        a[:k, :k] += np.outer(a[:k, k], a[k, :k] / s)
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = (pi[:k] @ a[:k, k]) / row_total[k]
    return pi / pi.sum()


def steady_state(q: np.ndarray) -> np.ndarray:
    """Stationary distribution of an irreducible rate matrix."""
    q = _check_generator(q)
    off = q.copy()
    np.fill_diagonal(off, 0.0)
    _assert_irreducible(off)
    pi = _gth(off)
    scale = max(1.0, float(np.abs(np.diag(q)).max()))
    residual = float(np.abs(pi @ q).max())
    if residual > RESIDUAL_TOL * scale:
        raise NumericalError(f"stationary residual {residual:.3e} exceeds tolerance")
    return pi


# ---------------------------------------------------------------------------
# one unit's full chain

@dataclass(frozen=True)
class GlobalRruChain:
    """The full (users, level) chain of one unit, with its rate matrix."""

    spec: rru.RruChainSpec
    states: tuple[tuple[int, int], ...]
    q: np.ndarray

    def index_of(self, users: int, level: int) -> int:
        return self.states.index((users, level))

    def partition_indices(self, level: int) -> tuple[int, ...]:
        """Global state indices of `level`'s partition, ascending in users."""
        wanted = set(self.spec.user_range(level))
        if level == 1:
            return tuple(
                i for i, (u, s) in enumerate(self.states)
                if (s == 1 and u in wanted) or (u, s) == (0, 0)
            )
        return tuple(i for i, (u, s) in enumerate(self.states) if s == level and u in wanted)


def build_global_chain(spec: rru.RruChainSpec) -> GlobalRruChain:
    """Assemble the unit's full (users, level) rate matrix.

    Arrivals add one user and cross to the next level exactly at the
    forward threshold; departures remove one user at rate users*mu and
    cross down exactly at the reverse threshold.
    """
    lam, mu = spec.lam, spec.traffic.mu
    states: list[tuple[int, int]] = [(0, 0)]
    for level in range(1, spec.level_count + 1):
        lo = max(spec.user_range(level).start, 1)
        for users in range(lo, spec.forward_at(level) + 1):
            states.append((users, level))
    index = {st: i for i, st in enumerate(states)}
    n = len(states)
    q = np.zeros((n, n))

    def add(src: tuple[int, int], dst: tuple[int, int], rate: float) -> None:
        i, j = index[src], index[dst]
        q[i, j] += rate
        q[i, i] -= rate

    add((0, 0), (1, 1), lam)
    for users, level in states[1:]:
        if users < spec.forward_at(level):
            add((users, level), (users + 1, level), lam)
        elif level < spec.level_count:
            add((users, level), (users + 1, level + 1), lam)
        rate = users * mu
        if users == 1 and level == 1:
            add((users, level), (0, 0), rate)
        elif level >= 2 and users - 1 == spec.reverse_before(level):
            add((users, level), (users - 1, level - 1), rate)
        else:
            add((users, level), (users - 1, level), rate)
    return GlobalRruChain(spec=spec, states=tuple(states), q=q)


def _oracle_log_coefficients(spec: rru.RruChainSpec, level: int) -> np.ndarray:
    """Conditional distribution of the level's partition from the full
    chain's steady state, expressed as log coefficients."""
    chain = build_global_chain(spec)
    part_idx = chain.partition_indices(level)
    pi = steady_state(chain.q)
    cond = pi[list(part_idx)]
    cond = cond / cond.sum()
    with np.errstate(divide="ignore"):
        lc = np.log(cond)
    return lc - lc[0]


# ---------------------------------------------------------------------------
# the enumerated cluster chain

def build_generator(spec: aggregator.AggregatorSpec,
                    space: aggregator.StateSpace | None = None) -> np.ndarray:
    """Dense rate matrix over the feasible states, for direct solving.

    Every pair of feasible states one wake-up or one upgrade apart is set
    both ways. The move into `level` (0-based) goes up at
    `movers * up[level]`, where the movers are the idle units, N - sum(k),
    for a wake-up and the units one level lower, k[level - 1], for an
    upgrade; it comes back down at `dst[level] * down[level]`.

    Intended as an oracle on small instances; large state spaces are
    rejected.
    """
    if space is None:
        space = aggregator.enumerate_states(spec)
    n = len(space)
    if n > _GENERATOR_STATE_CAP:
        raise CapacityError(
            f"dense generator for {n} states exceeds the {_GENERATOR_STATE_CAP}-state cap"
        )
    up, down = spec.rates.up, spec.rates.down
    index = {k: i for i, k in enumerate(space.vectors)}
    q = np.zeros((n, n))
    for i, k in enumerate(space.vectors):
        for level in range(len(k)):
            dst = list(k)
            dst[level] += 1
            if level:
                dst[level - 1] -= 1
                movers = k[level - 1]
            else:
                movers = spec.cluster_size - sum(k)
            j = index.get(tuple(dst))
            if j is not None:
                q[i, j] = movers * up[level]
                q[j, i] = dst[level] * down[level]
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def detailed_balance_check(probs: np.ndarray, q: np.ndarray) -> float:
    """Largest one-pair imbalance |P(i) q_ij - P(j) q_ji| of the
    probabilities under the rate matrix; near zero certifies that the
    chain is reversible with these probabilities."""
    flux = probs[:, None] * q
    return float(np.abs(flux - flux.T).max())


# ---------------------------------------------------------------------------
# validate suites

_TABLE_CAPACITIES = (3, 6, 12, 25, 37, 50)


def _random_chain_spec(rng: np.random.Generator) -> rru.RruChainSpec:
    """Random ladder over the standard capacity table, any gap 1..4."""
    while True:
        m = int(rng.integers(2, 5))
        caps = sorted(rng.choice(_TABLE_CAPACITIES, size=m, replace=False).tolist())
        gap = int(rng.integers(1, 5))
        forward = tuple(int(c) for c in caps[:-1])
        reverse = tuple(f - gap for f in forward)
        if reverse[0] < 1:
            continue
        if any(reverse[i] <= forward[i - 1] for i in range(1, m - 1)):
            continue
        rho = float(rng.uniform(0.1, 40.0))
        a = rho / caps[-1]
        if not 0.0 < a < 1.0:
            continue
        rates = tuple(76.8 * c / caps[0] for c in caps)
        try:
            return rru.RruChainSpec(
                rate_set=RateSet(rates=rates, capacities=tuple(int(c) for c in caps)),
                thresholds=ThresholdPolicy(forward=forward, reverse=reverse),
                traffic=TrafficSpec(a=a, mu=DEFAULT_SERVICE_RATE),
            )
        except VrfError:
            continue


def run_suites() -> list[dict]:
    """The `vrfplan validate` suites, each a JSON-ready dict whose
    "status" is "pass" or "fail": the closed-form coefficients against the
    unit's full chain; the product form against a direct solve of the
    enumerated cluster chain, with a detailed-balance check and a negative
    control; and the load-grid blocking against simulation at three spot
    points, judged by the sweep's `agree` rule."""
    rng = np.random.default_rng(20240817)

    worst = 0.0
    for _ in range(50):
        spec = _random_chain_spec(rng)
        for level in range(1, spec.level_count + 1):
            closed = rru.partition_coefficients(spec, level)
            oracle = np.exp(_oracle_log_coefficients(spec, level))
            oracle *= closed[0] / oracle[0]
            worst = max(worst, float(np.max(np.abs(closed / oracle - 1.0))))
    coefficients = {"name": "closed-form coefficients vs chain oracle",
                    "specs": 50, "max_rel_err": worst, "tolerance": 1e-9,
                    "status": "pass" if worst < 1e-9 else "fail"}

    worst_pi = 0.0
    worst_db = 0.0
    checked = 0
    for _ in range(25):
        chain = _random_chain_spec(rng)
        if chain.level_count > 3:
            continue
        checked += 1
        n = int(rng.integers(1, 7))
        link = float(rng.uniform(1.2, float(n) + 0.5)) * chain.rate_set.rates[-1]
        spec = aggregator.AggregatorSpec(cluster_size=n, rate_set=chain.rate_set,
                                         link_capacity_mbps=link,
                                         rates=rru.transition_rates(chain))
        space = aggregator.enumerate_states(spec)
        pf = aggregator.product_form(spec, binomial_n="true", space=space)
        q = build_generator(spec, space=space)
        worst_pi = max(worst_pi, float(np.max(np.abs(pf - steady_state(q)))))
        worst_db = max(worst_db, detailed_balance_check(pf, q))
    # negative control: a saturated cluster checked under the capped binomial
    # convention must show a visible imbalance, proving the checker is not
    # vacuously zero; fixed spec keeps the control mass away from boundaries
    control = rru.RruChainSpec(
        rate_set=RateSet(rates=(76.8, 153.6), capacities=(3, 6)),
        thresholds=ThresholdPolicy(forward=(3,), reverse=(2,)),
        traffic=TrafficSpec(a=0.5, mu=0.5),
    )
    tight = aggregator.AggregatorSpec(
        cluster_size=4, rate_set=control.rate_set,
        link_capacity_mbps=2.5 * control.rate_set.rates[0],
        rates=rru.transition_rates(control))
    space = aggregator.enumerate_states(tight)
    negative_ok = bool(detailed_balance_check(aggregator.product_form(tight, "effective", space),
                                              build_generator(tight, space)) > 1e-3)
    ok = worst_pi < 1e-8 and worst_db < 1e-10 and negative_ok
    product_form = {"name": "product form vs direct solve", "specs": checked,
                    "max_abs_err": worst_pi, "max_balance_residual": worst_db,
                    "negative_control": negative_ok,
                    "status": "pass" if ok else "fail"}

    results = []
    ok = True
    for a, n_d, n in ((0.3, 3, 16), (0.25, 3, 17), (0.2, 1, 9)):
        planning = config_from_dict({"a": a, "n_d": n_d, "cluster_size": n})
        report = aggregator.blocking_for_planning(planning, binomial_n="true")
        seed = sim.coordinate_seed(0, a, n_d, 1, "poisson", n, 200_000)
        stats = sim.run(sim.SimConfig.from_planning(planning, 200_000, seed))
        point_ok = sim.agrees(report.total, stats.estimate_fha_flow, stats.stderr)
        ok = ok and point_ok
        results.append({"a": a, "n_d": n_d, "n": n, "analytic": report.total,
                        "simulated": stats.estimate_fha_flow,
                        "stderr": stats.stderr, "agree": point_ok})
    spot = {"name": "analytic vs simulation spot grid", "points": results,
            "status": "pass" if ok else "fail"}
    return [coefficients, product_form, spot]
