"""Per-radio-unit threshold queue with hysteresis.

A unit serves up to `server_count` simultaneous calls and steps its
transport rate up at forward thresholds and down at reverse thresholds.
This module builds the full (users, level) chain, evaluates the
closed-form per-level conditional distributions, and derives the
level-transition rates that drive the cluster-level model.

Closed forms are evaluated in log space with explicit sign tracking;
if catastrophic cancellation is ever detected the affected level falls
back to the chain solver and a diagnostic is logged.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import ctmc
from ._logspace import log_factorials, logsumexp
from .config import RateSet, ThresholdPolicy, TrafficSpec
from .errors import InvalidConfigError, InvalidParameterError

log = logging.getLogger(__name__)

#: A coefficient this far below zero (relative to its positive part)
#: triggers the chain-solver fallback instead of clamping.
_CANCEL_TOL = 1e-9


@dataclass(frozen=True)
class RruChainSpec:
    """A fully specified threshold queue: rates, thresholds, traffic."""

    rate_set: RateSet
    thresholds: ThresholdPolicy
    traffic: TrafficSpec

    def __post_init__(self) -> None:
        m = self.rate_set.count
        if len(self.thresholds.forward) != m - 1:
            raise InvalidConfigError(
                "thresholds",
                f"need exactly {m - 1} forward/reverse thresholds for {m} rates, "
                f"got {len(self.thresholds.forward)}",
            )
        if self.traffic.server_count != self.rate_set.server_count:
            raise InvalidConfigError(
                "server_count",
                f"traffic server count {self.traffic.server_count} must equal the "
                f"top rate capacity {self.rate_set.server_count}",
            )
        for l, (f, k) in enumerate(zip(self.thresholds.forward, self.rate_set.capacities), start=1):
            if f > k:
                raise InvalidConfigError(
                    "thresholds", f"forward threshold F_{l}={f} exceeds rate capacity K_{l}={k}"
                )
        # each level's band must start above the previous forward threshold,
        # otherwise the per-level chains overlap and the closed forms do not apply
        for l in range(2, m):
            r_l = self.thresholds.reverse[l - 1]
            f_prev = self.thresholds.forward[l - 2]
            if r_l <= f_prev:
                raise InvalidConfigError(
                    "thresholds",
                    f"reverse threshold R_{l}={r_l} must exceed forward threshold "
                    f"F_{l - 1}={f_prev}",
                )

    @property
    def level_count(self) -> int:
        return self.rate_set.count

    @property
    def rho(self) -> float:
        return self.traffic.rho

    def forward_at(self, level: int) -> int:
        """Forward threshold of `level`; the top level upgrades never, so its
        threshold is the server count."""
        if level == self.level_count:
            return self.traffic.server_count
        return self.thresholds.forward[level - 1]

    def reverse_before(self, level: int) -> int:
        """Reverse threshold R_{level-1} guarding entry to `level` (R_0 = 0)."""
        if level == 1:
            return 0
        return self.thresholds.reverse[level - 2]

    def user_range(self, level: int) -> range:
        """User counts belonging to `level`'s partition. Level 1 includes
        the empty (switched-off) unit at zero users."""
        if not 1 <= level <= self.level_count:
            raise InvalidParameterError(
                f"level must be in 1..{self.level_count}, got {level}"
            )
        lo = 0 if level == 1 else self.reverse_before(level) + 1
        return range(lo, self.forward_at(level) + 1)


@dataclass(frozen=True)
class GlobalRruChain:
    """The full (users, level) chain of one unit, with its rate matrix."""

    spec: RruChainSpec
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


@dataclass(frozen=True)
class PartitionDistribution:
    """Conditional user-count distribution within one rate level."""

    level: int
    user_counts: tuple[int, ...]
    probabilities: np.ndarray

    def probability_of(self, users: int) -> float:
        return float(self.probabilities[self.user_counts.index(users)])


@dataclass(frozen=True)
class RruRates:
    """Level-transition rates of one unit: `up[l]` drives level l -> l+1
    (with up[0] the wake-up rate out of the off state), `down[l-1]` drives
    level l -> l-1 (down[0] is the switch-off rate)."""

    up: tuple[float, ...]
    down: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.up) != len(self.down):
            raise InvalidParameterError("up and down rate lists must have equal length")
        if any(r <= 0.0 for r in self.up + self.down):
            raise InvalidParameterError("all level-transition rates must be positive")
        if any(r >= self.up[0] for r in self.up[1:]):
            raise InvalidParameterError("upgrade rates must stay below the raw arrival rate")

    @property
    def level_count(self) -> int:
        return len(self.up)


def build_global_chain(spec: RruChainSpec) -> GlobalRruChain:
    """Assemble the unit's full (users, level) rate matrix.

    Arrivals add one user and cross to the next level exactly at the
    forward threshold; departures remove one user at rate users*mu and
    cross down exactly at the reverse threshold.
    """
    lam, mu = spec.traffic.lam, spec.traffic.mu
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


def _log_interior(users: np.ndarray, base: int, gateway: int, log_rho: float,
                  lf: np.ndarray) -> np.ndarray:
    """log of the homogeneous coefficient part at each user count i of a
    level entered at `base` from below through `gateway` = F_{l-1} + 1:
    the row-wise log-sum-exp of base * rho^j * (i-j-1)! / i! over
    max(0, i - gateway) <= j <= i - base."""
    i = users[:, None]
    j = np.arange(users[-1] - base + 1)[None, :]
    inside = (j >= i - gateway) & (j <= i - base)
    k = np.where(inside, i - j - 1, 0)
    terms = np.where(inside, math.log(base) + j * log_rho + lf[k] - lf[i], -math.inf)
    return logsumexp(terms, axis=1)


def _log_echo(users: np.ndarray, r_l: int, log_rho: float, lf: np.ndarray) -> np.ndarray:
    """log of the reflected-sum factor multiplying the top coefficient at
    each user count i above the reverse threshold r_l: the row-wise
    log-sum-exp of rho^j * (i-j)! / i! over 1 <= j <= i - r_l."""
    i = users[:, None]
    j = np.arange(1, users[-1] - r_l + 1)[None, :]
    inside = j <= i - r_l
    k = np.where(inside, i - j, 0)
    terms = np.where(inside, j * log_rho + lf[k] - lf[i], -math.inf)
    return logsumexp(terms, axis=1)


def _log_coefficients(spec: RruChainSpec, level: int) -> np.ndarray:
    """Log coefficients over `level`'s user range, shifted so the base
    entry is exactly 0 (coefficient 1). Raises ValueError on catastrophic
    cancellation; callers fall back to the chain solver."""
    lr = math.log(spec.rho)
    users = np.array(spec.user_range(level))
    lf = log_factorials(int(users[-1]))
    m = spec.level_count

    if level == 1:
        # pure product form below the reverse threshold, echo-corrected above
        lt = users * lr - lf[users]
        if m == 1:
            return lt
    else:
        base = spec.reverse_before(level) + 1
        gateway = spec.forward_at(level - 1) + 1
        lt = _log_interior(users, base, gateway, lr, lf)
        if level == m:
            return lt - lt[0]
    lt -= lt[0]
    f1 = spec.forward_at(level)
    r1 = spec.thresholds.reverse[level - 1]
    lo = int(users[0])

    # echo sums over r1 .. f1-1 (empty, so -inf, at r1); the last one closes
    # the recurrence for the top coefficient at the forward threshold
    l_echo = _log_echo(np.arange(r1, f1), r1, lr, lf)
    l_denom = logsumexp([0.0, math.log(f1) - lr, l_echo[-1]])
    l_cf = lt[f1 - 1 - lo] - l_denom

    out = lt.copy()
    out[f1 - lo] = l_cf
    # the band r1+1 .. f1-1 subtracts the echo of the top coefficient
    l_pos = lt[r1 + 1 - lo:f1 - lo]
    diff = l_echo[1:] + l_cf - l_pos
    negative = diff >= 0.0
    if negative.any():
        # mathematically impossible; a negative value here means the
        # subtraction cancelled catastrophically
        shortfall = -np.expm1(-diff)
        bad = np.flatnonzero(negative & (shortfall > _CANCEL_TOL))
        if bad.size:
            raise ValueError(
                f"coefficient at users={r1 + 1 + bad[0]}, level={level} came out negative "
                f"({shortfall[bad[0]]:.3e} relative shortfall)"
            )
    with np.errstate(divide="ignore"):
        out[r1 + 1 - lo:f1 - lo] = np.where(
            negative, -math.inf, l_pos + np.log1p(-np.exp(np.minimum(diff, 0.0))))
    return out


def _oracle_log_coefficients(spec: RruChainSpec, level: int) -> np.ndarray:
    """Chain-solver fallback: conditional distribution of the level's
    partition from the full chain, expressed as log coefficients."""
    chain = build_global_chain(spec)
    part_idx = chain.partition_indices(level)
    pi = ctmc.steady_state(chain.q)
    cond = pi[list(part_idx)]
    cond = cond / cond.sum()
    with np.errstate(divide="ignore"):
        lc = np.log(cond)
    return lc - lc[0]


def _level_log_coefficients(spec: RruChainSpec, level: int) -> np.ndarray:
    """`_log_coefficients`, or the chain solver's when the closed form
    cancels catastrophically."""
    if not 1 <= level <= spec.level_count:
        raise InvalidParameterError(f"level must be in 1..{spec.level_count}, got {level}")
    try:
        return _log_coefficients(spec, level)
    except ValueError as exc:
        log.warning("closed form failed for level %d (%s); using chain solver", level, exc)
        return _oracle_log_coefficients(spec, level)


def partition_coefficients(spec: RruChainSpec, level: int) -> np.ndarray:
    """Per-level coefficients C_i over the level's user range.

    The base entry (lowest user count of the level) is exactly 1; every
    other entry is the steady-state probability ratio to that base state.
    """
    return np.exp(_level_log_coefficients(spec, level))


def partition_distribution(spec: RruChainSpec, level: int) -> PartitionDistribution:
    """Conditional user-count distribution of one rate level.

    Level 1 includes the switched-off state at zero users.
    """
    lc = _level_log_coefficients(spec, level)
    probs = np.exp(lc - logsumexp(lc))
    probs /= probs.sum()
    return PartitionDistribution(
        level=level,
        user_counts=tuple(spec.user_range(level)),
        probabilities=probs,
    )


def _active_distribution(dist: PartitionDistribution) -> PartitionDistribution:
    """Level-1 distribution renormalized over active (non-empty) states."""
    if dist.user_counts[0] != 0:
        return dist
    probs = dist.probabilities[1:].copy()
    probs /= probs.sum()
    return PartitionDistribution(
        level=dist.level, user_counts=dist.user_counts[1:], probabilities=probs
    )


def transition_rates(spec: RruChainSpec) -> RruRates:
    """Level-transition rates for the unit's rate-switching behavior.

    The upgrade rate out of level l is the arrival rate thinned by the
    probability of sitting exactly at the forward threshold; the
    downgrade rate is the departure rate at one user above the reverse
    threshold, thinned likewise. Level 1 probabilities are conditioned
    on the unit being active, so that the off state's dwell is carried
    by the wake-up rate alone.
    """
    lam, mu = spec.traffic.lam, spec.traffic.mu
    up = [lam]
    down = []
    for level in range(1, spec.level_count + 1):
        dist = partition_distribution(spec, level)
        if level == 1:
            dist = _active_distribution(dist)
        entry = spec.reverse_before(level) + 1
        down.append(entry * mu * dist.probability_of(entry))
        if level < spec.level_count:
            up.append(lam * dist.probability_of(spec.forward_at(level)))
    return RruRates(up=tuple(up), down=tuple(down))


def rate_level_distribution(rates: RruRates) -> np.ndarray:
    """Stationary distribution over {off, level 1..M} of the birth-death
    chain driven by the level-transition rates."""
    lw = np.zeros(rates.level_count + 1)
    for level in range(1, rates.level_count + 1):
        lw[level] = lw[level - 1] + math.log(rates.up[level - 1]) - math.log(rates.down[level - 1])
    probs = np.exp(lw - logsumexp(lw))
    return probs / probs.sum()
