"""Per-radio-unit threshold queue with hysteresis.

A unit serves up to its rate set's `server_count` simultaneous calls and
steps its transport rate up at forward thresholds and down at reverse
thresholds. This module computes each rate level's occupancy
coefficients and the level-transition rates that drive the
cluster-level model. The unit's full (users, level) chain, their oracle,
lives in `vrfplan.oracle`.

Coefficients are evaluated in log space on one path: a closed form up to
each level's reverse threshold, and above it a cut recurrence that adds
positive terms only, so nothing can cancel."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._logspace import log_factorials, logsumexp
from .config import PlanningConfig, RateSet, ThresholdPolicy, TrafficSpec
from .errors import InvalidConfigError, InvalidParameterError


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

    @classmethod
    def from_planning(cls, planning: PlanningConfig) -> RruChainSpec:
        """The unit of a planning scenario."""
        return cls(rate_set=planning.rate_set, thresholds=planning.thresholds,
                   traffic=planning.traffic)

    @property
    def level_count(self) -> int:
        return self.rate_set.count

    @property
    def lam(self) -> float:
        """Per-unit call arrival rate, lambda = a * K * mu."""
        return self.traffic.a * self.rate_set.server_count * self.traffic.mu

    @property
    def rho(self) -> float:
        return self.lam / self.traffic.mu

    def forward_at(self, level: int) -> int:
        """Forward threshold of `level`; the top level upgrades never, so its
        threshold is the server count."""
        if level == self.level_count:
            return self.rate_set.server_count
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


def _log_interior(users: np.ndarray, base: int, gateway: int, log_rho: float,
                  lf: np.ndarray) -> np.ndarray:
    """log of the coefficient, up to a common factor, at each user count
    i <= R_l of a level entered at `base` from below through `gateway` =
    F_{l-1} + 1: the row-wise log-sum-exp of base * rho^j * (i-j-1)! / i!
    over max(0, i - gateway) <= j <= i - base."""
    i = users[:, None]
    j = np.arange(users[-1] - base + 1)[None, :]
    inside = (j >= i - gateway) & (j <= i - base)
    k = np.where(inside, i - j - 1, 0)
    terms = np.where(inside, math.log(base) + j * log_rho + lf[k] - lf[i], -math.inf)
    return logsumexp(terms, axis=1)


def _log_coefficients(spec: RruChainSpec, level: int) -> np.ndarray:
    """Log coefficients over `level`'s user range, shifted so the base
    entry is exactly 0 (coefficient 1).

    Up to R_l the level's interior is in closed form (level 1's is the
    Poisson form). Above it, the cut between i and i + 1 users balances
    lam * p_i = (i + 1) * mu * p_{i+1} + lam * p_F: read downward from F_l
    it adds positive terms only, and joins the interior at R_l.
    """
    lr = math.log(spec.rho)
    users = np.array(spec.user_range(level))
    top = level == spec.level_count
    lo, f_l = int(users[0]), int(users[-1])
    r_l = f_l if top else spec.thresholds.reverse[level - 1]
    below = users[:r_l - lo + 1]
    lf = log_factorials(r_l)
    if level == 1:
        lt = below * lr - lf[below]
    else:
        gateway = spec.forward_at(level - 1) + 1
        lt = _log_interior(below, lo, gateway, lr, lf)
    lt -= lt[0]
    if top:
        return lt
    # the cut recurrence from p_F = 1 down to R_l, in log space
    lq = np.zeros(f_l - r_l + 1)
    for i in range(len(lq) - 2, -1, -1):
        lq[i] = np.logaddexp(math.log(r_l + i + 1) - lr + lq[i + 1], 0.0)
    return np.concatenate([lt, lt[-1] + lq[1:] - lq[0]])


def partition_coefficients(spec: RruChainSpec, level: int) -> np.ndarray:
    """Per-level coefficients C_i over the level's user range.

    The base entry (lowest user count of the level) is exactly 1; every
    other entry is the steady-state probability ratio to that base state.
    """
    return np.exp(_log_coefficients(spec, level))


def transition_rates(spec: RruChainSpec) -> RruRates:
    """Level-transition rates for the unit's rate-switching behavior.

    The upgrade rate out of level l is the arrival rate thinned by the
    probability of sitting exactly at the forward threshold; the
    downgrade rate is the departure rate at the level's entry count,
    one user above the reverse threshold below it, thinned likewise.
    Level 1 probabilities are conditioned on the unit being active, so
    that the off state's dwell is carried by the wake-up rate alone.
    """
    lam, mu = spec.lam, spec.traffic.mu
    up = [lam]
    down = []
    for level in range(1, spec.level_count + 1):
        lc = _log_coefficients(spec, level)
        if level == 1:
            lc = lc[1:]
        norm = logsumexp(lc)
        entry = spec.reverse_before(level) + 1
        down.append(entry * mu * math.exp(lc[0] - norm))
        if level < spec.level_count:
            up.append(lam * math.exp(lc[-1] - norm))
    return RruRates(up=tuple(up), down=tuple(down))

