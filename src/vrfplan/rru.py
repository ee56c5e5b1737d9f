"""Per-radio-unit threshold queue with hysteresis.

A unit serves up to its rate set's `server_count` simultaneous calls and
steps its transport rate up at forward thresholds and down at reverse
thresholds. This module computes each rate level's occupancy
coefficients and the level-transition rates that drive the
cluster-level model. The unit's full (users, level) chain, their oracle,
lives in `vrfplan.oracle`.

Coefficients are evaluated in log space on one path, the balance of the
level's flows across each cut between i and i + 1 users, read in three
stretches: a re-entry stretch from the level's base up to its gateway
(where departures at the base come back), a birth-death stretch from
the gateway up to the reverse threshold, and the hysteresis band above
it. Each stretch adds positive terms only, so nothing can cancel, and
no list is longer than the unit's server count plus one.

A level holds at most K + 1 = 51 entries on the default ladders, so the
recurrences run over lists of plain floats with `math`, and each unit
builds one log-factorial table, at K: numpy's per-call overhead on such
short arrays would cost more than the arithmetic."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._logspace import log_factorials, logaddexp, logsumexp_floats
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
        # which keeps its gateway F_{l-1} + 1 at or below its reverse threshold
        for l in range(2, m):
            r_l = self.thresholds.reverse[l - 1]
            f_prev = self.thresholds.forward[l - 2]
            if r_l <= f_prev:
                raise InvalidConfigError(
                    "thresholds",
                    f"reverse threshold R_{l}={r_l} must exceed forward threshold "
                    f"F_{l - 1}={f_prev}",
                )
        # the recurrences run in `math`, which takes no inf or log(0)
        if not 0.0 < self.lam < math.inf:
            raise InvalidParameterError(
                f"the call arrival rate lambda = a*K*mu = {self.traffic.a!r} * "
                f"{self.rate_set.server_count} * {self.traffic.mu!r} is not a positive "
                f"finite number")

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
        if not all(0.0 < r < math.inf for r in self.up + self.down):
            raise InvalidParameterError("all level-transition rates must be positive and finite")
        if any(r >= self.up[0] for r in self.up[1:]):
            raise InvalidParameterError("upgrade rates must stay below the raw arrival rate")

    @property
    def level_count(self) -> int:
        return len(self.up)


def _log_coefficients(spec: RruChainSpec, level: int, lf: list[float]) -> list[float]:
    """Log coefficients over `level`'s user range, shifted so the base
    entry lo is exactly 0 (coefficient 1), as a list of floats; `lf` is
    the unit's log-factorial table, log k! for k up to its server count.

    The cut between i and i + 1 users balances the level's flows, read in
    three stretches that each add positive terms only:

    - re-entry, lo <= i < gateway = F_{l-1} + 1: a departure at lo leaves
      the level and comes back at the gateway, so
      lam * p_i + lo * mu * p_lo = (i + 1) * mu * p_{i+1}, read upward
      from p_lo = 1 (level 1 has none: its gateway is its base, the off
      state);
    - birth-death, gateway <= i < R_l: lam * p_i = (i + 1) * mu * p_{i+1},
      so p_i = p_g * rho^(i-g) * g! / i! (level 1's is the Poisson form);
    - hysteresis band, R_l <= i < F_l: an arrival at F_l leaves and comes
      back at R_l, so lam * p_i = (i + 1) * mu * p_{i+1} + lam * p_F,
      read downward from p_F = 1 and joined to the rest at R_l.

    The stretches are read as lists of floats, with `_logspace.logaddexp`
    in place of `np.logaddexp` (bit for bit the same).
    """
    lr = math.log(spec.rho)
    users = spec.user_range(level)
    lo, f_l = users.start, users.stop - 1
    top = level == spec.level_count
    r_l = f_l if top else spec.reverse_before(level + 1)
    gateway = lo if level == 1 else spec.forward_at(level - 1) + 1
    # re-entry: up from p_lo = 1 to the gateway
    lt = [0.0]
    for i in range(lo, gateway):
        lt.append(logaddexp(lr + lt[-1], math.log(lo)) - math.log(i + 1))
    # birth-death: from the gateway up to R_l
    lg, lfg = lt[-1], lf[gateway]
    lt += [lg + (i - gateway) * lr - (lf[i] - lfg) for i in range(gateway + 1, r_l + 1)]
    if top:
        return lt
    # hysteresis band: from p_F = 1 down to R_l, built from the top
    lq = [0.0]
    for i in range(f_l - 1, r_l - 1, -1):
        lq.append(logaddexp(math.log(i + 1) - lr + lq[-1], 0.0))
    lq0 = lq.pop()
    return lt + [lt[-1] + q - lq0 for q in reversed(lq)]


def partition_coefficients(spec: RruChainSpec, level: int) -> np.ndarray:
    """Per-level coefficients C_i over the level's user range.

    The base entry (lowest user count of the level) is exactly 1; every
    other entry is the steady-state probability ratio to that base state.
    """
    lf = log_factorials(spec.rate_set.server_count)
    return np.exp(_log_coefficients(spec, level, lf))


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
    lf = log_factorials(spec.rate_set.server_count)
    up = [lam]
    down = []
    for level in range(1, spec.level_count + 1):
        lc = _log_coefficients(spec, level, lf)
        if level == 1:
            lc = lc[1:]
        norm = logsumexp_floats(lc)
        entry = spec.reverse_before(level) + 1
        down.append(entry * mu * math.exp(lc[0] - norm))
        if level < spec.level_count:
            up.append(lam * math.exp(lc[-1] - norm))
            if up[-1] == 0.0:
                raise InvalidParameterError(
                    f"the upgrade rate out of level {level} underflows a double at load "
                    f"a={spec.traffic.a} (its log is {math.log(lam) + lc[-1] - norm:.1f}), "
                    f"so level {level + 1} is unreachable")
    return RruRates(up=tuple(up), down=tuple(down))

