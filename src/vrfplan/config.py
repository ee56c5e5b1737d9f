"""Model configuration: transport-rate profiles, rate-set selection,
hysteresis threshold policies, traffic specification, and JSON loading.

All types are immutable after construction and validated eagerly, so any
object that exists is safe to hand to the analytic or simulation layers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import InvalidConfigError

#: Shared-link capacity (Mbit/s) used when a config file does not override it.
DEFAULT_LINK_CAPACITY_MBPS = 10000.0
#: Per-call service completion rate used by default.
DEFAULT_SERVICE_RATE = 0.5
#: Matching tolerance when looking up a rate value inside a profile.
_RATE_MATCH_TOL = 1e-6
#: Largest denominator tried when putting a rate ladder on an integer grid.
_GRID_MAX_DENOMINATOR = 1000
#: A link quotient this close (relative) to an integer k admits k grid units.
_GRID_SNAP_TOL = 1e-9


def _is_int(value: object) -> bool:
    """An int, not a bool (which is an int subclass)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    """An int or float, not a bool (which is an int subclass)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ProfileRow:
    """One transport-rate option: radio bandwidth mapped to line rate and
    the number of calls that rate can carry."""

    bandwidth_mhz: float
    fft_size: int
    prb_count: int
    rate_mbps: float
    max_users: int

    def __post_init__(self) -> None:
        for name in ("fft_size", "prb_count", "max_users"):
            value = getattr(self, name)
            if not _is_int(value) or value <= 0:
                raise InvalidConfigError(f"profile.{name}", f"must be a positive integer, got {value!r}")
        for name in ("bandwidth_mhz", "rate_mbps"):
            value = getattr(self, name)
            if not _is_number(value) or not 0 < value < math.inf:
                raise InvalidConfigError(f"profile.{name}",
                                         f"must be a positive finite number, got {value!r}")
        # two resource blocks serve one call
        if self.max_users != self.prb_count // 2:
            raise InvalidConfigError(
                "profile.max_users",
                f"must equal prb_count // 2 = {self.prb_count // 2}, got {self.max_users}",
            )


@dataclass(frozen=True)
class CpriProfile:
    """Ordered ladder of transport-rate options, ascending in rate."""

    rows: tuple[ProfileRow, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise InvalidConfigError("profile", "must contain at least one row")
        for row in self.rows:
            if not isinstance(row, ProfileRow):
                raise InvalidConfigError("profile", f"rows must be ProfileRow objects, got {row!r}")
        for prev, cur in zip(self.rows, self.rows[1:]):
            if not (cur.rate_mbps > prev.rate_mbps and cur.max_users > prev.max_users):
                raise InvalidConfigError(
                    "profile",
                    "rows must be strictly increasing in rate_mbps and max_users "
                    f"(violated between {prev.rate_mbps} and {cur.rate_mbps})",
                )

    def row_for_rate(self, rate_mbps: float) -> ProfileRow | None:
        for row in self.rows:
            if math.isclose(row.rate_mbps, rate_mbps, rel_tol=0.0, abs_tol=_RATE_MATCH_TOL):
                return row
        return None


def default_profile() -> CpriProfile:
    """The standard six-row rate ladder for 1.25-20 MHz carriers."""
    return CpriProfile(
        rows=(
            ProfileRow(1.25, 128, 6, 76.8, 3),
            ProfileRow(2.5, 256, 12, 153.6, 6),
            ProfileRow(5.0, 512, 25, 307.2, 12),
            ProfileRow(10.0, 1024, 50, 614.4, 25),
            ProfileRow(15.0, 1536, 75, 921.6, 37),
            ProfileRow(20.0, 2048, 100, 1228.8, 50),
        )
    )


@dataclass(frozen=True)
class RateSet:
    """The rates a radio unit may switch among, ascending, with the user
    capacity of each rate. The top rate's capacity is the unit's total
    server count.

    Every rate is an integer multiple `steps[l]` of one grid unit
    (`unit_mbps`), so a cluster's load on the link is an integer count of
    grid units. A ladder with no such unit is refused.
    """

    rates: tuple[float, ...]
    capacities: tuple[int, ...]
    steps: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rates", tuple(self.rates))
        object.__setattr__(self, "capacities", tuple(self.capacities))
        if not self.rates or len(self.rates) != len(self.capacities):
            raise InvalidConfigError("rate_set", "rates and capacities must be non-empty and equal-length")
        if (any(not _is_number(r) or not 0 < r < math.inf for r in self.rates)
                or any(not _is_int(c) or c <= 0 for c in self.capacities)):
            raise InvalidConfigError("rate_set",
                                     "rates must be positive and finite, capacities positive integers")
        if list(self.rates) != sorted(self.rates) or len(set(self.rates)) != len(self.rates):
            raise InvalidConfigError("rate_set", "rates must be strictly ascending")
        if list(self.capacities) != sorted(set(self.capacities)):
            raise InvalidConfigError("rate_set", "capacities must be strictly ascending")
        object.__setattr__(self, "steps", _integer_steps(self.rates))

    @property
    def count(self) -> int:
        return len(self.rates)

    @property
    def server_count(self) -> int:
        return self.capacities[-1]

    @property
    def unit_mbps(self) -> float:
        """The grid unit; rate l is `steps[l]` of it."""
        return self.rates[0] / self.steps[0]

    @property
    def jumps(self) -> tuple[int, ...]:
        """The load, in grid units, a move into each level adds: a wake-up
        into level 1, then an upgrade into each level above."""
        return (self.steps[0],) + tuple(b - a for a, b in zip(self.steps, self.steps[1:]))

    def grid_limit(self, link_capacity_mbps: float, cluster_size: int) -> int:
        """Largest load, in grid units, the link admits from `cluster_size`
        units: floor(C / unit), capped at every unit on the top rate, which
        no load can pass (so an unbounded link needs no special case). A
        capacity computed as k * unit may divide to a few ulps under k; it
        still admits k units."""
        units = min(cluster_size * self.steps[-1], link_capacity_mbps / self.unit_mbps)
        nearest = round(units)
        return nearest if math.isclose(units, nearest, rel_tol=_GRID_SNAP_TOL) else math.floor(units)


def _integer_steps(rates: tuple[float, ...]) -> tuple[int, ...]:
    """Each rate in units of the largest common grid unit: the smallest
    denominator q that puts every q * rate / lowest within the profile's
    rate-matching tolerance of distinct integers, reduced by their gcd."""
    ratios = [r / rates[0] for r in rates]
    for q in range(1, _GRID_MAX_DENOMINATOR + 1):
        ints = [round(x * q) for x in ratios]
        if (len(set(ints)) == len(ints)
                and all(abs(x * q - k) <= _RATE_MATCH_TOL for x, k in zip(ratios, ints))):
            g = math.gcd(*ints)
            return tuple(k // g for k in ints)
    raise InvalidConfigError(
        "rate_set",
        f"rates {rates} share no grid unit: no denominator q up to {_GRID_MAX_DENOMINATOR} "
        f"puts every q * rate / lowest rate within {_RATE_MATCH_TOL:g} of a distinct integer",
    )


def select_rates(profile: CpriProfile, n_d: int) -> RateSet:
    """Pick the ``n_d`` rates a unit switches among: the profile's top rate
    and successive halvings of it.

    The selection walks down from the highest rate in factor-of-two steps
    (e.g. 1228.8, 614.4, 307.2, ...), skipping any profile rows that are
    not on that chain. The result is returned ascending.
    """
    if not _is_int(n_d) or not 1 <= n_d <= len(profile.rows):
        raise InvalidConfigError("n_d", f"must be an integer in 1..{len(profile.rows)}, got {n_d!r}")
    selected: list[ProfileRow] = []
    target = profile.rows[-1].rate_mbps
    while len(selected) < n_d:
        row = profile.row_for_rate(target)
        if row is None:
            raise InvalidConfigError(
                "n_d",
                f"profile has no rate near {target:g} Mbit/s; only "
                f"{len(selected)} rates lie on the halving chain from the top rate",
            )
        selected.append(row)
        target /= 2.0
    selected.reverse()
    return RateSet(
        rates=tuple(row.rate_mbps for row in selected),
        capacities=tuple(row.max_users for row in selected),
    )


@dataclass(frozen=True)
class ThresholdPolicy:
    """Hysteresis thresholds between adjacent rates.

    ``forward[l]`` is the user count at which an arrival pushes the unit
    from rate l+1 to rate l+2 (1-based: F_1..F_{M-1}); ``reverse[l]`` is
    the count at which a departure pulls it back down (R_1..R_{M-1}).
    By convention R_0 = 0 and F_M equals the unit's server count.
    """

    forward: tuple[int, ...]
    reverse: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "forward", tuple(self.forward))
        object.__setattr__(self, "reverse", tuple(self.reverse))
        if len(self.forward) != len(self.reverse):
            raise InvalidConfigError("thresholds", "forward and reverse must have equal length")
        f, r = self.forward, self.reverse
        if any(not _is_int(x) or x < 1 for x in f + r):
            raise InvalidConfigError("thresholds", "all thresholds must be integers >= 1")
        if any(b <= a for a, b in zip(f, f[1:])) or any(b <= a for a, b in zip(r, r[1:])):
            raise InvalidConfigError("thresholds", "forward and reverse must each be strictly increasing")
        if any(fl - rl < 1 for fl, rl in zip(f, r)):
            raise InvalidConfigError("thresholds", "each forward-reverse gap must be at least 1")


def default_thresholds(rate_set: RateSet, gap: int) -> ThresholdPolicy:
    """Standard policy: switch up at each rate's full capacity, switch down
    ``gap`` calls below that."""
    if not _is_int(gap) or gap < 1:
        raise InvalidConfigError("threshold_gap", f"must be an integer >= 1, got {gap!r}")
    steps = [b - a for a, b in zip(rate_set.capacities, rate_set.capacities[1:])]
    if steps and gap >= min(steps):
        raise InvalidConfigError(
            "threshold_gap",
            f"must be smaller than the minimum capacity step {min(steps)}, got {gap}",
        )
    forward = rate_set.capacities[:-1]
    # ascending, as the capacities are: only the first can fall below 1
    reverse = tuple(f - gap for f in forward)
    if reverse and reverse[0] < 1:
        raise InvalidConfigError(
            "threshold_gap",
            f"gap {gap} drives the first reverse threshold below 1 for capacities {rate_set.capacities}",
        )
    return ThresholdPolicy(forward=forward, reverse=reverse)


@dataclass(frozen=True)
class TrafficSpec:
    """Per-unit call traffic: the normalized load a = lambda / (K * mu) and
    the per-call service rate mu. The arrival rate lambda follows once the
    unit's server count K is known (`RruChainSpec.lam`)."""

    a: float
    mu: float

    def __post_init__(self) -> None:
        if not _is_number(self.a) or not 0.0 < self.a < 1.0:
            raise InvalidConfigError("a", f"normalized load must be a number in (0, 1), got {self.a!r}")
        if not _is_number(self.mu) or not 0.0 < self.mu < math.inf:
            raise InvalidConfigError("mu", f"must be a positive finite number, got {self.mu!r}")


def check_cluster(rate_set: RateSet, cluster_size: int, link_capacity_mbps: float) -> int:
    """Check a cluster's size N and link capacity C against its rate set and
    return the link's grid limit. Every type that holds a cluster checks N
    and C here and nowhere else, and the rate set's type with them."""
    if not isinstance(rate_set, RateSet):
        raise InvalidConfigError("rate_set", f"must be a RateSet, got {type(rate_set).__name__}")
    if not _is_int(cluster_size) or cluster_size < 1:
        raise InvalidConfigError("cluster_size", f"must be an integer >= 1, got {cluster_size!r}")
    lowest = rate_set.rates[0]
    if not _is_number(link_capacity_mbps) or not link_capacity_mbps > lowest:
        raise InvalidConfigError("fha_capacity_mbps", f"must be a number above the lowest rate "
                                                      f"{lowest:g}, got {link_capacity_mbps!r}")
    return rate_set.grid_limit(link_capacity_mbps, cluster_size)


@dataclass(frozen=True)
class PlanningConfig:
    """A fully validated planning scenario, ready for analysis or simulation."""

    profile: CpriProfile
    n_d: int
    threshold_gap: int
    traffic: TrafficSpec
    cluster_size: int
    link_capacity_mbps: float = DEFAULT_LINK_CAPACITY_MBPS
    rate_set: RateSet = field(init=False)
    thresholds: ThresholdPolicy = field(init=False)

    def __post_init__(self) -> None:
        rate_set = select_rates(self.profile, self.n_d)
        check_cluster(rate_set, self.cluster_size, self.link_capacity_mbps)
        object.__setattr__(self, "rate_set", rate_set)
        object.__setattr__(self, "thresholds", default_thresholds(rate_set, self.threshold_gap))


_SCHEMA_KEYS = {
    "profile", "n_d", "threshold_gap", "a", "mu", "cluster_size", "fha_capacity_mbps",
}
_REQUIRED_KEYS = {"n_d", "a", "cluster_size"}
_ROW_KEYS = {"bandwidth_mhz", "fft_size", "prb_count", "rate_mbps", "max_users"}


def config_from_dict(raw: dict) -> PlanningConfig:
    """Validate a parsed JSON object against the configuration schema.

    Unknown keys are rejected rather than ignored so that typos fail fast.
    """
    if not isinstance(raw, dict):
        raise InvalidConfigError("<root>", f"configuration must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - _SCHEMA_KEYS
    if unknown:
        raise InvalidConfigError(sorted(unknown)[0], "unknown configuration key")
    missing = _REQUIRED_KEYS - set(raw)
    if missing:
        raise InvalidConfigError(sorted(missing)[0], "required key is missing")

    if "profile" in raw:
        rows_raw = raw["profile"]
        if not isinstance(rows_raw, list) or not rows_raw:
            raise InvalidConfigError("profile", "must be a non-empty list of row objects")
        rows = []
        for i, row in enumerate(rows_raw):
            if not isinstance(row, dict) or set(row) != _ROW_KEYS:
                raise InvalidConfigError(
                    f"profile[{i}]", f"each row must be an object with keys {sorted(_ROW_KEYS)}"
                )
            rows.append(ProfileRow(**row))
        profile = CpriProfile(rows=tuple(rows))
    else:
        profile = default_profile()

    # each value is checked by the type that owns it
    return PlanningConfig(
        profile=profile,
        n_d=raw["n_d"],
        threshold_gap=raw.get("threshold_gap", 1),
        traffic=TrafficSpec(a=raw["a"], mu=raw.get("mu", DEFAULT_SERVICE_RATE)),
        cluster_size=raw["cluster_size"],
        link_capacity_mbps=raw.get("fha_capacity_mbps", DEFAULT_LINK_CAPACITY_MBPS),
    )


def load_config(path: str, threshold_gap: int | None = None) -> PlanningConfig:
    """Load and validate a JSON configuration file; `threshold_gap`, when
    given, replaces the file's gap before validation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InvalidConfigError("<file>", f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfigError("<file>", f"invalid JSON in {path!r}: {exc}") from exc
    if threshold_gap is not None and isinstance(raw, dict):
        raw["threshold_gap"] = threshold_gap
    return config_from_dict(raw)
