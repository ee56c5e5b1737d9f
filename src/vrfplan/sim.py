"""Event-driven simulator of the full cluster.

Each radio unit runs a loss system of K exponential servers, K its rate
set's server count, fed by its own renewal arrival stream (exponential
or Weibull inter-arrival times). Arrivals that land on a forward threshold, and
wake-ups of idle units, need extra bandwidth on the shared link and are
dropped when it does not fit; arrivals finding every server busy are
dropped regardless. Departures step the unit's rate down at reverse
thresholds, optionally after a reconfiguration latency.

Blocking is reported two ways. The call-level estimates divide blocked
calls by attempts or by all arrivals. The flow estimate integrates the
censored share of the level-transition flow over the empirical
occupancy path, using the homogenized per-level rates of the analytic
model; it is the direct empirical counterpart of the aggregated-chain
blocking probability and the quantity compared against it. The two
differ in heavy blocking because a unit pinned on a forward threshold
retries on every arrival, which the call-level average weights.

`run` keeps one future-event heap. The warm-up and each of the
`BATCH_COUNT` batches run as a segment of their own, an inner loop with
plain local counters; the load and flow integrals advance only when the
occupancy changes. The load is an integer count of the rate set's grid
unit, and the link admits a step when the new load stays within the
rate set's grid limit: the same integer comparison the analytic grid
solve makes. Loads are scaled back to Mbit/s only in the statistics.
The random stream comes from a counter-based Philox generator keyed by
the config seed. Its uniforms are drawn in blocks, and each block is
transformed once in numpy into two lists, inter-arrival times and
holding times, whose positions are consumed in stream order.
Identical configurations therefore reproduce bit-identical statistics,
whatever the block size, on a given platform and numpy build.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .config import PlanningConfig, _is_number
from .errors import InvalidConfigError, InvalidParameterError
from .rru import RruChainSpec, transition_rates

#: Minimum event budget for any reported estimate.
MIN_EVENTS = 100_000
#: Number of equal-size event batches behind the confidence interval.
BATCH_COUNT = 20
#: 97.5% quantile of Student's t with BATCH_COUNT-1 degrees of freedom
#: (scipy.stats.t.ppf(0.975, 19), kept as a literal to spare the import).
T_QUANTILE = 2.0930240544083087
#: Uniforms drawn and transformed at a time; the outcome does not depend on it.
_UNIFORM_BLOCK = 1 << 12

_ARRIVAL, _DEPARTURE, _EXPIRY = 0, 1, 2


@dataclass(frozen=True)
class ArrivalProcess:
    """Renewal arrival stream: Weibull inter-arrival times of the given
    shape, Poisson at shape 1.

    The stream keeps scale 1/rate, so its mean inter-arrival time is
    gamma(1 + 1/shape)/rate: shapes below 1 thin the traffic, shapes
    above 1 thicken it, and shape 1 is Poisson exactly.
    """

    rate: float
    shape: float = 1.0

    def __post_init__(self) -> None:
        if not _is_number(self.rate) or not self.rate > 0:
            raise InvalidConfigError("arrival", f"rate must be a positive number, got {self.rate!r}")
        if not _is_number(self.shape) or not self.shape > 0:
            raise InvalidConfigError("arrival", f"shape must be a positive number, got {self.shape!r}")

    @property
    def mean_interarrival(self) -> float:
        return math.gamma(1.0 + 1.0 / self.shape) / self.rate

    def quantile(self, u: float | np.ndarray) -> float | np.ndarray:
        """Inverse CDF of the inter-arrival time at u in [0, 1), elementwise
        over an array of uniforms."""
        x = -np.log1p(-u)
        if self.shape != 1.0:
            x = x ** (1.0 / self.shape)
        return x * (1.0 / self.rate)


def reconfig_arrival_probability(rate: float, window: float, n: int) -> float:
    """Probability that exactly n Poisson calls arrive within one
    reconfiguration window; rate and window share the same time unit."""
    x = rate * window
    if not (0 < rate < math.inf and 0 < window < math.inf and 0 < x < math.inf):
        raise InvalidParameterError(
            f"rate and window must be positive and finite, with a product in "
            f"floating-point range, got {rate!r} and {window!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InvalidParameterError(f"n must be a non-negative integer, got {n!r}")
    return math.exp(n * math.log(x) - x - math.lgamma(n + 1))


@dataclass(frozen=True)
class SimConfig:
    """Everything one replication needs; immutable and fully validated.
    Each unit's arrivals have the unit's rate lambda and the given
    inter-arrival `shape` (1 is Poisson)."""

    unit: RruChainSpec
    cluster_size: int
    link_capacity_mbps: float
    events: int
    seed: int
    shape: float = 1.0
    reconfig_latency: float = 0.0

    def __post_init__(self) -> None:
        if (not isinstance(self.cluster_size, int) or isinstance(self.cluster_size, bool)
                or self.cluster_size < 1):
            raise InvalidConfigError("cluster_size", f"must be an integer >= 1, got {self.cluster_size!r}")
        if not isinstance(self.events, int) or self.events < MIN_EVENTS:
            raise InvalidConfigError(
                "events", f"must be an integer >= {MIN_EVENTS} for a reportable estimate"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise InvalidConfigError("seed", "an explicit integer seed is required for reproducibility")
        if not _is_number(self.reconfig_latency) or not self.reconfig_latency >= 0:
            raise InvalidConfigError("reconfig_latency",
                                     f"must be a non-negative number, got {self.reconfig_latency!r}")
        if (not _is_number(self.link_capacity_mbps)
                or not self.link_capacity_mbps > self.unit.rate_set.rates[0]):
            raise InvalidConfigError("fha_capacity_mbps",
                                     f"must be a number above the lowest rate, "
                                     f"got {self.link_capacity_mbps!r}")
        self.arrival  # the arrival process checks the shape now, not at run time

    @property
    def arrival(self) -> ArrivalProcess:
        return ArrivalProcess(rate=self.unit.lam, shape=self.shape)

    @classmethod
    def from_planning(cls, planning: PlanningConfig, events: int, seed: int,
                      shape: float = 1.0, latency: float = 0.0) -> SimConfig:
        """One replication of a planning scenario."""
        return cls(unit=RruChainSpec.from_planning(planning), cluster_size=planning.cluster_size,
                   link_capacity_mbps=planning.link_capacity_mbps, events=events, seed=seed,
                   shape=shape, reconfig_latency=latency)


@dataclass(frozen=True)
class SimStats:
    """Counters and estimates from one replication.

    All counters cover the post-warm-up window only. `blocked_rru` is
    cause 1 (every server of the unit busy); `blocked_fha` is cause 2
    (the needed rate upgrade does not fit on the shared link).

    `estimate_fha_flow` is the censored share of the upgrade flow over
    the empirical occupancy path, the quantity comparable to the
    analytic blocking total; `stderr` and `ci_half_width` belong to it.
    `estimate_fha_per_attempt` is the plain blocked-calls-over-attempts
    average, and the per-arrival estimates divide by all arrivals.
    Per-batch counters are exposed so callers can derive an error bar
    for any of the ratios.
    """

    arrivals: int
    accepted: int
    blocked_rru: int
    blocked_fha: int
    upgrade_attempts: int
    estimate_fha_flow: float
    stderr: float
    ci_half_width: float
    estimate_fha_per_attempt: float
    estimate_fha_per_arrival: float
    estimate_rru_per_arrival: float
    estimate_total_per_arrival: float
    c_time_average: float
    c_max: float
    events_processed: int
    warmup_events: int
    seed: int
    batch_arrivals: tuple[int, ...]
    batch_blocked_rru: tuple[int, ...]
    batch_blocked_fha: tuple[int, ...]
    batch_attempts: tuple[int, ...]
    batch_flow_blocked: tuple[float, ...]
    batch_flow_total: tuple[float, ...]


def run(config: SimConfig) -> SimStats:
    """Run one replication and return its statistics.

    Event-driven with a single future-event heap; ties broken by push
    order for determinism. The first 5% of events warm the system up and
    are excluded from every counter; the rest split into `BATCH_COUNT`
    equal batches whose means yield the confidence interval.

    The warm-up and each batch run as one segment: an inner loop over the
    segment's events with plain local counters, whose totals are appended
    as the batch's entry when the segment ends. Expiries of delayed
    downgrades are not counted as events and belong to the segment they
    fall in. The load and flow integrals advance only when the occupancy
    changes, which is when the load and the flow rates change, and once
    more at each segment end.

    Uniforms are drawn `_UNIFORM_BLOCK` at a time. Each block is
    transformed once, in numpy, into a list of inter-arrival times
    (`ArrivalProcess.quantile`) and a list of exponential holding times.
    Every position is consumed once, in stream order, as the gap to a
    unit's next arrival or as the holding time of an accepted call, so the
    block size does not change the outcome.
    """
    chain = config.unit
    rate_set = chain.rate_set
    n = config.cluster_size
    m = rate_set.count
    # loads are integer counts of the rate set's grid unit
    steps = rate_set.steps
    limit = rate_set.grid_limit(config.link_capacity_mbps, n)
    big_k = rate_set.server_count
    mu = chain.traffic.mu
    latency = config.reconfig_latency
    quantile = config.arrival.quantile
    block = _UNIFORM_BLOCK

    # forward[l] and reverse_prev[l] indexed by current level l (1-based);
    # an idle unit (l = 0) wakes up on its first call
    forward = [0] + [chain.forward_at(lv) for lv in range(1, m + 1)]
    reverse_prev = [0] + [chain.reverse_before(lv) for lv in range(1, m + 1)]
    # load an upgrade out of level l adds to the link
    step_up = [steps[0]] + [steps[lv] - steps[lv - 1] for lv in range(1, m)]
    # hysteresis band (band_low[l], forward[l]] of the user count at level l
    band_low = [-1] + reverse_prev[1:]
    # without a reconfiguration latency a unit steps down at the reverse
    # threshold itself, and its user count never leaves the band
    immediate = latency == 0.0

    # homogenized per-level upward rates of the analytic model, used only
    # to weight the censored-flow integrals
    up = list(transition_rates(chain).up)

    total_events = config.events
    warmup = total_events // 20
    batch_size = max(1, (total_events - warmup) // BATCH_COUNT)
    segment_ends = ([warmup] + [warmup + (i + 1) * batch_size for i in range(BATCH_COUNT - 1)]
                    + [total_events])

    rng = np.random.Generator(np.random.Philox(key=config.seed))

    def draw() -> tuple[list[float], list[float]]:
        """The next block's inter-arrival and holding times."""
        u = rng.random(block)
        return quantile(u).tolist(), (-np.log1p(-u) / mu).tolist()

    users = [0] * n
    level = [0] * n
    at_level = [0] * (m + 1)
    at_level[0] = n
    pending = [0] * n

    def occupancy_rates() -> tuple[int, float, float]:
        """Load, summed from the level counts, and the censored and total
        upward-flow rates; a level's upgrades are censored when the link
        would refuse them, by the admission rule."""
        c = 0
        for lv in range(1, m + 1):
            c += at_level[lv] * steps[lv - 1]
        num = den = 0.0
        for lv in range(m):
            f = at_level[lv] * up[lv]
            den += f
            if c + step_up[lv] > limit:
                num += f
        return c, num, den

    heap: list[tuple[float, int, int, int, int]] = []
    heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace
    gaps, holds = draw()
    pos = 0
    for r in range(n):
        if pos == block:
            gaps, holds = draw()
            pos = 0
        heappush(heap, (gaps[pos], r, _ARRIVAL, r, 0))
        pos += 1
    seq = n

    c_now, num_rate, den_rate = occupancy_rates()
    c_max = 0
    t = t_mark = t_start = 0.0
    processed = 0
    # per batch: arrivals, accepted, blocked_rru, blocked_fha, attempts,
    # censored and total flow, load integral
    batches: list[tuple[int, int, int, int, int, float, float, float]] = []

    for segment, end in enumerate(segment_ends):
        arr = acc = rru = fha = att = 0
        c_int = f_num = f_den = 0.0
        while processed < end:
            t, _, kind, r, token = heap[0]

            if kind == _ARRIVAL:
                # schedule the unit's next arrival in place of this one
                if pos == block:
                    gaps, holds = draw()
                    pos = 0
                heapreplace(heap, (t + gaps[pos], seq, _ARRIVAL, r, 0))
                pos += 1
                seq += 1
                processed += 1
                arr += 1
                cur = users[r]
                if cur == big_k:
                    rru += 1
                    continue
                lv = level[r]
                if cur == forward[lv]:
                    att += 1
                    if c_now + step_up[lv] > limit:
                        fha += 1
                        continue
                    dt = t - t_mark
                    c_int += c_now * dt
                    f_num += num_rate * dt
                    f_den += den_rate * dt
                    t_mark = t
                    at_level[lv] -= 1
                    lv += 1
                    at_level[lv] += 1
                    level[r] = lv
                    c_now, num_rate, den_rate = occupancy_rates()
                    if c_now > c_max:
                        c_max = c_now
                        if c_max > limit:
                            raise AssertionError(
                                f"capacity violated: load {c_now} exceeds {limit} grid units"
                            )
                acc += 1
                cur += 1
                users[r] = cur
                if pos == block:
                    gaps, holds = draw()
                    pos = 0
                heappush(heap, (t + holds[pos], seq, _DEPARTURE, r, 0))
                pos += 1
                seq += 1

            elif kind == _DEPARTURE:
                heappop(heap)
                processed += 1
                cur = users[r] - 1
                users[r] = cur
                lv = level[r]
                if cur == reverse_prev[lv]:
                    if immediate:
                        dt = t - t_mark
                        c_int += c_now * dt
                        f_num += num_rate * dt
                        f_den += den_rate * dt
                        t_mark = t
                        at_level[lv] -= 1
                        lv -= 1
                        at_level[lv] += 1
                        level[r] = lv
                        c_now, num_rate, den_rate = occupancy_rates()
                    else:
                        pending[r] += 1
                        heappush(heap, (t + latency, seq, _EXPIRY, r, pending[r]))
                        seq += 1

            else:
                # delayed downgrade: only the newest request per unit survives,
                # and only if the unit never climbed back above the threshold
                heappop(heap)
                lv = level[r]
                if token == pending[r] and lv >= 1 and users[r] <= reverse_prev[lv]:
                    dt = t - t_mark
                    c_int += c_now * dt
                    f_num += num_rate * dt
                    f_den += den_rate * dt
                    t_mark = t
                    at_level[lv] -= 1
                    lv -= 1
                    at_level[lv] += 1
                    level[r] = lv
                    c_now, num_rate, den_rate = occupancy_rates()
                    if lv >= 1 and users[r] <= reverse_prev[lv]:
                        pending[r] += 1
                        heappush(heap, (t + latency, seq, _EXPIRY, r, pending[r]))
                        seq += 1
                continue

            if immediate and not band_low[lv] < cur <= forward[lv]:
                raise AssertionError(
                    f"idle unit {r} holds {cur} calls" if lv == 0 else
                    f"unit {r} outside its hysteresis band: users={cur}, level={lv}"
                )

        # close the segment at its last counted event
        dt = t - t_mark
        c_int += c_now * dt
        f_num += num_rate * dt
        f_den += den_rate * dt
        t_mark = t
        if segment == 0:
            t_start = t
            continue
        if arr != acc + rru + fha:
            raise AssertionError(f"arrival conservation violated in batch {segment - 1}")
        batches.append((arr, acc, rru, fha, att, f_num, f_den, c_int))

    b_arr, b_acc, b_rru, b_fha, b_att, b_fnum, b_fden, b_cint = zip(*batches)
    arrivals = sum(b_arr)
    blocked_rru = sum(b_rru)
    blocked_fha = sum(b_fha)
    attempts = sum(b_att)
    flow_num = math.fsum(b_fnum)
    flow_den = math.fsum(b_fden)

    elapsed = t_mark - t_start
    means = [
        (b_fnum[i] / b_fden[i] if b_fden[i] > 0 else 0.0) for i in range(BATCH_COUNT)
    ]
    grand = sum(means) / BATCH_COUNT
    var = sum((x - grand) ** 2 for x in means) / (BATCH_COUNT - 1)
    stderr = math.sqrt(var / BATCH_COUNT)

    return SimStats(
        arrivals=arrivals,
        accepted=sum(b_acc),
        blocked_rru=blocked_rru,
        blocked_fha=blocked_fha,
        upgrade_attempts=attempts,
        estimate_fha_flow=flow_num / flow_den if flow_den > 0 else 0.0,
        stderr=stderr,
        ci_half_width=T_QUANTILE * stderr,
        estimate_fha_per_attempt=blocked_fha / attempts if attempts else 0.0,
        estimate_fha_per_arrival=blocked_fha / arrivals if arrivals else 0.0,
        estimate_rru_per_arrival=blocked_rru / arrivals if arrivals else 0.0,
        estimate_total_per_arrival=(blocked_rru + blocked_fha) / arrivals if arrivals else 0.0,
        c_time_average=(math.fsum(b_cint) / elapsed * rate_set.unit_mbps
                        if elapsed > 0 else 0.0),
        c_max=c_max * rate_set.unit_mbps,
        events_processed=processed,
        warmup_events=warmup,
        seed=config.seed,
        batch_arrivals=b_arr,
        batch_blocked_rru=b_rru,
        batch_blocked_fha=b_fha,
        batch_attempts=b_att,
        batch_flow_blocked=b_fnum,
        batch_flow_total=b_fden,
    )
