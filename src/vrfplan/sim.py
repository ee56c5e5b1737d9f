"""Event-driven simulator of the full cluster.

Each radio unit runs a loss system of `server_count` exponential servers
fed by its own renewal arrival stream (exponential or Weibull
inter-arrival times). Arrivals that land on a forward threshold, and
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

The random stream comes from a counter-based Philox generator keyed by
the config seed, so identical configurations reproduce bit-identical
statistics on any platform.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .config import PlanningConfig, RateSet, ThresholdPolicy, TrafficSpec
from .errors import InvalidConfigError, InvalidParameterError
from .rru import RruChainSpec, transition_rates

#: Minimum event budget for any reported estimate.
MIN_EVENTS = 100_000
#: Number of equal-size event batches behind the confidence interval.
BATCH_COUNT = 20
#: 97.5% quantile of Student's t with BATCH_COUNT-1 degrees of freedom
#: (scipy.stats.t.ppf(0.975, 19), kept as a literal to spare the import).
T_QUANTILE = 2.0930240544083087
#: Slack for floating-point capacity comparisons (Mbit/s).
_CAPACITY_SLACK = 1e-6
_UNIFORM_BLOCK = 1 << 16

_ARRIVAL, _DEPARTURE, _EXPIRY = 0, 1, 2


@dataclass(frozen=True)
class ArrivalProcess:
    """Renewal arrival stream, either Poisson or Weibull with the same
    nominal intensity.

    The Weibull stream keeps scale 1/rate, so its mean inter-arrival
    time is gamma(1 + 1/shape)/rate: shapes below 1 thin the traffic,
    shapes above 1 thicken it, and shape 1 recovers Poisson exactly.
    """

    kind: str
    rate: float
    shape: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("poisson", "weibull"):
            raise InvalidConfigError("arrival", f"kind must be poisson or weibull, got {self.kind!r}")
        if not self.rate > 0:
            raise InvalidConfigError("arrival", "rate must be positive")
        if not self.shape > 0:
            raise InvalidConfigError("arrival", f"shape must be positive, got {self.shape}")
        if self.kind == "poisson" and self.shape != 1.0:
            raise InvalidConfigError("arrival", "poisson arrivals take no shape parameter")

    @property
    def mean_interarrival(self) -> float:
        return math.gamma(1.0 + 1.0 / self.shape) / self.rate

    def quantile(self, u: float) -> float:
        """Inverse CDF of the inter-arrival time at u in [0, 1)."""
        x = -math.log1p(-u)
        if self.shape != 1.0:
            x = x ** (1.0 / self.shape)
        return x * (1.0 / self.rate)


def reconfig_arrival_probability(rate: float, window: float, n: int) -> float:
    """Probability that exactly n Poisson calls arrive within one
    reconfiguration window; rate and window share the same time unit."""
    if not rate > 0 or not window > 0:
        raise InvalidParameterError("rate and window must be positive")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InvalidParameterError(f"n must be a non-negative integer, got {n!r}")
    x = rate * window
    return math.exp(n * math.log(x) - x - math.lgamma(n + 1))


@dataclass(frozen=True)
class SimConfig:
    """Everything one replication needs; immutable and fully validated."""

    cluster_size: int
    rate_set: RateSet
    thresholds: ThresholdPolicy
    traffic: TrafficSpec
    link_capacity_mbps: float
    arrival: ArrivalProcess
    events: int
    seed: int
    reconfig_latency: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.cluster_size, int) or self.cluster_size < 1:
            raise InvalidConfigError("cluster_size", f"must be an integer >= 1, got {self.cluster_size!r}")
        if not isinstance(self.events, int) or self.events < MIN_EVENTS:
            raise InvalidConfigError(
                "events", f"must be an integer >= {MIN_EVENTS} for a reportable estimate"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise InvalidConfigError("seed", "an explicit integer seed is required for reproducibility")
        if self.reconfig_latency < 0:
            raise InvalidConfigError("reconfig_latency", "must be non-negative")
        if len(self.thresholds.forward) != self.rate_set.count - 1:
            raise InvalidConfigError(
                "thresholds", f"need {self.rate_set.count - 1} thresholds for {self.rate_set.count} rates"
            )
        if self.traffic.server_count != self.rate_set.server_count:
            raise InvalidConfigError(
                "server_count",
                f"traffic server count {self.traffic.server_count} must equal the top "
                f"rate capacity {self.rate_set.server_count}",
            )
        if not math.isclose(self.arrival.rate, self.traffic.lam, rel_tol=1e-12):
            raise InvalidConfigError(
                "arrival", f"arrival rate {self.arrival.rate} must equal traffic lambda {self.traffic.lam}"
            )
        if not self.link_capacity_mbps > self.rate_set.rates[0]:
            raise InvalidConfigError("fha_capacity_mbps", "must exceed the lowest rate")

    @classmethod
    def from_planning(cls, planning: PlanningConfig, events: int, seed: int,
                      kind: str = "poisson", shape: float = 1.0,
                      latency: float = 0.0) -> SimConfig:
        """One replication of a planning scenario; `shape` applies to
        Weibull arrivals only."""
        arrival = ArrivalProcess(kind=kind, rate=planning.traffic.lam,
                                 shape=shape if kind == "weibull" else 1.0)
        return cls(cluster_size=planning.cluster_size, rate_set=planning.rate_set,
                   thresholds=planning.thresholds, traffic=planning.traffic,
                   link_capacity_mbps=planning.link_capacity_mbps, arrival=arrival,
                   events=events, seed=seed, reconfig_latency=latency)


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
    are excluded from every counter; the rest split into equal batches
    whose means yield the confidence interval.
    """
    n = config.cluster_size
    m = config.rate_set.count
    d = list(config.rate_set.rates)
    big_k = config.traffic.server_count
    b_c = config.link_capacity_mbps
    mu = config.traffic.mu
    latency = config.reconfig_latency
    interarrival = config.arrival.quantile
    capacity_limit = b_c + _CAPACITY_SLACK

    chain = RruChainSpec(rate_set=config.rate_set, thresholds=config.thresholds,
                         traffic=config.traffic)
    # forward[l] and reverse_prev[l] indexed by current level l (1-based)
    forward = [0] + [chain.forward_at(lv) for lv in range(1, m + 1)]
    reverse_prev = [0] + [chain.reverse_before(lv) for lv in range(1, m + 1)]

    # homogenized per-level upward rates of the analytic model, used only
    # to weight the censored-flow integrals
    up = list(transition_rates(chain).up)

    total_events = config.events
    warmup = total_events // 20
    batch_size = max(1, (total_events - warmup) // BATCH_COUNT)

    rng = np.random.Generator(np.random.Philox(key=config.seed))
    buf: list[float] = []
    buf_pos = 0

    users = [0] * n
    level = [0] * n
    at_level = [0] * (m + 1)
    at_level[0] = n
    pending = [0] * n

    heap: list[tuple[float, int, int, int, int]] = []
    push = heapq.heappush
    pop = heapq.heappop
    seq = 0

    log1p = math.log1p

    def refill() -> None:
        nonlocal buf, buf_pos
        buf = rng.random(_UNIFORM_BLOCK).tolist()
        buf_pos = 0

    refill()
    for r in range(n):
        dt = interarrival(buf[buf_pos])
        buf_pos += 1
        push(heap, (dt, seq, _ARRIVAL, r, 0))
        seq += 1

    arrivals = accepted = blocked_rru = blocked_fha = attempts = 0
    b_arr = [0] * BATCH_COUNT
    b_rru = [0] * BATCH_COUNT
    b_fha = [0] * BATCH_COUNT
    b_att = [0] * BATCH_COUNT
    b_fnum = [0.0] * BATCH_COUNT
    b_fden = [0.0] * BATCH_COUNT

    c_now = 0.0
    c_max = 0.0
    c_integral = 0.0
    flow_num = flow_den = 0.0
    t_mark = 0.0
    t_start = 0.0
    processed = 0
    counting = False
    batch = 0

    def flow_rates() -> tuple[float, float]:
        """Current censored and total upward-flow rates."""
        den = at_level[0] * up[0]
        num = den if at_level[0] and c_now + d[0] > capacity_limit else 0.0
        for lv in range(1, m):
            f = at_level[lv] * up[lv]
            den += f
            if f and c_now + d[lv] - d[lv - 1] > capacity_limit:
                num += f
        return num, den

    num_rate, den_rate = flow_rates()

    while processed < total_events:
        t, _, kind, r, token = pop(heap)

        if kind == _EXPIRY:
            # delayed downgrade: only the newest request per unit survives,
            # and only if the unit never climbed back above the threshold
            lv = level[r]
            if token == pending[r] and lv >= 1 and users[r] <= reverse_prev[lv]:
                if counting:
                    dt = t - t_mark
                    c_integral += c_now * dt
                    flow_num += num_rate * dt
                    flow_den += den_rate * dt
                    b_fnum[batch] += num_rate * dt
                    b_fden[batch] += den_rate * dt
                    t_mark = t
                at_level[lv] -= 1
                at_level[lv - 1] += 1
                c_now -= d[lv - 1] - (d[lv - 2] if lv >= 2 else 0.0)
                level[r] = lv - 1
                num_rate, den_rate = flow_rates()
                if lv - 1 >= 1 and users[r] <= reverse_prev[lv - 1]:
                    pending[r] += 1
                    push(heap, (t + latency, seq, _EXPIRY, r, pending[r]))
                    seq += 1
            continue

        if counting:
            dt = t - t_mark
            c_integral += c_now * dt
            flow_num += num_rate * dt
            flow_den += den_rate * dt
            b_fnum[batch] += num_rate * dt
            b_fden[batch] += den_rate * dt
            t_mark = t

        if kind == _ARRIVAL:
            # schedule the unit's next arrival before handling this one
            if buf_pos == _UNIFORM_BLOCK:
                refill()
                c_now = 0.0
                for lv in range(1, m + 1):
                    c_now += at_level[lv] * d[lv - 1]
            dt = interarrival(buf[buf_pos])
            buf_pos += 1
            push(heap, (t + dt, seq, _ARRIVAL, r, 0))
            seq += 1

            arrivals += 1
            if counting:
                b_arr[batch] += 1
            lv = level[r]
            cur_users = users[r]
            if cur_users == big_k:
                blocked_rru += 1
                if counting:
                    b_rru[batch] += 1
            else:
                if lv == 0:
                    step = d[0]
                elif cur_users == forward[lv]:
                    step = d[lv] - d[lv - 1]
                else:
                    step = 0.0
                if step > 0.0:
                    attempts += 1
                    if counting:
                        b_att[batch] += 1
                    admit = c_now + step <= capacity_limit
                else:
                    admit = True
                if not admit:
                    blocked_fha += 1
                    if counting:
                        b_fha[batch] += 1
                else:
                    accepted += 1
                    if step > 0.0:
                        at_level[lv] -= 1
                        at_level[lv + 1] += 1
                        level[r] = lv + 1
                        c_now += step
                        if c_now > c_max:
                            c_max = c_now
                        num_rate, den_rate = flow_rates()
                    users[r] = cur_users + 1
                    if buf_pos == _UNIFORM_BLOCK:
                        refill()
                    u = buf[buf_pos]
                    buf_pos += 1
                    push(heap, (t - log1p(-u) / mu, seq, _DEPARTURE, r, 0))
                    seq += 1

        else:
            users[r] -= 1
            lv = level[r]
            if users[r] == reverse_prev[lv]:
                if latency == 0.0:
                    at_level[lv] -= 1
                    at_level[lv - 1] += 1
                    c_now -= d[lv - 1] - (d[lv - 2] if lv >= 2 else 0.0)
                    level[r] = lv - 1
                    num_rate, den_rate = flow_rates()
                else:
                    pending[r] += 1
                    push(heap, (t + latency, seq, _EXPIRY, r, pending[r]))
                    seq += 1

        processed += 1
        if counting:
            if processed - warmup >= (batch + 1) * batch_size and batch < BATCH_COUNT - 1:
                batch += 1
        elif processed >= warmup:
            counting = True
            t_mark = t
            t_start = t
            arrivals = accepted = blocked_rru = blocked_fha = attempts = 0

        if c_now > capacity_limit:
            raise AssertionError(
                f"capacity violated: aggregate rate {c_now:.6f} exceeds {b_c:.6f}"
            )
        if latency == 0.0:
            lv = level[r]
            if lv == 0:
                if users[r] != 0:
                    raise AssertionError(f"idle unit {r} holds {users[r]} calls")
            elif not reverse_prev[lv] < users[r] <= forward[lv]:
                raise AssertionError(
                    f"unit {r} outside its hysteresis band: users={users[r]}, level={lv}"
                )

    if arrivals != accepted + blocked_rru + blocked_fha:
        raise AssertionError("arrival conservation violated")

    elapsed = t_mark - t_start
    means = [
        (b_fnum[i] / b_fden[i] if b_fden[i] > 0 else 0.0) for i in range(BATCH_COUNT)
    ]
    grand = sum(means) / BATCH_COUNT
    var = sum((x - grand) ** 2 for x in means) / (BATCH_COUNT - 1)
    stderr = math.sqrt(var / BATCH_COUNT)

    return SimStats(
        arrivals=arrivals,
        accepted=accepted,
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
        c_time_average=c_integral / elapsed if elapsed > 0 else 0.0,
        c_max=c_max,
        events_processed=processed,
        warmup_events=warmup,
        seed=config.seed,
        batch_arrivals=tuple(b_arr),
        batch_blocked_rru=tuple(b_rru),
        batch_blocked_fha=tuple(b_fha),
        batch_attempts=tuple(b_att),
        batch_flow_blocked=tuple(b_fnum),
        batch_flow_total=tuple(b_fden),
    )
