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
A run stores only what it counted, batch by batch: `SimStats` derives
every total and estimate from those per-batch counters.

`run` keeps no event heap. The units' arrivals are merged in numpy into
one timeline, window by window; departures come from one exponential
clock at the rate of all calls in progress, since holding times are
exponential; both are iterators the loop reads one draw at a time.
Delayed downgrades wait in a FIFO queue, since every delay is the
same. The warm-up and each of the `BATCH_COUNT` batches run as a
segment of their own, an inner loop with plain local counters; the load
and flow integrals advance only when the occupancy changes. The load is
an integer count of the rate set's grid unit, and the link admits a step
when the new load stays within the rate set's grid limit: the same
integer comparison the analytic grid solve makes. Loads are scaled back
to Mbit/s only in the statistics.
The random streams come from a counter-based Philox generator keyed by
the config seed: jump r + 1 feeds unit r's inter-arrival times and the
unjumped stream the departure clock, so a unit's arrivals do not depend
on the cluster size. Uniforms are drawn in blocks, each transformed once
in numpy and consumed in stream order.
Identical configurations therefore reproduce bit-identical statistics,
whatever the block size, on a given platform and numpy build.

Two rules pair runs with the analytic model, for the sweep verb and the
`validate` suites alike: `coordinate_seed` derives a grid point's seed
from its coordinates, and `agrees` judges a flow estimate against the
exact blocking.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .config import PlanningConfig, _is_int, _is_number, check_cluster
from .errors import InvalidConfigError
from .rru import RruChainSpec, transition_rates

#: Minimum event budget for any reported estimate.
MIN_EVENTS = 100_000
#: Number of equal-size event batches behind the confidence interval.
BATCH_COUNT = 20
#: 97.5% quantile of Student's t with BATCH_COUNT-1 degrees of freedom
#: (scipy.stats.t.ppf(0.975, 19), kept as a literal to spare the import).
T_QUANTILE = 2.0930240544083087
#: A simulated estimate agrees with the exact blocking when they differ by at
#: most this many standard errors.
AGREE_SIGMA = 3.0
#: They agree unconditionally when both blocking probabilities, or both of
#: their complements, are below this.
AGREE_FLOOR = 1e-4
#: Uniforms the units' arrivals share, and uniform pairs the departure clock
#: draws, at a time; the outcome does not depend on it.
_UNIFORM_BLOCK = 1 << 12


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
        if not _is_number(self.rate) or not 0 < self.rate < math.inf:
            raise InvalidConfigError("arrival",
                                     f"rate must be a positive finite number, got {self.rate!r}")
        if not _is_number(self.shape) or not self.shape > 0:
            raise InvalidConfigError("arrival", f"shape must be a positive number, got {self.shape!r}")
        # Generator.random draws at most 1 - 2**-53, so this is the longest gap
        with np.errstate(over="ignore"):
            longest = self.quantile(1.0 - 2.0**-53)
        if not math.isfinite(longest):
            raise InvalidConfigError(
                "arrival", f"rate {self.rate!r} and shape {self.shape!r} can draw an "
                           f"inter-arrival time past the float range")

    def quantile(self, u: float | np.ndarray) -> float | np.ndarray:
        """Inverse CDF of the inter-arrival time at u in [0, 1), elementwise
        over an array of uniforms. A power of 1.0 returns its base exactly,
        so shape 1 draws the exponential gaps bit for bit."""
        return (-np.log1p(-u)) ** (1.0 / self.shape) * (1.0 / self.rate)


@dataclass(frozen=True)
class SimConfig:
    """Everything one replication needs; immutable and fully validated.
    Each unit's arrivals have the unit's rate lambda and the given
    inter-arrival `shape` (1 is Poisson). `grid_limit` is the largest load
    the link admits, in grid units of the unit's rate set."""

    unit: RruChainSpec
    cluster_size: int
    link_capacity_mbps: float
    events: int
    seed: int
    shape: float = 1.0
    reconfig_latency: float = 0.0
    arrival: ArrivalProcess = field(init=False)
    grid_limit: int = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.unit, RruChainSpec):
            raise InvalidConfigError("unit", f"must be an RruChainSpec, got {type(self.unit).__name__}")
        object.__setattr__(self, "grid_limit", check_cluster(self.unit.rate_set, self.cluster_size,
                                                             self.link_capacity_mbps))
        # the flow integrals weight each unit by an upward rate of at most
        # lambda, the wake-up rate, so their rates reach N * lambda
        if not math.isfinite(self.cluster_size * self.unit.lam):
            raise InvalidConfigError(
                "cluster_size",
                f"the cluster's upgrade flow rate N * lambda = N*a*K*mu = "
                f"{self.cluster_size} * {self.unit.traffic.a!r} * "
                f"{self.unit.rate_set.server_count} * {self.unit.traffic.mu!r} "
                f"is not a finite number")
        if not _is_int(self.events) or self.events < MIN_EVENTS:
            raise InvalidConfigError(
                "events", f"must be an integer >= {MIN_EVENTS} for a reportable estimate"
            )
        if not _is_int(self.seed):
            raise InvalidConfigError("seed", "an explicit integer seed is required for reproducibility")
        if not 0 <= self.seed < 2**128:
            # the Philox key is a 128-bit unsigned integer
            raise InvalidConfigError("seed", f"must lie in [0, 2**128), got {self.seed}")
        if not _is_number(self.reconfig_latency) or not 0 <= self.reconfig_latency < math.inf:
            raise InvalidConfigError(
                "reconfig_latency",
                f"must be a finite non-negative number, got {self.reconfig_latency!r}")
        object.__setattr__(self, "arrival", ArrivalProcess(rate=self.unit.lam, shape=self.shape))

    @classmethod
    def from_planning(cls, planning: PlanningConfig, events: int, seed: int,
                      shape: float = 1.0, latency: float = 0.0) -> SimConfig:
        """One replication of a planning scenario."""
        return cls(unit=RruChainSpec.from_planning(planning), cluster_size=planning.cluster_size,
                   link_capacity_mbps=planning.link_capacity_mbps, events=events, seed=seed,
                   shape=shape, reconfig_latency=latency)


@dataclass(frozen=True)
class SimStats:
    """What one replication counted, and the totals and estimates derived
    from it.

    All counters cover the post-warm-up window only. The run stores the
    counters of each of the `BATCH_COUNT` batches; every total and
    estimate is a property computed from them, so no value is stored
    twice. `blocked_rru` is cause 1 (every server of the unit busy);
    `blocked_fha` is cause 2 (the needed rate upgrade does not fit on the
    shared link).

    `estimate_fha_flow` is the censored share of the upgrade flow over
    the empirical occupancy path, the quantity comparable to the
    analytic blocking total; `stderr` and `ci_half_width` belong to it.
    `estimate_fha_per_attempt` is the plain blocked-calls-over-attempts
    average, and the per-arrival estimates divide by all arrivals. The
    per-batch counters give an error bar for any of the ratios.
    """

    c_time_average: float
    c_max: float
    events_processed: int
    warmup_events: int
    seed: int
    batch_arrivals: tuple[int, ...]
    batch_accepted: tuple[int, ...]
    batch_blocked_rru: tuple[int, ...]
    batch_blocked_fha: tuple[int, ...]
    batch_attempts: tuple[int, ...]
    batch_flow_blocked: tuple[float, ...]
    batch_flow_total: tuple[float, ...]

    @property
    def arrivals(self) -> int:
        return sum(self.batch_arrivals)

    @property
    def accepted(self) -> int:
        return sum(self.batch_accepted)

    @property
    def blocked_rru(self) -> int:
        return sum(self.batch_blocked_rru)

    @property
    def blocked_fha(self) -> int:
        return sum(self.batch_blocked_fha)

    @property
    def upgrade_attempts(self) -> int:
        return sum(self.batch_attempts)

    @property
    def estimate_fha_flow(self) -> float:
        den = math.fsum(self.batch_flow_total)
        return math.fsum(self.batch_flow_blocked) / den if den > 0 else 0.0

    @property
    def stderr(self) -> float:
        """Batch-means standard error of `estimate_fha_flow`."""
        means = [(num / den if den > 0 else 0.0)
                 for num, den in zip(self.batch_flow_blocked, self.batch_flow_total)]
        grand = sum(means) / BATCH_COUNT
        var = sum((x - grand) ** 2 for x in means) / (BATCH_COUNT - 1)
        return math.sqrt(var / BATCH_COUNT)

    @property
    def ci_half_width(self) -> float:
        """Half-width of the 95% confidence interval of `estimate_fha_flow`."""
        return T_QUANTILE * self.stderr

    @property
    def estimate_fha_per_attempt(self) -> float:
        attempts = self.upgrade_attempts
        return self.blocked_fha / attempts if attempts else 0.0

    @property
    def estimate_fha_per_arrival(self) -> float:
        arrivals = self.arrivals
        return self.blocked_fha / arrivals if arrivals else 0.0

    @property
    def estimate_rru_per_arrival(self) -> float:
        arrivals = self.arrivals
        return self.blocked_rru / arrivals if arrivals else 0.0

    @property
    def estimate_total_per_arrival(self) -> float:
        arrivals = self.arrivals
        return (self.blocked_rru + self.blocked_fha) / arrivals if arrivals else 0.0


def _arrival_windows(seed: int, n: int, quantile: Callable[[np.ndarray], np.ndarray],
                     block: int) -> Iterator[tuple[list[float], list[int]]]:
    """The merged arrival timeline of `n` renewal units, one window at a
    time: a list of arrival times in order and a list of their units.

    Unit r draws its gaps from its own Philox substream, the seed key's
    (r + 1)-th jump, `block` at a time, and accumulates each block from
    its last arrival time, so the times do not depend on `block`. A window
    holds every drawn arrival up to the earliest horizon (last drawn time)
    of the units, sorted by time with ties by unit; later arrivals carry
    over to the next window, to which every unit with fewer than `block`
    of them left first draws another block.
    """
    streams = [np.random.Generator(np.random.Philox(key=seed).jumped(r + 1)) for r in range(n)]
    last = np.zeros(n)
    ahead = np.zeros(n, dtype=np.int64)
    times, units = np.empty(0), np.empty(0, dtype=np.int64)
    while True:
        low = np.flatnonzero(ahead < block)
        gaps = quantile(np.array([streams[r].random(block) for r in low]))
        drawn = np.cumsum(np.column_stack((last[low], gaps)), axis=1)[:, 1:]
        last[low] = drawn[:, -1]
        ahead[low] += block
        times = np.concatenate((times, drawn.ravel()))
        units = np.concatenate((units, np.repeat(low, block)))
        due = times <= last.min()
        merged = np.flatnonzero(due)
        merged = merged[np.lexsort((units[merged], times[merged]))]
        ahead -= np.bincount(units[merged], minlength=n)
        yield times[merged].tolist(), units[merged].tolist()
        times, units = times[~due], units[~due]


def run(config: SimConfig) -> SimStats:
    """Run one replication and return its statistics.

    The first 5% of events warm the system up and are excluded from every
    counter; the rest split into `BATCH_COUNT` equal batches whose means
    yield the confidence interval. Events are arrivals and departures.

    The warm-up and each batch run as one segment: an inner loop over the
    segment's events with plain local counters, whose totals are appended
    as the batch's entry when the segment ends. The next event is the
    earliest of three clocks:

    - arrivals, read off the merged timeline of the units' renewal
      streams (`_arrival_windows`);
    - one departure clock of rate mu * U, U the calls in progress. It is
      redrawn whenever U changes: the next (holding time, pick) pair off
      an iterator over the seed key's own Philox stream, two uniforms a
      pair, read the way the arrivals are. The holding time of one call
      over U is the clock; the pick chooses the departing call among U,
      each call equally likely. A list holds each call's unit; a
      departing call is swapped with the last entry and removed;
    - expiries of delayed downgrades, in a FIFO queue, since the latency
      is the same for all. They are not counted as events and belong to
      the segment they fall in.

    Each event only decides its unit's level move: up one level (an
    admitted upgrade or wake-up), down one (a downgrade, at once or when
    its delay expires) or none. One block then makes the move: it
    advances the load and flow integrals, moves the unit between the
    level counts, looks up the load and flow rates of the new counts
    (computed once per run for each) and checks the link capacity. So the
    integrals advance only when the occupancy changes, and once more at
    each segment end.

    Each unit draws its share of `_UNIFORM_BLOCK` uniforms at a time, at
    least 64, and the departure clock's iterator `_UNIFORM_BLOCK` pairs
    when it runs dry; each block is transformed once, in numpy. Every
    stream is consumed in its own order, so the block size does not
    change the outcome.
    """
    chain = config.unit
    rate_set = chain.rate_set
    n = config.cluster_size
    m = rate_set.count
    # loads are integer counts of the rate set's grid unit
    steps = rate_set.steps
    limit = config.grid_limit
    big_k = rate_set.server_count
    mu = chain.traffic.mu
    latency = config.reconfig_latency
    block = _UNIFORM_BLOCK
    inf = math.inf

    # forward[l] and reverse_prev[l] indexed by current level l (1-based);
    # an idle unit (l = 0) wakes up on its first call
    forward = [0] + [chain.forward_at(lv) for lv in range(1, m + 1)]
    reverse_prev = [0] + [chain.reverse_before(lv) for lv in range(1, m + 1)]
    # load an upgrade out of level l adds to the link
    step_up = rate_set.jumps
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

    # at least 64 gaps a unit, so that the windows stay long in large clusters
    windows = _arrival_windows(config.seed, n, config.arrival.quantile, max(64, block // n))
    departures = np.random.Generator(np.random.Philox(key=config.seed))

    def draw() -> Iterator[tuple[float, float]]:
        """The departure clock's next block: pairs of a holding time of one
        call (rate mu) and a pick in [0, 1)."""
        u = departures.random(2 * block)
        return zip((-np.log1p(-u[0::2]) / mu).tolist(), u[1::2].tolist())

    users = [0] * n
    level = [0] * n
    at_level = [0] * (m + 1)
    at_level[0] = n
    pending = [0] * n
    # owners[:busy] holds the unit of each call in progress, in no order
    owners = [0] * (n * big_k)
    # delayed downgrades: (expiry time, unit, request token), in time order
    expiries: deque[tuple[float, int, int]] = deque()

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

    # the level counts as one integer, sum of at_level[l] * (n + 1)**l
    weight = [(n + 1) ** lv for lv in range(m + 1)]
    code = n
    occupancy = {code: occupancy_rates()}
    c_now, num_rate, den_rate = occupancy[code]

    # the next arrival, as (time, unit), read off the windows in turn
    arrivals = itertools.chain.from_iterable(zip(*w) for w in windows)
    t_arr, r_arr = next(arrivals)
    # the departure clock's next (holding time, pick), read off the blocks in turn
    clock = itertools.chain.from_iterable(iter(draw, None))
    busy = 0
    t_dep = t_exp = inf

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
            move = 0

            if t_exp <= t_arr and t_exp <= t_dep:
                # delayed downgrade: only the newest request per unit survives,
                # and only if the unit never climbed back above the threshold;
                # a unit still at or below the next threshold down asks again
                t, r, token = expiries.popleft()
                t_exp = expiries[0][0] if expiries else inf
                lv = level[r]
                cur = users[r]
                if token == pending[r] and lv >= 1 and cur <= reverse_prev[lv]:
                    move = -1
                    if lv >= 2 and cur <= reverse_prev[lv - 1]:
                        pending[r] += 1
                        expiries.append((t + latency, r, pending[r]))
                        t_exp = expiries[0][0]

            elif t_dep < t_arr:
                t = t_dep
                processed += 1
                k = int(pick * busy)
                busy -= 1
                r = owners[k]
                owners[k] = owners[busy]
                if busy:
                    hold, pick = next(clock)
                    t_dep = t + hold / busy
                else:
                    t_dep = inf
                cur = users[r] - 1
                users[r] = cur
                lv = level[r]
                if cur == reverse_prev[lv]:
                    if immediate:
                        move = -1
                    else:
                        pending[r] += 1
                        expiries.append((t + latency, r, pending[r]))
                        t_exp = expiries[0][0]

            else:
                t, r = t_arr, r_arr
                t_arr, r_arr = next(arrivals)
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
                    move = 1
                acc += 1
                cur += 1
                users[r] = cur
                owners[busy] = r
                busy += 1
                hold, pick = next(clock)
                t_dep = t + hold / busy

            if move:
                dt = t - t_mark
                c_int += c_now * dt
                f_num += num_rate * dt
                f_den += den_rate * dt
                t_mark = t
                at_level[lv] -= 1
                code -= weight[lv]
                lv += move
                at_level[lv] += 1
                code += weight[lv]
                level[r] = lv
                rates = occupancy.get(code)
                if rates is None:
                    rates = occupancy[code] = occupancy_rates()
                c_now, num_rate, den_rate = rates
                # only an upgrade can raise the load past c_max
                if c_now > c_max:
                    c_max = c_now
                    if c_max > limit:
                        raise AssertionError(
                            f"capacity violated: load {c_now} exceeds {limit} grid units"
                        )

            # an expiry needs a latency, so it never reaches the band check
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
    elapsed = t_mark - t_start
    return SimStats(
        c_time_average=(math.fsum(b_cint) / elapsed * rate_set.unit_mbps
                        if elapsed > 0 else 0.0),
        c_max=c_max * rate_set.unit_mbps,
        events_processed=processed,
        warmup_events=warmup,
        seed=config.seed,
        batch_arrivals=b_arr,
        batch_accepted=b_acc,
        batch_blocked_rru=b_rru,
        batch_blocked_fha=b_fha,
        batch_attempts=b_att,
        batch_flow_blocked=b_fnum,
        batch_flow_total=b_fden,
    )


def coordinate_seed(base_seed: int, a: float, n_d: int, gap: int, arrival: str,
                    n: int, events: int) -> int:
    """Deterministic 63-bit seed from a sweep's grid coordinates,
    independent of execution order."""
    key = f"{base_seed}|{a:.12g}|{n_d}|{gap}|{arrival}|{n}|{events}"
    return int(hashlib.sha256(key.encode()).hexdigest()[:16], 16) >> 1


def agrees(pb_exact: float, pb_sim: float, stderr: float) -> bool:
    """Whether a simulated estimate matches the "true"-convention
    blocking, the exact product form of the chain the simulator runs."""
    if pb_exact < AGREE_FLOOR and pb_sim < AGREE_FLOOR:
        return True
    if 1.0 - pb_exact < AGREE_FLOOR and 1.0 - pb_sim < AGREE_FLOOR:
        return True
    return abs(pb_exact - pb_sim) <= AGREE_SIGMA * stderr
