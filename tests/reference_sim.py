"""An earlier heap engine of the simulator, kept as a test oracle.

`run` keeps one future-event heap: one loop over every event, with the
warm-up and batch bookkeeping tested on each event, the load and flow
integrals advanced on each event, a departure scheduled for every call,
and every uniform drawn from one Philox stream and transformed one at a
time in pure Python (`scalar_quantile` is the scalar inverse CDF it
used). It compares loads in Mbit/s with a float slack. `vrfplan.sim.run`
draws other streams (one per unit, and one for its single departure
clock), so the two engines agree in distribution only: the library's
estimates must match this one's within a multiple of their combined
batch-means standard error, and the integer bookkeeping exactly.
"""

from __future__ import annotations

import functools
import heapq
import math

import numpy as np

from vrfplan.rru import transition_rates
from vrfplan.sim import BATCH_COUNT, T_QUANTILE, ArrivalProcess, SimConfig, SimStats

_CAPACITY_SLACK = 1e-6
_UNIFORM_BLOCK = 1 << 16

_ARRIVAL, _DEPARTURE, _EXPIRY = 0, 1, 2


def scalar_quantile(process: ArrivalProcess, u: float) -> float:
    """Inverse CDF of the inter-arrival time at u in [0, 1), one float at
    a time with `math.log1p`."""
    x = -math.log1p(-u)
    if process.shape != 1.0:
        x = x ** (1.0 / process.shape)
    return x * (1.0 / process.rate)


def run(config: SimConfig) -> SimStats:
    """Run one replication and return its statistics.

    Event-driven with a single future-event heap; ties broken by push
    order for determinism. The first 5% of events warm the system up and
    are excluded from every counter; the rest split into equal batches
    whose means yield the confidence interval.
    """
    chain = config.unit
    n = config.cluster_size
    m = chain.rate_set.count
    d = list(chain.rate_set.rates)
    big_k = chain.rate_set.server_count
    b_c = config.link_capacity_mbps
    mu = chain.traffic.mu
    latency = config.reconfig_latency
    interarrival = functools.partial(scalar_quantile, config.arrival)
    capacity_limit = b_c + _CAPACITY_SLACK

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
