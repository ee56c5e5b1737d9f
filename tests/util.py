"""Shared oracles and builders for the test suite.

Everything here is deliberately independent of the library's own closed
forms: brute-force chain solves, textbook recursions, and a hand-built
two-unit joint chain. Tests compare library output against these.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from vrfplan import RateSet, RruChainSpec, ThresholdPolicy, TrafficSpec
from vrfplan import RruRates, oracle
from vrfplan._logspace import logsumexp


def erlang_b(rho: float, servers: int) -> float:
    """Loss probability of M/M/s(0), by the standard stable recursion."""
    b = 1.0
    for s in range(1, servers + 1):
        b = rho * b / (s + rho * b)
    return b


def poisson_pmf(mean: float, n: int) -> float:
    """Probability of exactly n Poisson arrivals with the given mean."""
    return math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))


def takacs_loss(laplace, servers: int, mu: float) -> float:
    """Loss probability of GI/M/s(0) (Takacs): `laplace(s)` is the
    Laplace-Stieltjes transform E[exp(-s T)] of the inter-arrival time T.
    B = 1 / sum_j C(s, j) prod_{i<=j} (1 - phi(i mu)) / phi(i mu)."""
    total = term = 1.0
    for j in range(1, servers + 1):
        phi = laplace(j * mu)
        term *= (1.0 - phi) / phi
        total += math.comb(servers, j) * term
    return 1.0 / total


def engset_marginal(n: int, ratio: float, cap: int) -> np.ndarray:
    """Truncated binomial-form distribution C(n,k) ratio^k, k = 0..cap."""
    w = np.array([math.comb(n, k) * ratio**k for k in range(cap + 1)])
    return w / w.sum()


def rate_level_distribution(rates: RruRates) -> np.ndarray:
    """Stationary distribution over {off, level 1..M} of the birth-death
    chain driven by the level-transition rates."""
    lw = np.zeros(rates.level_count + 1)
    for level in range(1, rates.level_count + 1):
        lw[level] = lw[level - 1] + math.log(rates.up[level - 1]) - math.log(rates.down[level - 1])
    probs = np.exp(lw - logsumexp(lw))
    return probs / probs.sum()


def mk_chain(rates, caps, forward, reverse, lam, mu) -> RruChainSpec:
    caps = tuple(int(c) for c in caps)
    return RruChainSpec(
        rate_set=RateSet(rates=tuple(float(r) for r in rates), capacities=caps),
        thresholds=ThresholdPolicy(forward=tuple(forward), reverse=tuple(reverse)),
        traffic=TrafficSpec(a=lam / (caps[-1] * mu), mu=mu),
    )


class TwoUnitExact:
    """Brute-force joint chain for two units with ladder (d1, d2),
    capacities (3, 6), hysteresis F=(3,), R=(2,), shared link B_c.

    Solved exactly; exposes the blocked-attempt fraction so the event
    simulator can be checked against ground truth rather than against the
    package's own approximation.
    """

    K = 6
    D1, D2 = 100.0, 200.0

    def __init__(self, bc: float = 350.0, lam: float = 1.5, mu: float = 0.5):
        self.bc = bc
        self.lam = lam
        self.mu = mu
        self.unit_states = [(0, 0), (1, 1), (2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (6, 2)]
        self.load_of = {s: (0.0 if s[1] == 0 else (self.D1 if s[1] == 1 else self.D2))
                        for s in self.unit_states}
        self.joint = [s for s in itertools.product(self.unit_states, self.unit_states)
                      if self.load_of[s[0]] + self.load_of[s[1]] <= bc]
        self.idx = {s: i for i, s in enumerate(self.joint)}
        self.pi = oracle.steady_state(self._generator())

    def _arrival_target(self, me, other_load):
        u, level = me
        if u == self.K:
            return me, False            # all servers busy: not a link block
        if level == 0:
            if other_load + self.D1 > self.bc:
                return me, True
            return (1, 1), False
        if level == 1 and u == 3:
            if other_load + self.D2 > self.bc:
                return me, True
            return (4, 2), False
        return (u + 1, level), False

    def _departure_target(self, me):
        u, level = me
        if u == 0:
            return None
        if level == 2 and u - 1 == 2:
            return (2, 1)
        if level == 1 and u - 1 == 0:
            return (0, 0)
        return (u - 1, level)

    def _generator(self) -> np.ndarray:
        n = len(self.joint)
        q = np.zeros((n, n))
        for s in self.joint:
            i = self.idx[s]
            for which in (0, 1):
                me, other = s[which], s[1 - which]
                tgt, _ = self._arrival_target(me, self.load_of[other])
                if tgt != me:
                    t = (tgt, other) if which == 0 else (other, tgt)
                    q[i, self.idx[t]] += self.lam
                dt = self._departure_target(me)
                if dt is not None:
                    t = (dt, other) if which == 0 else (other, dt)
                    q[i, self.idx[t]] += me[0] * self.mu
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        return q

    def blocked_attempt_fraction(self) -> float:
        """Exact share of wake-up/upgrade attempts the link refuses."""
        num = den = 0.0
        for s in self.joint:
            p = self.pi[self.idx[s]]
            for which in (0, 1):
                me, other = s[which], s[1 - which]
                u, level = me
                if level == 0 or (level == 1 and u == 3):
                    den += p * self.lam
                    _, blocked = self._arrival_target(me, self.load_of[other])
                    if blocked:
                        num += p * self.lam
        return num / den

    def homogenized_flow_share(self, up) -> float:
        """Exact value of the simulator's censored-flow estimate.

        Each unit below the top level offers upward flow at the
        homogenized rate up[level], whatever its call count; the share is
        the flow offered where the link cannot take that unit's next step.
        The analytic cluster model's value of the same quantity differs
        from it by the homogenization error alone, free of simulation noise.
        """
        step = {0: self.D1, 1: self.D2 - self.D1}
        num = den = 0.0
        for s in self.joint:
            p = self.pi[self.idx[s]]
            load = self.load_of[s[0]] + self.load_of[s[1]]
            for _, level in s:
                if level in step:
                    den += p * up[level]
                    if load + step[level] > self.bc:
                        num += p * up[level]
        return num / den

    def chain_spec(self) -> RruChainSpec:
        return mk_chain((self.D1, self.D2), (3, self.K), (3,), (2,), self.lam, self.mu)
