"""The three workloads: their inputs, made from the seed, and one round.

A round is the workload's fixed set of operations. Every run repeats
whole rounds, so the share of failed operations does not depend on how
long a run lasts. Calls go through module attributes (`aggregator.X`,
`cli.main`) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import csv
import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import vrfplan.aggregator as aggregator
import vrfplan.cli as cli
from vrfplan import config_from_dict

NAMES = ("size_search", "fat_link", "sim_sweep")

#: size_search: the gap of each question at every ladder depth, and the
#: cluster sizes each depth scans. The gap changes the cost of the per-unit
#: rates by ~20 %, so it is fixed and the seed draws only loads and targets.
#: Depth 5 stops at 16 so that every cluster stays near 10^4 states or
#: below; the scan is the full range, as callers do it today.
GAPS = (1, 2, 1)
SCAN = {1: range(4, 25), 2: range(4, 25), 3: range(4, 25), 4: range(4, 25), 5: range(4, 17)}
SIZE_LINK_MBPS = 10000.0

#: fat_link: (link Mbit/s, n_d, N) near each ladder's blocking knee at
#: a = 0.25, from 1.1e4 to 9.9e5 enumerated states; the median operation is
#: a 6.5e5-state cluster. The state space does not depend on the load or
#: the gap, so the seed changes the answers but not the work. Depth 5 is
#: left to size_search: its knee on a 25 Gbit/s link needs more than 1.9e6
#: states.
FAT_SHAPES = (
    (25000.0, 3, 52),
    (25000.0, 4, 50),
    (100000.0, 3, 210),
    (100000.0, 3, 220),
    (40000.0, 4, 74),
)

#: sim_sweep: one `vrfplan sweep` grid. N = 8 fits the 10 Gbit/s link at
#: the top rate; load 0.02 at depth 1 and N = 18 gives blocking inside
#: (1e-3, 1 - 1e-3), where the model is exact; the depth-1 rows at N = 18
#: are the ones whose `agree` flag is wrong.
SWEEP_PLAN = {
    "a": [0.02, 0.2],
    "n_d": [1, 3],
    "n": [8, 18],
    "gap": [1],
    "arrival": ["poisson", "weibull:0.9", "weibull:1.5"],
    "mode": "both",
    "events": 100_000,
}


@dataclass(frozen=True)
class Query:
    """One blocking evaluation: the inputs and the planning object."""

    a: float
    n_d: int
    gap: int
    n: int
    link: float
    planning: object


@dataclass(frozen=True)
class Question:
    """One sizing question: largest N in the scan with P_B <= target."""

    a: float
    n_d: int
    gap: int
    target: float
    queries: tuple[Query, ...]


@dataclass
class Round:
    """One round: its wall time, each operation's latency (None where the
    operation failed) and outputs, in operation order."""

    wall_s: float
    latencies_ms: list[float | None]
    attempted: int
    failed: int
    outputs: list = field(default_factory=list)
    exit_code: int = 0


def _planning(a: float, n_d: int, gap: int, n: int, link: float):
    return config_from_dict({"a": a, "n_d": n_d, "threshold_gap": gap,
                             "cluster_size": n, "fha_capacity_mbps": link})


def _query(a: float, n_d: int, gap: int, n: int, link: float) -> Query:
    return Query(a, n_d, gap, n, link, _planning(a, n_d, gap, n, link))


def build(name: str, seed: int, out_dir: Path):
    """The workload's inputs; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    if name == "size_search":
        questions = []
        for n_d in sorted(SCAN):
            for gap in GAPS:
                a = round(float(rng.uniform(0.15, 0.35)), 6)
                target = float(10.0 ** rng.uniform(-4.0, -2.0))
                queries = tuple(_query(a, n_d, gap, n, SIZE_LINK_MBPS) for n in SCAN[n_d])
                questions.append(Question(a, n_d, gap, target, queries))
        return questions
    if name == "fat_link":
        return [_query(round(float(rng.uniform(0.22, 0.28)), 6), n_d, 1 + i % 2, n, link)
                for i, (link, n_d, n) in enumerate(FAT_SHAPES)]
    if name == "sim_sweep":
        out_dir.mkdir(parents=True, exist_ok=True)
        plan = out_dir / f"sweep_plan_{seed}.json"
        plan.write_text(json.dumps(SWEEP_PLAN), encoding="utf-8")
        return {"seed": seed, "plan": plan, "csv": out_dir / f"sweep_rows_{seed}.csv"}
    raise ValueError(f"unknown workload {name!r}")


def sweep_points(plan: dict) -> list[dict]:
    """The grid in the order the sweep verb documents: a, n_d, gap,
    arrival, n, outermost first."""
    return [{"a": a, "n_d": n_d, "gap": gap, "arrival": arrival, "n": n}
            for a, n_d, gap, arrival, n in itertools.product(
                plan["a"], plan["n_d"], plan["gap"], plan["arrival"], plan["n"])]


def _report_record(report) -> dict:
    return {"total": report.total, "per_rate": list(report.per_rate),
            "binomial_n": report.binomial_n, "convention": report.convention}


def run_round(name: str, inputs) -> Round:
    if name == "size_search":
        return _size_round(inputs)
    if name == "fat_link":
        return _fat_round(inputs)
    return _sweep_round(inputs)


def _size_round(questions: list[Question]) -> Round:
    latencies, outputs, failed = [], [], 0
    t_round = time.perf_counter()
    for q in questions:
        t0 = time.perf_counter()
        try:
            reports = [aggregator.blocking_for_planning(x.planning) for x in q.queries]
        except Exception:   # noqa: BLE001 - a failed question is counted, not fatal
            failed += 1
            latencies.append(None)
            outputs.append(None)
            continue
        fits = [x.n for x, r in zip(q.queries, reports) if r.total <= q.target]
        answer = max(fits, default=0)
        latencies.append((time.perf_counter() - t0) * 1e3)
        outputs.append({"answer": answer, "reports": [_report_record(r) for r in reports]})
    wall = time.perf_counter() - t_round
    return Round(wall, latencies, len(questions), failed, outputs)


def _fat_round(queries: list[Query]) -> Round:
    latencies, outputs, failed = [], [], 0
    t_round = time.perf_counter()
    for q in queries:
        t0 = time.perf_counter()
        try:
            report = aggregator.blocking_for_planning(q.planning)
        except Exception:   # noqa: BLE001 - a failed query is counted, not fatal
            failed += 1
            latencies.append(None)
            outputs.append(None)
            continue
        latencies.append((time.perf_counter() - t0) * 1e3)
        outputs.append(_report_record(report))
    wall = time.perf_counter() - t_round
    return Round(wall, latencies, len(queries), failed, outputs)


def _sweep_round(inputs: dict) -> Round:
    expected = len(sweep_points(SWEEP_PLAN))
    argv = ["sweep", "--plan", str(inputs["plan"]), "--out", str(inputs["csv"]),
            "--jobs", "1", "--seed", str(inputs["seed"])]
    inputs["csv"].unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:       # noqa: BLE001 - the whole sweep failed
        code = -1
    wall = time.perf_counter() - t0
    rows = []
    if code != -1 and inputs["csv"].exists():
        with open(inputs["csv"], encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    failed = sum(1 for r in rows if r["agree"] == "error") + max(0, expected - len(rows))
    latencies = [float(r["wall_s"]) * 1e3 if r["agree"] != "error" else None for r in rows]
    return Round(wall, latencies, expected, min(failed, expected), rows,
                 exit_code=code)
