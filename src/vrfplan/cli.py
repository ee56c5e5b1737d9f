"""Command line front end: analytic evaluation, simulation, parameter
sweeps, and self-validation.

Verbs:
  analyze   print the analytic blocking report for one configuration
  simulate  run one simulation replication and print its statistics
  sweep     evaluate a grid of configurations, writing one CSV row each
  validate  run the oracle suites of `vrfplan.oracle` and report pass/fail

Apply --help to any verb for its flags.

Exit codes: 0 success, 1 validation or sweep failure, 2 bad configuration.
Set VRF_LOG=debug|info|warning to control diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import itertools
import json
import logging
import os
import sys
import time

from . import aggregator, sim
from .config import PlanningConfig, _is_int, config_from_dict, load_config
from .errors import VrfError

log = logging.getLogger("vrfplan")

CSV_COLUMNS = (
    "n", "a", "n_d", "gap", "arrival", "events", "seed",
    "pb_analytic", "pb_components", "pb_sim", "pb_sim_ci",
    "blocked_rru", "blocked_fha", "agree", "wall_s",
)
#: Events per replication, for `simulate --events` and a plan's `events`.
DEFAULT_EVENTS = 1_000_000


def _setup_logging() -> None:
    level = os.environ.get("VRF_LOG", "warning").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _parse_arrival(text: str) -> float:
    """Parse 'poisson' or 'weibull:K' into the inter-arrival shape."""
    if text == "poisson":
        return 1.0
    if isinstance(text, str) and text.startswith("weibull:"):
        try:
            return float(text.split(":", 1)[1])
        except ValueError:
            raise VrfError(f"bad arrival spec {text!r}: shape must be a number")
    raise VrfError(f"bad arrival spec {text!r}: expected poisson or weibull:K")


def _analytic(planning: PlanningConfig) -> tuple[aggregator.AggregatorSpec,
                                                 aggregator.BlockingReport]:
    spec = aggregator.spec_from_planning(planning)
    return spec, aggregator.blocking(spec)


def _agree(analytic: tuple | None, simulated: tuple | None) -> str:
    """The `agree` column: empty unless the row holds both estimates. The
    simulation is judged against the "true"-convention total, which equals
    the effective one at hand when the link carries all N units."""
    if analytic is None or simulated is None:
        return ""
    spec, report = analytic
    exact = report.total
    if report.binomial_n != spec.cluster_size:
        exact = aggregator.blocking(spec, binomial_n="true").total
    stats = simulated[1]
    return str(sim.agrees(exact, stats.estimate_fha_flow, stats.stderr)).lower()


def _row(planning: PlanningConfig, analytic: tuple | None, simulated: tuple | None,
         agree: str, wall: float) -> dict:
    """One CSV row, keyed in column order. `analytic` is (spec, report) and
    `simulated` is (arrival label, stats); the columns of a missing part
    stay empty."""
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(n=planning.cluster_size, a=_fmt(planning.traffic.a), n_d=planning.n_d,
               gap=planning.threshold_gap, agree=agree, wall_s=_fmt(wall))
    if analytic is not None:
        report = analytic[1]
        row.update(pb_analytic=_fmt(report.total),
                   pb_components=";".join(_fmt(p) for p in report.per_rate))
    if simulated is not None:
        arrival, stats = simulated
        row.update(arrival=arrival, events=stats.events_processed, seed=stats.seed,
                   pb_sim=_fmt(stats.estimate_fha_flow), pb_sim_ci=_fmt(stats.ci_half_width),
                   blocked_rru=stats.blocked_rru, blocked_fha=stats.blocked_fha)
    return row


def _csv_line(fields) -> str:
    return ",".join(str(f) for f in fields) + "\n"


def _append_row(path: str, row: dict) -> None:
    new_file = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8", newline="") as fh:
        if new_file:
            fh.write(_csv_line(CSV_COLUMNS))
        fh.write(_csv_line(row.values()))


# ---------------------------------------------------------------------------
# analyze

def cmd_analyze(args: argparse.Namespace) -> int:
    planning = load_config(args.config, args.gap)
    t0 = time.perf_counter()
    spec, report = analytic = _analytic(planning)
    wall = time.perf_counter() - t0
    rates = " ".join(f"{r:g}" for r in planning.rate_set.rates)
    print(f"cluster size        {planning.cluster_size}")
    print(f"rates (Mbit/s)      {rates}")
    print(f"normalized load a   {planning.traffic.a:g}")
    print(f"threshold gap       {planning.threshold_gap}")
    print(f"link capacity       {planning.link_capacity_mbps:g} Mbit/s")
    print(f"load grid           G = {spec.grid_limit} units of "
          f"{planning.rate_set.unit_mbps:g} Mbit/s")
    print(f"binomial convention {report.convention} (n = {report.binomial_n})")
    for i, p in enumerate(report.per_rate):
        print(f"P_B component {i}     {_fmt(p)}")
    print(f"P_B total           {_fmt(report.total)}")
    if args.out:
        _append_row(args.out, _row(planning, analytic, None, "", wall))
    return 0


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args: argparse.Namespace) -> int:
    planning = load_config(args.config, args.gap)
    cfg = sim.SimConfig.from_planning(planning, args.events, args.seed,
                                      _parse_arrival(args.arrival), args.latency)
    t0 = time.perf_counter()
    stats = sim.run(cfg)
    wall = time.perf_counter() - t0
    print(f"events processed     {stats.events_processed} (warm-up {stats.warmup_events})")
    print(f"arrivals             {stats.arrivals}")
    print(f"accepted             {stats.accepted}")
    print(f"blocked (unit full)  {stats.blocked_rru}")
    print(f"blocked (link)       {stats.blocked_fha}")
    print(f"upgrade attempts     {stats.upgrade_attempts}")
    print(f"P_B flow estimate    {_fmt(stats.estimate_fha_flow)} "
          f"+- {_fmt(stats.ci_half_width)} (95% CI)")
    print(f"P_B per attempt      {_fmt(stats.estimate_fha_per_attempt)}")
    print(f"P_B per arrival      {_fmt(stats.estimate_fha_per_arrival)} (link) "
          f"{_fmt(stats.estimate_rru_per_arrival)} (unit) "
          f"{_fmt(stats.estimate_total_per_arrival)} (total)")
    print(f"mean aggregate rate  {_fmt(stats.c_time_average)} Mbit/s")
    print(f"max aggregate rate   {_fmt(stats.c_max)} Mbit/s")
    if args.out:
        analytic, simulated = _analytic(planning), (args.arrival, stats)
        # the model has no reconfiguration latency, so a latency run has
        # nothing to agree with
        agree = _agree(analytic, simulated) if args.latency == 0 else ""
        _append_row(args.out, _row(planning, analytic, simulated, agree, wall))
    return 0


# ---------------------------------------------------------------------------
# sweep

_PLAN_DEFAULTS = {
    "gap": [1],
    "arrival": ["poisson"],
    "mode": "analytic",
    "events": DEFAULT_EVENTS,
    "base_seed": 0,
}
#: Config keys a plan may set for every point; `config_from_dict` defaults them.
_PLAN_CONFIG_KEYS = ("mu", "fha_capacity_mbps")
_PLAN_KEYS = {"a", "n_d", "n", *_PLAN_CONFIG_KEYS} | set(_PLAN_DEFAULTS)


def _load_plan(path: str, events: int | None = None, base_seed: int | None = None) -> dict:
    """Read and validate a sweep plan; `events` and `base_seed` override
    the plan's values before validation, as the CLI flags do."""
    try:
        with open(path, encoding="utf-8") as fh:
            plan = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise VrfError(f"cannot read plan {path!r}: {exc}")
    if not isinstance(plan, dict):
        raise VrfError("plan must be a JSON object")
    unknown = set(plan) - _PLAN_KEYS
    if unknown:
        raise VrfError(f"unknown plan keys: {sorted(unknown)}")
    for key in ("a", "n_d", "n"):
        if key not in plan or not isinstance(plan[key], list) or not plan[key]:
            raise VrfError(f"plan key {key!r} must be a non-empty list")
    merged = dict(_PLAN_DEFAULTS)
    merged.update(plan)
    if events is not None:
        merged["events"] = events
    if base_seed is not None:
        merged["base_seed"] = base_seed
    if merged["mode"] not in ("analytic", "simulate", "both"):
        raise VrfError(f"plan mode must be analytic, simulate or both, got {merged['mode']!r}")
    for key in ("gap", "arrival"):
        if not isinstance(merged[key], list) or not merged[key]:
            raise VrfError(f"plan key {key!r} must be a non-empty list")
    for key in ("events", "base_seed"):
        if not _is_int(merged[key]):
            raise VrfError(f"plan key {key!r} must be an integer, got {merged[key]!r}")
    if merged["events"] < sim.MIN_EVENTS:
        raise VrfError(f"plan key 'events' must be at least {sim.MIN_EVENTS}, "
                       f"got {merged['events']}")
    return merged


def _plan_points(plan: dict) -> list[dict]:
    """Expand the grid in canonical order, validating every coordinate as a
    config file is validated. A simulating point carries its `SimConfig`,
    so a coordinate the simulator refuses stops the sweep before any row."""
    points = []
    for a, n_d, gap, arrival, n in itertools.product(
            plan["a"], plan["n_d"], plan["gap"], plan["arrival"], plan["n"]):
        shape = _parse_arrival(arrival)
        planning = config_from_dict({
            "a": a, "n_d": n_d, "threshold_gap": gap, "cluster_size": n,
            **{key: plan[key] for key in _PLAN_CONFIG_KEYS if key in plan},
        })
        cfg = None
        if plan["mode"] != "analytic":
            seed = sim.coordinate_seed(plan["base_seed"], a, n_d, gap, arrival, n, plan["events"])
            cfg = sim.SimConfig.from_planning(planning, plan["events"], seed, shape)
        points.append({"planning": planning, "arrival": arrival, "mode": plan["mode"],
                       "sim": cfg})
    return points


def _sweep_point(point: dict) -> dict:
    """Evaluate one grid point; returns a CSV row dict."""
    t0 = time.perf_counter()
    planning = point["planning"]
    analytic = simulated = None
    try:
        if point["mode"] != "simulate":
            analytic = _analytic(planning)
        if point["sim"] is not None:
            simulated = (point["arrival"], sim.run(point["sim"]))
        agree = _agree(analytic, simulated)
    except Exception as exc:        # noqa: BLE001 - row-level isolation
        log.error("grid point a=%g n_d=%d gap=%d n=%d %s failed: %s", planning.traffic.a,
                  planning.n_d, planning.threshold_gap, planning.cluster_size,
                  point["arrival"], exc)
        agree = "error"
    return _row(planning, analytic, simulated, agree, time.perf_counter() - t0)


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise VrfError(f"--jobs must be at least 1, got {args.jobs}")
    plan = _load_plan(args.plan, args.events, args.seed)
    points = _plan_points(plan)
    # the executor may start every worker at once, so ask for no more
    # than there are points and cores
    workers = min(args.jobs, len(points), os.cpu_count() or 1)
    log.info("sweep: %d grid points, mode %s, jobs %d", len(points), plan["mode"], workers)
    out = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8", newline="")
    failed = False

    def emit(row: dict) -> None:
        nonlocal failed
        failed = failed or row["agree"] == "error"
        out.write(_csv_line(row.values()))
        out.flush()

    try:
        out.write(_csv_line(CSV_COLUMNS))
        if workers <= 1:
            for point in points:
                emit(_sweep_point(point))
        else:
            # map yields rows in canonical order, each once it and every
            # earlier row are done
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                for row in pool.map(_sweep_point, points):
                    emit(row)
    finally:
        if out is not sys.stdout:
            out.close()
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# validate

def cmd_validate(args: argparse.Namespace) -> int:
    # imported here: only this verb runs the slow exact checks
    from . import oracle

    suites = oracle.run_suites()
    overall = all(s["status"] == "pass" for s in suites)
    summary = {"status": "pass" if overall else "fail", "suites": suites}
    text = json.dumps(summary, indent=2, default=float)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if not overall:
        for suite in suites:
            if suite["status"] != "pass":
                log.error("suite failed: %s", suite["name"])
    return 0 if overall else 1


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vrfplan", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analytic blocking report for one config")
    p_an.add_argument("--config", required=True, help="JSON configuration file")
    p_an.add_argument("--gap", type=int, default=None, help="override threshold gap")
    p_an.add_argument("--out", default=None, help="append a CSV row to this file")
    p_an.set_defaults(func=cmd_analyze)

    p_si = sub.add_parser("simulate", help="run one simulation replication")
    p_si.add_argument("--config", required=True, help="JSON configuration file")
    p_si.add_argument("--events", type=int, default=DEFAULT_EVENTS)
    p_si.add_argument("--seed", type=int, required=True)
    p_si.add_argument("--arrival", default="poisson", help="poisson or weibull:K")
    p_si.add_argument("--gap", type=int, default=None, help="override threshold gap")
    p_si.add_argument("--latency", type=float, default=0.0,
                      help="reconfiguration latency (time units)")
    p_si.add_argument("--out", default=None, help="append a CSV row to this file")
    p_si.set_defaults(func=cmd_simulate)

    p_sw = sub.add_parser("sweep", help="evaluate a grid of configurations")
    p_sw.add_argument("--plan", required=True, help="JSON sweep plan")
    p_sw.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_sw.add_argument("--events", type=int, default=None, help="override plan event count")
    p_sw.add_argument("--seed", type=int, default=None, help="override plan base seed")
    p_sw.add_argument("--jobs", type=int, default=1, help="parallel worker processes, at least 1")
    p_sw.set_defaults(func=cmd_sweep)

    p_va = sub.add_parser("validate", help="run the internal oracle suites")
    p_va.add_argument("--out", default=None, help="write the JSON summary here")
    p_va.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VrfError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
