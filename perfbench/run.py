"""vrfplan benchmark: sizing questions, fat-link cluster solves and a
simulation sweep, with a traced run for per-layer figures.

    python3 perfbench/run.py --workload size_search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root. The package is imported from `src/`. A run
repeats whole rounds of the workload's operations until `--seconds` have
passed, checks every output against references computed here, and prints
as its last line one JSON object: `correct`, `attempted`, `failed` and
`metrics` (end-to-end with `--trace 0`, per layer with `--trace 1`).
`--workload all` runs each workload in its own process.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "results"
NAMES = ("size_search", "fat_link", "sim_sweep")
#: Fresh processes timed from spawn to inputs built; setup_s is their median.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="build the inputs, print the wall-clock time and exit")
    return p.parse_args(argv)


def _probe_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported
    vrfplan and built this workload's inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        t_spawn = time.time()
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]) - t_spawn)
    return times


def _run_all(args) -> int:
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        print(f"== {name} (exit {done.returncode})")
        for line in lines[:-1]:
            print(f"   {line}")
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"   result: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        if not result["correct"] or result["failed"]:
            status = 1
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "vrfplan" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC}/vrfplan; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    sys.path.insert(0, str(SRC))
    import workloads
    inputs = workloads.build(args.workload, args.seed, OUT_DIR)
    if args.setup_probe:
        print(repr(time.time()))
        return 0

    import checks
    from layertrace import Tracer

    setup = _probe_setup(args) if args.trace == 0 else []
    plain, traced, layer, gc_s = [], [], [], []
    t_start = time.perf_counter()
    while (not plain or (args.trace and not traced)
           or time.perf_counter() - t_start < args.seconds):
        # Every round starts from a collected heap. enumerate_states leaves a
        # reference cycle per call that the automatic collector reaches only
        # rarely, so without this the peak RSS would grow with run length.
        # The collection is timed apart from the round and printed beside
        # wall_s, so that freeing the cycles is not a cost hidden from view.
        t_gc = time.perf_counter()
        gc.collect()
        gc_s.append(time.perf_counter() - t_gc)
        plain.append(workloads.run_round(args.workload, inputs))
        if args.trace:
            gc.collect()
            tracer = Tracer()
            with tracer.installed():
                r = workloads.run_round(args.workload, inputs)
            traced.append(r)
            rows = len(r.outputs) if args.workload == "sim_sweep" else 0
            layer.append(tracer.metrics(r.wall_s) | {"cli.rows": rows})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = plain + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)

    if args.workload == "sim_sweep":
        outs = [r.outputs for r in rounds]
        errors = checks.sweep_errors(outs, [r.exit_code for r in rounds])
        caught, missed = checks.sweep_controls(outs, [r.exit_code for r in rounds])
        notes = [f"depth-1 rows judged against the exact model: {checks.depth1_band_rows()}"]
    else:
        import vrfplan.aggregator
        first = rounds[0].outputs
        errors = [f"round {i} outputs differ from round 0"
                  for i, r in enumerate(rounds[1:], start=1) if r.outputs != first]
        pairs = checks.analytic_pairs(args.workload, inputs, first)
        # the per-unit rates depend on (a, n_d, gap) only: one solve for each
        plannings = {(q.a, q.n_d, q.gap): q.planning for q, _ in pairs}
        rates = {key: vrfplan.aggregator.spec_from_planning(p).rates
                 for key, p in plannings.items()}
        for query, record in pairs:
            r = rates[(query.a, query.n_d, query.gap)]
            record["unit_rates"] = (r.up, r.down)
        errors += checks.analytic_errors(args.workload, inputs, first)
        caught, missed = checks.analytic_controls(args.workload, inputs, first)
        notes = []
    errors += [f"negative control not caught: {c}" for c in missed]
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)

    # each operation's median over the rounds, then the median over operations
    per_op = [statistics.median(x for x in op if x is not None)
              for op in zip(*(r.latencies_ms for r in plain)) if any(x is not None for x in op)]
    latencies = [x for r in plain for x in r.latencies_ms if x is not None]
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} rounds"
          f"{f' + {len(traced)} traced' if traced else ''}, {attempted} operations, "
          f"{failed} failed, {len(errors)} check faults")
    print("round walls (s): " + " ".join(f"{r.wall_s:.3f}" for r in plain))
    print(f"gc.collect before each round, outside wall_s: median {statistics.median(gc_s):.4f} s, "
          f"total {sum(gc_s):.3f} s")
    print(f"negative controls caught: {', '.join(caught)}")
    for note in notes:
        print(note)
    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(r.wall_s for r in plain), "s"),
            "query_p50_ms": (statistics.median(per_op), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
        beyond = sum(1 for x in latencies if x > p90)
        if beyond >= 10:
            print(f"query_p90_ms {p90:.4f} ms ({len(latencies)} samples, {beyond} beyond)")
        else:
            print(f"query_p90_ms not reported: {len(latencies)} samples, "
                  f"{beyond} beyond the 90th percentile")
    else:
        metrics = {k: (statistics.median(m[k] for m in layer), _unit(k)) for k in layer[0]}
        metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                       - statistics.median(r.wall_s for r in plain), "s")
    for k, (v, unit) in metrics.items():
        print(f"{k} {v:.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "useful_ratio")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
