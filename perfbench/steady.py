"""Steadiness of the benchmark: run every workload of BENCHMARK.json on
seeds 1..10 at its `run_seconds`, and print each end-to-end metric's
median, quartiles and spread.

    python3 perfbench/steady.py
    python3 perfbench/steady.py --against perfbench/results/steady_<time>.json

The spread is (Q3 - Q1) / median with the quartiles of
`statistics.quantiles(values, n=4)`. A metric is steady when its spread is
at most a third of its bound in BENCHMARK.json; any wider spread fails the
command (setup_s is judged on its median only). With `--against`, each
median is also compared with an earlier summary: a metric fails when it
got worse by more than its bound. Every operation's failure share must be
the same in each run. The summary is written to
perfbench/results/steady_<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", default=None, help="earlier summary to compare medians with")
    args = p.parse_args(argv)

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    before = json.loads(Path(args.against).read_text()) if args.against else {}
    summary, ok = {}, True
    for name in (w["name"] for w in bench["workloads"]):
        values = {m: [] for m in metrics}
        shares, correct = set(), True
        for seed in SEEDS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            correct = correct and result["correct"]
            shares.add(result["failed"] / result["attempted"])
            for m in metrics:
                values[m].append(result["metrics"][m]["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={result['metrics'][m]['value']:.5g}" for m in metrics), flush=True)
        summary[name] = {"values": values, "failed_share": sorted(shares), "correct": correct}
        ok = ok and correct and len(shares) == 1
        print(f"{name}: correct={correct} failed shares={sorted(shares)}")
        for m, spec in metrics.items():
            q1, med, q3 = statistics.quantiles(values[m], n=4)
            spread = (q3 - q1) / med
            verdict = ("median only" if m == "setup_s" else
                       "steady" if spread <= spec["bound"] / 3 else
                       "WIDE (> bound/3)" if spread <= spec["bound"] else "WIDE (> bound)")
            line = (f"  {m:14s} median {med:10.5g} {spec['unit']:3s} Q1 {q1:10.5g} "
                    f"Q3 {q3:10.5g} spread {spread:7.2%} bound {spec['bound']:.0%} {verdict}")
            ok = ok and not verdict.startswith("WIDE")
            if name in before:
                old = statistics.median(before[name]["values"][m])
                drift = (med - old) / old
                worse = drift > spec["bound"] if spec["better"] == "lower" else -drift > spec["bound"]
                line += f"  vs earlier {drift:+.2%}{' WORSE' if worse else ''}"
                ok = ok and not worse
            summary[name][m] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(line, flush=True)
    out = HERE / "results" / f"steady_{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(f"summary written to {out.relative_to(ROOT)}")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
