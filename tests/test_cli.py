"""Command line front end: verbs, CSV contract, exit codes, plans."""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import vrfplan
from vrfplan.cli import CSV_COLUMNS, _fmt, main
from vrfplan.sim import AGREE_FLOOR, agrees, coordinate_seed


def write_config(tmp_path, **kwargs):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kwargs))
    return str(path)


def rows_of(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    return [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[1:]]


def strip_wall(row):
    return {k: v for k, v in row.items() if k != "wall_s"}


# ---------------------------------------------------------------------------
# formatting and seeds

def test_float_formatting_uses_nine_significant_digits():
    assert _fmt(0.123456789123456) == "0.123456789"
    assert _fmt(1228.8) == "1228.8"
    assert _fmt(8.87387764e-05) == "8.87387764e-05"


def test_coordinate_seeds_are_deterministic_and_distinct():
    s1 = coordinate_seed(0, 0.2, 3, 1, "poisson", 12, 1_000_000)
    s2 = coordinate_seed(0, 0.2, 3, 1, "poisson", 12, 1_000_000)
    s3 = coordinate_seed(0, 0.2, 3, 1, "poisson", 13, 1_000_000)
    s4 = coordinate_seed(1, 0.2, 3, 1, "poisson", 12, 1_000_000)
    assert s1 == s2
    assert len({s1, s3, s4}) == 3
    assert 0 <= s1 < 2**63


# ---------------------------------------------------------------------------
# analyze

def test_analyze_reports_blocking(tmp_path, capsys):
    cfg = write_config(tmp_path, a=0.25, n_d=3, cluster_size=17)
    assert main(["analyze", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "P_B total" in out
    total = float(out.split("P_B total")[1].split()[0])
    # lands just past the 1e-3 design target; one unit fewer sits below it
    assert 1e-3 < total < 1.3e-3


def test_analyze_below_capacity_is_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, a=0.2, n_d=1, cluster_size=8)
    assert main(["analyze", "--config", cfg]) == 0
    total = float(capsys.readouterr().out.split("P_B total")[1].split()[0])
    assert total == 0.0


def test_analyze_shows_capacity_knee(tmp_path, capsys):
    cfg = write_config(tmp_path, a=0.25, n_d=2, cluster_size=16)
    main(["analyze", "--config", cfg])
    total = float(capsys.readouterr().out.split("P_B total")[1].split()[0])
    assert total > 1e-3


def test_analyze_gap_override(tmp_path, capsys):
    cfg = write_config(tmp_path, a=0.25, n_d=3, cluster_size=17)
    main(["analyze", "--config", cfg])
    base = float(capsys.readouterr().out.split("P_B total")[1].split()[0])
    main(["analyze", "--config", cfg, "--gap", "4"])
    wide = float(capsys.readouterr().out.split("P_B total")[1].split()[0])
    assert wide > base


def test_analyze_writes_csv_row(tmp_path, capsys):
    cfg = write_config(tmp_path, a=0.25, n_d=3, cluster_size=17)
    out = tmp_path / "row.csv"
    main(["analyze", "--config", cfg, "--out", str(out)])
    capsys.readouterr()
    (row,) = rows_of(out)
    assert row["n"] == "17" and row["n_d"] == "3" and row["gap"] == "1"
    assert row["pb_sim"] == "" and row["agree"] == ""
    assert len(row["pb_components"].split(";")) == 3
    total = float(row["pb_analytic"])
    # columns are printed at 9 significant digits, so compare a shade looser
    assert math.isclose(total, sum(float(p) for p in row["pb_components"].split(";")),
                        rel_tol=1e-8)


def test_analyze_exit_codes(tmp_path, capsys):
    assert main(["analyze", "--config", str(tmp_path / "missing.json")]) == 2
    bad = write_config(tmp_path, a=1.5, n_d=3, cluster_size=17)
    assert main(["analyze", "--config", bad]) == 2
    unknown = write_config(tmp_path, a=0.25, n_d=3, cluster_size=17, typo_key=1)
    assert main(["analyze", "--config", unknown]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("mu", [1e307, 5e307])
@pytest.mark.parametrize("verb", [["analyze"], ["simulate", "--seed", "1"]])
def test_a_service_rate_past_the_float_range_is_refused(tmp_path, capsys, verb, mu):
    # at 1e307 a level's down rate overflows to inf; at 5e307 lambda = a K mu
    # itself is inf. Neither may print a NaN, a numpy warning or a zero-gap
    # simulation.
    cfg = write_config(tmp_path, a=0.25, n_d=3, cluster_size=10, mu=mu)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([verb[0], "--config", cfg, *verb[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_a_cluster_whose_flow_rate_overflows_is_not_simulated(tmp_path, capsys):
    # lambda = a K mu = 1.5e307 is finite, but the 18 units' upgrade flow
    # rate N lambda is not, and the flow estimate would read a silent 0
    cfg = write_config(tmp_path, a=0.02, n_d=1, cluster_size=18, mu=1.5e307)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg, "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: field 'cluster_size'")
    assert "18 * 0.02 * 50 * 1.5e+307" in captured.err


# ---------------------------------------------------------------------------
# simulate

def test_simulate_rows_reproducible(tmp_path, capsys):
    cfg = write_config(tmp_path, a=0.25, n_d=3, cluster_size=16)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--events", "120000", "--seed", "4",
                 "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--events", "120000", "--seed", "4",
                 "--out", str(out2)]) == 0
    capsys.readouterr()
    (r1,), (r2,) = rows_of(out1), rows_of(out2)
    assert strip_wall(r1) == strip_wall(r2)      # wall-clock column may differ
    assert r1["events"] == "120000" and r1["seed"] == "4"
    assert r1["arrival"] == "poisson"


def test_simulate_prints_estimates(tmp_path, capsys):
    cfg = write_config(tmp_path, a=0.25, n_d=3, cluster_size=16)
    assert main(["simulate", "--config", cfg, "--events", "120000", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "P_B flow estimate" in out
    assert "blocked (link)" in out


def test_simulate_heavy_tail_blocks_less(tmp_path, capsys):
    cfg = write_config(tmp_path, a=0.3, n_d=3, cluster_size=14)
    out_p, out_w = tmp_path / "p.csv", tmp_path / "w.csv"
    main(["simulate", "--config", cfg, "--events", "1000000", "--seed", "1",
          "--out", str(out_p)])
    main(["simulate", "--config", cfg, "--events", "1000000", "--seed", "1",
          "--arrival", "weibull:0.9", "--out", str(out_w)])
    capsys.readouterr()
    (rp,), (rw,) = rows_of(out_p), rows_of(out_w)
    assert rw["arrival"] == "weibull:0.9"
    assert float(rw["pb_sim"]) < float(rp["pb_sim"])


def test_simulate_rejects_bad_arrival(tmp_path, capsys):
    cfg = write_config(tmp_path, a=0.25, n_d=3, cluster_size=16)
    assert main(["simulate", "--config", cfg, "--events", "120000", "--seed", "4",
                 "--arrival", "weibull:zero"]) == 2
    assert main(["simulate", "--config", cfg, "--events", "120000", "--seed", "4",
                 "--arrival", "lognormal"]) == 2
    # about one gap in eight at this shape overflows to inf
    assert main(["simulate", "--config", cfg, "--events", "120000", "--seed", "4",
                 "--arrival", "weibull:0.001"]) == 2
    assert "float range" in capsys.readouterr().err


def test_simulate_latency_row_leaves_agree_empty(tmp_path, capsys):
    # the analytic model has no latency, so a latency row is not judged by it
    cfg = write_config(tmp_path, a=0.3, n_d=3, cluster_size=18)
    out_0, out_l = tmp_path / "zero.csv", tmp_path / "latency.csv"
    for out, latency in ((out_0, "0"), (out_l, "0.5")):
        assert main(["simulate", "--config", cfg, "--events", "100000", "--seed", "7",
                     "--latency", latency, "--out", str(out)]) == 0
    capsys.readouterr()
    (r0,), (rl,) = rows_of(out_0), rows_of(out_l)
    assert r0["agree"] in ("true", "false")
    assert rl["agree"] == ""
    assert rl["pb_analytic"] == r0["pb_analytic"] and rl["pb_sim"] != ""


def test_simulate_rejects_nan_latency(tmp_path, capsys):
    # an infinite latency would pin every unit at its peak rate, its
    # downgrades queued and never drained
    cfg = write_config(tmp_path, a=0.3, n_d=3, cluster_size=14)
    for latency in ("nan", "inf"):
        assert main(["simulate", "--config", cfg, "--events", "100000", "--seed", "1",
                     "--latency", latency]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "reconfig_latency" in captured.err


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_simulate_rejects_a_seed_outside_the_philox_key_range(tmp_path, capsys, seed):
    cfg = write_config(tmp_path, a=0.3, n_d=3, cluster_size=14)
    assert main(["simulate", "--config", cfg, "--events", "100000", "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: field 'seed'")
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# sweep

def write_plan(tmp_path, **kwargs):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(kwargs))
    return str(path)


def test_sweep_grid_cardinality(tmp_path, capsys):
    plan = write_plan(tmp_path, a=[0.2], n_d=[1, 2, 3, 4], n=list(range(2, 21)))
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--plan", plan, "--out", str(out)]) == 0
    capsys.readouterr()
    rows = rows_of(out)
    assert len(rows) == 76
    # canonical order: n varies fastest within each n_d block
    assert [r["n_d"] for r in rows[:19]] == ["1"] * 19
    assert [r["n"] for r in rows[:3]] == ["2", "3", "4"]
    assert all(r["pb_sim"] == "" for r in rows)


def test_sweep_blocking_grows_with_gap(tmp_path, capsys):
    plan = write_plan(tmp_path, a=[0.2], n_d=[3], gap=[1, 2, 3, 4],
                      n=list(range(8, 21)))
    out = tmp_path / "gap.csv"
    assert main(["sweep", "--plan", plan, "--out", str(out)]) == 0
    capsys.readouterr()
    by_gap = {}
    for row in rows_of(out):
        by_gap.setdefault(row["n"], []).append(float(row["pb_analytic"]))
    for n, series in by_gap.items():
        assert all(b >= a - 1e-12 for a, b in zip(series, series[1:])), n


def test_sweep_rows_independent_of_worker_count(tmp_path, capsys):
    plan = write_plan(tmp_path, a=[0.25], n_d=[2], n=[15, 16], mode="both",
                      events=120_000)
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    assert main(["sweep", "--plan", plan, "--out", str(serial)]) == 0
    assert main(["sweep", "--plan", plan, "--out", str(parallel), "--jobs", "2"]) == 0
    capsys.readouterr()
    assert [strip_wall(r) for r in rows_of(serial)] == \
           [strip_wall(r) for r in rows_of(parallel)]


def test_sweep_asks_for_no_more_workers_than_points_and_cores(tmp_path, capsys, monkeypatch):
    asked = []

    class Pool:
        """Stands in for the process pool: records the worker count it is
        asked for and maps in this process, so no process starts."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Pool)
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    two = write_plan(tmp_path, a=[0.25], n_d=[2], n=[15, 16])
    serial, pooled = tmp_path / "s.csv", tmp_path / "p.csv"
    assert main(["sweep", "--plan", two, "--out", str(serial)]) == 0
    assert main(["sweep", "--plan", two, "--out", str(pooled), "--jobs", "4096"]) == 0
    assert [strip_wall(r) for r in rows_of(serial)] == [strip_wall(r) for r in rows_of(pooled)]
    five = write_plan(tmp_path, a=[0.25], n_d=[2], n=[12, 13, 14, 15, 16])
    assert main(["sweep", "--plan", five, "--out", str(tmp_path / "f.csv"),
                 "--jobs", "4096"]) == 0
    # one point, or one job, runs in this process without a pool
    assert main(["sweep", "--plan", write_plan(tmp_path, a=[0.25], n_d=[2], n=[16]),
                 "--jobs", "4096"]) == 0
    capsys.readouterr()
    assert asked == [2, 3]


def test_sweep_simulated_rows_have_agreement_flag(tmp_path, capsys):
    plan = write_plan(tmp_path, a=[0.25], n_d=[3], n=[16], mode="both",
                      events=120_000)
    out = tmp_path / "sim.csv"
    assert main(["sweep", "--plan", plan, "--out", str(out)]) == 0
    capsys.readouterr()
    (row,) = rows_of(out)
    assert row["agree"] in ("true", "false")
    assert row["pb_sim"] != "" and row["pb_sim_ci"] != ""
    assert int(row["seed"]) == coordinate_seed(0, 0.25, 3, 1, "poisson", 16, 120_000)


def test_sweep_agreement_judged_against_exact_convention(tmp_path, capsys):
    # depth 1, N = 18 on 10 Gbit/s: the link carries 8 units, so the
    # effective convention (n = 8) gives 0.0197 while the chain the
    # simulator runs blocks 0.588, which the "true" convention gives exactly
    plan = write_plan(tmp_path, a=[0.02], n_d=[1], n=[18], mode="both", events=100_000)
    out = tmp_path / "exact.csv"
    assert main(["sweep", "--plan", plan, "--out", str(out), "--seed", "3"]) == 0
    capsys.readouterr()
    (row,) = rows_of(out)
    assert float(row["pb_analytic"]) == pytest.approx(0.0197, abs=1e-4)
    assert float(row["pb_sim"]) == pytest.approx(0.5877, abs=0.03)
    assert row["agree"] == "true"


def test_agreement_floor_at_both_ends():
    assert agrees(0.5 * AGREE_FLOOR, 0.0, 0.0)
    assert agrees(1.0 - 0.5 * AGREE_FLOOR, 1.0, 0.0)
    assert not agrees(1.0 - 2.0 * AGREE_FLOOR, 1.0, 0.0)
    assert not agrees(0.5, 0.6, 0.01)


def test_sweep_simulate_mode_rows(tmp_path, capsys):
    # mode "simulate" leaves the analytic columns and the agreement flag empty
    plan = write_plan(tmp_path, a=[0.25], n_d=[3], n=[16], mode="simulate",
                      events=100_000)
    out = tmp_path / "simulated.csv"
    assert main(["sweep", "--plan", plan, "--out", str(out)]) == 0
    capsys.readouterr()
    (row,) = rows_of(out)
    assert [c for c in CSV_COLUMNS if row[c] == ""] == ["pb_analytic", "pb_components", "agree"]
    assert row["arrival"] == "poisson" and row["events"] == "100000"
    assert int(row["seed"]) == coordinate_seed(0, 0.25, 3, 1, "poisson", 16, 100_000)


def test_bool_cluster_size_is_a_configuration_error(tmp_path, capsys):
    assert main(["sweep", "--plan", write_plan(tmp_path, a=[0.2], n_d=[1], n=[True])]) == 2
    cfg = write_config(tmp_path, a=0.2, n_d=1, cluster_size=True)
    assert main(["analyze", "--config", cfg]) == 2
    assert capsys.readouterr().out == ""


def test_sweep_plan_validation(tmp_path, capsys):
    assert main(["sweep", "--plan", str(tmp_path / "nope.json")]) == 2
    assert main(["sweep", "--plan", write_plan(tmp_path, a=[0.2], n_d=[1])]) == 2
    assert main(["sweep", "--plan",
                 write_plan(tmp_path, a=[0.2], n_d=[1], n=[5], bogus=1)]) == 2
    assert main(["sweep", "--plan",
                 write_plan(tmp_path, a=[1.5], n_d=[1], n=[5])]) == 2
    assert main(["sweep", "--plan",
                 write_plan(tmp_path, a=[0.2], n_d=[1], n=[5], mode="guess")]) == 2
    out = tmp_path / "rows.csv"
    for arrival in ([5], [None]):
        plan = write_plan(tmp_path, a=[0.2], n_d=[1], n=[5], arrival=arrival)
        assert main(["sweep", "--plan", plan, "--out", str(out)]) == 2, arrival
        assert not out.exists()
        assert "bad arrival spec" in capsys.readouterr().err
    # a Weibull shape whose longest gap passes the float range stops a
    # simulating sweep before any row; the analytic mode never draws a gap
    for mode in ("both", "simulate"):
        plan = write_plan(tmp_path, a=[0.2], n_d=[1], n=[5], arrival=["weibull:0.001"],
                          mode=mode)
        assert main(["sweep", "--plan", plan, "--out", str(out)]) == 2, mode
        assert not out.exists()
        assert "field 'arrival'" in capsys.readouterr().err
    plan = write_plan(tmp_path, a=[0.2], n_d=[1], n=[5], arrival=["weibull:0.001"])
    assert main(["sweep", "--plan", plan, "--out", str(out)]) == 0
    assert [r["agree"] for r in rows_of(out)] == [""]
    out.unlink()
    # a worker count below 1 is refused, not run serially
    for jobs in ("0", "-3"):
        assert main(["sweep", "--plan", plan, "--out", str(out), "--jobs", jobs]) == 2, jobs
        assert not out.exists()
        assert "--jobs must be at least 1" in capsys.readouterr().err


def test_sweep_rejects_bad_events_and_seed_before_any_row(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    for bad in ({"events": 5000}, {"events": 100_000.0}, {"events": True},
                {"base_seed": True}, {"base_seed": 1.5}):
        plan = write_plan(tmp_path, a=[0.2], n_d=[1], n=[9], mode="both", **bad)
        assert main(["sweep", "--plan", plan, "--out", str(out)]) == 2, bad
        assert not out.exists()
    plan = write_plan(tmp_path, a=[0.2], n_d=[1], n=[9], mode="both")
    assert main(["sweep", "--plan", plan, "--events", "5000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'events'" in captured.err and "'base_seed'" in captured.err


def test_sweep_marks_failed_points_and_exits_nonzero(tmp_path, capsys, monkeypatch):
    import vrfplan.cli as cli_mod

    def boom(spec, binomial_n="effective"):
        raise RuntimeError("induced failure")

    monkeypatch.setattr(cli_mod.aggregator, "blocking", boom)
    plan = write_plan(tmp_path, a=[0.2], n_d=[1], n=[5, 6])
    out = tmp_path / "fail.csv"
    assert main(["sweep", "--plan", plan, "--out", str(out)]) == 1
    capsys.readouterr()
    rows = rows_of(out)
    assert len(rows) == 2
    assert all(r["agree"] == "error" for r in rows)


# ---------------------------------------------------------------------------
# validate

def test_validate_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "summary.json"
    assert main(["validate", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    summary = json.loads(printed)
    assert summary["status"] == "pass"
    names = [s["name"] for s in summary["suites"]]
    assert len(names) == 3
    assert summary["suites"][1]["negative_control"] is True
    assert all(p["agree"] is True for p in summary["suites"][2]["points"])
    assert json.loads(out.read_text())["status"] == "pass"


# ---------------------------------------------------------------------------
# process-level behavior

def test_log_level_env_controls_diagnostics(tmp_path):
    plan = write_plan(tmp_path, a=[0.2], n_d=[1], n=[5])
    # the trimmed env must still reach the package this process imported,
    # whether it is installed or only on PYTHONPATH
    source = str(Path(vrfplan.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "vrfplan.cli", "sweep", "--plan", plan],
        capture_output=True, text=True,
        env={"VRF_LOG": "info", "PATH": "/usr/bin:/bin", "PYTHONPATH": source,
             "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0
    assert "sweep: 1 grid points" in proc.stderr
