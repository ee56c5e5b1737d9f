"""One round of each benchmark workload, judged by the benchmark's own
checks and negative controls (`perfbench/checks.py`), so that a wrong
benchmark output fails here before a benchmark run reports it."""

from pathlib import Path

import pytest

from vrfplan import spec_from_planning

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's `checks` and `workloads` modules, imported as
    `perfbench/run.py` imports them: by bare name off its directory."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import workloads
    return checks, workloads


@pytest.mark.parametrize("name", ["size_search", "fat_link", "sim_sweep"])
def test_one_round_passes_the_benchmark_checks(bench, tmp_path, name):
    checks, workloads = bench
    inputs = workloads.build(name, 1, tmp_path)
    done = workloads.run_round(name, inputs)
    assert done.failed == 0
    if name == "sim_sweep":
        errors = checks.sweep_errors([done.outputs], [done.exit_code])
        caught, missed = checks.sweep_controls([done.outputs], [done.exit_code])
    else:
        # the records carry the per-unit rates, filled as the run fills them
        for query, record in checks.analytic_pairs(name, inputs, done.outputs):
            rates = spec_from_planning(query.planning).rates
            record["unit_rates"] = (rates.up, rates.down)
        errors = checks.analytic_errors(name, inputs, done.outputs)
        caught, missed = checks.analytic_controls(name, inputs, done.outputs)
    assert errors == []
    assert caught and missed == []
