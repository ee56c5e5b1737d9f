"""Import cost: the package and its query path load no scipy module."""

import subprocess
import sys
from pathlib import Path

import vrfplan

QUERY = """
import sys
import vrfplan
from vrfplan import (PlanningConfig, blocking_for_planning, default_profile, select_rates,
                     spec_from_planning, traffic_from_load)

profile = default_profile()
planning = PlanningConfig(profile=profile, n_d=3, threshold_gap=1,
                          traffic=traffic_from_load(0.25, 0.5, select_rates(profile, 3).server_count),
                          cluster_size=16, link_capacity_mbps=10000.0)
assert spec_from_planning(planning).rate_set.steps == (1, 2, 4)
report = blocking_for_planning(planning)
assert 0.0 < report.total < 1.0
print(" ".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_import_and_grid_query_load_no_scipy():
    # a fresh interpreter, so that modules the test run imported do not count
    source = str(Path(vrfplan.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", QUERY], capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": source})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
