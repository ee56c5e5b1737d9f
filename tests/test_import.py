"""Import cost: the package and its query path load no scipy module."""

import subprocess
import sys
from pathlib import Path

import vrfplan

QUERY = """
import sys
import vrfplan
from vrfplan import (PlanningConfig, TrafficSpec, blocking_for_planning, default_profile,
                     spec_from_planning)

planning = PlanningConfig(profile=default_profile(), n_d=3, threshold_gap=1,
                          traffic=TrafficSpec(a=0.25, mu=0.5),
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
