"""Import cost: the package and its query path load no scipy module and
not the oracle module, and the oracle itself runs on numpy alone."""

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
assert "vrfplan.oracle" not in sys.modules
print(" ".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""

#: With scipy made unimportable, the oracle still solves a chain and
#: still rejects one whose top state is transient.
ORACLE_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import numpy as np
from vrfplan import StructuralError
from vrfplan.oracle import steady_state

pi = steady_state(np.array([[-1.0, 1.0], [2.0, -2.0]]))
assert abs(pi[0] - 2.0 / 3.0) < 1e-14, pi
try:
    steady_state(np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.5, 0.0, -0.5]]))
except StructuralError as exc:
    print(exc)
"""


def _fresh_python(source: str) -> subprocess.CompletedProcess:
    # a fresh interpreter, so that modules the test run imported do not count
    package_root = str(Path(vrfplan.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-c", source], capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root,
             "PYTHONDONTWRITEBYTECODE": "1"})


def test_import_and_grid_query_load_no_scipy():
    proc = _fresh_python(QUERY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_oracle_runs_without_scipy():
    proc = _fresh_python(ORACLE_WITHOUT_SCIPY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (
        "chain is reducible: state 2 and state 0 are not mutually reachable")
