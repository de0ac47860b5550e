"""Smoke test: the demo scripts run to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# scaling_benchmark.py is left out: it takes several seconds, and criterion
# 09 of the acceptance suite already runs its code path
DEMOS = ["anomaly_detection", "background_subtraction", "rank_identification",
         "synthetic_recovery"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / ("%s.py" % name))],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
