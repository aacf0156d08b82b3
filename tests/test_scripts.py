import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("cauchy_decay_experiment.py", []),
    ("classical_cf_convergence.py", []),
    ("mc_vs_analytic.py", ["--samples", "2000", "--level", "4"]),
])
def test_script_runs(script, args):
    # the scripts import the library API directly, so a change to it must keep them running
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
