import json
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


#: installs the benchmark's tracer, runs one traced command and the probe's sample_paths call;
#: prints the span names, then the run_mc span's counts
TRACE_RUN = """
import json
import sys

import levylab
import levylab.cli
from tracer import Tracer

tracer = Tracer()
tracer.install(levylab)
argv = ["simulate", "--kernel", "fbm hurst=0.35", "--level", "3", "--samples", "64",
        "--threads", "2", "--out", sys.argv[1]]
assert levylab.cli.main(argv) == 0
sim, cov = levylab.simulate, levylab.covariance
kernel = cov.parse_kernel_spec("fbm hurst=0.35")
sim.sample_paths(sim.MCConfig(seed=1, n_samples=64, level=3, kernel1=kernel, kernel2=kernel))
print("\\n".join(sorted({span["name"] for span in tracer.spans})))
run_mc = [span for span in tracer.spans if span["name"] == "simulate.run_mc"]
print(json.dumps([{key: span.get(key) for key in ("samples", "workers")} for span in run_mc]))
"""


def test_benchmark_trace_mode_installs_and_probes(tmp_path):
    # benchmarks/run.py --trace 1 rebinds the package's public functions and
    # calls simulate.sample_paths; a subprocess keeps the rebinding out of
    # the other tests
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "benchmarks"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", TRACE_RUN, str(tmp_path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *names, counts = proc.stdout.splitlines()
    assert "cli.cmd_simulate" in names and "simulate.sample_paths" in names, names
    # the tracer reads run_mc's `threads` and its result's config.n_samples
    assert json.loads(counts) == [{"samples": 64, "workers": 2}], counts
