"""levylab benchmark: CLI workloads, end-to-end metrics and traced per-layer timings.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition of a workload is one fresh interpreter (child.py) that
imports levylab from ./src and runs the workload's CLI commands in-process
through levylab.cli.main(argv). The child's environment fixes the thread
budget so that Python workers x BLAS threads stays within two cores.
Repetitions run back to back (a closed loop, one client) for about S
seconds, at least three of them; every repetition writes its artifacts,
which must be byte identical to the first repetition's, and check.py checks
the first repetition's artifacts against references computed without
levylab.

--trace 0 reports the end-to-end metrics: wall_s (first command to last
artifact written), setup_s (interpreter start until `import levylab`
returns) and peak_rss_mib (the largest ru_maxrss from wait4 over the
repetitions). It also prints samples_per_s on the Monte Carlo workloads and
fail_frac, the failed over attempted commands.
--trace 1 alternates untraced and traced repetitions; the traced child
wraps the package's public functions (tracer.py) and the per-layer metrics
come from its spans. Artifacts of traced repetitions must match the
untraced ones byte for byte, and counts must repeat exactly.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines above it are the human-readable
report, including the machine the numbers were measured on. A run record
with every sample goes to .bench_out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: a child that runs longer than this is killed and its commands count as failed
CHILD_TIMEOUT_S = 150
#: repetitions per run at least, whatever --seconds says
MIN_REPS = 3
#: interpreter start-ups that only import levylab, after each --trace 0
#: repetition; spread over the run, like the repetitions themselves
SETUP_PROBES_PER_REP = 2
HURST = "fbm hurst=0.35"


@dataclass(frozen=True)
class Workload:
    workers: int  # Python worker threads (--threads); 1 for commands without it
    blas_threads: int
    commands: tuple  # ((name, argv), ...); "{seed}" is replaced by the MC seed

    def simulate_arg(self, flag):
        """Value of a flag of the simulate command; None without one."""
        argv = dict(self.commands).get("simulate")
        return argv[argv.index(flag) + 1] if argv else None

    @property
    def mc_samples(self) -> int:
        return int(self.simulate_arg("--samples") or 0)


WORKLOADS = {
    # The Brownian increment factor is diagonal, so covariance does almost
    # nothing; time goes to the Philox re-keying loop, the area reduction and
    # the 65536-row samples.csv. RNG, reduction and threading changes show here.
    "mc_brownian": Workload(
        workers=2,
        blas_threads=1,
        commands=(("simulate", ["simulate", "--kernel", "brownian", "--level", "10",
                                "--samples", "65536", "--t", "0:3:0.5", "--emit-samples",
                                "--threads", "2", "--seed", "{seed}"]),),
    ),
    # Level 12 makes dense Gram assembly, two 4096^2 Choleskys and dense L z
    # matvecs dominate (at level 10 the RNG loop would dominate as above).
    # samples.csv is emitted (4096 rows) so the variance check can use the
    # sample fourth moment.
    "mc_fbm": Workload(
        workers=1,
        blas_threads=2,
        commands=(("simulate", ["simulate", "--kernel", HURST, "--level", "12",
                                "--samples", "4096", "--emit-samples", "--threads", "1",
                                "--seed", "{seed}"]),),
    ),
    # Deterministic and free of simulate calls: whitening and dense eigh, the
    # four-corner norm_diff quadrature and the v2p ladder.
    "operators": Workload(
        workers=1,
        blas_threads=2,
        commands=(
            ("spectrum", ["spectrum", "--kernel", HURST, "--level", "10"]),
            ("cf", ["cf", "--kernel", HURST, "--level", "9"]),
            ("cauchy", ["cauchy", "--kernel", HURST, "--levels", "1:8"]),
            ("pvar", ["pvar", "--kernel", HURST, "--level", "12"]),
        ),
    ),
}

#: end-to-end metrics: name -> (unit, statistic over the run's samples). Peak
#: RSS takes the largest repetition: on mc_brownian the two workers' batch
#: buffers overlap by chance, so single repetitions read between ~400 and
#: ~465 MiB while the largest is steady.
END_TO_END = {
    "wall_s": ("s", statistics.median),
    "setup_s": ("s", statistics.median),
    "peak_rss_mib": ("MiB", max),
}


def mc_seed(seed: int, workload: str) -> int:
    """The simulate --seed of a workload, derived only from the benchmark seed."""
    digest = hashlib.sha256(f"levylab-bench:{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def child_env(wl: Workload) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(wl.blas_threads)
    env["LEVY_LAB_THREADS"] = str(wl.workers)
    return env


def spawn(args, env, log_path):
    """Run `python args... SPAWN_NS`; returns (exit code, peak RSS in MiB, CPU seconds)."""
    with open(log_path, "wb") as log:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen([sys.executable, *map(str, args), str(spawn_ns)],
                                env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


@dataclass
class Rep:
    traced: bool
    code: int
    rss_mib: float
    cpu_s: float
    result: dict | None
    out_dir: Path


def run_rep(name, wl, seed, run_dir, index, traced, probe) -> Rep:
    rep_dir = run_dir / f"rep{index}"
    out_dir = rep_dir / "out"
    out_dir.mkdir(parents=True)
    seed_text = str(mc_seed(seed, name))
    spec = {
        "src": str(SRC),
        "out_dir": str(out_dir),
        "result_path": str(rep_dir / "result.json"),
        "trace": traced,
        "commands": [{"name": cmd, "argv": [a.replace("{seed}", seed_text) for a in argv]}
                     for cmd, argv in wl.commands],
        "probe": ({"kernel": wl.simulate_arg("--kernel"),
                   "level": int(wl.simulate_arg("--level")), "seed": int(seed_text)}
                  if probe and wl.mc_samples else None),
    }
    (rep_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    code, rss, cpu = spawn([HERE / "child.py", rep_dir / "spec.json"], child_env(wl),
                           rep_dir / "child.log")
    result_path = rep_dir / "result.json"
    result = json.loads(result_path.read_text()) if code == 0 and result_path.exists() else None
    return Rep(traced, code, rss, cpu, result, out_dir)


def setup_probe(wl, run_dir, index) -> float | None:
    log = run_dir / f"setup{index}.log"
    code, _, _ = spawn([HERE / "child.py", "--probe"], child_env(wl), log)
    return float(log.read_text().split()[-1]) if code == 0 else None


def artifacts(out_dir: Path) -> dict:
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def run_checks(name, wl, rep: Rep, run_dir) -> dict:
    log = run_dir / "check.log"
    with open(log, "wb") as fh:
        proc = subprocess.run([sys.executable, HERE / "check.py", name, rep.out_dir],
                              env=child_env(wl), cwd=ROOT, stdout=fh,
                              stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S)
    lines = log.read_text().splitlines()
    if proc.returncode != 0 or not lines:
        return {"checks": [{"command": None, "name": "check.py ran", "ok": False,
                            "detail": "\n".join(lines[-5:])}], "env": {}}
    return json.loads(lines[-1])


def failed_commands(wl, rep: Rep, reference: dict, bad_checks: set) -> set:
    """Commands of one repetition that exited non-zero, crashed, or whose
    artifacts failed a check or differ from the first repetition's."""
    names = [cmd for cmd, _ in wl.commands]
    if rep.result is None:
        return set(names)
    mine = artifacts(rep.out_dir)
    failed = set()
    for cmd in rep.result["commands"]:
        ref = {k: v for k, v in reference.items() if k.startswith(cmd["name"] + "/")}
        got = {k: v for k, v in mine.items() if k.startswith(cmd["name"] + "/")}
        if cmd["code"] != 0 or got != ref or cmd["name"] in bad_checks or None in bad_checks:
            failed.add(cmd["name"])
    return failed


def summarize(values, statistic=statistics.median):
    """The reported statistic, the median, and the highest percentile with at
    least ten samples beyond it (none below eleven samples)."""
    values = sorted(values)
    n = len(values)
    text = f"{statistic.__name__} {statistic(values):.6g} (n={n}"
    if statistic is not statistics.median:
        text += f", median {statistics.median(values):.6g}"
    if n >= 11:
        text += f", p{100.0 * (n - 10) / n:.1f} {values[n - 11]:.6g}"
    else:
        text += ", no percentile with 10 samples beyond"
    return text + f", min {values[0]:.6g}, max {values[-1]:.6g})"


#: per-layer metrics, named `<span name>.<aggregate field>`; the span `cli`
#: stands for all cmd_* handlers together
LAYER_METRICS = (
    "covariance.gram_matrix.calls",
    "covariance.gram_matrix.entries",
    "covariance.gram_matrix.self_s",
    "covariance.eval_grid.points",
    "covariance.eval_grid.self_s",
    "covariance.cholesky_factor.calls",
    "covariance.cholesky_factor.self_s",
    "covariance.cholesky_factor.jitter_rung",
    "simulate.run_mc.self_s",
    "simulate.run_mc.samples",
    "simulate.run_mc.cpu_util",
    "simulate.empirical_cf.self_s",
    "spectral.discretize_general_operator.self_s",
    "spectral.whiten_operator.self_s",
    "spectral.eigen_solve.self_s",
    "spectral.eigen_solve.dim",
    "spectral.cf_curve.self_s",
    "spectral.cf_from_spectrum.self_s",
    "spectral.symmetry_check.self_s",
    "levy_kernel.norm_diff.calls",
    "levy_kernel.norm_diff.self_s",
    "levy_kernel.cauchy_table.self_s",
    "pvariation.v2p_grid.calls",
    "pvariation.v2p_grid.self_s",
    "pvariation.variation_profile.self_s",
    "cli.self_s",
    "cli.bytes_written",
)


def layer_unit(metric: str) -> str:
    return {"self_s": "s", "cpu_util": "ratio"}.get(metric.rsplit(".", 1)[1], "count")


def aggregate(spans) -> dict:
    """Totals per span name; `cli` sums the self time of every cmd_* handler.

    Counts add up over calls, except jitter_rung and dim, which take the
    largest value. cpu_util is process CPU time over span time x workers.
    """
    selfs = self_times(spans)
    agg = {}
    for span in spans:
        keys = [span["name"]] + (["cli"] if span["name"].startswith("cli.") else [])
        for key in keys:
            a = agg.setdefault(key, {"calls": 0, "self_s": 0.0, "cpu_s": 0.0, "worker_s": 0.0})
            a["calls"] += 1
            a["self_s"] += selfs[span["id"]]
            a["cpu_s"] += span["cpu"]
            a["worker_s"] += (span["end"] - span["start"]) * span.get("workers", 1)
            for field in ("points", "entries", "samples"):
                a[field] = a.get(field, 0) + span.get(field, 0)
            for field in ("jitter_rung", "dim"):
                a[field] = max(a.get(field, 0), span.get(field, 0))
    for a in agg.values():
        a["cpu_util"] = a["cpu_s"] / a["worker_s"] if a["worker_s"] else 0.0
    return agg


def layer_metrics(result) -> dict:
    """Per-layer metric values of one traced repetition."""
    agg = aggregate(result["spans"])
    agg.setdefault("cli", {})["bytes_written"] = sum(c["bytes"] for c in result["commands"])
    return {metric: agg.get(metric.rsplit(".", 1)[0], {}).get(metric.rsplit(".", 1)[1], 0)
            for metric in LAYER_METRICS}


def batch_seconds(probe_spans) -> float:
    """Self time of the probe's sample_paths call: draw plus L z for one BATCH."""
    selfs = self_times(probe_spans)
    return next((selfs[s["id"]] for s in probe_spans if s["name"] == "simulate.sample_paths"), 0.0)


def environment(wl, numpy_env) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **numpy_env,
        "workers": wl.workers,
        "blas_threads": wl.blas_threads,
    }


def end_to_end_report(wl, reps, setup, lines) -> dict:
    """End-to-end metrics of the untraced repetitions; report lines go to `lines`."""
    samples = {
        "wall_s": [r.result["wall_s"] for r in reps],
        "setup_s": [s for s in setup + [r.result["import_s"] for r in reps] if s is not None],
        "peak_rss_mib": [r.rss_mib for r in reps],
    }
    if wl.mc_samples:
        samples["samples_per_s"] = [wl.mc_samples / c["seconds"] for r in reps
                                    for c in r.result["commands"] if c["name"] == "simulate"]
    metrics = {}
    for metric, values in samples.items():
        if not values:
            continue
        unit, statistic = END_TO_END.get(metric, ("1/s", statistics.median))
        lines.append(f"{metric} [{unit}] {summarize(values, statistic)}")
        if metric in END_TO_END:
            metrics[metric] = {"value": statistic(values), "unit": unit}
    if not wl.mc_samples:
        lines.append("samples_per_s: not measured (no simulate command in this workload)")
    return metrics


def layer_report(reps, lines):
    """Per-layer metrics of the traced repetitions and the tracing overhead.

    Returns (metrics, whether every count repeated exactly, the first traced
    repetition's spans with their self times).
    """
    traced = [r for r in reps if r.traced]
    untraced = [r for r in reps if not r.traced]
    per_rep = [layer_metrics(r.result) for r in traced]
    metrics, counts_repeat = {}, bool(traced and untraced)
    for metric in LAYER_METRICS:
        unit = layer_unit(metric)
        values = [m[metric] for m in per_rep]
        if unit == "count" and len(set(values)) > 1:
            lines.append(f"FAIL {metric} differs between traced repetitions: {values}")
            counts_repeat = False
        if values:
            metrics[metric] = {"value": statistics.median(values), "unit": unit}
            lines.append(f"{metric} [{unit}] {summarize(values)}")
    probes = [batch_seconds(r.result["probe_spans"]) for r in traced if "probe_spans" in r.result]
    metrics["simulate.sample_paths.batch_s"] = {"value": probes[0] if probes else 0.0, "unit": "s"}
    lines.append("simulate.sample_paths.batch_s [s] "
                 + (f"{probes[0]:.6g} (one probe)" if probes else "0 (no Monte Carlo kernel)"))
    if traced and untraced:
        overhead = (statistics.median(r.result["wall_s"] for r in traced)
                    - statistics.median(r.result["wall_s"] for r in untraced))
        metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
        lines.append(f"trace_overhead_s [s] {overhead:.6g} (traced minus untraced median "
                     f"wall_s over {len(traced)} / {len(untraced)} repetitions)")
    spans = traced[0].result["spans"] if traced else []
    selfs = self_times(spans)
    for span in spans:
        span["self_s"] = selfs[span["id"]]
    return metrics, counts_repeat, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "levylab" / "__init__.py").is_file():
        print(f"error: no levylab package source under {SRC}", file=sys.stderr)
        return 2

    name, wl, trace = args.workload, WORKLOADS[args.workload], bool(args.trace)
    run_dir = OUT / f"{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return measure(name, wl, args.seed, args.seconds, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(name, wl, seed, seconds, trace, run_dir) -> int:
    # the first start-up writes bytecode caches; users pay that once, so it is not timed
    if setup_probe(wl, run_dir, "warm") is None:
        print(f"error: cannot import levylab; see {run_dir / 'setupwarm.log'}", file=sys.stderr)
        print((run_dir / "setupwarm.log").read_text(), file=sys.stderr)
        return 2
    setup = []

    reps, durations = [], []
    start = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        probe = traced and not any(r.traced for r in reps)
        t0 = time.monotonic()
        reps.append(run_rep(name, wl, seed, run_dir, len(reps), traced, probe))
        if not trace:
            setup += [setup_probe(wl, run_dir, f"{len(reps)}-{i}")
                      for i in range(SETUP_PROBES_PER_REP)]
        now = time.monotonic()
        durations.append(now - t0)
        # stop before a repetition that would end after the time budget
        if len(reps) >= MIN_REPS and now - start + statistics.median(durations) > seconds:
            break

    base = reps[0]
    report = run_checks(name, wl, base, run_dir)
    bad_checks = {c["command"] for c in report["checks"] if not c["ok"]}
    reference = artifacts(base.out_dir) if base.result else {}
    attempted = len(reps) * len(wl.commands)
    failed_by_rep = [failed_commands(wl, rep, reference, bad_checks) for rep in reps]
    failed = sum(map(len, failed_by_rep))
    ok_reps = [r for r in reps if r.result is not None]
    env = environment(wl, report["env"])

    lines = [f"levylab benchmark: workload={name} seed={seed} mc_seed={mc_seed(seed, name)} "
             f"trace={int(trace)} seconds={seconds:g} repetitions={len(reps)}",
             "env " + json.dumps(env, sort_keys=True)]
    for c in report["checks"]:
        lines.append(f"check {'PASS' if c['ok'] else 'FAIL'} [{c['command']}] {c['name']}: "
                     f"{c['detail']}")
    for rep in reps:
        if rep.result is None:
            lines.append(f"repetition {rep.out_dir.parent.name} exited {rep.code}: "
                         + (rep.out_dir.parent / "child.log").read_text()[-2000:])
        else:
            for cmd in rep.result["commands"]:
                if cmd["error"]:
                    lines.append(f"{rep.out_dir.parent.name} {cmd['name']} crashed:\n{cmd['error']}")
    for rep, names in zip(reps, failed_by_rep):
        if names:
            lines.append(f"FAIL {rep.out_dir.parent.name}{' (traced)' if rep.traced else ''}: "
                         f"{sorted(names)} exited non-zero, failed a check or wrote artifacts "
                         "that differ from rep0")
    lines.append(f"fail_frac {failed / attempted:.6g} ({failed}/{attempted} commands)")

    correct = failed == 0 and bool(ok_reps) and all(c["ok"] for c in report["checks"])
    if trace:
        metrics, counts_repeat, spans = layer_report(ok_reps, lines)
        correct = correct and counts_repeat
    else:
        metrics = end_to_end_report(wl, ok_reps, setup, lines)
        correct = correct and len(metrics) == len(END_TO_END)

    record = {"workload": name, "seed": seed, "trace": int(trace), "env": env,
              "checks": report["checks"], "attempted": attempted, "failed": failed,
              "metrics": metrics,
              "repetitions": [{"traced": r.traced, "code": r.code, "peak_rss_mib": r.rss_mib,
                               "cpu_s": r.cpu_s,
                               **{k: v for k, v in (r.result or {}).items()
                                  if k not in ("spans", "probe_spans")}}
                              for r in reps]}
    if trace:
        record["spans"] = spans
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
