"""One workload repetition in a fresh interpreter.

    python child.py SPEC.json SPAWN_NS     run the commands listed in SPEC
    python child.py --probe SPAWN_NS       only import levylab

SPAWN_NS is the parent's time.monotonic_ns() just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so the import time
reported here covers interpreter start-up plus `import levylab`. The parent
puts the package source on PYTHONPATH and fixes the thread budget in the
environment. Commands run in-process through levylab.cli.main(argv), each
with its own --out directory; with "trace" set, tracer.Tracer wraps the
package's public functions first.
"""
import sys
import time

import levylab

IMPORT_DONE_NS = time.monotonic_ns()

import json  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import levylab.cli  # noqa: E402


def _probe(tracer, probe):
    """Time one BATCH of sample_paths at the workload's kernel and level."""
    sim, cov = levylab.simulate, levylab.covariance
    kernel = cov.parse_kernel_spec(probe["kernel"])
    config = sim.MCConfig(seed=probe["seed"], n_samples=sim.BATCH, level=probe["level"],
                          kernel1=kernel, kernel2=kernel)
    first = len(tracer.spans)
    sim.sample_paths(config)
    return tracer.spans[first:]


def run(spec, spawn_ns):
    src = Path(spec["src"]).resolve()
    if Path(levylab.__file__).resolve().parent.parent != src:
        raise SystemExit(f"levylab imported from {levylab.__file__}, not from {src}")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(levylab)
    commands = []
    first = last = None
    for cmd in spec["commands"]:
        out = Path(spec["out_dir"]) / cmd["name"]
        out.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        try:
            code = levylab.cli.main(cmd["argv"] + ["--out", str(out)])
            error = None
        except Exception:  # a crash is recorded as a failed command
            code, error = -1, traceback.format_exc()
        t1 = time.perf_counter()
        first = t0 if first is None else first
        last = t1
        size = sum(p.stat().st_size for p in out.iterdir())
        commands.append({"name": cmd["name"], "code": code, "seconds": t1 - t0,
                         "bytes": size, "error": error})
    result = {
        "import_s": (IMPORT_DONE_NS - spawn_ns) / 1e9,
        "wall_s": last - first,
        "commands": commands,
    }
    if tracer is not None:
        result["spans"] = list(tracer.spans)
        if spec.get("probe"):
            result["probe_spans"] = _probe(tracer, spec["probe"])
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")


def main(argv):
    if argv[0] == "--probe":
        print((IMPORT_DONE_NS - int(argv[1])) / 1e9)
        return 0
    run(json.loads(Path(argv[0]).read_text(encoding="utf-8")), int(argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
