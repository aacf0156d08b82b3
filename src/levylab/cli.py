"""Command-line front end.

Subcommands: simulate, cf, spectrum, pvar, cauchy, check. Options come from
flags only. Grids use the range syntax a:b:step (inclusive of the endpoint
up to rounding) or a comma list; integer level ranges accept a:b. Each table
command writes its CSV table and summary.json into --out (default .); every
artifact embeds the semantic config echo (command, kernels, seed, sizes) so
runs are reproducible from their outputs alone. One writer, _write_table,
renders every table, and one value rule, _cell, formats every CSV cell and
echo list. The thread count and the output directory are deliberately not
part of the echo: outputs are bit-identical for the same config and seed at
any --threads.

Exit codes: 0 success, 1 invariant failure, 2 usage error, 3 numerical error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import covariance as cov
from . import levy_kernel as lk
from . import pvariation as pv
from . import simulate as sim
from . import spectral as sp
from .errors import NumericalError

SCHEMA_VERSION = 19


def _fmt(x: float) -> str:
    """17 significant digits, round-trip exact ('0.10000000000000001' for 0.1);
    '.' separator, locale-free."""
    return format(float(x), ".17g")


def _cell(value) -> str:
    """The one value rule of the artifacts: floats by _fmt, anything else by str."""
    return _fmt(value) if isinstance(value, float) else str(value)


def _json_value(value):
    """`value` for strict JSON: non-finite floats become their _cell strings."""
    if isinstance(value, float) and not math.isfinite(value):
        return _cell(value)
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


#: most points a range may expand to; the count is checked before any list is built
MAX_RANGE_POINTS = 10**6


def parse_range(text: str):
    """a:b:step range, a:b integer range (step 1), or a comma list of finite numbers."""
    text = text.strip()
    if "," in text:
        values = [_finite(tok) for tok in text.split(",") if tok.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"range {text!r} lists no numbers")
        return values
    if ":" not in text:
        return [_finite(text)]
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    a, b, *rest = (_finite(p) for p in parts)
    step = rest[0] if rest else 1.0
    if len(parts) == 2 and not (a.is_integer() and b.is_integer() and b >= a):
        raise argparse.ArgumentTypeError(
            f"two-part ranges must be increasing integers a:b, got {text!r}"
        )
    if step <= 0 or b < a:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    # inf when the quotient overflows, which the cap rejects
    count = np.floor((b - a) / step + 1e-9) + 1
    if count > MAX_RANGE_POINTS:
        raise argparse.ArgumentTypeError(
            f"range {text!r} has {count:.0f} points, above the cap of {MAX_RANGE_POINTS}"
        )
    return [a + i * step for i in range(int(count))]


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite value {token.strip()!r} in a range")
    return value


def _resolve_kernel(spec):
    if spec is None:
        raise argparse.ArgumentTypeError("a kernel spec is required (--kernel)")
    return cov.parse_kernel_spec(spec)


def _resolve_pair(args):
    """Kernels of the two processes: one object when both take the same spec."""
    spec1 = args.kernel1 or args.kernel
    spec2 = args.kernel2 or args.kernel
    k1 = _resolve_kernel(spec1)
    return k1, k1 if spec2 == spec1 else _resolve_kernel(spec2)


def _threads(args) -> int:
    """Worker count from --threads, else LEVY_LAB_THREADS, else 1; below 1 is a usage error."""
    if args.threads is not None:
        threads, source = args.threads, "--threads"
    else:
        threads, source = int(os.environ.get("LEVY_LAB_THREADS") or 1), "LEVY_LAB_THREADS"
    if threads < 1:
        raise argparse.ArgumentTypeError(f"{source} must be >= 1, got {threads}")
    return threads


def _echo(command: str, **fields) -> dict:
    echo = {"schema_version": SCHEMA_VERSION, "command": command}
    echo.update({k: v for k, v in fields.items() if v is not None})
    return echo


def _echo_line(echo: dict) -> str:
    parts = []
    for key, val in echo.items():
        if isinstance(val, list):
            val = ",".join(map(_cell, val))
        parts.append(f"{key}={val}")
    return "# " + " ".join(parts)


def _write_csv(path: Path, echo: dict, blocks):
    """The echo line followed by the CSV header and rows, given as text blocks."""
    # block by block: joining them would hold a second copy of a large body
    with path.open("w", encoding="utf-8") as fh:
        fh.write(_echo_line(echo) + "\n")
        for block in blocks:
            fh.write(block)


def _sample_blocks(samples):
    """samples.csv body: the header, then one text block per BATCH samples.

    "%.17g" of a Python float is _fmt's text, inf, nan and -0 included. A
    block is one % of the row format repeated over its interleaved cells.
    """
    yield "sample,area\n"
    row = "%d,%.17g\n"
    full = row * sim.BATCH
    for start in range(0, len(samples), sim.BATCH):
        block = samples[start : start + sim.BATCH].tolist()
        cells = [None] * (2 * len(block))
        cells[0::2] = range(start, start + len(block))
        cells[1::2] = block
        yield (full if len(block) == sim.BATCH else row * len(block)) % tuple(cells)


def _write_table(args, echo: dict, name: str, columns, rows, summary: dict, repeat=()):
    """Write a table (column names, rows of plain values) and summary.json.

    File `name` holds the echo line, the header and the rows, cells by
    _cell, with the summary fields named in `repeat` as trailing constant
    columns. summary.json holds the echo and the summary fields; it is
    strict JSON: an infinite or nan float is written as the string its CSV
    cell holds ("inf", "-inf", "nan").
    """
    tail = tuple(summary[field] for field in repeat)
    lines = (",".join(map(_cell, (*row, *tail))) for row in rows)
    _write_csv(_out_path(args, name), echo,
               (f"{line}\n" for line in (",".join((*columns, *repeat)), *lines)))
    doc = json.dumps(_json_value({**echo, **summary}), sort_keys=True, indent=2,
                     allow_nan=False)
    _out_path(args, "summary.json").write_text(doc + "\n", encoding="utf-8")


def _out_path(args, name: str) -> Path:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def cmd_simulate(args) -> int:
    threads = _threads(args)
    k1, k2 = _resolve_pair(args)
    config = sim.MCConfig(
        seed=args.seed, n_samples=args.samples, level=args.level, kernel1=k1, kernel2=k2,
    )
    echo = _echo(
        "simulate",
        kernel1=cov.kernel_spec_string(k1),
        kernel2=cov.kernel_spec_string(k2),
        seed=config.seed,
        samples=config.n_samples,
        level=config.level,
        t=[float(t) for t in args.t],
    )
    result = sim.run_mc(config, threads=threads)
    ecf = sim.empirical_cf(result, args.t)
    rows = list(zip(ecf.t_grid.tolist(), ecf.estimates.real.tolist(),
                    ecf.estimates.imag.tolist(), ecf.std_errors.tolist()))
    _write_table(args, echo, "cf.csv", ("t", "re", "im", "stderr"), rows,
                 {"mean": result.mean, "variance": result.variance})
    if args.emit_samples:
        _write_csv(_out_path(args, "samples.csv"), echo, _sample_blocks(result.samples))
    return 0


def cmd_cf(args) -> int:
    kernel = _resolve_kernel(args.kernel)
    stepped = kernel.kind != cov.WEIGHTED
    if args.level is not None and not stepped:
        raise argparse.ArgumentTypeError(
            "--level only applies to fbm and tabulated kernels; the cf of a weighted "
            "kernel, brownian included, is exact"
        )
    level = args.level if args.level is not None else 7
    echo = _echo(
        "cf",
        kernel=cov.kernel_spec_string(kernel),
        t=[float(t) for t in args.t],
        level=level if stepped else None,
    )
    if stepped:
        rows = [(r.z.imag, r.value.real, r.value.imag, r.tail_bound)
                for r in sp.cf_curve(sp.general_spectrum(kernel, kernel, level), args.t)]
    else:
        norm_sq = kernel.weight.norm_sq
        rows = [(float(t), sp.weighted_cf(norm_sq, float(t)), 0.0, 0.0) for t in args.t]
    _write_table(args, echo, "cf.csv", ("t", "re", "im", "tail_bound"), rows,
                 {"n_points": len(rows)})
    return 0


def cmd_spectrum(args) -> int:
    """Level-n operator spectrum (--level, default 7) and its symmetry audit.

    sp.general_spectrum gives it for every kernel: for a constant weight, the
    scaled closed form on the midpoint grid g = 2^n, with no dense solve.
    """
    kernel = _resolve_kernel(args.kernel)
    spectrum = sp.general_spectrum(kernel, kernel, args.level)
    report = sp.symmetry_check(spectrum)
    echo = _echo("spectrum", kernel=cov.kernel_spec_string(kernel), level=args.level)
    summary = {
        "spectral_radius": spectrum.spectral_radius,
        "symmetry_ok": report.ok,
        "symmetry_violations": list(report.violations),
    }
    _write_table(args, echo, "spectrum.csv", ("alpha", "multiplicity"), spectrum.entries,
                 summary)
    return 0


def cmd_pvar(args) -> int:
    kernel = _resolve_kernel(args.kernel)
    if args.p == "auto":
        index = cov.variation_index(kernel)
        if index is None:
            raise argparse.ArgumentTypeError(
                "--p auto needs a kernel with a known variation index"
            )
        p = index
    else:
        p = float(args.p)
    profile = pv.variation_profile(kernel, p, args.level)
    echo = _echo("pvar", kernel=cov.kernel_spec_string(kernel), p=float(p),
                 max_level=args.level)
    _write_table(args, echo, "pvar.csv", ("level", "estimate"), profile.levels,
                 {"p": float(p), "verdict": profile.verdict}, repeat=("verdict",))
    return 0


def cmd_cauchy(args) -> int:
    k1, k2 = _resolve_pair(args)
    if not all(float(v).is_integer() for v in args.levels):
        raise argparse.ArgumentTypeError(
            f"levels must be integers, got {','.join(map(_fmt, args.levels))}"
        )
    levels = [int(v) for v in args.levels]
    table = lk.cauchy_table(levels, k1, k2)
    echo = _echo(
        "cauchy",
        kernel1=cov.kernel_spec_string(k1),
        kernel2=cov.kernel_spec_string(k2),
        levels=levels,
    )
    _write_table(args, echo, "cauchy.csv", ("n", "m", "norm_sq", "refine"), table.rows,
                 {"slope": table.slope, "flag": table.flag}, repeat=("flag",))
    return 0


def cmd_check(args) -> int:
    # imported here, so the other commands do not load the audits and their references
    from . import checks

    results = checks.run_all()
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        suffix = f" — {detail}" if detail else ""
        print(f"{status} {name}{suffix}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} invariant checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levylab",
        description="Generalised Levy areas: sampling, spectra and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=".", help="output directory (default .)")

    p = sub.add_parser("simulate", help="Monte Carlo areas and empirical CF")
    common(p)
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (or LEVY_LAB_THREADS)")
    p.add_argument("--kernel", help="kernel spec for both processes")
    p.add_argument("--kernel1")
    p.add_argument("--kernel2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--level", type=int, default=8)
    p.add_argument("--t", type=parse_range, default="0:3:0.5",
                   help="CF argument grid a:b:step or list (default 0:3:0.5)")
    p.add_argument("--emit-samples", action="store_true", help="also write samples.csv")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("cf", help="exact or level-n spectral characteristic function curves")
    common(p)
    p.add_argument("--kernel", required=False)
    p.add_argument("--t", type=parse_range, default="0:3:0.1",
                   help="CF argument grid a:b:step or list (default 0:3:0.1)")
    p.add_argument("--level", type=int,
                   help="step-kernel level, fbm and tabulated only (default 7)")
    p.set_defaults(fn=cmd_cf)

    p = sub.add_parser("spectrum", help="discretized operator spectrum + symmetry audit")
    common(p)
    p.add_argument("--kernel")
    p.add_argument("--level", type=int, default=7, help="step-kernel dyadic level (default 7)")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("pvar", help="grid p-variation profile of a kernel")
    common(p)
    p.add_argument("--kernel")
    p.add_argument("--p", default="auto", help="variation exponent or 'auto' (default)")
    p.add_argument("--level", type=int, default=10,
                   help="maximum grid level (default 10); the level Gram must fit "
                        "covariance.MAX_GRAM_BYTES: at most 24 for weighted kernels "
                        "(brownian included), 23 for fbm, 12 for tabulated")
    p.set_defaults(fn=cmd_pvar)

    p = sub.add_parser("cauchy", help="inter-level chaos distances with decay fit")
    common(p)
    p.add_argument("--kernel")
    p.add_argument("--kernel1")
    p.add_argument("--kernel2")
    p.add_argument("--levels", type=parse_range, default="1:6",
                   help="level ladder a:b (default 1:6)")
    p.set_defaults(fn=cmd_cauchy)

    p = sub.add_parser("check", help="run the full invariant suite")
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except argparse.ArgumentTypeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    # before ValueError, which LinAlgError subclasses
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
