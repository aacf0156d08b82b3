"""Command-line front end.

Subcommands: simulate, cf, spectrum, pvar, cauchy, check. Options may come
from flags or from a key=value config file (flags win). Grids use the range
syntax a:b:step (inclusive of the endpoint up to rounding) or a comma list;
integer level ranges accept a:b. Artifacts are CSV tables plus a JSON
summary; every artifact embeds the semantic config echo (command, kernels,
seed, sizes) so runs are reproducible from their outputs alone. One writer,
_write_table, renders every table, and one value rule, _cell, formats every
CSV cell and echo list. Execution
knobs (thread count, output paths) are deliberately not part of the echo:
outputs are bit-identical for the same config and seed at any --threads.

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

from . import checks
from . import covariance as cov
from . import levy_kernel as lk
from . import pvariation as pv
from . import simulate as sim
from . import spectral as sp
from .errors import NumericalError

SCHEMA_VERSION = 17


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


def _read_config_file(path):
    values = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise argparse.ArgumentTypeError(f"config line without '=': {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key in values:
            raise argparse.ArgumentTypeError(f"config key {key} is repeated in {path}")
        values[key] = val.strip()
    return values


def _config_value(action, key, raw):
    """Convert and check a config-file value as argparse would the flag's."""
    if action.nargs == 0:  # an on/off flag such as --emit-samples
        if raw.lower() in ("1", "true", "yes"):
            return action.const
        if raw.lower() in ("0", "false", "no"):
            return action.default
        raise argparse.ArgumentTypeError(
            f"config key {key}: expected true or false, got {raw!r}"
        )
    try:
        value = action.type(raw) if action.type else raw
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"config key {key}: {exc}") from None
    if action.choices is not None and value not in action.choices:
        raise argparse.ArgumentTypeError(
            f"config key {key}: {raw!r} is not one of {', '.join(map(str, action.choices))}"
        )
    return value


def _merge_config(args):
    """Fill argparse gaps from the config file; flags always win.

    Keys are the subcommand's own option names, and every value goes through
    that option's argparse type and choices.
    """
    if not getattr(args, "config", None):
        return args
    fields = _read_config_file(args.config)
    actions = {a.dest: a for a in args.parser._actions if a.dest not in ("help", "config")}
    unknown = set(fields) - set(actions)
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown config keys {sorted(unknown)} for {args.command}"
        )
    for key, raw in fields.items():
        if getattr(args, key) is None:
            setattr(args, key, _config_value(actions[key], key, raw))
    return args


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

    "%.17g" of a Python float is _fmt's text, inf, nan and -0 included.
    """
    yield "sample,area\n"
    for start in range(0, len(samples), sim.BATCH):
        block = samples[start : start + sim.BATCH].tolist()
        yield "".join(["%d,%.17g\n" % row for row in enumerate(block, start)])


def _write_table(args, echo: dict, name: str, key: str, columns, rows, summary: dict,
                 repeat=()):
    """Write a table (column names, rows of plain values) and summary.json.

    CSV: file `name` holds the echo line, the header and the rows, cells by
    _cell, with the summary fields named in `repeat` as trailing constant
    columns. JSON: summary.json holds the rows under `key`, one object each.
    summary.json is strict JSON: an infinite or nan float is written as the
    string its CSV cell holds ("inf", "-inf", "nan").
    """
    if args.format == "json":
        summary = {**summary, key: [dict(zip(columns, row)) for row in rows]}
    else:
        tail = tuple(summary[field] for field in repeat)
        lines = (",".join(map(_cell, (*row, *tail))) for row in rows)
        _write_csv(_out_path(args, name), echo,
                   (f"{line}\n" for line in (",".join((*columns, *repeat)), *lines)))
    doc = json.dumps(_json_value({**echo, **summary}), sort_keys=True, indent=2,
                     allow_nan=False)
    _out_path(args, "summary.json").write_text(doc + "\n", encoding="utf-8")


def _out_path(args, name: str) -> Path:
    prefix = args.prefix or ""
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / f"{prefix}{name}"


def cmd_simulate(args) -> int:
    threads = _threads(args)
    k1, k2 = _resolve_pair(args)
    config = sim.MCConfig(
        seed=args.seed if args.seed is not None else 0,
        n_samples=args.samples if args.samples is not None else 10_000,
        level=args.level if args.level is not None else 8,
        kernel1=k1,
        kernel2=k2,
    )
    t_grid = args.t if args.t is not None else parse_range("0:3:0.5")
    echo = _echo(
        "simulate",
        kernel1=cov.kernel_spec_string(k1),
        kernel2=cov.kernel_spec_string(k2),
        seed=config.seed,
        samples=config.n_samples,
        level=config.level,
        t=[float(t) for t in t_grid],
    )
    result = sim.run_mc(config, threads=threads)
    ecf = sim.empirical_cf(result, t_grid)
    rows = list(zip(ecf.t_grid.tolist(), ecf.estimates.real.tolist(),
                    ecf.estimates.imag.tolist(), ecf.std_errors.tolist()))
    _write_table(args, echo, "cf.csv", "cf", ("t", "re", "im", "stderr"), rows,
                 {"mean": result.mean, "variance": result.variance})
    if args.format == "csv" and args.emit_samples:
        _write_csv(_out_path(args, "samples.csv"), echo, _sample_blocks(result.samples))
    return 0


def cmd_cf(args) -> int:
    kernel = _resolve_kernel(args.kernel)
    stepped = kernel.kind in (cov.FBM, cov.TABULATED)
    if args.level is not None and not stepped:
        raise argparse.ArgumentTypeError(
            f"--level only applies to fbm and tabulated kernels; the {kernel.kind} cf "
            "is not computed on a dyadic level"
        )
    if args.pairs is not None and kernel.kind != cov.BROWNIAN:
        raise argparse.ArgumentTypeError("--pairs only applies to brownian kernels")
    t_grid = args.t if args.t is not None else parse_range("0:3:0.1")
    pairs = args.pairs if args.pairs is not None else 10_000
    level = args.level if args.level is not None else 7
    echo = _echo(
        "cf",
        kernel=cov.kernel_spec_string(kernel),
        t=[float(t) for t in t_grid],
        pairs=pairs if kernel.kind == cov.BROWNIAN else None,
        level=level if stepped else None,
    )
    if kernel.kind == cov.WEIGHTED:
        norm_sq = kernel.weight.norm_sq
        rows = [(float(t), sp.weighted_cf(norm_sq, float(t)), 0.0, 0.0) for t in t_grid]
    else:
        if kernel.kind == cov.BROWNIAN:
            spectrum = sp.classical_spectrum(pairs)
        else:
            spectrum = sp.general_spectrum(kernel, kernel, level)
        rows = [(r.z.imag, r.value.real, r.value.imag, r.tail_bound)
                for r in sp.cf_curve(spectrum, t_grid)]
    _write_table(args, echo, "cf.csv", "cf", ("t", "re", "im", "tail_bound"), rows,
                 {"n_points": len(rows)})
    return 0


def cmd_spectrum(args) -> int:
    """Level-n operator spectrum (--level, default 7) and its symmetry audit.

    sp.general_spectrum gives it for every kernel: for a Brownian kernel the
    closed form on the midpoint grid g = 2^n, with no dense solve.
    """
    kernel = _resolve_kernel(args.kernel)
    level = args.level if args.level is not None else 7
    spectrum = sp.general_spectrum(kernel, kernel, level)
    report = sp.symmetry_check(spectrum)
    echo = _echo("spectrum", kernel=cov.kernel_spec_string(kernel), level=level)
    summary = {
        "spectral_radius": spectrum.spectral_radius,
        "symmetry_ok": report.ok,
        "symmetry_violations": list(report.violations),
    }
    _write_table(args, echo, "spectrum.csv", "spectrum",
                 ("alpha", "multiplicity"), spectrum.entries, summary)
    return 0


def cmd_pvar(args) -> int:
    kernel = _resolve_kernel(args.kernel)
    if args.p in (None, "auto"):
        index = cov.variation_index(kernel)
        if index is None:
            raise argparse.ArgumentTypeError(
                "--p auto needs a kernel with a known variation index"
            )
        p = index
    else:
        p = float(args.p)
    max_level = args.level if args.level is not None else 10
    profile = pv.variation_profile(kernel, p, max_level)
    echo = _echo("pvar", kernel=cov.kernel_spec_string(kernel), p=float(p), max_level=max_level)
    _write_table(args, echo, "pvar.csv", "levels", ("level", "estimate"), profile.levels,
                 {"p": float(p), "verdict": profile.verdict}, repeat=("verdict",))
    return 0


def cmd_cauchy(args) -> int:
    k1, k2 = _resolve_pair(args)
    levels = args.levels or parse_range("1:6")
    if not all(float(v).is_integer() for v in levels):
        raise argparse.ArgumentTypeError(
            f"levels must be integers, got {','.join(map(_fmt, levels))}"
        )
    levels = [int(v) for v in levels]
    table = lk.cauchy_table(levels, k1, k2)
    echo = _echo(
        "cauchy",
        kernel1=cov.kernel_spec_string(k1),
        kernel2=cov.kernel_spec_string(k2),
        levels=levels,
    )
    rows = [(n, m, norm.value, norm.refine) for n, m, norm in table.rows]
    _write_table(args, echo, "cauchy.csv", "rows", ("n", "m", "norm_sq", "refine"), rows,
                 {"slope": table.slope, "flag": table.flag}, repeat=("flag",))
    return 0


def cmd_check(args) -> int:
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
        p.add_argument("--config", help="key=value config file; flags override")
        p.add_argument("--out", help="output directory (default .)")
        p.add_argument("--prefix", help="artifact filename prefix")
        p.add_argument("--format", choices=("csv", "json"), default=None)

    p = sub.add_parser("simulate", help="Monte Carlo areas and empirical CF")
    common(p)
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (or LEVY_LAB_THREADS)")
    p.add_argument("--kernel", help="kernel spec for both processes")
    p.add_argument("--kernel1")
    p.add_argument("--kernel2")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--level", type=int)
    p.add_argument("--t", type=parse_range, help="CF argument grid a:b:step or list")
    p.add_argument("--emit-samples", action="store_const", const=True,
                   dest="emit_samples", default=None)
    p.set_defaults(fn=cmd_simulate, parser=p)

    p = sub.add_parser("cf", help="analytic / spectral characteristic function curves")
    common(p)
    p.add_argument("--kernel", required=False)
    p.add_argument("--t", type=parse_range)
    p.add_argument("--pairs", type=int, help="classical spectrum truncation (pairs)")
    p.add_argument("--level", type=int, help="step-kernel level for non-classical kernels")
    p.set_defaults(fn=cmd_cf, parser=p)

    p = sub.add_parser("spectrum", help="discretized operator spectrum + symmetry audit")
    common(p)
    p.add_argument("--kernel")
    p.add_argument("--level", type=int, help="step-kernel dyadic level (default 7)")
    p.set_defaults(fn=cmd_spectrum, parser=p)

    p = sub.add_parser("pvar", help="grid p-variation profile of a kernel")
    common(p)
    p.add_argument("--kernel")
    p.add_argument("--p", help="variation exponent or 'auto'")
    p.add_argument("--level", type=int,
                   help="maximum grid level (default 10); the level Gram must fit "
                        "covariance.MAX_GRAM_BYTES: at most 24 for brownian and "
                        "weighted kernels, 23 for fbm, 12 for tabulated")
    p.set_defaults(fn=cmd_pvar, parser=p)

    p = sub.add_parser("cauchy", help="inter-level chaos distances with decay fit")
    common(p)
    p.add_argument("--kernel")
    p.add_argument("--kernel1")
    p.add_argument("--kernel2")
    p.add_argument("--levels", type=parse_range, help="level ladder a:b")
    p.set_defaults(fn=cmd_cauchy, parser=p)

    p = sub.add_parser("check", help="run the full invariant suite")
    p.set_defaults(fn=cmd_check, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _merge_config(args)
        if getattr(args, "format", None) is None:
            args.format = "csv"
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
