import json
import math
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from levylab import checks, cli
from levylab import covariance as cov
from levylab import levy_kernel as lk
from levylab import pvariation as pv
from levylab import simulate as sim
from levylab import spectral as sp
from levylab.errors import ResourceError
from test_covariance import off_mesh_table_lines
from test_simulate import DENSE_TOP

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args):
    return cli.main([str(a) for a in args])


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


def csv_body(header, rows):
    """The expected CSV after the echo line: floats at 17 significant digits, the rest by str."""
    cells = (",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row)
             for row in rows)
    return "".join(f"{line}\n" for line in (header, *cells))


# ---------------------------------------------------------------------------
# parse_range
# ---------------------------------------------------------------------------

def test_parse_range_forms():
    assert cli.parse_range("1:6") == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    grid = cli.parse_range("0:3:0.1")
    assert len(grid) == 31
    assert grid[0] == 0.0 and grid[-1] == pytest.approx(3.0)
    assert cli.parse_range("0.5,1,2") == [0.5, 1.0, 2.0]
    assert cli.parse_range("2.5") == [2.5]


def test_parse_range_errors():
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_range("0.5:1.5")  # non-integer two-part range
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_range("3:1:0.5")


def test_parse_range_rejects_non_finite_values():
    import argparse

    for text in ("nan", "1e400", "-inf", "nan,inf", "0.5,1e400", "0:inf", "0:nan:0.5", "0:3:inf"):
        with pytest.raises(argparse.ArgumentTypeError, match="non-finite"):
            cli.parse_range(text)


def flag_exit_code(args):
    """Exit code of a command line whose flags argparse may reject itself."""
    try:
        return run_cli(args)
    except SystemExit as exc:
        return exc.code


def test_non_finite_cf_arguments_exit_2(tmp_path):
    cases = [
        ["cf", "--kernel", "fbm hurst=0.35", "--level", 3],
        ["simulate", "--kernel", "brownian", "--level", 3, "--samples", 50],
    ]
    for i, (argv, t) in enumerate(zip(cases, ("nan,inf", "1e400"))):
        out = tmp_path / f"flag{i}"
        assert flag_exit_code(argv + ["--t", t, "--out", out]) == 2, argv
        assert not (out / "cf.csv").exists(), argv


def test_parse_range_caps_the_point_count():
    import argparse

    for text in ("0:2e6:1", "1:3e6"):
        with pytest.raises(argparse.ArgumentTypeError, match="cap"):
            cli.parse_range(text)
    # the cap itself is allowed in both forms
    assert len(cli.parse_range("1:1000000")) == cli.MAX_RANGE_POINTS
    assert len(cli.parse_range("0:999999:1")) == cli.MAX_RANGE_POINTS


def test_empty_comma_lists_exit_2_before_any_work(tmp_path, monkeypatch):
    import argparse

    for text in (",", " , ", ",,"):
        with pytest.raises(argparse.ArgumentTypeError, match="no numbers"):
            cli.parse_range(text)

    def forbidden(*args, **kwargs):
        raise AssertionError("work started on an empty range")

    for module, name in ((sim, "run_mc"), (sp, "cf_curve"), (lk, "cauchy_table")):
        monkeypatch.setattr(module, name, forbidden)
    cases = [
        (["cauchy", "--kernel", "brownian"], "--levels", "cauchy.csv"),
        (["cf", "--kernel", "brownian"], "--t", "cf.csv"),
        (["simulate", "--kernel", "brownian", "--level", 3, "--samples", 50], "--t", "cf.csv"),
    ]
    for i, (argv, flag, name) in enumerate(cases):
        out = tmp_path / f"flag{i}"
        assert flag_exit_code(argv + [flag, ",", "--out", out]) == 2, argv
        assert not (out / name).exists(), argv


def test_oversized_ranges_exit_2(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("CF computed on an oversized grid")

    monkeypatch.setattr(sp, "cf_curve", forbidden)
    monkeypatch.setattr(sp, "weighted_cf", forbidden)
    argv = ["cf", "--kernel", "brownian"]
    for i, t in enumerate(("0:2e6:1", "1:3e6")):
        out = tmp_path / f"flag{i}"
        assert flag_exit_code(argv + ["--t", t, "--out", out]) == 2, t
        assert not (out / "cf.csv").exists(), t


#: a small run of each table command
TABLE_RUNS = {
    "simulate": ["--kernel", "brownian", "--level", 3, "--samples", 40, "--seed", 2, "--t", "0,1",
                 "--emit-samples"],
    "cf": ["--kernel", "fbm hurst=0.35", "--level", 3, "--t", "0,1"],
    "spectrum": ["--kernel", "fbm hurst=0.35", "--level", 3],
    "pvar": ["--kernel", "fbm hurst=0.35", "--p", "auto", "--level", 4],
    "cauchy": ["--kernel", "fbm hurst=0.35", "--levels", "1:3"],
}

#: the retired spellings as (argv, retired option or None): a Hurst index is
#: spelled only in the kernel spec, fBm only as fbm and a spectrum's size only
#: as --level; options come only from flags (no --config), every table is a
#: CSV file (no --format), --out alone places the artifacts (no --prefix) and
#: a Brownian cf is exact, with no classical truncation (no --pairs)
RETIRED = (
    [([c, "--kernel", "fbm", "--hurst", 0.4, "--level", 3], None)
     for c in ("cf", "spectrum", "pvar")]
    + [([c, "--kernel", "fbm hurst=0.4", "--level", 3], "--config run.cfg")
       for c in ("cf", "spectrum", "pvar")]
    + [(["spectrum", "--kernel", "brownian", "--grid", 64], None),
       (["spectrum", "--kernel", "brownian"], "--config run.cfg")]
    + [([c, "--kernel", f"{kind} hurst=0.3", "--level", 3], None)
       for kind in ("fractional", "fractionalbrownian") for c in ("cf", "spectrum", "pvar")]
    + [([c, *TABLE_RUNS[c]], option)
       for option in ("--config run.cfg", "--format csv", "--format json", "--prefix p")
       for c in TABLE_RUNS]
    + [(["cf", "--kernel", "brownian"], "--pairs 10")]
)


@pytest.mark.parametrize("argv, option", RETIRED)
def test_retired_spellings_exit_2(tmp_path, monkeypatch, argv, option):
    # run.cfg is a config file the retired --config read without complaint
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text("# no keys\n")
    extra = [] if option is None else shlex.split(option)
    assert flag_exit_code([*argv, *extra, "--out", "out"]) == 2
    assert not Path("out").exists()


# ---------------------------------------------------------------------------
# cf
# ---------------------------------------------------------------------------

def test_cf_brownian_matches_sech_within_tail_bound(tmp_path):
    # Brownian motion is the unit constant weight: its cf is the exact sech(t), tail bound 0
    assert run_cli(["cf", "--kernel", "brownian", "--t", "0:3:0.1", "--out", tmp_path]) == 0
    echo, header, rows = read_csv(tmp_path / "cf.csv")
    assert header == ["t", "re", "im", "tail_bound"]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert "pairs" not in echo and "pairs" not in summary
    assert rows == [[cli._fmt(t), cli._fmt(sp.weighted_cf(1.0, t)), "0", "0"]
                    for t in cli.parse_range("0:3:0.1")]


def test_cf_weighted_kernel(tmp_path):
    assert run_cli([
        "cf", "--kernel", "weighted degree=1", "--t", "3", "--out", tmp_path,
    ]) == 0
    _, _, rows = read_csv(tmp_path / "cf.csv")
    assert float(rows[0][1]) == pytest.approx(1.0 / np.cosh(1.0), abs=1e-12)
    # a constant weight c: the process c W has area c^2 A, cf sech(c^2 t) exactly
    for coeff in (0.3, 2.0):
        out = tmp_path / str(coeff)
        argv = ["cf", "--kernel", f"weighted degree=0 coeff={coeff!r}", "--t", "0.5,1,3"]
        assert run_cli([*argv, "--out", out]) == 0, coeff
        assert [(float(re), im, tb) for _, re, im, tb in read_csv(out / "cf.csv")[2]] \
            == [(1.0 / math.cosh(coeff * coeff * t), "0", "0") for t in (0.5, 1.0, 3.0)]


def test_cf_rejects_flags_its_route_does_not_read(tmp_path):
    cases = [
        ["--kernel", "brownian", "--level", 3],
        ["--kernel", "weighted degree=1", "--level", 4],
        ["--kernel", "weighted degree=0 coeff=2", "--level", 3],
    ]
    for i, argv in enumerate(cases):
        out = tmp_path / f"flag{i}"
        assert run_cli(["cf", *argv, "--out", out]) == 2, argv
        assert not (out / "cf.csv").exists(), argv


def test_cf_echoes_the_level_it_uses(tmp_path):
    assert run_cli(["cf", "--kernel", "fbm hurst=0.35", "--t", "0,1", "--out", tmp_path]) == 0
    echo, _, _ = read_csv(tmp_path / "cf.csv")
    assert echo.endswith(" level=7")
    assert json.loads((tmp_path / "summary.json").read_text())["level"] == 7


def test_cf_fbm_spectrum_route(tmp_path):
    assert run_cli([
        "cf", "--kernel", "fbm hurst=0.4", "--t", "0,1", "--level", 5, "--out", tmp_path,
    ]) == 0
    _, _, rows = read_csv(tmp_path / "cf.csv")
    assert float(rows[0][1]) == 1.0
    assert 0.0 < float(rows[1][1]) < 1.0


def test_cf_weighted_kernel_with_a_large_norm(tmp_path):
    # ||f||^2 = 1e4, so t ||f||^2 reaches 3e4 on the default grid, far past cosh's overflow
    out = tmp_path / "out"
    assert run_cli(["cf", "--kernel", "weighted degree=0 coeff=100", "--out", out]) == 0
    _, _, rows = read_csv(out / "cf.csv")
    values = np.array([float(row[1]) for row in rows])
    assert len(values) == 31 and values[0] == 1.0
    assert np.all(np.isfinite(values)) and np.all((values >= 0.0) & (values <= 1.0))


def test_cf_of_a_zero_weight_is_one(tmp_path):
    # coeff 0, and coeff 1e-200 whose square underflows: the process is
    # identically zero, so its CF is sech(0) = 1 at every t
    for i, coeff in enumerate(("0", "1e-200")):
        out = tmp_path / str(i)
        argv = ["cf", "--kernel", f"weighted degree=1 coeff={coeff}", "--t", "0,0.5,3,1e300"]
        assert run_cli([*argv, "--out", out]) == 0, coeff
        _, _, rows = read_csv(out / "cf.csv")
        assert [(float(re), float(im)) for _, re, im, _ in rows] == [(1.0, 0.0)] * 4, coeff


def test_cf_at_the_largest_arguments_is_finite(tmp_path):
    big = "1e155,1e300,1.7976931348623157e308"
    cases = [(["--kernel", "brownian"], "0"),
             (["--kernel", "fbm hurst=0.35"], "0"), (["--kernel", "fbm hurst=0.35", "--level", 3], "0")]
    for i, (argv, tail) in enumerate(cases):
        out = tmp_path / str(i)
        assert run_cli(["cf", *argv, "--t", big, "--out", out]) == 0, argv
        _, _, rows = read_csv(out / "cf.csv")
        assert [row[0] for row in rows] == ["1e+155", "1.0000000000000001e+300",
                                            "1.7976931348623157e+308"]
        for _, re_s, im_s, tb_s in rows:
            value = complex(float(re_s), float(im_s))
            assert math.isfinite(value.real) and math.isfinite(value.imag), argv
            assert abs(value) <= 1.0 and tb_s == tail, argv


# ---------------------------------------------------------------------------
# pvar
# ---------------------------------------------------------------------------

def test_pvar_auto_exponent(tmp_path):
    assert run_cli([
        "pvar", "--kernel", "fbm hurst=0.35", "--p", "auto", "--out", tmp_path,
    ]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["p"] == pytest.approx(1.0 / 0.7)
    assert summary["verdict"] == "Stabilizing"
    _, header, rows = read_csv(tmp_path / "pvar.csv")
    assert header == ["level", "estimate", "verdict"]
    assert rows[-1][0] == "10" and rows[-1][2] == "Stabilizing"


def test_pvar_level_above_cap_exits_2(tmp_path, monkeypatch):
    spec = _kernel_table(tmp_path / "min.csv", np.minimum.outer(*[np.linspace(0, 1, 5)] * 2))

    def forbidden(*args, **kwargs):
        raise AssertionError("Gram built before the level cap was checked")

    monkeypatch.setattr(cov, "level_gram", forbidden)
    for name in ("gram_matrix", "eval_grid"):
        monkeypatch.setattr(checks, name, forbidden)
    # one past the largest level of each Gram structure, and a level whose
    # 2^level the check must never form
    for kernel, level in (("brownian", 25), ("fbm hurst=0.35", 24), (spec, DENSE_TOP + 1),
                          ("brownian", 1000000000)):
        out = tmp_path / f"out-{level}"
        assert run_cli(["pvar", "--kernel", kernel, "--level", level, "--out", out]) == 2
        assert not (out / "pvar.csv").exists()


def test_pvar_runs_fbm_above_the_dense_level(tmp_path):
    assert run_cli(["pvar", "--kernel", "fbm hurst=0.35", "--level", 16, "--out", tmp_path]) == 0
    _, _, rows = read_csv(tmp_path / "pvar.csv")
    assert [int(row[0]) for row in rows] == list(range(1, 17))


def test_repeated_keys_exit_2_before_any_work(tmp_path, monkeypatch, capsys):
    # a key given twice in a kernel spec is a usage error that names the key,
    # not last-wins
    def forbidden(*args, **kwargs):
        raise AssertionError("work started despite a repeated key")

    monkeypatch.setattr(sim, "run_mc", forbidden)
    monkeypatch.setattr(cov, "level_gram", forbidden)
    base = ["simulate", "--level", 3, "--samples", 5]
    cases = [("weighted degree=1 degree=2", "'degree'"), ("fbm hurst=0.3 hurst=0.4", "'hurst'")]
    for i, (spec, key) in enumerate(cases):
        out = tmp_path / f"out{i}"
        capsys.readouterr()
        assert run_cli(base + ["--kernel", spec, "--out", out]) == 2, i
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "repeated" in err and key in err, err
        assert not (out / "cf.csv").exists(), i


def test_retired_kernel_spellings_exit_2_before_any_work(tmp_path, monkeypatch, capsys):
    # a spec is its bare kind, then whitespace-separated key=value fields:
    # a kind= or weight= key, a comma, a repeated key and a bare token after
    # the kind are usage errors before any Gram is built
    def forbidden(*args, **kwargs):
        raise AssertionError("work started on a retired kernel spelling")

    monkeypatch.setattr(sim, "run_mc", forbidden)
    monkeypatch.setattr(cov, "level_gram", forbidden)
    specs = ["kind=fbm hurst=0.35", "weighted weight=poly degree=1", "fbm,hurst=0.35",
             "fbm hurst=0.35 hurst=0.35", "fbm hurst=0.35 extra"]
    commands = [["simulate", "--level", 3, "--samples", 5], ["cf", "--level", 3],
                ["spectrum", "--level", 3], ["pvar", "--level", 3], ["cauchy", "--levels", "1:3"]]
    for i, spec in enumerate(specs):
        for command in commands:
            out = tmp_path / f"out{i}-{command[0]}"
            capsys.readouterr()
            assert run_cli([*command, "--kernel", spec, "--out", out]) == 2, (spec, command)
            assert capsys.readouterr().err.startswith("usage error:"), (spec, command)
            assert not out.exists(), (spec, command)


def test_oversized_sample_count_exits_2_before_sampling(tmp_path, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("sampling started for a sample count above the budget")

    monkeypatch.setattr(sim, "run_mc", forbidden)
    for i, (kernel, samples) in enumerate((("brownian", 10**12), ("fbm hurst=0.35", 10**11))):
        out = tmp_path / f"out{i}"
        capsys.readouterr()
        assert run_cli(["simulate", "--kernel", kernel, "--level", 2, "--samples", samples,
                        "--out", out]) == 2, kernel
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "n_samples" in err, err
        assert not (out / "cf.csv").exists(), kernel


def test_simulate_memory_grows_by_the_areas_alone(tmp_path):
    # MCConfig's sample cap budgets 8 bytes per sample, the areas: the mean,
    # variance and CF are reduced per batch, so the command's traced peak
    # grows by at most 10 bytes per added sample, on the chain (Brownian) and
    # on the conditional route (weighted, a diagonal Gram)
    small, large = 2**18, 2**20
    for kernel, level in (("brownian", 10), ("weighted degree=1", 3)):
        peaks = []
        for samples in (small, large):
            out = tmp_path / f"{level}-{samples}"
            tracemalloc.start()
            try:
                assert run_cli(["simulate", "--kernel", kernel, "--level", level,
                                "--samples", samples, "--out", out]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_sample = (peaks[1] - peaks[0]) / (large - small)
        assert per_sample <= 10.0, (kernel, peaks, per_sample)


def test_tabulated_simulate_above_cap_exits_2(tmp_path, monkeypatch):
    spec = _kernel_table(tmp_path / "min.csv", np.minimum.outer(*[np.linspace(0, 1, 5)] * 2))

    def forbidden(*args, **kwargs):
        raise AssertionError("Gram built before the level cap was checked")

    # level_gram checks the level itself: every builder it calls is forbidden
    for name in ("dyadic_partition", "_fgn_autocovariance", "_table_factor"):
        monkeypatch.setattr(cov, name, forbidden)
    monkeypatch.setattr(checks, "gram_matrix", forbidden)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--kernel", spec, "--level",
                    DENSE_TOP + 1, "--samples", 5, "--out", out]) == 2
    assert not (out / "cf.csv").exists()


def test_pvar_level_below_one_exits_2(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("Gram built for a level below one")

    monkeypatch.setattr(checks, "gram_matrix", forbidden)
    monkeypatch.setattr(cov, "level_gram", forbidden, raising=False)
    for level in (0, -3):
        out = tmp_path / f"level{level}"
        assert run_cli(["pvar", "--kernel", "brownian", "--level", level, "--out", out]) == 2
        assert not (out / "pvar.csv").exists()


def test_pvar_non_finite_exponent_exits_2(tmp_path):
    for p in ("nan", "inf"):
        out = tmp_path / p
        assert run_cli([
            "pvar", "--kernel", "fbm hurst=0.35", "--p", p, "--level", 3, "--out", out,
        ]) == 2, p
        assert not (out / "pvar.csv").exists() and not (out / "summary.json").exists(), p


def test_pvar_csv_format(tmp_path):
    assert run_cli(["pvar", "--kernel", "brownian", "--p", 1, "--level", 3, "--out", tmp_path]) == 0
    lines = (tmp_path / "pvar.csv").read_text().strip().splitlines()[1:]
    assert lines[0] == "level,estimate,verdict"
    assert lines[1].startswith("1,") and lines[1].endswith(",Stabilizing")
    assert len(lines) == 4


def test_pvar_growing_at_p1(tmp_path):
    assert run_cli([
        "pvar", "--kernel", "fbm hurst=0.35", "--p", "1", "--out", tmp_path,
    ]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["verdict"] == "Growing"


# ---------------------------------------------------------------------------
# cauchy
# ---------------------------------------------------------------------------

def test_cauchy_brownian_slope(tmp_path):
    assert run_cli([
        "cauchy", "--kernel1", "brownian", "--kernel2", "brownian",
        "--levels", "1:6", "--out", tmp_path,
    ]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["slope"] == pytest.approx(-1.0, abs=0.05)
    assert summary["flag"] == "covered"
    _, header, rows = read_csv(tmp_path / "cauchy.csv")
    assert header == ["n", "m", "norm_sq", "refine", "flag"]
    assert len(rows) == 5
    assert float(rows[0][2]) == pytest.approx(0.125, abs=1e-12)
    # the refine column reports the grid each distance was contracted on
    assert [int(r[3]) for r in rows] == [2, 3, 4, 5, 6]


def test_cauchy_csv_format(tmp_path):
    assert run_cli(["cauchy", "--kernel", "brownian", "--levels", "1:3", "--out", tmp_path]) == 0
    lines = (tmp_path / "cauchy.csv").read_text().strip().splitlines()[1:]
    assert lines[0] == "n,m,norm_sq,refine,flag"
    assert lines[1].startswith("1,2,0.125")
    assert lines[1].endswith(",covered")


def test_cauchy_rejects_refine(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["cauchy", "--kernel", "brownian", "--refine", 9, "--out", tmp_path])
    assert exc.value.code == 2


def test_cauchy_rejects_non_integer_levels(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("distance contracted for a non-integer level")

    monkeypatch.setattr(lk, "norm_diff", forbidden)
    monkeypatch.setattr(cov, "level_gram", forbidden)
    for levels in ("1,2.5,3", "1,2.9"):
        out = tmp_path / levels
        assert run_cli(["cauchy", "--kernel", "brownian", "--levels", levels, "--out", out]) == 2
        assert not (out / "cauchy.csv").exists()


def test_execution_flags_only_where_they_are_read(tmp_path):
    # only simulate reads --threads; check reads no output option
    with pytest.raises(SystemExit) as exc:
        run_cli(["pvar", "--kernel", "brownian", "--threads", 2, "--out", tmp_path])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["check", "--out", tmp_path])
    assert exc.value.code == 2


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records its calls; returns the list of their args."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("kernel_flags", (
    ["--kernel", "fbm hurst=0.35"],
    ["--kernel1", "fbm hurst=0.35", "--kernel2", "fbm hurst=0.35"],
))
def test_cauchy_shares_one_kernel_between_the_processes(tmp_path, monkeypatch, kernel_flags):
    # one Gram per row: norm_diff takes the one-Gram path when both kernels are one object
    grams = _counting(monkeypatch, cov, "level_gram")
    assert run_cli(["cauchy", *kernel_flags, "--levels", "1:8", "--out", tmp_path]) == 0
    assert len(grams) == 7


def test_tabulated_simulate_factors_one_gram(tmp_path, monkeypatch):
    spec = _kernel_table(tmp_path / "min.csv", np.minimum.outer(*[np.linspace(0, 1, 9)] * 2))
    grams = _counting(monkeypatch, cov, "level_gram")
    factors = _counting(monkeypatch, cov, "_table_factor")
    tables = _counting(monkeypatch, cov, "load_table_csv")
    assert run_cli(["simulate", "--kernel", spec, "--level", 3, "--samples", 50,
                    "--out", tmp_path / "out"]) == 0
    assert (len(tables), len(grams), len(factors)) == (1, 1, 1)


def test_cauchy_levels_above_cap_exit_2(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("step matrix or Gram built before the level cap was checked")

    monkeypatch.setattr(cov, "level_gram", forbidden)
    monkeypatch.setattr(checks, "cell_sign_matrix", forbidden)
    assert run_cli(["cauchy", "--kernel", "brownian", "--levels", "12:13", "--out", tmp_path]) == 2
    assert not (tmp_path / "cauchy.csv").exists()


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_and_cf_write_no_jitter_rung(tmp_path):
    # no Gram is shifted, so no summary carries a jitter rung: the rank-one S*T
    # table, whose spectrum is zero, lists no pair
    table = tmp_path / "st.csv"
    nodes = np.linspace(0.0, 1.0, 33).tolist()
    table.write_text("s,t,value\n" + "".join(
        f"{s!r},{t!r},{s * t!r}\n" for s in nodes for t in nodes))
    for spec, level in ((f"tabulated path={table}", 6), ("fbm hurst=0.35", 10)):
        for command, extra in (("spectrum", []), ("cf", ["--t", "0,1"])):
            out = tmp_path / f"{command}-{level}"
            argv = [command, "--kernel", spec, "--level", level, "--out", out, *extra]
            assert run_cli(argv) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert "jitter_rung" not in summary and summary["schema_version"] == 21
    assert read_csv(tmp_path / "spectrum-6" / "spectrum.csv")[2] == []
    assert run_cli(["cf", "--kernel", "brownian", "--t", "0,1", "--out", tmp_path / "b"]) == 0
    assert "jitter_rung" not in json.loads((tmp_path / "b" / "summary.json").read_text())


def test_table_spectrum_lists_exact_pair_counts(tmp_path):
    # the 16-step min table has rank 16: floor(16 / 2) = 8 pairs at level 6,
    # each value +- with multiplicity 2, and no row of rounding of zero
    nodes = np.linspace(0.0, 1.0, 17)
    spec = _kernel_table(tmp_path / "min.csv", np.minimum.outer(nodes, nodes))
    assert run_cli(["spectrum", "--kernel", spec, "--level", 6, "--out", tmp_path / "out"]) == 0
    rows = read_csv(tmp_path / "out" / "spectrum.csv")[2]
    assert len(rows) == 16 and all(m == "2" for _, m in rows)
    assert min(abs(float(alpha)) for alpha, _ in rows) > 1e-6


def test_spectrum_writes_no_negative_zero(tmp_path):
    # a zero weight has exact zero values, each listed as 0 twice, never as -0,
    # on the SVD route (degree 1) and the constant weights' closed form (degree 0)
    for degree in (1, 0):
        out = tmp_path / f"zero{degree}"
        assert run_cli(["spectrum", "--kernel", f"weighted degree={degree} coeff=0", "--level", 2,
                        "--out", out]) == 0
        assert read_csv(out / "spectrum.csv")[2] == [["0", "2"]] * 4, degree


def test_zero_table_process_is_exact_zeros(tmp_path):
    # an s + t table has a zero mesh Gram: factors of width 0, increments and
    # areas that are exact zeros and a spectrum that lists nothing
    nodes = np.linspace(0.0, 1.0, 9)
    spec = _kernel_table(tmp_path / "sum.csv", np.add.outer(nodes, nodes))
    for i, second in enumerate((spec, "brownian")):
        out = tmp_path / f"sim{i}"
        assert run_cli(["simulate", "--kernel1", spec, "--kernel2", second, "--level", 6,
                        "--samples", 5000, "--t", "0,1,2", "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["mean"], summary["variance"]) == (0.0, 0.0), second
        _, header, rows = read_csv(out / "cf.csv")
        assert [(float(r[header.index("re")]), float(r[header.index("im")])) for r in rows] \
            == [(1.0, 0.0)] * 3
    for level in (1, 3, 6):
        out = tmp_path / f"spectrum{level}"
        assert run_cli(["spectrum", "--kernel", spec, "--level", level, "--out", out]) == 0
        assert read_csv(out / "spectrum.csv")[2] == []
        summary = json.loads((out / "summary.json").read_text())
        assert summary["symmetry_ok"] is True and summary["spectral_radius"] == 0.0


def test_zero_weight_spectrum_lists_exact_zeros(tmp_path):
    # a zero weight has zero variances: its root is zero, so every value is an
    # exact zero
    out = tmp_path / "weighted"
    assert run_cli(["spectrum", "--kernel", "weighted degree=1 coeff=0", "--level", 3,
                    "--out", out]) == 0
    _, _, rows = read_csv(out / "spectrum.csv")
    assert len(rows) == 8 and all(float(alpha) == 0.0 for alpha, _ in rows)


def test_spectrum_classical(tmp_path):
    assert run_cli(["spectrum", "--kernel", "brownian", "--out", tmp_path]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["symmetry_ok"] is True
    assert summary["spectral_radius"] == pytest.approx(1.0 / np.pi, rel=0.01)
    _, header, rows = read_csv(tmp_path / "spectrum.csv")
    assert header == ["alpha", "multiplicity"]
    assert all(int(m) == 2 for _, m in rows)


def test_brownian_spectrum_takes_no_dense_solve(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense solve on the Brownian spectrum route")

    for name in ("eigvalsh", "svd", "cholesky"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    # the closed form on the midpoint grid g = 2^level, level 7 by default
    cases = [(["--level", 1], 1), (["--level", 3], 3), (["--level", 8], 8), ([], 7)]
    for i, (flags, level) in enumerate(cases):
        out = tmp_path / str(i)
        assert run_cli(["spectrum", "--kernel", "brownian", *flags, "--out", out]) == 0, flags
        echo, rest = (out / "spectrum.csv").read_text().split("\n", 1)
        assert echo.endswith(f" kernel=brownian level={level}"), echo
        assert rest == csv_body("alpha,multiplicity", sp.brownian_spectrum(2**level).entries)
        assert json.loads((out / "summary.json").read_text())["symmetry_ok"] is True


def test_brownian_spectrum_level_outside_the_cap_exits_2(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("spectrum computed for a level outside the cap")

    monkeypatch.setattr(sp, "brownian_spectrum", forbidden)
    for level in (0, sp.MAX_OPERATOR_LEVEL + 1, 10**6):
        out = tmp_path / str(level)
        assert run_cli(["spectrum", "--kernel", "brownian", "--level", level, "--out", out]) == 2
        assert not (out / "spectrum.csv").exists()


def test_spectrum_numerical_error_exit_code(tmp_path):
    table = tmp_path / "neg.csv"
    nodes = np.linspace(0, 1, 5)
    lines = ["s,t,value"] + [f"{s},{t},{-s * t}" for s in nodes for t in nodes]
    table.write_text("\n".join(lines) + "\n")
    code = run_cli([
        "spectrum", "--kernel", f"tabulated path={table}", "--level", 3, "--out", tmp_path,
    ])
    assert code == 3


def test_spectrum_grid_above_cap_exits_2(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("midpoint operator solved above the grid cap")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    grid = 2**sp.MAX_OPERATOR_LEVEL + 1
    with pytest.raises(ResourceError):
        checks.discretize_classical_operator(grid)
    with pytest.raises(ResourceError):
        sp.brownian_spectrum(grid)
    # the spectrum's midpoint grid is 2^level, so one level above the cap is
    # the first grid past it; the retired --grid spelling is refused outright
    for i, flags in enumerate([["--level", sp.MAX_OPERATOR_LEVEL + 1], ["--grid", grid]]):
        out = tmp_path / str(i)
        argv = ["spectrum", "--kernel", "brownian", *flags, "--out", out]
        assert flag_exit_code(argv) == 2, flags
        assert not (out / "spectrum.csv").exists()


def test_linalg_failure_exits_3(tmp_path, monkeypatch, capsys):
    # LinAlgError subclasses ValueError, which would otherwise read as a usage error
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing)
    out = tmp_path / "out"
    assert run_cli(["spectrum", "--kernel", "fbm hurst=0.35", "--level", 4, "--out", out]) == 3
    assert "numerical error: SVD did not converge" in capsys.readouterr().err
    assert not (out / "spectrum.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_results_exit_3(tmp_path, capsys):
    # accepted kernels (coeff^2 is finite) whose area moments, chaos norm or
    # |increment|^p sum overflow a float exit 3 and write no table: constant
    # weights take the chain, whose areas c^2 A stay finite at coeff 1e80 and
    # 5e76 (near 1e160 and 1e153) while their variance, or the sum of squares
    # it is taken from, does not. At coeff 1e70 every value is finite and the
    # tables are the library's
    kernel = cov.parse_kernel_spec("weighted degree=0 coeff=1e70")

    def cf_body(seed, samples, level):
        config = sim.MCConfig(seed=seed, n_samples=samples, level=level, kernel1=kernel,
                              kernel2=kernel)
        ecf = sim.run_mc(config, t_grid=[0.0, 1.0]).cf
        return csv_body("t,re,im,stderr", zip(ecf.t_grid.tolist(), ecf.estimates.real.tolist(),
                                              ecf.estimates.imag.tolist(),
                                              ecf.std_errors.tolist()))

    table = lk.cauchy_table([1, 2, 3], kernel, kernel)
    profile = pv.variation_profile(kernel, 2.0, 3)
    cases = [
        (["simulate", "--level", 3, "--samples", 50, "--t", "0,1"], "1e80", "cf.csv",
         cf_body(0, 50, 3)),
        (["simulate", "--level", 4, "--samples", 200, "--seed", 1, "--t", "0,1"], "5e76",
         "cf.csv", cf_body(1, 200, 4)),
        (["cauchy", "--levels", "1:3"], "1e80", "cauchy.csv",
         csv_body("n,m,norm_sq,refine,flag",
                  [(*row, table.flag) for row in table.rows])),
        (["pvar", "--p", 2, "--level", 3], "1e100", "pvar.csv",
         csv_body("level,estimate,verdict",
                  [(level, est, profile.verdict) for level, est in profile.levels])),
    ]
    for i, (command, coeff, name, body) in enumerate(cases):
        out = tmp_path / str(i)
        spec = f"weighted degree=0 coeff={coeff}"
        assert run_cli([*command, "--kernel", spec, "--out", out]) == 3, command
        assert "numerical error" in capsys.readouterr().err
        assert not (out / name).exists() and not (out / "summary.json").exists(), command
        spec = "weighted degree=0 coeff=1e70"
        assert run_cli([*command, "--kernel", spec, "--out", out]) == 0, command
        assert (out / name).read_text().split("\n", 1)[1] == body, command


def test_table_off_the_mesh_exits_2(tmp_path, capsys):
    path = tmp_path / "off.csv"
    path.write_text("\n".join(off_mesh_table_lines()) + "\n")
    out = tmp_path / "out"
    assert run_cli(["pvar", "--kernel", f"tabulated path={path}", "--p", 1, "--level", 2,
                    "--out", out]) == 2
    assert "(0.0, 0.3) is off the uniform 4-step mesh" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def _kernel_table(path, values):
    nodes = np.linspace(0, 1, values.shape[0])
    lines = ["s,t,value"] + [
        f"{s},{t},{float(values[i, j])!r}" for i, s in enumerate(nodes) for j, t in enumerate(nodes)
    ]
    path.write_text("\n".join(lines) + "\n")
    return f"tabulated path={path}"


def test_non_finite_kernel_inputs_exit_2(tmp_path, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("Gram built for a kernel with non-finite inputs")

    monkeypatch.setattr(checks, "gram_matrix", forbidden)
    monkeypatch.setattr(cov, "level_gram", forbidden)
    nodes = np.linspace(0, 1, 5)
    specs = [f"weighted degree=1 coeff={c}" for c in ("nan", "inf", "1e200")]
    for k, bad in enumerate((float("nan"), float("inf"))):
        values = np.minimum.outer(nodes, nodes)
        values[3, 1] = bad
        specs.append(_kernel_table(tmp_path / f"table{k}.csv", values))
    commands = (
        ["simulate", "--level", 3, "--samples", 5],
        ["cf", "--t", "0,1"],
        ["spectrum", "--level", 3],
        ["pvar", "--p", 1, "--level", 3],
    )
    for i, spec in enumerate(specs):
        for j, command in enumerate(commands):
            out = tmp_path / f"out{i}-{j}"
            assert run_cli([*command, "--kernel", spec, "--out", out]) == 2, (spec, command)
            assert "finite" in capsys.readouterr().err
            assert not out.exists() or not any(out.iterdir())


def test_asymmetric_table_exits_2_before_any_gram(tmp_path, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("Gram built for an asymmetric table")

    monkeypatch.setattr(checks, "gram_matrix", forbidden)
    monkeypatch.setattr(cov, "level_gram", forbidden)
    monkeypatch.setattr(cov, "_table_factor", forbidden)
    nodes = np.linspace(0, 1, 9)
    S, T = np.meshgrid(nodes, nodes, indexing="ij")
    spec = _kernel_table(tmp_path / "asym.csv", np.minimum(S, T) + 0.3 * S * (T - S))
    for i, command in enumerate((
        ["spectrum", "--level", 3],
        ["simulate", "--level", 3, "--samples", 5],
    )):
        out = tmp_path / f"out{i}"
        assert run_cli([*command, "--kernel", spec, "--out", out]) == 2, command
        assert "not symmetric" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


# ---------------------------------------------------------------------------
# simulate + determinism
# ---------------------------------------------------------------------------

def test_simulate_artifacts_and_echo(tmp_path):
    assert run_cli([
        "simulate", "--kernel", "brownian", "--level", 5, "--samples", 400,
        "--seed", 21, "--t", "0,1", "--emit-samples", "--out", tmp_path,
    ]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["seed"] == 21
    assert summary["kernel1"] == "brownian"
    assert summary["schema_version"] == 21
    assert 0.5 < summary["variance"] < 1.5
    comment, header, rows = read_csv(tmp_path / "cf.csv")
    assert "seed=21" in comment
    assert header == ["t", "re", "im", "stderr"]
    assert float(rows[0][1]) == 1.0  # CF at t=0
    _, _, sample_rows = read_csv(tmp_path / "samples.csv")
    assert len(sample_rows) == 400


def test_simulate_threads_bit_identical(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    base = [
        "simulate", "--kernel", "brownian", "--level", 4, "--samples", 9000,
        "--seed", 5, "--t", "0:2:0.5", "--emit-samples",
    ]
    assert run_cli(base + ["--threads", 1, "--out", a_dir]) == 0
    assert run_cli(base + ["--threads", 4, "--out", b_dir]) == 0
    for name in ("cf.csv", "samples.csv", "summary.json"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()
    # samples.csv, written in blocks of BATCH rows, holds the areas alone:
    # body row i is sample i, and parses back to it bit for bit
    config = sim.MCConfig(seed=5, n_samples=9000, level=4, kernel1=cov.brownian(),
                          kernel2=cov.brownian())
    samples = sim.run_mc(config).samples
    header, *rows = (a_dir / "samples.csv").read_text().splitlines()[1:]
    assert header == "area"
    assert rows == [cli._fmt(a) for a in samples]
    assert np.array_equal(np.array([float(r) for r in rows]).view(np.int64),
                          samples.view(np.int64))


def test_sample_blocks_match_the_per_row_text():
    # one % per block renders each row as "%.17g\n" does alone, over a full
    # block and a partial one and at the edges of the float range
    edges = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324,
             1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0]
    rng = np.random.default_rng(0)
    samples = np.concatenate([edges, rng.normal(size=5000 - len(edges))])
    assert len(samples) - sim.BATCH == 904
    rows = ["%.17g\n" % a for a in samples.tolist()]
    assert "".join(cli._sample_blocks(samples)) == "".join(["area\n", *rows])
    assert "".join(cli._sample_blocks(samples[:0])) == "area\n"


def test_tables_are_the_library_csv(tmp_path):
    fbm = cov.fractional_brownian(0.35)
    table = lk.cauchy_table([1, 2, 3, 4], fbm, fbm)
    profile = pv.variation_profile(fbm, 1.0 / 0.7, 5)
    cases = [
        (["spectrum", "--kernel", "fbm hurst=0.35", "--level", 4], "spectrum.csv",
         csv_body("alpha,multiplicity", sp.general_spectrum(fbm, fbm, 4).entries)),
        (["spectrum", "--kernel", "brownian", "--level", 4], "spectrum.csv",
         csv_body("alpha,multiplicity", sp.brownian_spectrum(16).entries)),
        (["cauchy", "--kernel", "fbm hurst=0.35", "--levels", "1:4"], "cauchy.csv",
         csv_body("n,m,norm_sq,refine,flag",
                  [(*row, table.flag) for row in table.rows])),
        (["pvar", "--kernel", "fbm hurst=0.35", "--p", "auto", "--level", 5], "pvar.csv",
         csv_body("level,estimate,verdict",
                  [(level, est, profile.verdict) for level, est in profile.levels])),
    ]
    for i, (argv, name, body) in enumerate(cases):
        out = tmp_path / str(i)
        assert run_cli(argv + ["--out", out]) == 0
        echo, rest = (out / name).read_text().split("\n", 1)
        assert echo.startswith(f"# schema_version={cli.SCHEMA_VERSION} command={argv[0]} ")
        assert rest == body, argv


def readme_command_lines():
    """The argv of each `levylab` line of the README's CLI block, continuations joined."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```\n", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("levylab ")]


def test_readme_cli_examples_parse():
    # a retired flag or kernel spelling in the README fails here
    commands = readme_command_lines()
    assert {argv[0] for argv in commands} == {"simulate", "cf", "spectrum", "pvar", "cauchy",
                                             "check"}
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        for spec in (getattr(args, key, None) for key in ("kernel", "kernel1", "kernel2")):
            if spec is not None:
                cov.parse_kernel_spec(spec)


def readme_tables():
    """(command, file, columns) of each row of the README's CSV column table."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| command  | file          | columns                  |")
    tables = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        command, name, columns = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
        tables.append((command, name, columns.split(",")))
    return tables


#: each table command with its optional flags at their documented defaults
DEFAULT_RUNS = {
    "simulate": (["--kernel", "brownian"],
                 ["--seed", 0, "--samples", 10000, "--level", 8, "--t", "0:3:0.5"]),
    "cf": (["--kernel", "fbm hurst=0.35"], ["--level", 7, "--t", "0:3:0.1"]),
    "spectrum": (["--kernel", "fbm hurst=0.35"], ["--level", 7]),
    "pvar": (["--kernel", "fbm hurst=0.35"], ["--p", "auto", "--level", 10]),
    "cauchy": (["--kernel", "fbm hurst=0.35"], ["--levels", "1:6"]),
}


@pytest.mark.parametrize("name", DEFAULT_RUNS)
def test_omitted_flags_take_their_documented_defaults(tmp_path, name):
    required, defaults = DEFAULT_RUNS[name]
    command = name.split("-")[0]
    runs = {"omitted": [command, *required], "explicit": [command, *required, *defaults]}
    for key, argv in runs.items():
        assert run_cli([*argv, "--out", tmp_path / key]) == 0, argv
    files = sorted(path.name for path in (tmp_path / "omitted").iterdir())
    assert files == sorted(path.name for path in (tmp_path / "explicit").iterdir())
    for file in files:
        assert (tmp_path / "omitted" / file).read_bytes() \
            == (tmp_path / "explicit" / file).read_bytes(), file


def test_readme_table_matches_the_writer(tmp_path):
    tables = readme_tables()
    assert {command for command, *_ in tables} == set(TABLE_RUNS)
    for i, (command, name, columns) in enumerate(tables):
        out = tmp_path / str(i)
        assert run_cli([command, *TABLE_RUNS[command], "--out", out]) == 0
        assert read_csv(out / name)[1] == columns, (command, name)


def test_usage_error_exit_code(tmp_path):
    assert run_cli(["cf", "--kernel", "sinusoid", "--out", tmp_path]) == 2
    assert run_cli(["pvar", "--kernel", "brownian", "--p", "0.5", "--out", tmp_path]) == 2


def test_summary_json_is_strict_json(tmp_path):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    for name, argv in TABLE_RUNS.items():
        out = tmp_path / name
        assert run_cli([name, *argv, "--out", out]) == 0, argv
        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["schema_version"] == cli.SCHEMA_VERSION, argv
    inf, nan = float("inf"), float("nan")
    assert cli._json_value({"a": [nan, -inf, (inf, 1.0)], "b": 2}) == {
        "a": ["nan", "-inf", ["inf", 1.0]], "b": 2}


def test_threads_below_one_are_a_usage_error(tmp_path, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("sampling started with a thread count below 1")

    monkeypatch.setattr(sim, "run_mc", forbidden)
    base = ["simulate", "--kernel", "brownian", "--level", 3, "--samples", 50]
    for i, threads in enumerate((0, -5)):
        out = tmp_path / f"flag{i}"
        capsys.readouterr()
        assert run_cli(base + ["--threads", threads, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("usage error: --threads must be >= 1")
        assert not (out / "cf.csv").exists()


def test_threads_come_from_the_flag_alone(tmp_path, monkeypatch):
    # the environment is not a second source of the worker count: a value
    # the flag would refuse changes nothing, and the run takes --threads
    # (default 1)
    calls = []
    run_mc = sim.run_mc

    def recording(config, threads=1, **kwargs):
        calls.append(threads)
        return run_mc(config, threads=threads, **kwargs)

    monkeypatch.setattr(sim, "run_mc", recording)
    base = ["simulate", "--kernel", "brownian", "--level", 4, "--samples", 5000,
            "--seed", 5, "--t", "0,1", "--emit-samples"]
    assert run_cli(base + ["--out", tmp_path / "plain"]) == 0
    monkeypatch.setenv("LEVY_LAB_THREADS", "0")
    assert run_cli(base + ["--out", tmp_path / "env"]) == 0
    assert run_cli(base + ["--threads", 2, "--out", tmp_path / "flag"]) == 0
    assert calls == [1, 1, 2]
    for name in ("cf.csv", "samples.csv", "summary.json"):
        plain = (tmp_path / "plain" / name).read_bytes()
        assert (tmp_path / "env" / name).read_bytes() == plain, name
        assert (tmp_path / "flag" / name).read_bytes() == plain, name


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_command_passes(capsys):
    assert run_cli(["check"]) == 0
    out = capsys.readouterr().out
    assert "PASS covariance.rect-additivity" in out
    assert "FAIL" not in out


def test_check_command_failure_exit_code(capsys, monkeypatch):
    from levylab import checks

    monkeypatch.setattr(
        checks, "run_all", lambda: [("synthetic.broken", False, "AssertionError: boom")]
    )
    assert run_cli(["check"]) == 1
    assert "FAIL synthetic.broken" in capsys.readouterr().out
