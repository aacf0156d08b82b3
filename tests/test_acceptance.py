"""Acceptance gate: one test per criterion, each printing a PASS line.

The two expensive Monte Carlo CLI runs (level 10, 2e5 samples) are shared
module-scoped fixtures; the second differs only in --threads and backs the
bit-identity criterion.
"""
import json
import time

import numpy as np
import pytest

import levylab.checks as checks
import levylab.covariance as cov
import levylab.levy_kernel as lk
import levylab.pvariation as pv
import levylab.simulate as sim
import levylab.spectral as sp
from levylab import cli

SEED = 20260809
MC_SAMPLES = 200_000
MC_LEVEL = 10
T_POINTS = (0.5, 1.0, 2.0)


def _report(n, detail):
    print(f"ACCEPTANCE {n}: PASS — {detail}")


def _run_simulate(out_dir, threads):
    args = [
        "simulate", "--kernel", "brownian",
        "--level", str(MC_LEVEL), "--samples", str(MC_SAMPLES),
        "--seed", str(SEED), "--t", "0.5,1,2",
        "--emit-samples", "--threads", str(threads), "--out", str(out_dir),
    ]
    start = time.monotonic()
    code = cli.main(args)
    elapsed = time.monotonic() - start
    assert code == 0
    return elapsed


@pytest.fixture(scope="module")
def mc_run_a(tmp_path_factory):
    out = tmp_path_factory.mktemp("mc_a")
    elapsed = _run_simulate(out, threads=1)
    return out, elapsed


@pytest.fixture(scope="module")
def mc_run_b(tmp_path_factory):
    out = tmp_path_factory.mktemp("mc_b")
    elapsed = _run_simulate(out, threads=4)
    return out, elapsed


def _read_cf(path):
    rows = {}
    for line in path.read_text().strip().splitlines()[2:]:
        t, re, im, se = (float(x) for x in line.split(","))
        rows[t] = (re, im, se)
    return rows


def test_criterion_1_classical_cf_spectral():
    start = time.monotonic()
    spectrum = sp.classical_spectrum(10_000)
    errs = []
    for t in T_POINTS:
        res = sp.cf_from_spectrum(spectrum, 1j * t)
        errs.append(abs(res.value - 1.0 / np.cosh(t)))
    elapsed = time.monotonic() - start
    assert sp.cf_from_spectrum(spectrum, 1j).value.real == pytest.approx(0.648054, abs=1e-4)
    assert max(errs) <= 1e-4
    assert elapsed < 1.0
    _report(1, f"max |cf - sech| = {max(errs):.2e} at 1e4 pairs in {elapsed:.2f}s")


def test_criterion_2_classical_cf_monte_carlo(mc_run_a):
    out, elapsed = mc_run_a
    rows = _read_cf(out / "cf.csv")
    worst_re = worst_im = 0.0
    for t in T_POINTS:
        re, im, _ = rows[t]
        worst_re = max(worst_re, abs(re - 1.0 / np.cosh(t)))
        worst_im = max(worst_im, abs(im))
    assert worst_re <= 0.01
    assert worst_im <= 0.01
    assert elapsed < 60.0
    _report(2, f"max re-dev {worst_re:.4f}, max |im| {worst_im:.4f}, run {elapsed:.1f}s")


def test_criterion_3_discrete_area_variance(mc_run_a):
    out, _ = mc_run_a
    summary = json.loads((out / "summary.json").read_text())
    samples = np.array(
        [float(line) for line in (out / "samples.csv").read_text().strip().splitlines()[2:]]
    )
    assert samples.size == MC_SAMPLES
    target = 1.0 - 2.0**-MC_LEVEL
    variance = summary["variance"]
    m4 = float(np.mean((samples - samples.mean()) ** 4))
    se = np.sqrt((m4 - variance**2) / samples.size)
    assert abs(variance - target) <= 3.0 * se
    exact = 2.0 * lk.norm_approx(MC_LEVEL, cov.brownian(), cov.brownian())
    assert abs(exact - target) <= 1e-10
    _report(
        3,
        f"MC var {variance:.5f} vs {target:.5f} (3se={3 * se:.5f}); "
        f"exact cross-check dev {abs(exact - target):.1e}",
    )


def test_criterion_4_cauchy_decay():
    start = time.monotonic()
    br = cov.brownian()
    worst = 0.0
    for n in range(1, 7):
        refine = n + 2
        got = lk.norm_diff(n, n + 1, br, br)
        law = 2.0 ** (-n - 2)
        A = checks.cell_sign_matrix(n, refine) - checks.cell_sign_matrix(n + 1, refine)
        part = cov.dyadic_partition(refine)
        g = checks.gram_matrix(br, part)
        oracle = 2.0 * float(np.einsum("kl,pq,kp,lq->", A, A, g, g, optimize=True))
        worst = max(worst, abs(got - law), abs(got - oracle))
    table = lk.cauchy_table(range(1, 7), br, br)
    elapsed = time.monotonic() - start
    assert worst <= 1e-10
    assert table.slope == pytest.approx(-1.0, abs=0.05)
    assert elapsed < 10.0
    _report(4, f"max dev {worst:.1e}, slope {table.slope:.4f}, {elapsed:.1f}s")


def test_criterion_5_discretized_spectrum():
    start = time.monotonic()
    w = np.linalg.eigvalsh(checks.discretize_classical_operator(256))
    spectrum = sp.Spectrum(w, np.ones(w.size, dtype=int))
    magnitudes = np.abs(w)
    top = spectrum.spectral_radius
    second = np.max(magnitudes[magnitudes < top - 1e-6])
    # multiplicity 2: the closed form lists each value twice, and the sorted
    # dense eigenvalues match it elementwise
    exact = sp.brownian_spectrum(256)
    closed = float(np.max(np.abs(w - np.sort(exact.eigenvalues()))))
    report = sp.symmetry_check(spectrum)
    elapsed = time.monotonic() - start
    assert abs(top - 1.0 / np.pi) <= 0.01 / np.pi
    assert abs(second - 1.0 / (3 * np.pi)) <= 0.02 / (3 * np.pi)
    assert np.all(exact.mults == 2) and closed <= 1e-12 * exact.spectral_radius
    assert report.ok and report.max_pair_gap <= 1e-6
    assert elapsed < 30.0
    _report(
        5,
        f"top dev {abs(top - 1 / np.pi) * np.pi:.2%}, second dev "
        f"{abs(second - 1 / (3 * np.pi)) * 3 * np.pi:.2%}, mirror gap "
        f"{report.max_pair_gap:.1e}, closed form {closed / exact.spectral_radius:.1e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_weighted_example():
    wk = cov.weighted_poly(1)
    config = sim.MCConfig(
        seed=SEED, n_samples=MC_SAMPLES, level=MC_LEVEL, kernel1=wk, kernel2=wk
    )
    result = sim.run_mc(config, threads=2, t_grid=[3.0])
    ecf = result.cf
    cf_dev = abs(ecf.estimates[0].real - 1.0 / np.cosh(1.0))
    assert cf_dev <= 0.01
    m4 = float(np.mean((result.samples - result.mean) ** 4))
    se = np.sqrt((m4 - result.variance**2) / result.samples.size)
    assert abs(result.variance - 1.0 / 9.0) <= 3.0 * se
    _report(
        6,
        f"cf(3) dev {cf_dev:.4f} from sech(1)~0.64805; var {result.variance:.5f} "
        f"vs 1/9 (3se={3 * se:.5f})",
    )


def test_criterion_7_fbm_existence_gate():
    assert lk.fbm_existence_check(0.3, 0.3) is True
    assert lk.fbm_existence_check(0.1, 0.45) is True
    assert lk.fbm_existence_check(0.2, 0.2) is False
    fbm = cov.fractional_brownian(0.35)
    stab = pv.variation_profile(fbm, 1.0 / (2 * 0.35), 10)
    grow = pv.variation_profile(fbm, 1.0, 10)
    assert stab.verdict == pv.STABILIZING
    assert grow.verdict == pv.GROWING
    _report(7, f"gate booleans ok; H=0.35 verdicts {stab.verdict}/{grow.verdict}")


def test_criterion_8_young_machinery():
    residual = checks.cosh_factorization_check(1.0, 100_000)
    assert residual < 1e-4

    report_area = checks.control_product_check(
        checks.area_control(), checks.area_control(), 2.0, 2.0, trials=500, slack=1e-9
    )
    omega = checks.grid_control(cov.brownian(), 1.0, level=5)
    report_grid = checks.control_product_check(
        omega, checks.area_control(), 1.0, 4.0, trials=500, slack=1e-9
    )
    assert report_area.n_violations == 0
    assert report_grid.n_violations == 0

    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(120):
        n = int(rng.integers(2, 7))
        pts = np.sort(rng.uniform(0, 1, n))
        while len(np.unique(pts)) < n:
            pts = np.sort(rng.uniform(0, 1, n))
        vals = rng.normal(size=n)
        p = float(rng.uniform(1.0, 3.0))
        samples = list(zip(pts, vals))
        worst = max(worst, abs(checks.v1p(samples, p) - checks.v1p_exhaustive(samples, p)))
    assert worst <= 1e-12
    _report(
        8,
        f"cosh residual {residual:.1e}; {report_area.trials + report_grid.trials} "
        f"split audits clean; v1p vs brute force dev {worst:.1e}",
    )


def test_criterion_9_thread_count_determinism(mc_run_a, mc_run_b):
    out_a, _ = mc_run_a
    out_b, _ = mc_run_b
    for name in ("cf.csv", "samples.csv", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    _report(9, "cf.csv, samples.csv, summary.json bit-identical across --threads 1 vs 4")
