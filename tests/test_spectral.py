import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levylab.checks as checks
import levylab.covariance as cov
import levylab.levy_kernel as lk
import levylab.spectral as sp
from levylab.errors import NumericalError, ParameterError, ResourceError, ShapeError


# ---------------------------------------------------------------------------
# classical_spectrum
# ---------------------------------------------------------------------------

def test_classical_spectrum_first_level():
    spec = sp.classical_spectrum(1)
    assert spec.entries == ((1.0 / np.pi, 2), (-1.0 / np.pi, 2))
    assert spec.spectral_radius == pytest.approx(0.31831, abs=1e-5)


def test_classical_spectrum_second_level():
    spec = sp.classical_spectrum(2)
    alphas = sorted({abs(a) for a, _ in spec.entries}, reverse=True)
    assert alphas == pytest.approx([1.0 / np.pi, 1.0 / (3.0 * np.pi)], abs=1e-15)
    assert all(m == 2 for _, m in spec.entries)


def test_classical_spectrum_radius_bound_and_tail():
    spec = sp.classical_spectrum(50)
    assert all(abs(a) <= 1.0 / np.pi + 1e-15 for a, _ in spec.entries)
    # listed squares plus the analytic tail account for the full sum 1/2
    listed = sum(m * a**2 for a, m in spec.entries)
    assert listed + spec.tail_sq == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ParameterError):
        sp.classical_spectrum(0)


def test_classical_spectrum_above_the_pair_cap_allocates_nothing():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            sp.classical_spectrum(sp.MAX_CLASSICAL_PAIRS + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


# ---------------------------------------------------------------------------
# cf_from_spectrum
# ---------------------------------------------------------------------------

def test_cf_matches_sech():
    spec = sp.classical_spectrum(10_000)
    for t in (0.5, 1.0, 2.0):
        res = sp.cf_from_spectrum(spec, 1j * t)
        assert abs(res.value - 1.0 / np.cosh(t)) <= 1e-4
    res = sp.cf_from_spectrum(spec, 1j)
    assert res.value.real == pytest.approx(0.648054, abs=1e-4)


def test_cf_at_zero_is_exactly_one():
    spec = sp.classical_spectrum(100)
    assert sp.cf_from_spectrum(spec, 0.0).value == 1.0 + 0.0j


def test_cf_paired_spectrum_closed_form():
    # {+a x2, -a x2}: paired factors collapse, exponentials cancel
    for a in (0.05, 0.2):
        spec = sp.Spectrum(alphas=[a, -a], mults=[2, 2])
        for t in (0.3, 1.0, 2.5):
            res = sp.cf_from_spectrum(spec, 1j * t)
            assert res.value.real == pytest.approx(1.0 / (1.0 + 4 * a**2 * t**2), abs=1e-12)
            assert abs(res.value.imag) <= 1e-12


def test_cf_domain_error():
    spec = sp.classical_spectrum(10)
    with pytest.raises(ParameterError, match="domain"):
        sp.cf_from_spectrum(spec, 2.0)  # 2 * 2 * (1/pi) > 1


def test_cf_real_bounded_monotone():
    spec = sp.classical_spectrum(500)
    prev = 1.0 + 1e-15
    for t in np.linspace(0.0, 3.0, 16):
        res = sp.cf_from_spectrum(spec, 1j * float(t))
        assert abs(res.value.imag) <= 1e-12
        assert abs(res.value) <= 1.0 + 1e-12
        assert res.value.real <= prev + 1e-12
        prev = res.value.real


def test_cf_tail_bound_is_self_validating():
    for count in (10, 100, 1000):
        spec = sp.classical_spectrum(count)
        for t in (0.5, 1.0, 2.0, 3.0):
            res = sp.cf_from_spectrum(spec, 1j * t)
            err = abs(res.value - 1.0 / np.cosh(t))
            assert err <= res.tail_bound
    # a truncated CF is the CF of a shorter spectrum, whose tail carries the larger bound
    short, longer = (sp.cf_from_spectrum(sp.classical_spectrum(c), 1j) for c in (20, 50))
    assert short.tail_bound > longer.tail_bound > 0.0


def test_cf_at_the_largest_arguments_is_finite():
    # |t|^2 overflows a Python float power above 1.34e154, and 2 t above half the
    # float range; neither may raise or turn the value into nan
    fbm = cov.fractional_brownian(0.35)
    spectra = [sp.general_spectrum(fbm, fbm, 3), sp.brownian_spectrum(8), sp.classical_spectrum(10)]
    for spec in spectra:
        for t in (1.4e154, 1e155, 1e300, 1.7976931348623157e308, -1.7976931348623157e308):
            res = sp.cf_from_spectrum(spec, 1j * t)
            assert math.isfinite(res.value.real) and math.isfinite(res.value.imag), (spec, t)
            assert abs(res.value) <= 1.0
            # a zero tail bounds nothing at every t; a positive one reads inf once |t|^2 overflows
            assert res.tail_bound == (math.inf if spec.tail_sq else 0.0), (spec, t)
    assert sp.cf_from_spectrum(spectra[2], 1e150j).tail_bound == 1e150**2 * spectra[2].tail_sq


# ---------------------------------------------------------------------------
# cosh factorization
# ---------------------------------------------------------------------------

def test_cosh_factorization_residuals():
    assert checks.cosh_factorization_check(0.0, 10) == 0.0
    assert checks.cosh_factorization_check(1.0, 100_000) < 1e-4
    assert checks.cosh_factorization_check(2j, 100_000) < 1e-3
    # cosh(2i) = cos(2): the product approximates an oscillatory value
    n = np.arange(100_000)
    prod = np.prod(1.0 + 4.0 * (2j) ** 2 / (np.pi**2 * (2 * n + 1) ** 2))
    assert prod.real == pytest.approx(np.cos(2.0), abs=1e-3)


# ---------------------------------------------------------------------------
# classical operator discretization
# ---------------------------------------------------------------------------

def midpoint_spectrum(grid):
    """The ascending dense eigenvalues of the midpoint matrix, each listed once."""
    w = np.linalg.eigvalsh(checks.discretize_classical_operator(grid))
    return sp.Spectrum(w, np.ones(w.size, dtype=int))


def test_classical_operator_shape_and_symmetry():
    m = checks.discretize_classical_operator(16)
    assert m.shape == (32, 32)
    assert np.array_equal(m, m.T)
    assert np.array_equal(np.diagonal(m), np.zeros(32))
    with pytest.raises(ParameterError):
        checks.discretize_classical_operator(3)


def test_classical_operator_eigenvalues():
    grid = 256
    spec = midpoint_spectrum(grid)
    top = spec.spectral_radius
    assert abs(top - 1.0 / np.pi) <= 0.01 / np.pi
    # the largest |alpha| below the top value sits near 1/(3 pi)
    magnitudes = np.abs(spec.alphas)
    second = np.max(magnitudes[magnitudes < top - 1e-9])
    assert abs(second - 1.0 / (3 * np.pi)) <= 0.02 / (3 * np.pi)


def test_classical_operator_mirror_pairs():
    w = np.linalg.eigvalsh(checks.discretize_classical_operator(128))
    ws = np.sort(w)
    assert np.max(np.abs(ws + ws[::-1])) <= 1e-10


def test_classical_operator_multiplicity_two():
    # the closed form repeats each value twice; the sorted dense eigenvalues
    # must match it elementwise, so every dense value comes in a pair
    w = midpoint_spectrum(256).alphas
    exact = sp.brownian_spectrum(256)
    assert np.all(exact.mults == 2)
    assert np.max(np.abs(w - np.sort(exact.eigenvalues()))) <= 1e-12 * exact.spectral_radius


def test_classical_eigenvector_endpoint_condition():
    grid = 256
    m = checks.discretize_classical_operator(grid)
    w, V = np.linalg.eigh(m)
    h = V[:, int(np.argmax(np.abs(w)))]
    h = h / np.max(np.abs(h))
    for block in (h[:grid], h[grid:]):
        start = 1.5 * block[0] - 0.5 * block[1]
        end = 1.5 * block[-1] - 0.5 * block[-2]
        assert abs(start + end) <= 5.0 / grid


def test_classical_operator_convergence_ratio():
    errs = []
    for grid in (64, 128, 256):
        errs.append(abs(midpoint_spectrum(grid).spectral_radius - 1.0 / np.pi))
    assert errs[1] <= 0.6 * errs[0]
    assert errs[2] <= 0.6 * errs[1]


# ---------------------------------------------------------------------------
# brownian_spectrum: the closed form of the midpoint operator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("grid", [*range(4, 41), 127, 128, 255, 256, 1024])
def test_brownian_spectrum_is_the_dense_midpoint_spectrum(grid):
    spec = sp.brownian_spectrum(grid)
    dense = midpoint_spectrum(grid).alphas
    err = float(np.max(np.abs(np.sort(spec.eigenvalues()) - dense)))
    assert err <= 1e-12 * spec.spectral_radius, err
    # |alpha| descending, every +a directly followed by its -a, multiplicity 2
    nonzero = spec.alphas[spec.alphas != 0.0]
    assert np.array_equal(nonzero[1::2], -nonzero[0::2])
    assert np.all(np.diff(nonzero[0::2]) < 0) and np.all(nonzero[0::2] > 0)
    assert np.all(spec.mults == 2)
    assert spec.tail_sq == 0.0
    if grid % 2:
        assert spec.entries[-1] == (0.0, 2)
    assert sp.symmetry_check(spec).ok


def test_brownian_spectrum_below_the_dense_builder_floor():
    # 2g = 4 and 6 points: +-1/4, and +-sqrt(3)/6 with an exact zero
    for grid, top in ((2, 0.25), (3, math.sqrt(3) / 6)):
        spec = sp.brownian_spectrum(grid)
        assert spec.alphas[:2] == pytest.approx([top, -top], rel=1e-15)
        assert np.all(spec.mults == 2)
    assert len(sp.brownian_spectrum(2).alphas) == 2
    assert sp.brownian_spectrum(3).entries[2:] == ((0.0, 2),)


@pytest.mark.parametrize("level", range(1, sp.MAX_OPERATOR_LEVEL + 1))
def test_brownian_spectrum_is_the_level_n_step_kernel_spectrum(level):
    # the whitened Brownian step kernel is A / 2^n: both members of each pair
    # of its singular values against the closed form, each value twice
    spec = sp.brownian_spectrum(2**level)
    s = np.linalg.svd(checks.cell_sign_matrix(level, level) / 2**level, compute_uv=False)
    assert np.all(spec.mults == 2) and len(spec.alphas) == s.size
    for k in (0, 1):
        err = float(np.max(np.abs(s[k::2] - spec.alphas[0::2])))
        assert err <= 1e-12 * spec.spectral_radius, (k, err)
    total = float(np.sum(spec.mults * spec.alphas**2))
    assert total == pytest.approx((1.0 - 2.0**-level) / 2.0, rel=1e-12, abs=0)
    norm = lk.norm_approx(level, cov.brownian(), cov.brownian())
    assert total == pytest.approx(norm, rel=1e-12, abs=0)


def test_brownian_spectrum_caps_allocate_nothing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("allocated before the grid was checked")

    monkeypatch.setattr(np, "arange", forbidden)
    for grid in (1, 0, -4, 2.5, 4.0):
        with pytest.raises(ParameterError):
            sp.brownian_spectrum(grid)
    for grid in (2**sp.MAX_OPERATOR_LEVEL + 1, 10**18):
        with pytest.raises(ResourceError):
            sp.brownian_spectrum(grid)


# ---------------------------------------------------------------------------
# weighted_cf
# ---------------------------------------------------------------------------

def test_weighted_cf_values():
    for t in (0.0, 0.5, 2.0):
        assert sp.weighted_cf(1.0, t) == pytest.approx(1.0 / np.cosh(t), abs=1e-15)
    assert sp.weighted_cf(1.0 / 3.0, 3.0) == pytest.approx(1.0 / np.cosh(1.0), abs=1e-12)
    assert sp.weighted_cf(1.0 / 3.0, 3.0) == pytest.approx(0.64805, abs=1e-5)
    assert sp.weighted_cf(0.5, 0.0) == 1.0
    # a zero norm is the identically zero process
    for t in (0.0, 1.0, -3.0, 1e300):
        assert sp.weighted_cf(0.0, t) == 1.0
    for bad in (-1e-300, math.nan, math.inf):
        with pytest.raises(ParameterError, match="finite and >= 0"):
            sp.weighted_cf(bad, 1.0)


def test_weighted_cf_past_cosh_overflow():
    # math.cosh overflows just above 710; sech is 2 e^{-|x|} to double precision there
    for x in (711.0, 745.0, 800.0, 3e4, 1e300):
        for t in (x, -x):
            got = sp.weighted_cf(1.0, t)
            assert math.isfinite(got) and 0.0 <= got <= 1.0
            assert got == 2.0 * math.exp(-x)
    for x in (700.0, 710.0):
        assert sp.weighted_cf(1.0, x) == 1.0 / math.cosh(x)
        assert sp.weighted_cf(1.0, x) == pytest.approx(2.0 * math.exp(-x), rel=1e-15)
    assert sp.weighted_cf(1e4, 3.0) == sp.weighted_cf(1.0, 3e4)


# ---------------------------------------------------------------------------
# symmetry_check
# ---------------------------------------------------------------------------

def test_symmetry_check_classical():
    assert sp.symmetry_check(sp.classical_spectrum(10)).ok


def test_symmetry_check_discretized_fbm():
    spec = sp.general_spectrum(
        cov.fractional_brownian(0.4), cov.fractional_brownian(0.4), 7
    )
    report = sp.symmetry_check(spec)
    assert report.ok
    assert report.max_pair_gap <= 1e-6


def test_symmetry_check_negative_control():
    broken = sp.Spectrum(alphas=[0.3, -0.3], mults=[2, 1])
    report = sp.symmetry_check(broken)
    assert not report.ok
    assert any("multiplicity" in v for v in report.violations)


def cluster_symmetry_ok(spectrum, pair_tol=sp.PAIR_TOL):
    """Verdict of the anchored |alpha|-cluster audit that the sorted comparison replaced.

    Entries join the current cluster while |alpha| is within pair_tol * radius
    of its first member; each cluster needs equal + and - multiplicity and an
    even total.
    """
    tol = pair_tol * (spectrum.spectral_radius or 1.0)
    clusters = []
    for alpha, mult in sorted(spectrum.entries, key=lambda e: abs(e[0])):
        if clusters and abs(alpha) - clusters[-1]["ref"] <= tol:
            clusters[-1]["members"].append((alpha, mult))
        else:
            clusters.append({"ref": abs(alpha), "members": [(alpha, mult)]})
    for c in clusters:
        plus = sum(m for a, m in c["members"] if a > tol)
        minus = sum(m for a, m in c["members"] if a < -tol)
        zero = sum(m for a, m in c["members"] if abs(a) <= tol)
        if plus != minus or (plus + minus + zero) % 2:
            return False
    return True


def _audited_spectra():
    fbm = {h: cov.fractional_brownian(h) for h in (0.1, 0.35, 0.75)}
    weighted = [cov.weighted_poly(1), cov.weighted_poly(2)]
    tab = cov.tabulated_from_fn(lambda S, T: np.minimum(S, T), 16)
    pairs = [(k, k) for k in (*fbm.values(), cov.brownian(), *weighted, tab)]
    pairs += [(fbm[0.35], cov.brownian()), (fbm[0.35], weighted[0])]
    for r1, r2 in pairs:
        for level in range(1, sp.MAX_OPERATOR_LEVEL + 1):
            yield sp.general_spectrum(r1, r2, level)
    for count in (1, 10, 100, 1000, 10_000):
        yield sp.classical_spectrum(count)
    for grid in (4, 8, 16, 32, 64, 128, 256):
        yield midpoint_spectrum(grid)


def test_symmetry_audit_matches_the_cluster_reference():
    count = 0
    for spec in _audited_spectra():
        report = sp.symmetry_check(spec)
        assert report.ok and cluster_symmetry_ok(spec)
        assert report.max_pair_gap <= sp.PAIR_TOL * spec.spectral_radius
        # one multiplicity dropped from the top entry: both audits object
        mults = spec.mults.copy()
        mults[0] -= 1
        dropped = sp.Spectrum(spec.alphas, mults)
        assert not sp.symmetry_check(dropped).ok and not cluster_symmetry_ok(dropped)
        count += 1
    assert count == 9 * sp.MAX_OPERATOR_LEVEL + 12


def test_symmetry_audit_flags_each_broken_case():
    spec = sp.classical_spectrum(8)
    tol = sp.PAIR_TOL * spec.spectral_radius
    shifted = spec.alphas.copy()
    shifted[5] += 2 * tol
    cases = {
        "dropped": sp.Spectrum(spec.alphas, spec.mults - (np.arange(16) == 3)),
        "shifted": sp.Spectrum(shifted, spec.mults),
        "odd": sp.Spectrum(np.append(spec.alphas, 0.0), np.append(spec.mults, 1)),
    }
    reports = {name: sp.symmetry_check(s) for name, s in cases.items()}
    assert [v.split()[0] for v in reports["dropped"].violations] == ["mirror", "odd"]
    assert reports["shifted"].violations[0].startswith("mirror multiplicity")
    assert len(reports["shifted"].violations) == 1
    assert reports["shifted"].max_pair_gap == pytest.approx(2 * tol, rel=1e-6)
    # a lone zero eigenvalue is its own mirror partner: only the parity rule sees it
    assert reports["odd"].violations == ("odd total multiplicity 33",)
    assert not hasattr(reports["odd"], "n_clusters")


@settings(max_examples=100, deadline=None)
@given(
    # distinct magnitudes at least 1e-4 (100 tol) apart: in a denser chain a moved
    # value can pass its sorted slot on to its neighbours, and a sorted comparison
    # cannot tell that chain from a mirror-symmetric one
    ticks=st.lists(st.integers(min_value=1, max_value=9000), min_size=1, max_size=12, unique=True),
    mults=st.lists(st.integers(min_value=1, max_value=3), min_size=12, max_size=12),
    # noise of at most tol/5 keeps every pair gap, rounding included, under tol/2
    noise=st.lists(st.floats(min_value=-0.2, max_value=0.2), min_size=24, max_size=24),
    moved=st.integers(min_value=0, max_value=23),
    shift=st.floats(min_value=2.0, max_value=5e4),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_symmetry_audit_tolerance_property(ticks, mults, noise, moved, shift, sign):
    # an exact +-1 pair pins the radius at 1, so tol = PAIR_TOL; every other
    # |alpha| stays at most 0.9 + 0.05
    tol = sp.PAIR_TOL
    k = len(ticks)
    mags = 1e-4 * np.array(ticks, dtype=float)
    alphas = np.concatenate(([1.0, -1.0], mags, -mags))
    alphas[2:] += tol * np.array(noise[: 2 * k])
    ms = np.concatenate(([2, 2], mults[:k], mults[:k]))
    report = sp.symmetry_check(sp.Spectrum(alphas, ms))
    assert report.ok, report.violations
    assert report.max_pair_gap <= tol / 2
    alphas[2 + moved % (2 * k)] += sign * shift * tol
    broken = sp.symmetry_check(sp.Spectrum(alphas, ms))
    assert not broken.ok
    assert any("multiplicity" in v for v in broken.violations)


# ---------------------------------------------------------------------------
# general operator
# ---------------------------------------------------------------------------

def test_general_operator_brownian_recovers_classical():
    spec = sp.general_spectrum(cov.brownian(), cov.brownian(), 7)
    top = abs(spec.entries[0][0])
    assert abs(top - 1.0 / np.pi) <= 0.02 / np.pi


def test_general_operator_block_structure():
    # equal covariances make M = L^T A L antisymmetric, so its singular values
    # pair up and every +-s of the spectrum has even multiplicity
    for kernel in (cov.brownian(), cov.fractional_brownian(0.4)):
        L = np.linalg.cholesky(cov.gram_matrix(kernel, cov.dyadic_partition(5)))
        M = L.T @ checks.cell_sign_matrix(5, 5) @ L
        scale = np.max(np.abs(M))
        assert np.max(np.abs(M + M.T)) <= 1e-12 * scale
        s = np.linalg.svd(M, compute_uv=False)
        assert np.max(np.abs(s[0::2] - s[1::2])) <= 1e-12 * s[0]
        positive = np.sort([a for a in sp.general_spectrum(kernel, kernel, 5)
                            .eigenvalues() if a > 0])[::-1]
        assert np.max(np.abs(positive - s)) <= 1e-12 * s[0]


def test_general_operator_multiplicities_are_even():
    spec = sp.general_spectrum(cov.fractional_brownian(0.4), cov.fractional_brownian(0.4), 6)
    assert all(m % 2 == 0 for _, m in spec.entries)
    assert spec.entries[0][1] >= 2


def test_general_operator_level_cap():
    with pytest.raises(ResourceError):
        sp.general_spectrum(cov.brownian(), cov.brownian(), 11)
    with pytest.raises(ParameterError):
        sp.general_spectrum(cov.brownian(), cov.brownian(), 0)


def test_general_spectrum_indefinite_gram():
    # R = -s t is negative semidefinite: its level Gram is refused
    table = cov.tabulated_from_fn(lambda S, T: -S * T, 4)
    with pytest.raises(NumericalError):
        sp.general_spectrum(table, table, 3)


def whitened_reference(r1, r2, level):
    """The 2n x 2n whitened operator G^{-1/2} K G^{-1/2} built densely.

    K has the off-diagonal blocks G_1 A G_2 and its transpose, G is the
    block-diagonal increment Gram; the inverse square root comes from eigh.
    """
    part = cov.dyadic_partition(level)
    g1 = cov.gram_matrix(r1, part)
    g2 = cov.gram_matrix(r2, part)
    n = g1.shape[0]
    X = g1 @ checks.cell_sign_matrix(level, level) @ g2
    K = np.zeros((2 * n, 2 * n))
    K[:n, n:] = X
    K[n:, :n] = X.T
    G = np.zeros((2 * n, 2 * n))
    G[:n, :n] = g1
    G[n:, n:] = g2
    w, V = np.linalg.eigh(G)
    assert np.min(w) > 0.0
    inv_half = (V / np.sqrt(w)) @ V.T
    M = inv_half @ K @ inv_half
    return (M + M.T) / 2.0


def _kernel_pairs():
    fbm = {h: cov.fractional_brownian(h) for h in (0.1, 0.35, 0.75)}
    tab = cov.tabulated_from_fn(lambda S, T: np.minimum(S, T), 16)
    pairs = [pytest.param(k, k, id=f"fbm-{h}") for h, k in fbm.items()]
    pairs.append(pytest.param(cov.brownian(), cov.brownian(), id="brownian"))
    pairs.append(pytest.param(fbm[0.35], cov.brownian(), id="fbm-0.35/brownian"))
    pairs.append(pytest.param(tab, tab, id="tabulated-min"))
    return pairs


@pytest.mark.parametrize("r1,r2", _kernel_pairs())
def test_general_spectrum_matches_whitened_eigh(r1, r2):
    # above level 4 the 16-node table's Grams are singular, which the reference cannot invert
    top = 4 if r1.kind == cov.TABULATED else 6
    for level in range(3, top + 1):
        reference = whitened_reference(r1, r2, level)
        want = np.linalg.eigvalsh(reference)
        spec = sp.general_spectrum(r1, r2, level)
        got = np.sort(spec.eigenvalues())
        radius = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * radius, level
        clustered = sorted(spec.entries)
        expected = sorted(loop_clustered(want, 1e-6))
        assert [m for _, m in clustered] == [m for _, m in expected], level
        assert [a for a, _ in clustered] == pytest.approx(
            [a for a, _ in expected], rel=0, abs=1e-12 * radius
        )


def structural_multiplicity(r1, r2, level):
    """2 when the two level Grams are equal, so that L^T A L is antisymmetric; else 1."""
    g1, g2 = cov.level_gram(r1, level), cov.level_gram(r2, level)
    return 2 if g1.kind == g2.kind and np.array_equal(g1.values, g2.values) else 1


def _weighted_pairs():
    weighted = {d: cov.weighted_poly(d) for d in (1, 2)}
    pairs = [pytest.param(k, k, id=f"weighted-{d}") for d, k in weighted.items()]
    pairs.append(pytest.param(cov.fractional_brownian(0.35), weighted[1], id="fbm-0.35/weighted-1"))
    return pairs


@pytest.mark.parametrize("r1,r2", _kernel_pairs() + _weighted_pairs())
def test_general_spectrum_squares_sum_to_norm_approx(r1, r2):
    # the 16-node table's Grams are singular above level 4, and its unshifted
    # roots list no value made of a shift: its sum holds to 1e-14 at every level
    rel = 1e-14 if r1.kind == cov.TABULATED else 1e-12
    for level in range(1, sp.MAX_OPERATOR_LEVEL + 1):
        spec = sp.general_spectrum(r1, r2, level)
        total = sum(m * a**2 for a, m in spec.entries)
        assert total == pytest.approx(lk.norm_approx(level, r1, r2), rel=rel), level
        assert set(spec.mults.tolist()) == {structural_multiplicity(r1, r2, level)}, level


# ---------------------------------------------------------------------------
# mirror split of the step-kernel operator
# ---------------------------------------------------------------------------

def full_route(r1, r2, level):
    """Singular values of R_1^T A R_2 from the roots of the level Grams, descending, at most N."""
    l1, l2 = (cov.level_gram(r, level).root() for r in (r1, r2))
    s = np.linalg.svd(l1.T @ checks.cell_sign_matrix(level, level) @ l2, compute_uv=False)
    return s[: 2**level]


def assert_same_spectrum(spec, want):
    """Bit for bit, signed zeros included: the same alphas in the same order, the same mults."""
    assert spec.alphas.tobytes() == want.alphas.tobytes()
    assert spec.mults.tolist() == want.mults.tolist()


def loop_clustered(w, cluster_tol):
    """Entries of the ascending eigenvalues w merged one gap at a time."""
    gap = cluster_tol * (float(np.max(np.abs(w))) or 1.0)
    entries = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > gap:
            entries.append((float(np.mean(w[start:i])), i - start))
            start = i
    entries.sort(key=lambda e: (-abs(e[0]), -e[0]))
    return tuple(entries)


def assert_matches_full_route(r1, r2, level):
    # multiplicities by construction: 2 for equal Grams, 1 otherwise; each
    # listed value, repeated by its multiplicity, against the full-route s
    s = full_route(r1, r2, level)
    radius = s[0]
    mult = structural_multiplicity(r1, r2, level)
    spec = sp.general_spectrum(r1, r2, level)
    assert np.all(spec.mults == mult), level
    assert np.array_equal(spec.alphas[1::2], -spec.alphas[0::2]), level
    listed = np.repeat(spec.alphas[0::2], mult)
    assert listed.shape == s.shape, level
    assert np.max(np.abs(listed - s)) <= 1e-12 * radius, level


def _mirror_pairs():
    fbm = {h: cov.fractional_brownian(h) for h in (0.1, 0.35, 0.75)}
    pairs = [pytest.param(k, k, id=f"fbm-{h}") for h, k in fbm.items()]
    pairs.append(pytest.param(cov.brownian(), cov.brownian(), id="brownian"))
    pairs.append(pytest.param(fbm[0.35], cov.brownian(), id="fbm-0.35/brownian"))
    return pairs


@pytest.mark.parametrize("r1,r2", _mirror_pairs())
def test_mirror_split_matches_full_route(r1, r2):
    # only the Toeplitz (fBm) Gram has roots of halves; equal Brownian kernels
    # take the closed form, which the full route checks as well
    for level in range(1, sp.MAX_OPERATOR_LEVEL + 1):
        for r in (r1, r2):
            assert (cov.level_gram(r, level).mirror_roots() is None) == (r.kind != cov.FBM)
        assert_matches_full_route(r1, r2, level)


def dense_mirror_half(gram, sign):
    """G11 + sign G12 K of any mirror-symmetric Gram, read off its dense matrix."""
    G = gram.dense()
    n = len(G) // 2
    return G[:n, :n] + sign * G[:n, : n - 1 : -1]


def test_mirror_halves_are_the_even_odd_blocks():
    # Q^T G Q = diag(G+, G-) for the orthogonal even/odd basis Q = [[I, I], [K, -K]] / sqrt(2):
    # LevelGram.mirror_half for the Toeplitz Gram, the dense halves for mirror-symmetric others
    tab = cov.tabulated_from_fn(lambda S, T: np.minimum(S, T), 16)
    for kernel in (cov.fractional_brownian(0.35), cov.brownian(), tab):
        for level in (1, 2, 5):
            gram = cov.level_gram(kernel, level)
            n = 2 ** (level - 1)
            eye, flip = np.eye(n), np.eye(n)[::-1]
            Q = np.block([[eye, eye], [flip, -flip]]) / np.sqrt(2.0)
            G = gram.dense()
            if kernel.kind == cov.FBM:
                plus, minus = gram.mirror_half(1.0), gram.mirror_half(-1.0)
            else:
                plus, minus = dense_mirror_half(gram, 1.0), dense_mirror_half(gram, -1.0)
                with pytest.raises(ShapeError):
                    gram.mirror_half(1.0)
            blocks = np.block([[plus, np.zeros((n, n))], [np.zeros((n, n)), minus]])
            assert np.max(np.abs(Q.T @ G @ Q - blocks)) <= 1e-15 * np.max(np.abs(G))


def test_singular_tables_list_exact_pair_counts():
    # a table's root is already r wide, so its Gram takes the full route with no
    # shift and lists exactly floor(min(r, N) / 2) pairs: the 16-node min table
    # at levels 5-6 (rank 16, singular Grams) lists the full route's 8 pairs,
    # and the rank-one R = s t, whose spectrum is zero, lists none
    tab = cov.tabulated_from_fn(lambda S, T: np.minimum(S, T), 16)
    rank_one = cov.tabulated_from_fn(lambda S, T: S * T, 8)
    for kernel, level, pairs in ((tab, 5, 8), (tab, 6, 8), (rank_one, 3, 0)):
        gram = cov.level_gram(kernel, level)
        assert gram.mirror_roots() is None
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(gram.dense())
        spec = sp.general_spectrum(kernel, kernel, level)
        assert spec.mults.tolist() == [2] * (2 * pairs), level
        s = full_route(kernel, kernel, level)[: 2 * pairs]
        gap = np.max(np.abs(np.repeat(spec.alphas[0::2], 2) - s), initial=0.0)
        assert gap <= 1e-12 * np.max(s, initial=0.0), level


def test_half_sign_product_matches_the_explicit_product():
    # the split route's R+^T A_+-: lk.sign_product(R+^T) less half of each
    # column sum of R+; level 1 is the 1 x 1 case, where the product is -plus / 2
    fbm = cov.fractional_brownian(0.35)
    for level in range(1, sp.MAX_OPERATOR_LEVEL + 1):
        plus = cov.level_gram(fbm, level).mirror_roots()[0]
        explicit = plus.T @ (checks.cell_sign_matrix(level - 1, level - 1) - 0.5)
        got = lk.sign_product(plus.copy().T) - 0.5 * np.sum(plus, axis=0)[:, None]
        assert got.shape == explicit.shape, level
        assert np.max(np.abs(got - explicit)) <= 1e-14 * np.max(np.abs(plus)), level


@pytest.mark.parametrize("level", [9, 10])
def test_split_route_holds_at_most_three_half_size_arrays(level):
    # R+ (overwritten by R+^T A_+-), R- and B, or R+, G- and R-; never A_+-
    fbm = cov.fractional_brownian(0.35)
    half = 4 ** (level - 1) * 8
    tracemalloc.start()
    try:
        sp.general_spectrum(fbm, fbm, level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * half, f"{peak / half:.2f} half-size arrays"


def test_full_route_never_builds_the_sign_matrix(monkeypatch):
    # every pair but equal Toeplitz Grams and two Brownian kernels takes the
    # full route, whose R_1^T A is a prefix sum: mixed Toeplitz pairs, weighted
    # with itself, and a table, of rank 32 < N above level 5
    fbm = cov.fractional_brownian(0.35)
    weighted = cov.weighted_poly(1)
    table = cov.tabulated_from_fn(lambda S, T: np.minimum(S, T) ** 1.3, 32)
    pairs = [(fbm, cov.brownian()), (fbm, cov.fractional_brownian(0.75)),
             (weighted, weighted), (table, table)]
    levels = range(1, 9)
    expected = [[(full_route(r1, r2, level), structural_multiplicity(r1, r2, level))
                 for level in levels] for r1, r2 in pairs]
    assert [len(s) for s, _ in expected[3]] == [min(32, 2**level) for level in levels]

    def forbidden(*args, **kwargs):
        raise AssertionError("the dense cell sign matrix was built")

    monkeypatch.setattr(checks, "cell_sign_matrix", forbidden)
    for pair, wants in zip(pairs, expected):
        for level, (s, mult) in zip(levels, wants):
            assert pair[0] is not pair[1] or cov.level_gram(pair[0], level).mirror_roots() is None
            spec = sp.general_spectrum(*pair, level)
            assert spec.mults.tolist() == [mult] * (2 * len(s) // mult), level
            assert np.array_equal(spec.alphas[1::2], -spec.alphas[0::2]), level
            gap = np.max(np.abs(np.repeat(spec.alphas[0::2], mult) - s))
            assert gap <= 1e-13 * s[0], (level, gap / s[0])


def test_mixed_pair_holds_three_full_size_arrays():
    # R_1 (overwritten by R_1^T A), R_2 and M, or R_1, G_2 and R_2; never A
    fbm, level = cov.fractional_brownian(0.35), 9
    full = 4**level * 8
    tracemalloc.start()
    try:
        sp.general_spectrum(fbm, cov.brownian(), level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.3 * full, f"{peak / full:.2f} full-size arrays"


def test_spectrum_lists_no_shift_made_values():
    # no Gram is shifted: the rank-one S*T table, whose spectrum is zero, lists
    # no pair (floor(1/2) = 0); a zero weight lists exact zeros, an s + t table nothing
    product_st = cov.tabulated_from_fn(lambda S, T: S * T, 32)
    assert sp.general_spectrum(product_st, product_st, 6).entries == ()
    zero_weight = cov.weighted_poly(1, 0.0)
    for level in (1, 3, 8):
        spec = sp.general_spectrum(zero_weight, zero_weight, level)
        assert len(spec.alphas) == 2**level and np.all(spec.alphas == 0.0), level
    zero_table = cov.tabulated_from_fn(lambda S, T: S + T, 8)
    for level in (1, 3, 8):
        assert sp.general_spectrum(zero_table, zero_table, level).entries == (), level
        assert sp.general_spectrum(zero_table, cov.brownian(), level).entries == (), level
    # a rank-one table against Brownian: the one nonzero value, every value once
    spec = sp.general_spectrum(product_st, cov.brownian(), 4)
    assert spec.mults.tolist() == [1, 1]
    norm = lk.norm_approx(4, product_st, cov.brownian())
    assert float(np.sum(spec.alphas**2)) == pytest.approx(norm, rel=1e-14)
    assert not hasattr(sp.classical_spectrum(3), "jitter_rung")


@pytest.mark.parametrize("rank", [1, 3])
def test_odd_rank_table_lists_floor_half_pairs(rank):
    # equal Grams of odd width r on the full route: M is antisymmetric, so its
    # unpaired singular value is zero and floor(min(r, N) / 2) pairs are listed
    kernel = {1: cov.tabulated_from_fn(lambda S, T: (S * T) ** 2, 3),
              3: cov.tabulated_from_fn(lambda S, T: np.minimum(S, T) ** 1.3, 3)}[rank]
    for level in (1, 2, 3, 6):
        gram = cov.level_gram(kernel, level)
        assert gram.mirror_roots() is None and gram.root().shape == (2**level, rank)
        spec = sp.general_spectrum(kernel, kernel, level)
        pairs = min(rank, 2**level) // 2
        assert spec.mults.tolist() == [2] * (2 * pairs), level
        s = full_route(kernel, kernel, level)
        # (N/2) tr G bounds the radius; the unpaired value is zero to its rounding
        bound = 2**level / 2 * np.trace(gram.dense())
        assert len(s) == 2 * pairs or s[-1] <= 1e-15 * bound, level
        gap = np.max(np.abs(np.repeat(spec.alphas[0::2], 2) - s[: 2 * pairs]), initial=0.0)
        assert gap <= 1e-13 * s[0], level
        total = float(np.sum(spec.mults * spec.alphas**2))
        norm = lk.norm_approx(level, kernel, kernel)
        assert abs(total - norm) <= 1e-13 * norm + 1e-15 * bound**2, level


def test_equal_kernel_split_pairs_every_value_exactly():
    for kernel in (cov.fractional_brownian(0.1), cov.fractional_brownian(0.75), cov.brownian()):
        for level in (1, 4, 8):
            spec = sp.general_spectrum(kernel, kernel, level)
            assert len(spec.entries) == 2**level, level
            assert all(m == 2 for _, m in spec.entries), level


def test_mixed_mirror_pair_factors_only_the_full_route(monkeypatch):
    # the route is read off both Grams before anything is factored, and only
    # equal Toeplitz Grams split: a Toeplitz/weighted pair and a Toeplitz/Brownian
    # pair take exactly two full roots (one Cholesky factor, of the fBm Gram)
    # and one full SVD, and list every value once, within 1e-13 of the radius
    # of the explicit svd(R_1^T A R_2): the prefix-sum R_1^T A rounds differently
    calls = []
    cholesky, svd, root = np.linalg.cholesky, np.linalg.svd, cov.LevelGram.root

    def counting_cholesky(m):
        calls.append(("cholesky", m.shape))
        return cholesky(m)

    def counting_root(gram):
        calls.append(("root", gram.kind))
        return root(gram)

    def counting_svd(m, *args, **kwargs):
        calls.append(("svd", m.shape))
        return svd(m, *args, **kwargs)

    fbm, weighted, brownian = cov.fractional_brownian(0.35), cov.weighted_poly(1), cov.brownian()
    pairs = [(fbm, weighted), (weighted, fbm), (fbm, brownian), (brownian, fbm)]
    expected = []
    for pair in pairs:
        s = full_route(*pair, 8)
        expected.append(sp.Spectrum(np.column_stack((s, -s)).ravel(), np.ones(2 * len(s), int)))
    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(cov.LevelGram, "root", counting_root)
    for pair, want in zip(pairs, expected):
        calls.clear()
        spec = sp.general_spectrum(*pair, 8)
        roots = [("root", cov.level_gram(r, 8).kind) for r in pair]
        roots.insert(1 + (pair[0] is not fbm), ("cholesky", (256, 256)))
        assert calls == roots + [("svd", (256, 256))], calls
        assert spec.mults.tolist() == want.mults.tolist()
        gap = np.max(np.abs(spec.alphas - want.alphas))
        assert gap <= 1e-13 * want.spectral_radius, gap / want.spectral_radius


def test_equal_brownian_kernels_take_the_closed_form(monkeypatch):
    # two Brownian kernels, shared or built separately, return the closed form
    # bit for bit at every level: no level Gram, no root and no SVD
    def forbidden(*args, **kwargs):
        raise AssertionError("a Brownian pair built a Gram, a root or an SVD")

    levels = range(1, sp.MAX_OPERATOR_LEVEL + 1)
    expected = [sp.brownian_spectrum(2**level) for level in levels]
    monkeypatch.setattr(cov, "level_gram", forbidden)
    for name in ("root", "mirror_roots", "mirror_half", "dense"):
        monkeypatch.setattr(cov.LevelGram, name, forbidden)
    for name in ("svd", "cholesky", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    brownian = cov.brownian()
    for level, want in zip(levels, expected):
        for pair in ((brownian, brownian), (cov.brownian(), cov.brownian())):
            assert_same_spectrum(sp.general_spectrum(*pair, level), want)


@pytest.mark.parametrize("coeff", [2.0, 0.3])
def test_constant_weight_route_depends_on_structure_not_rounding(coeff, monkeypatch):
    # a constant weight c has c^2 times the Brownian Gram; its variances are
    # exactly flip-symmetric for c = 2 and off by an ulp for c = 0.3, yet both
    # are read off the spec as constant weights: no SVD, no split, and c^2
    # times the closed form. The two kernels are built separately
    calls = []
    svd = np.linalg.svd

    def counting_svd(m, *args, **kwargs):
        calls.append(m.shape)
        return svd(m, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("a diagonal Gram was split")

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(cov.LevelGram, "mirror_half", forbidden)
    spec = sp.general_spectrum(cov.weighted_poly(0, coeff), cov.weighted_poly(0, coeff), 8)
    assert calls == []
    exact = sp.brownian_spectrum(256)
    assert spec.mults.tolist() == exact.mults.tolist()
    gap = np.max(np.abs(spec.alphas - coeff**2 * exact.alphas))
    assert gap <= 1e-13 * spec.spectral_radius, gap / spec.spectral_radius


def test_constant_weights_take_the_scaled_closed_form(monkeypatch):
    # c1 W1, c2 W2: |c1 c2| times the closed form, scaled before the +- listing,
    # every value twice; no Gram, root or SVD, and a zero weight lists +0, never -0
    def forbidden(*args, **kwargs):
        raise AssertionError("a constant weight built a Gram, a root or an SVD")

    exact = sp.brownian_spectrum(2**7).alphas[0::2]
    monkeypatch.setattr(cov, "level_gram", forbidden)
    for name in ("svd", "cholesky", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for c1, c2 in ((0.3, 0.3), (2.0, 2.0), (0.0, 0.0), (0.3, 2.0), (-2.0, 0.3), (0.0, -1.0)):
        spec = sp.general_spectrum(cov.weighted_poly(0, c1), cov.weighted_poly(0, c2), 7)
        scaled = abs(c1 * c2) * exact
        want = sp.Spectrum(np.column_stack((scaled, 0.0 - scaled)).ravel(), np.full(128, 2))
        assert_same_spectrum(spec, want)
    zero = sp.general_spectrum(cov.weighted_poly(0, 0.0), cov.weighted_poly(0, -0.0), 7)
    assert not np.any(np.signbit(zero.alphas)) and zero.spectral_radius == 0.0


def test_spectrum_stores_arrays():
    spec = sp.classical_spectrum(3)
    assert spec.alphas.dtype == float and spec.mults.dtype == int
    assert np.array_equal(spec.alphas[::2], -spec.alphas[1::2])
    assert spec.entries == tuple(zip(spec.alphas.tolist(), spec.mults.tolist()))
    assert all(type(a) is float and type(m) is int for a, m in spec.entries)
    empty = sp.Spectrum(np.empty(0), np.empty(0, dtype=int))
    assert empty.spectral_radius == 0.0 and empty.eigenvalues().size == 0
    assert sp.symmetry_check(empty).ok and sp.symmetry_check(empty).max_pair_gap == 0.0


def test_weighted_kernel_keeps_the_full_route():
    weighted = cov.weighted_poly(1)
    for level in (1, 4, 7):
        assert cov.level_gram(weighted, level).mirror_roots() is None
        s = full_route(weighted, weighted, level)
        alphas, mults = zip(*loop_clustered(np.concatenate([-s, s[::-1]]), 1e-6))
        expected = sp.Spectrum(alphas=alphas, mults=mults)
        assert_same_spectrum(sp.general_spectrum(weighted, weighted, level), expected)
    assert cov.level_gram(cov.fractional_brownian(0.35), 0).mirror_roots() is None


@settings(max_examples=40, deadline=None)
@given(
    h1=st.floats(min_value=0.05, max_value=0.95),
    h2=st.floats(min_value=0.05, max_value=0.95),
    level=st.integers(min_value=1, max_value=6),
    t=st.floats(min_value=0.0, max_value=50.0),
    brownian_second=st.booleans(),
)
def test_general_spectrum_cf_is_bounded_by_one(h1, h2, level, t, brownian_second):
    r1 = cov.fractional_brownian(h1)
    r2 = cov.brownian() if brownian_second else cov.fractional_brownian(h2)
    for pair in ((r1, r1), (r1, r2)):
        res = sp.cf_from_spectrum(sp.general_spectrum(*pair, level), 1j * t)
        assert abs(res.value) <= 1.0 + 1e-12
