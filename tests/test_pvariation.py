import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levylab.checks as checks
import levylab.covariance as cov
import levylab.pvariation as pv
from levylab.errors import NumericalError, ParameterError, ResourceError
from test_simulate import DENSE_TOP, _fgn_toeplitz, forbid_gram_methods


# ---------------------------------------------------------------------------
# v1p
# ---------------------------------------------------------------------------

def uniform_samples(fn, n=11):
    pts = np.linspace(0, 1, n)
    return [(t, fn(t)) for t in pts]


def test_v1p_linear_total_variation():
    assert checks.v1p(uniform_samples(lambda t: t), 1.0) == pytest.approx(1.0, abs=1e-14)


def test_v1p_linear_p2():
    # single block {0,1} attains the supremum; cross-checked by enumeration
    samples = uniform_samples(lambda t: t)
    assert checks.v1p_exhaustive(uniform_samples(lambda t: t, n=6), 2.0) == pytest.approx(1.0, abs=1e-14)
    assert checks.v1p(samples, 2.0) == pytest.approx(1.0, abs=1e-14)


def test_v1p_indicator_jump():
    samples = uniform_samples(lambda t: 1.0 if t >= 0.5 else 0.0, n=9)
    assert checks.v1p(samples, 3.0) == pytest.approx(1.0, abs=1e-14)


def test_v1p_errors():
    with pytest.raises(ParameterError):
        checks.v1p(uniform_samples(lambda t: t), 0.5)
    with pytest.raises(ParameterError):
        checks.v1p([(0.0, 1.0), (0.0, 2.0)], 2.0)


def test_v1p_refuses_a_nan_point():
    with pytest.raises(ParameterError, match="strictly increasing"):
        checks.v1p([(0.0, 1.0), (float("nan"), 2.0), (1.0, 0.5)], 2.0)


def test_v1p_trivial_inputs():
    assert checks.v1p([], 2.0) == 0.0
    assert checks.v1p([(0.5, 3.0)], 2.0) == 0.0


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=6),
    p=st.floats(min_value=1.0, max_value=4.0),
)
def test_v1p_matches_exhaustive(values, p):
    pts = np.linspace(0, 1, len(values))
    samples = list(zip(pts, values))
    assert checks.v1p(samples, p) == pytest.approx(checks.v1p_exhaustive(samples, p), abs=1e-12)


# ---------------------------------------------------------------------------
# v2p_grid
# ---------------------------------------------------------------------------

def test_v2p_brownian_p1_is_one():
    for level in (*range(1, 9), 20):
        assert pv.v2p_grid(cov.brownian(), 1.0, level) == pytest.approx(1.0, abs=1e-12)


def test_v2p_weighted_p1_is_the_weight_norm():
    # the cell variances of f(u) = u sum to int_0^1 u^2 du = 1/3 at every level
    for level in (1, 5, 20):
        assert pv.v2p_grid(cov.weighted_poly(1), 1.0, level) == pytest.approx(1 / 3, abs=1e-12)


def test_v2p_additive_kernel_zero():
    k = cov.tabulated_from_fn(lambda S, T: S + T, 16)
    for p in (1.0, 2.0):
        for level in (1, 3, 5):
            assert pv.v2p_grid(k, p, level) == pytest.approx(0.0, abs=1e-10)


def test_v2p_product_kernel_p1_is_one():
    k = cov.tabulated_from_fn(lambda S, T: S * T, 16)
    for level in (1, 3, 6):
        assert pv.v2p_grid(k, 1.0, level) == pytest.approx(1.0, abs=1e-12)


def test_v2p_resource_cap(monkeypatch):
    table = cov.tabulated_from_fn(np.minimum, 4)
    # level_gram checks the level itself: every builder it calls is forbidden
    _forbid_dense_grams(monkeypatch, "dyadic_partition", "_fgn_autocovariance")
    # one past the largest level of each Gram structure, and a huge level
    for kernel, level in ((cov.brownian(), 25), (cov.weighted_poly(1), 25),
                          (cov.fractional_brownian(0.35), 24), (table, DENSE_TOP + 1),
                          (cov.brownian(), 10**9)):
        with pytest.raises(ResourceError):
            pv.v2p_grid(kernel, 1.0, level)
    with pytest.raises(ParameterError):
        pv.v2p_grid(cov.brownian(), 0.9, 3)


def test_v2p_matches_exact_fgn_gram():
    # p = 1/(2H) is below 1 at H = 0.75, outside the p-variation range; the
    # variation index (1 there) is the critical exponent that stands in for it
    for h in (0.1, 0.35, 0.75):
        kernel = cov.fractional_brownian(h)
        for level in range(1, 11):
            exact = _fgn_toeplitz(h, level)
            for p in (1.0, cov.variation_index(kernel), 2.0):
                want = np.sum(np.abs(exact) ** p) ** (1.0 / p)
                got = pv.v2p_grid(kernel, p, level)
                assert got == pytest.approx(want, rel=1e-12, abs=0), (h, level, p)


def _forbid_dense_grams(monkeypatch, *extra):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense Gram route taken")

    for name in ("gram_matrix", "eval_grid"):
        monkeypatch.setattr(checks, name, forbidden)
    for name in extra:
        monkeypatch.setattr(cov, name, forbidden)
    assert forbid_gram_methods(monkeypatch, ["dense"], forbidden) == 3


def test_v2p_structured_kernels_skip_the_dense_gram(monkeypatch):
    _forbid_dense_grams(monkeypatch)
    for kernel in (cov.brownian(), cov.weighted_poly(1), cov.fractional_brownian(0.35)):
        assert pv.v2p_grid(kernel, 1.5, DENSE_TOP + 4) > 0.0
        prof = pv.variation_profile(kernel, 1.0, 6)
        assert len(prof.levels) == 6


def test_v2p_holder_ordering_on_fixed_grid():
    for kernel in (cov.brownian(), cov.fractional_brownian(0.35)):
        for level in (3, 5):
            vals = [pv.v2p_grid(kernel, p, level) for p in (1.0, 1.4, 2.0, 3.0)]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_v2p_monotone_in_level_where_guaranteed():
    # guaranteed by the triangle inequality at p = 1; observed numerically at
    # the critical fractional exponent (plain grid sums are *not* monotone for
    # every kernel/p combination, e.g. Brownian at p = 2 decays like 2^{-n/2})
    cases = [
        (cov.brownian(), 1.0),
        (cov.fractional_brownian(0.35), 1.0),
        (cov.fractional_brownian(0.35), 1 / 0.7),
        (cov.weighted_poly(1), 1.0),
    ]
    for kernel, p in cases:
        vals = [pv.v2p_grid(kernel, p, n) for n in range(1, 9)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# variation_profile
# ---------------------------------------------------------------------------

def test_profile_fbm_critical_stabilizes():
    prof = pv.variation_profile(cov.fractional_brownian(0.35), 1 / 0.7, 10)
    assert prof.verdict == pv.STABILIZING
    ests = prof.estimates()
    assert all(b >= a - 1e-12 for a, b in zip(ests, ests[1:]))


def test_profile_fbm_subcritical_grows():
    prof = pv.variation_profile(cov.fractional_brownian(0.35), 1.0, 10)
    assert prof.verdict == pv.GROWING


def test_profile_level_cap_fires_before_any_gram(monkeypatch):
    table = cov.tabulated_from_fn(np.minimum, 4)
    _forbid_dense_grams(monkeypatch, "level_gram")
    for kernel, max_level in ((cov.brownian(), 25), (table, DENSE_TOP + 1)):
        with pytest.raises(ResourceError):
            pv.variation_profile(kernel, 1.0, max_level)


def test_profile_rejects_levels_below_one(monkeypatch):
    _forbid_dense_grams(monkeypatch, "level_gram")
    for max_level in (0, -3):
        with pytest.raises(ParameterError):
            pv.variation_profile(cov.brownian(), 1.0, max_level)


def test_non_finite_exponents_are_rejected():
    samples = [(0.0, 0.0), (0.5, 1.0), (1.0, -1.0)]
    one = lambda S, T: 1.0 + 0.0 * S  # noqa: E731
    for bad in (float("nan"), float("inf"), -float("inf")):
        for call in (
            lambda: checks.v1p(samples, bad),
            lambda: checks.v1p_exhaustive(samples, bad),
            lambda: pv.v2p_grid(cov.brownian(), bad, 3),
            lambda: pv.variation_profile(cov.fractional_brownian(0.35), bad, 3),
            lambda: checks.grid_control(cov.brownian(), bad),
            lambda: checks.young_integral_2d(one, cov.brownian(), bad, 1.0, 3),
            lambda: checks.young_integral_2d(one, cov.brownian(), 2.0, bad, 3),
        ):
            with pytest.raises(ParameterError, match="finite"):
                call()


def test_v2p_grid_peak_is_a_few_level_vectors():
    # fBm holds the N + 1 lags and one work vector of the autocovariance, then the
    # lags, the |gamma|^p terms and their counts; a diagonal Gram holds the N
    # variances and their |v|^p terms; no partition is held next to them
    level = 16
    n_floats = 8 * 2**level
    bounds = {"fbm": 4.5, "brownian": 2.5, "weighted": 2.5}
    kernels = {"fbm": cov.fractional_brownian(0.35), "brownian": cov.brownian(),
               "weighted": cov.weighted_poly(1)}
    for name, kernel in kernels.items():
        tracemalloc.start()
        try:
            pv.v2p_grid(kernel, 1.5, level)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bounds[name] * n_floats, (name, peak / n_floats)


def test_profile_brownian_constant():
    prof = pv.variation_profile(cov.brownian(), 1.0, 10)
    assert prof.verdict == pv.STABILIZING
    assert all(est == pytest.approx(1.0, abs=1e-12) for _, est in prof.levels)


# ---------------------------------------------------------------------------
# control_product_check
# ---------------------------------------------------------------------------

def test_control_product_area_measure():
    area = checks.area_control()
    report = checks.control_product_check(area, area, 2.0, 2.0, trials=400)
    assert report.ok
    assert report.max_violation <= checks.SLACK_TOL


def test_control_product_brownian_grid():
    omega1 = checks.grid_control(cov.brownian(), 1.0, level=5)
    report = checks.control_product_check(omega1, checks.area_control(), 1.0, 5.0, trials=400)
    assert report.ok


def test_grid_control_checks_its_level_at_construction(monkeypatch):
    # each call of omega builds a (2^level + 1)^2 corner grid
    _forbid_dense_grams(monkeypatch)
    with pytest.raises(ParameterError):
        checks.grid_control(cov.brownian(), 1.0, level=-1)
    with pytest.raises(ResourceError):
        checks.grid_control(cov.brownian(), 1.0, level=DENSE_TOP + 1)


def test_control_product_exponent_error():
    area = checks.area_control()
    with pytest.raises(ParameterError):
        checks.control_product_check(area, area, 3.0, 3.0)
    for p, q in ((float("nan"), 2.0), (2.0, float("nan"))):
        with pytest.raises(ParameterError):
            checks.control_product_check(area, area, p, q, trials=5)


def test_control_report_worst_case_records_split():
    area = checks.area_control()
    report = checks.control_product_check(area, area, 2.0, 2.0, trials=50)
    whole, left, right = report.worst_case
    assert isinstance(whole, checks.ControlEstimate)
    assert left.value >= 0 and right.value >= 0
    with pytest.raises(ParameterError):
        checks.ControlEstimate(rectangle=None, value=-1.0)


@pytest.mark.filterwarnings("error")
def test_grid_control_overflow_raises_without_warnings():
    # |increment|^2 of the 1e150 weight overflows: a NumericalError, not inf
    omega = checks.grid_control(cov.weighted_poly(0, 1e150), 2.0, level=2)
    with pytest.raises(NumericalError, match="grid control estimate"):
        omega(checks.Rectangle(0.0, 1.0, 0.0, 1.0))


@pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning")
def test_control_product_refuses_estimates_that_are_not_finite():
    # 13 of the 20 whole-rectangle estimates overflow: omega refuses the first,
    # where an inf estimate would give a nan violation that no slack flags
    omega = checks.grid_control(cov.weighted_poly(0, 1e150), 2.0, level=2)
    with pytest.raises(NumericalError, match="control estimate"):
        checks.control_product_check(omega, checks.area_control(), 2.0, 2.0, trials=20)


# ---------------------------------------------------------------------------
# young_integral_2d
# ---------------------------------------------------------------------------

def test_young_constant_integrand():
    value, report = checks.young_integral_2d(lambda S, T: 2.5 + 0.0 * S, cov.brownian(),
                                             2.0, 1.0, 5)
    assert value == pytest.approx(2.5, abs=1e-12)
    assert report.refinement_delta <= 1e-12


def test_young_one_against_fbm():
    value, _ = checks.young_integral_2d(lambda S, T: 1.0 + 0.0 * S, cov.fractional_brownian(0.6),
                                        2.0, 1.0, 4)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_young_product_integrand_diagonal_limit():
    # independent oracle: the increment measure of min(s,t) is arclength on
    # the diagonal, so the limit is int_0^1 u^2 du computed by quadrature
    u = np.linspace(0, 1, 20001)
    oracle = float(np.trapezoid(u**2, u))
    assert oracle == pytest.approx(1.0 / 3.0, abs=1e-8)

    value, report = checks.young_integral_2d(lambda S, T: S * T, cov.brownian(), 2.0, 1.0, 8)
    assert value == pytest.approx(oracle, abs=0.01)
    # exact finite-sum value: sum_k (k 2^-n)^2 2^-n
    n = 8
    ks = np.arange(2**n)
    exact = float(np.sum((ks * 2.0**-n) ** 2 * 2.0**-n))
    assert value == pytest.approx(exact, abs=1e-14)
    assert report.refinement_delta < 0.01
    assert np.isfinite(report.ratio)


def test_young_step_function_exact():
    def f(S, T):
        return np.where(S >= 0.5, 1.0, 0.0) * np.where(T >= 0.5, 3.0, 1.0)

    vals = [checks.young_integral_2d(f, cov.brownian(), 2.0, 1.0, lvl)[0] for lvl in (2, 4, 6)]
    assert max(vals) - min(vals) <= 1e-12
    # hand-computed: integrand is f(0.5,0.5)=3 on the diagonal overlap [0.5, 1]
    assert vals[0] == pytest.approx(1.5, abs=1e-12)


def test_young_norm_parts():
    _, report = checks.young_integral_2d(lambda S, T: S + T, cov.brownian(), 2.0, 1.0, 4)
    norm = report.f_norm
    # additive integrand: zero 2D increments, unit variation along both edges
    assert norm.v2p == pytest.approx(0.0, abs=1e-12)
    assert norm.v1p_bottom_edge == pytest.approx(1.0, abs=1e-12)
    assert norm.v1p_left_edge == pytest.approx(1.0, abs=1e-12)
    assert norm.corner_abs == 0.0
    assert norm.total == pytest.approx(2.0, abs=1e-12)


def test_young_level_cap_fires_before_f_is_evaluated(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("integrand or Gram evaluated before the level cap was checked")

    monkeypatch.setattr(cov, "level_gram", forbidden)
    with pytest.raises(ResourceError):
        checks.young_integral_2d(forbidden, cov.brownian(), 2.0, 1.0, DENSE_TOP + 1)


def test_young_evaluates_f_once_on_one_gram(monkeypatch):
    # the level-(n-1) sum reads the level-n f grid and 2x2 block sums of the
    # level-n increments; oracle: anchored sums on gram_matrix at both levels
    def f(S, T):
        return np.sin(3.0 * S) * np.exp(T) + S * T

    def anchored(kernel, level):
        nodes = cov.dyadic_partition(level)
        S, T = np.meshgrid(nodes[:-1], nodes[:-1], indexing="ij")
        return float(np.sum(f(S, T) * checks.gram_matrix(kernel, nodes)))

    tab = cov.tabulated_from_fn(lambda S, T: np.minimum(S, T) + S * T, 16)
    level_gram = cov.level_gram
    for kernel in (cov.fractional_brownian(0.35), cov.weighted_poly(1), tab):
        calls = []

        def counting_f(S, T):
            calls.append(("f", S.shape))
            return f(S, T)

        def counting_gram(k, level):
            calls.append(("level_gram", level))
            return level_gram(k, level)

        monkeypatch.setattr(cov, "level_gram", counting_gram)
        value, report = checks.young_integral_2d(counting_f, kernel, 2.0, 1.5, 6)
        monkeypatch.setattr(cov, "level_gram", level_gram)
        assert calls == [("f", (65, 65)), ("level_gram", 6)], calls
        fine, coarse = anchored(kernel, 6), anchored(kernel, 5)
        assert value == pytest.approx(fine, abs=1e-14)
        assert report.refinement_delta == pytest.approx(abs(fine - coarse), abs=1e-14)
        assert report.g_variation == pv.v2p_grid(kernel, 1.5, 6)


@pytest.mark.filterwarnings("error")
def test_young_overflow_raises_without_warnings():
    # the sum and the norm of f overflow: a NumericalError, not inf and nan
    with pytest.raises(NumericalError, match="Young sum is inf"):
        checks.young_integral_2d(lambda S, T: 1e200 * S * T, cov.weighted_poly(0, 1e150),
                                 2.0, 1.0, 3)


def test_young_exponent_error():
    with pytest.raises(ParameterError):
        checks.young_integral_2d(lambda S, T: S, cov.brownian(), 2.0, 2.0, 3)
