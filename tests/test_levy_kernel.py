import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levylab.checks as checks
import levylab.covariance as cov
import levylab.levy_kernel as lk
from levylab.errors import NumericalError, ParameterError, ResourceError
from test_simulate import DENSE_TOP, _fgn_toeplitz


def gram_contraction_norm(A, g1, g2):
    """Independent oracle: literal quadruple sum, vectorized with einsum.

    2 * sum_{k,l,k',l'} A[k,l] A[k',l'] g1[k,k'] g2[l,l'] — the step-function
    tensor inner product with both off-diagonal blocks counted.
    """
    return 2.0 * float(np.einsum("kl,pq,kp,lq->", A, A, g1, g2, optimize=True))


def quadruple_loop_norm(A, g1, g2):
    """Same oracle as an explicit Python loop, for tiny grids."""
    n = A.shape[0]
    total = 0.0
    for k in range(n):
        for l in range(n):
            if A[k, l] == 0.0:
                continue
            for kp in range(n):
                for lp in range(n):
                    total += A[k, l] * A[kp, lp] * g1[k, kp] * g2[l, lp]
    return 2.0 * total


def grams(kernel1, kernel2, refine):
    part = cov.dyadic_partition(refine)
    return (
        checks.gram_matrix(kernel1, part),
        checks.gram_matrix(kernel2, part),
    )


# ---------------------------------------------------------------------------
# kernel_eval and the cell sign matrix
# ---------------------------------------------------------------------------

def test_kernel_eval_examples():
    assert lk.kernel_eval(0.2, 1, 0.8, 2) == 0.5
    assert lk.kernel_eval(0.2, 1, 0.8, 1) == 0.0
    assert lk.kernel_eval(0.2, 2, 0.8, 1) == -0.5
    assert lk.kernel_eval(0.4, 1, 0.4, 2) == 0.0


def test_kernel_eval_index_validation():
    with pytest.raises(ParameterError):
        lk.kernel_eval(0.2, 0, 0.8, 2)


@settings(max_examples=100, deadline=None)
@given(
    s=st.floats(min_value=0, max_value=1),
    t=st.floats(min_value=0, max_value=1),
)
def test_kernel_eval_antisymmetry(s, t):
    assert lk.kernel_eval(s, 1, t, 2) + lk.kernel_eval(s, 2, t, 1) == 0.0
    assert lk.kernel_eval(s, 1, t, 2) + lk.kernel_eval(t, 1, s, 2) == 0.0
    assert lk.kernel_eval(s, 1, t, 1) == 0.0
    assert lk.kernel_eval(s, 2, t, 2) == 0.0


def test_cell_signs_match_the_kernel_off_the_band():
    # the level-n approximation equals the kernel off the band of diagonal
    # level-n cells and is zero on it: checked at the fine-cell midpoints
    for refine in range(2, 9):
        mids = (np.arange(2**refine) + 0.5) / 2**refine
        kernel = np.array([[lk.kernel_eval(s, 1, t, 2) for t in mids] for s in mids])
        flipped = np.array([[lk.kernel_eval(s, 2, t, 1) for t in mids] for s in mids])
        assert np.array_equal(flipped, -kernel)
        for level in range(1, refine):
            coarse = np.arange(2**refine) >> (refine - level)
            off_band = coarse[:, None] != coarse[None, :]
            approx = checks.cell_sign_matrix(level, refine)
            assert np.array_equal(approx[off_band], kernel[off_band]), (level, refine)
            assert not np.any(approx[~off_band]), (level, refine)


# ---------------------------------------------------------------------------
# norm_diff / norm_approx
# ---------------------------------------------------------------------------

def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_step_matrices_and_contractions_skip_full_size_transients():
    # cell_sign_matrix builds one float N x N array (no int64 differences or
    # signs), and norm_diff of one kernel with itself holds one Gram, turned
    # into G S in place, and the elementwise terms: 2 arrays of N^2 floats,
    # where D, one Gram and two products made 4
    square = 8 * 4**9
    sign = checks.cell_sign_matrix(3, 9)
    assert set(np.unique(sign).tolist()) == {-0.5, 0.0, 0.5}
    assert traced_peak(checks.cell_sign_matrix, 3, 9) <= 1.1 * square
    fbm = cov.fractional_brownian(0.35)
    assert traced_peak(lk.norm_diff, 8, 9, fbm, fbm) <= 2.5 * square


def test_two_kernel_norms_hold_only_their_two_grams():
    # sign_product runs in row slabs of x, so its product temporary is one
    # slab, not a copy of x; two different kernels then hold their two
    # Grams, the terms formed in the first
    square = 8 * 4**9
    x = np.random.default_rng(7).normal(size=(2**9, 2**9))
    assert traced_peak(lk.sign_product, x) <= 0.25 * square
    br, fbm = cov.brownian(), cov.fractional_brownian(0.35)
    assert traced_peak(lk.norm_approx, 9, fbm, br) <= 2.2 * square


def test_sign_product_is_the_explicit_sign_matrix_product():
    # S with 2^c blocks on level r is A_r - A_c; c = 0 is the one-block A_r
    rng = np.random.default_rng(4)
    for level in range(1, 9):
        size = 2**level
        for c in range(level + 1):
            S = checks.cell_sign_matrix(level, level) - checks.cell_sign_matrix(c, level)
            for x in (rng.normal(size=(size, size)), rng.normal(size=(size, size)).T):
                want, scale = x @ S, np.max(np.abs(x))
                got = lk.sign_product(x, 2**c)
                assert got is x, (level, c)
                err = np.max(np.abs(got - want))
                assert err <= 1e-13 * scale, (level, c, x.flags.c_contiguous)


def test_sign_product_rows_do_not_depend_on_the_row_count_or_layout():
    # each row's bits are those of the row computed alone, for C-ordered x,
    # the row-contiguous column slice Z[:, :N] that the circulant factor's
    # apply returns, and a transposed x (the spectral roots)
    rng = np.random.default_rng(11)
    for level in range(1, 13):
        size = 2**level
        for c in range(level + 1):
            base = rng.normal(size=(9, size))
            alone = np.vstack([lk.sign_product(row[None, :].copy(), 2**c) for row in base])
            for rows in range(1, 10):
                padded = np.zeros((rows, 2 * size))
                padded[:, :size] = base[:rows]
                for x in (base[:rows].copy(), padded[:, :size], base[:rows].T.copy().T):
                    assert np.array_equal(lk.sign_product(x, 2**c), alone[:rows]), (level, c, rows)


def test_declared_numpy_floor_covers_sign_product():
    # sign_product reshapes with copy=False, which numpy added in 2.1: the
    # floor in pyproject.toml must be at least that, and the README names it
    root = Path(__file__).resolve().parents[1]
    deps = re.search(r"^dependencies = \[(.*)\]$", (root / "pyproject.toml").read_text(), re.M)
    floor = re.fullmatch(r'"numpy>=(\d+)\.(\d+)"', deps.group(1))
    assert floor, deps.group(1)
    major, minor = map(int, floor.groups())
    assert (major, minor) >= (2, 1)
    assert tuple(map(int, np.__version__.split(".")[:2])) >= (major, minor)
    assert f"`numpy>={major}.{minor}`" in (root / "README.md").read_text()


def test_norms_build_no_sign_matrix(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a norm built a step matrix")

    monkeypatch.setattr(checks, "cell_sign_matrix", forbidden)
    br, fbm = cov.brownian(), cov.fractional_brownian(0.35)
    for n in range(1, 9):
        assert lk.norm_approx(n, fbm, br) > 0.0
        for m in range(1, 9):
            value = lk.norm_diff(n, m, fbm, fbm)
            if n == m:  # an exact zero, and +0.0
                assert value == 0.0 and math.copysign(1.0, value) == 1.0, n
            else:
                assert value > 0.0, (n, m)
    table = lk.cauchy_table(range(1, 9), fbm, br)
    assert [refine for _, _, _, refine in table.rows] == list(range(2, 9))


CHECK_KERNELS = checks._kernels()


@settings(max_examples=40, deadline=None)
@given(
    name1=st.sampled_from(sorted(CHECK_KERNELS)),
    name2=st.sampled_from(sorted(CHECK_KERNELS)),
    n=st.integers(1, 6),
    m=st.integers(1, 6),
)
def test_norms_match_the_einsum_oracle(name1, name2, n, m):
    r1, r2 = CHECK_KERNELS[name1], CHECK_KERNELS[name2]
    level = max(n, m)
    g1, g2 = (cov.level_gram(r, level).dense() for r in (r1, r2))
    steps = (
        (lk.norm_approx(level, r1, r2), checks.cell_sign_matrix(level, level)),
        (lk.norm_diff(n, m, r1, r2),
         checks.cell_sign_matrix(n, level) - checks.cell_sign_matrix(m, level)),
    )
    # the rank-one product-st Gram g g^T has g^T A g = 0: with itself both norms
    # are zero, which its factored entries give to rounding of (sum |G|)^2 = 1
    zero = name1 == name2 == "product-st"
    for got, A in steps:
        want = gram_contraction_norm(A, g1, g2)
        assert abs(got - want) <= (1e-15 if zero else 1e-13 * abs(want)), (got, want)


def test_norm_diff_equal_levels_is_exactly_zero():
    br = cov.brownian()
    for kernel in (br, cov.fractional_brownian(0.75)):
        assert lk.norm_diff(3, 3, br, kernel) == 0.0


def test_norm_diff_brownian_12():
    br = cov.brownian()
    assert lk.norm_diff(1, 2, br, br) == pytest.approx(0.125, abs=1e-12)
    # independent oracle on the grid the contraction ran on, level max(n, m)
    refine = max(1, 2)
    A = checks.cell_sign_matrix(1, refine) - checks.cell_sign_matrix(2, refine)
    g1, g2 = grams(br, br, refine)
    assert gram_contraction_norm(A, g1, g2) == pytest.approx(0.125, abs=1e-12)
    assert quadruple_loop_norm(A, g1, g2) == pytest.approx(0.125, abs=1e-12)


def test_norm_diff_brownian_dyadic_decay():
    br = cov.brownian()
    for n in range(1, 11):
        value = lk.norm_diff(n, n + 1, br, br)
        assert value == pytest.approx(2.0 ** (-n - 2), abs=1e-10)


def test_norm_diff_matches_oracle_nontrivial_kernels():
    fbm = cov.fractional_brownian(0.75)
    rough = cov.fractional_brownian(0.1)
    wk = cov.weighted_poly(1)
    tab = cov.tabulated_from_fn(lambda S, T: np.minimum(S, T), 16)
    for r1, r2, n, m in (
        (fbm, fbm, 1, 2),
        (fbm, cov.brownian(), 2, 3),
        (wk, fbm, 1, 3),
        (rough, rough, 2, 4),
        (tab, cov.fractional_brownian(0.35), 1, 3),
    ):
        got = lk.norm_diff(n, m, r1, r2)
        # the oracle runs on a finer grid: the step-function norm is grid-independent
        refine = max(n, m) + 2
        A = checks.cell_sign_matrix(n, refine) - checks.cell_sign_matrix(m, refine)
        g1, g2 = grams(r1, r2, refine)
        want = gram_contraction_norm(A, g1, g2)
        assert got == pytest.approx(want, rel=1e-12)


def test_norm_diff_symmetry():
    fbm = cov.fractional_brownian(0.75)
    a = lk.norm_diff(2, 4, fbm, fbm)
    b = lk.norm_diff(4, 2, fbm, fbm)
    assert a == pytest.approx(b, abs=1e-12)


def test_norm_diff_refine_validation():
    # the grid is always max(n, m): no refine knob, and levels below 1 are rejected
    br = cov.brownian()
    assert [row[3] for row in lk.cauchy_table([2, 4], br, br).rows] == [4]
    with pytest.raises(TypeError):
        lk.norm_diff(2, 4, br, br, refine=3)
    with pytest.raises(ParameterError):
        lk.norm_diff(0, 4, br, br)


def test_contraction_level_cap_fires_before_any_allocation(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("step matrix or Gram built before the level cap was checked")

    monkeypatch.setattr(cov, "level_gram", forbidden)
    monkeypatch.setattr(checks, "cell_sign_matrix", forbidden)
    br = cov.brownian()
    top = DENSE_TOP + 1
    with pytest.raises(ResourceError):
        lk.norm_diff(12, 13, br, br)
    with pytest.raises(ResourceError):
        lk.norm_diff(top, 1, br, br)
    with pytest.raises(ResourceError):
        lk.norm_approx(top, br, br)
    # the table checks its top level before it contracts its first row
    with pytest.raises(ResourceError):
        lk.cauchy_table([1, 2, top], br, br)


def test_norm_of_indefinite_table_raises():
    # R = -s t has a negative semidefinite mesh Gram: level_gram refuses it
    # before the contraction, which would come out strictly negative
    neg = cov.tabulated_from_fn(lambda S, T: -S * T, 4)
    with pytest.raises(NumericalError, match="negative"):
        lk.norm_approx(2, cov.brownian(), neg)
    with pytest.raises(NumericalError, match="negative"):
        lk.norm_diff(1, 2, cov.brownian(), neg)


def test_norm_approx_brownian_formula():
    br = cov.brownian()
    for n in (1, 4, 10):
        value = lk.norm_approx(n, br, br)
        assert value == pytest.approx((1.0 - 2.0**-n) / 2.0, abs=1e-12)
    assert lk.norm_approx(1, br, br) == pytest.approx(0.25, abs=1e-15)


def test_norm_approx_matches_quadruple_loop():
    fbm = cov.fractional_brownian(0.75)
    refine = 3
    got = lk.norm_approx(2, fbm, fbm)
    A = checks.cell_sign_matrix(2, refine)
    g1, g2 = grams(fbm, fbm, refine)
    assert got == pytest.approx(quadruple_loop_norm(A, g1, g2), abs=1e-12)


def test_norm_approx_refine_stability_fbm():
    # the level-4 norm is the same contraction on every finer grid
    fbm = cov.fractional_brownian(0.75)
    got = lk.norm_approx(4, fbm, fbm)
    for refine in (8, 9):
        g1, g2 = grams(fbm, fbm, refine)
        want = gram_contraction_norm(checks.cell_sign_matrix(4, refine), g1, g2)
        assert got == pytest.approx(want, rel=1e-12)


def test_norm_approx_matches_exact_fgn_gram():
    for h in (0.1, 0.35, 0.75):
        fbm = cov.fractional_brownian(h)
        for n in range(1, 8):
            g = _fgn_toeplitz(h, n)
            idx = np.arange(2**n)
            D = 0.5 * np.sign(idx[None, :] - idx[:, None])
            want = 2.0 * np.sum((g @ D) * (D @ g))
            got = lk.norm_approx(n, fbm, fbm)
            assert got == pytest.approx(want, rel=1e-12, abs=0), (h, n)


def kernels():
    return st.one_of(
        st.builds(cov.brownian),
        st.floats(min_value=0.05, max_value=0.95).map(cov.fractional_brownian),
        st.integers(min_value=0, max_value=3).map(cov.weighted_poly),
    )


@settings(max_examples=40, deadline=None)
@given(r1=kernels(), r2=kernels(), n=st.integers(1, 6), m=st.integers(1, 6))
def test_contractions_are_nonnegative(r1, r2, n, m):
    assert lk.norm_approx(n, r1, r2) >= 0.0
    assert lk.norm_diff(n, m, r1, r2) >= 0.0


def test_variance_identity_brownian():
    br = cov.brownian()
    for n in (1, 5, 10):
        assert 2.0 * lk.norm_approx(n, br, br) == pytest.approx(
            1.0 - 2.0**-n, abs=1e-10
        )


def test_triangle_consistency_brownian():
    br = cov.brownian()
    for n, m in ((1, 2), (2, 5), (3, 6)):
        d = lk.norm_diff(n, m, br, br)
        e = abs(lk.norm_approx(n, br, br) - lk.norm_approx(m, br, br))
        assert d == pytest.approx(e, abs=1e-10)


# ---------------------------------------------------------------------------
# existence_check / cauchy_table
# ---------------------------------------------------------------------------

def test_existence_examples():
    assert lk.fbm_existence_check(0.3, 0.3) is True
    assert lk.fbm_existence_check(0.2, 0.2) is False
    assert lk.fbm_existence_check(0.1, 0.45) is True
    assert lk.fbm_existence_check(0.25, 0.25) is False  # boundary is excluded
    assert lk.existence_check(1.0, 5.0) is True
    assert lk.existence_check(2.0, 2.0) is False


def test_cauchy_table_brownian_slope():
    table = lk.cauchy_table(range(1, 7), cov.brownian(), cov.brownian())
    assert table.flag == lk.COVERED
    assert table.slope == pytest.approx(-1.0, abs=0.05)
    values = [norm_sq for _, _, norm_sq, _ in table.rows]
    assert values == pytest.approx([2.0 ** (-n - 2) for n in range(1, 6)], abs=1e-12)


def test_cauchy_table_fbm_monotone():
    fbm = cov.fractional_brownian(0.75)
    table = lk.cauchy_table(range(1, 7), fbm, fbm)
    values = [norm_sq for _, _, norm_sq, _ in table.rows]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert table.flag == lk.COVERED


def test_cauchy_table_flags_uncovered_pair():
    rough = cov.fractional_brownian(0.2)
    table = lk.cauchy_table([1, 2, 3], rough, rough)
    assert table.flag == lk.NOT_COVERED
    assert all(norm_sq >= 0 for _, _, norm_sq, _ in table.rows)


def test_cauchy_table_unknown_for_tabulated():
    k = cov.tabulated_from_fn(lambda S, T: np.minimum(S, T), 16)
    table = lk.cauchy_table([1, 2], k, k)
    assert table.flag == lk.UNKNOWN


def test_cauchy_table_validation():
    with pytest.raises(ParameterError):
        lk.cauchy_table([3, 2], cov.brownian(), cov.brownian())
    with pytest.raises(ParameterError):
        lk.cauchy_table([4], cov.brownian(), cov.brownian())
