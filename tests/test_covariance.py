import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levylab.checks as checks
import levylab.covariance as cov
from levylab.errors import (
    DomainError,
    NumericalError,
    ParameterError,
    PartitionError,
    ResourceError,
    ShapeError,
)


def kernels_under_test():
    return [
        cov.brownian(),
        cov.fractional_brownian(0.35),
        cov.fractional_brownian(0.75),
        cov.weighted_poly(1),
        cov.tabulated_from_fn(lambda S, T: S * T, 16),
    ]


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_brownian_eval():
    assert checks.eval(cov.brownian(), 0.3, 0.7) == 0.3
    assert checks.eval(cov.brownian(), 0.7, 0.3) == 0.3


def test_fbm_half_is_min():
    k = cov.fractional_brownian(0.5)
    rng = np.random.default_rng(0)
    for _ in range(50):
        s, t = rng.uniform(0, 1, 2)
        assert checks.eval(k, s, t) == pytest.approx(min(s, t), abs=1e-14)


def test_weighted_eval():
    # f(u) = u so R(s,t) = (s^t)^3 / 3
    k = cov.weighted_poly(1)
    assert checks.eval(k, 0.5, 0.8) == pytest.approx(0.5**3 / 3, abs=1e-15)
    assert checks.eval(k, 0.8, 0.5) == pytest.approx(0.0416667, abs=1e-6)


def test_weighted_constant_reduces_to_brownian():
    k = cov.weighted_poly(0)
    for s, t in [(0.2, 0.9), (0.5, 0.5), (1.0, 0.3)]:
        assert checks.eval(k, s, t) == pytest.approx(min(s, t), abs=1e-15)


def test_eval_domain_error():
    with pytest.raises(DomainError):
        checks.eval(cov.brownian(), 1.2, 0.5)
    with pytest.raises(DomainError):
        checks.eval(cov.brownian(), 0.5, -0.1)


def test_eval_grid_rectangular_axes():
    k = cov.brownian()
    x, y = [0.0, 0.5], [0.0, 0.25, 0.5]
    grid = checks.eval_grid(k, x, y)
    assert grid.shape == (2, 3)
    for i, s in enumerate(x):
        for j, t in enumerate(y):
            assert grid[i, j] == checks.eval(k, s, t)
    with pytest.raises(DomainError):
        checks.eval_grid(k, [0.0, 1.5], y)
    with pytest.raises(DomainError):
        checks.eval_grid(k, x, [0.0, 0.25, -0.5])


def test_nan_arguments_are_outside_the_unit_square():
    # nan compares false both ways, so a range test must require the good case
    nan = float("nan")
    with pytest.raises(DomainError):
        checks.eval(cov.brownian(), nan, 0.5)
    with pytest.raises(DomainError):
        checks.eval(cov.brownian(), 0.5, nan)
    with pytest.raises(DomainError):
        checks.eval_grid(cov.fractional_brownian(0.35), [nan, 0.5], [0.25])


def test_hurst_validation():
    with pytest.raises(ParameterError):
        cov.fractional_brownian(0.0)
    with pytest.raises(ParameterError):
        cov.fractional_brownian(1.0)
    with pytest.raises(ParameterError):
        cov.fractional_brownian(1.2)


# ---------------------------------------------------------------------------
# rect_increment
# ---------------------------------------------------------------------------

def test_rect_increment_brownian():
    k = cov.brownian()
    assert checks.rect_increment(k, checks.Rectangle(0, 0.5, 0.5, 1)) == 0.0
    assert checks.rect_increment(k, checks.Rectangle(0, 0.5, 0, 0.5)) == 0.5


def test_rect_increment_additive_kernel_vanishes():
    # R(s,t) = s + t has zero rectangular increments everywhere
    k = cov.tabulated_from_fn(lambda S, T: S + T, 8)
    rng = np.random.default_rng(1)
    for _ in range(50):
        x0, x1 = np.sort(rng.uniform(0, 1, 2))
        y0, y1 = np.sort(rng.uniform(0, 1, 2))
        assert checks.rect_increment(k, checks.Rectangle(x0, x1, y0, y1)) == pytest.approx(0.0, abs=1e-12)


def test_rectangle_validation():
    with pytest.raises(ParameterError):
        checks.Rectangle(0.6, 0.4, 0.0, 1.0)
    with pytest.raises(DomainError):
        checks.Rectangle(0.0, 1.5, 0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["brownian", "fbm", "weighted", "table"]),
    axis=st.sampled_from([0, 1]),
)
def test_rect_increment_split_additivity(data, kind, axis):
    kernel = {
        "brownian": cov.brownian(),
        "fbm": cov.fractional_brownian(
            data.draw(st.floats(min_value=0.15, max_value=0.85))
        ),
        "weighted": cov.weighted_poly(data.draw(st.integers(0, 3))),
        "table": cov.tabulated_from_fn(lambda S, T: S * T, 8),
    }[kind]
    pts = sorted(
        data.draw(
            st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3)
        )
    )
    lo, mid, hi = pts
    other = sorted(
        data.draw(
            st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2)
        )
    )
    if axis == 0:
        whole = checks.Rectangle(lo, hi, other[0], other[1])
        left = checks.Rectangle(lo, mid, other[0], other[1])
        right = checks.Rectangle(mid, hi, other[0], other[1])
    else:
        whole = checks.Rectangle(other[0], other[1], lo, hi)
        left = checks.Rectangle(other[0], other[1], lo, mid)
        right = checks.Rectangle(other[0], other[1], mid, hi)
    total = checks.rect_increment(kernel, whole)
    parts = checks.rect_increment(kernel, left) + checks.rect_increment(kernel, right)
    assert total == pytest.approx(parts, abs=1e-12)


# ---------------------------------------------------------------------------
# gram_matrix
# ---------------------------------------------------------------------------

def test_gram_brownian_level1():
    gram = checks.gram_matrix(cov.brownian(), cov.dyadic_partition(1))
    assert np.allclose(gram, [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)


def test_gram_brownian_diagonal_all_levels():
    for level in (2, 5, 8):
        m = checks.gram_matrix(cov.brownian(), cov.dyadic_partition(level))
        assert np.allclose(np.diagonal(m), 2.0**-level, atol=1e-15)
        off = m - np.diag(np.diagonal(m))
        assert np.max(np.abs(off)) == 0.0


def test_gram_fbm_level1_offdiagonal():
    # adjacent-increment covariance: 1/2 - 2^{-2H} = 2^{-2H} (2^{2H-1} - 1)
    h = 0.75
    m = checks.gram_matrix(cov.fractional_brownian(h), cov.dyadic_partition(1))
    expected = 2.0 ** (-2 * h) * (2.0 ** (2 * h - 1) - 1.0)
    assert expected == pytest.approx(0.5 - 2.0**-1.5, abs=1e-15)
    assert m[0, 1] == pytest.approx(expected, abs=1e-12)
    assert m[1, 0] == pytest.approx(expected, abs=1e-12)


def test_gram_telescoping():
    for kernel in kernels_under_test():
        gram = checks.gram_matrix(kernel, cov.dyadic_partition(5))
        total = checks.rect_increment(kernel, checks.Rectangle(0, 1, 0, 1))
        assert float(gram.sum()) == pytest.approx(total, abs=1e-10)


def test_gram_symmetry_and_psd():
    for kernel in kernels_under_test():
        gram = checks.gram_matrix(kernel, cov.dyadic_partition(6))
        assert np.max(np.abs(gram - gram.T)) <= 1e-12
        assert checks.min_eigenvalue_ratio(gram) >= -cov.PSD_TOL


def test_gram_partition_errors():
    k = cov.brownian()
    with pytest.raises(PartitionError):
        checks.gram_matrix(k, [0.0, 0.5, 0.5, 1.0])
    with pytest.raises(PartitionError):
        checks.gram_matrix(k, [0.0, 0.7, 0.4, 1.0])
    with pytest.raises(PartitionError):
        checks.gram_matrix(k, [0.1, 0.5, 1.0])
    with pytest.raises(PartitionError):
        checks.gram_matrix(k, [0.0, 0.5, 0.9])


def test_gram_refuses_a_nan_breakpoint():
    with pytest.raises(PartitionError, match="strictly increasing"):
        checks.gram_matrix(cov.brownian(), [0.0, float("nan"), 1.0])


# ---------------------------------------------------------------------------
# root and mirror_roots: unshifted square roots of every level Gram
# ---------------------------------------------------------------------------

def test_cholesky_identity():
    # the root of the identity Gram is its Cholesky factor, the identity
    R = cov.DiagonalGram(2, np.ones(4)).root()
    assert np.array_equal(R, np.eye(4)) and np.array_equal(R, np.linalg.cholesky(np.eye(4)))


def test_cholesky_brownian_diagonal():
    # diag(sqrt v) is LAPACK's Cholesky factor of a positive diagonal Gram, bit for bit
    for level in (2, 6):
        R = cov.level_gram(cov.brownian(), level).root()
        assert np.array_equal(R, np.eye(2**level) * 2.0 ** (-level / 2))
    for kernel in (cov.brownian(), cov.weighted_poly(1), cov.weighted_poly(3, 2.5)):
        for level in (3, 7, 10):
            gram = cov.level_gram(kernel, level)
            assert np.array_equal(gram.root(), np.linalg.cholesky(gram.dense())), level


def test_cholesky_fbm_reconstruction():
    gram = checks.gram_matrix(cov.fractional_brownian(0.3), cov.dyadic_partition(6))
    R = cov.level_gram(cov.fractional_brownian(0.3), 6).root()
    assert np.max(np.abs(R @ R.T - gram)) <= 1e-10


def test_root_is_the_unshifted_factor_of_each_structure():
    # a Toeplitz Gram's root is numpy's Cholesky factor of the matrix itself,
    # and a table's the copy of its factor F
    fbm = cov.level_gram(cov.fractional_brownian(0.3), 6)
    assert np.array_equal(fbm.root(), np.linalg.cholesky(fbm.dense()))
    # the bilinear table on a mesh of 4 has a rank-4 level Gram
    table = cov.level_gram(cov.tabulated_from_fn(np.minimum, 4), 4)
    R = table.root()
    assert R.shape == (16, 4) and R is not table.values and np.array_equal(R, table.values)
    ref = checks.gram_matrix(cov.tabulated_from_fn(np.minimum, 4), cov.dyadic_partition(4))
    assert np.max(np.abs(R @ R.T - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("hurst", [0.01, 0.35, 0.75, 0.9999])
def test_fbm_grams_and_their_halves_factor_unshifted(hurst):
    # plain Cholesky factors every fBm Gram and both its mirror halves
    for level in range(1, 11):
        gram = cov.level_gram(cov.fractional_brownian(hurst), level)
        np.linalg.cholesky(gram.dense())
        for sign in (1.0, -1.0):
            np.linalg.cholesky(gram.mirror_half(sign))


def test_mirror_roots_factor_the_halves():
    # Toeplitz: numpy's Cholesky factors of the halves, bit for bit; every
    # other Gram, and a Toeplitz one at level 0, has no roots of halves
    tables = [cov.tabulated_from_fn(np.minimum, 16), cov.tabulated_from_fn(lambda S, T: S * T, 8),
              cov.tabulated_from_fn(lambda S, T: np.minimum(S, T) - S * T, 16)]
    for level in (1, 3, 6):
        fbm = cov.level_gram(cov.fractional_brownian(0.35), level)
        for R, sign in zip(fbm.mirror_roots(), (1.0, -1.0)):
            assert np.array_equal(R, np.linalg.cholesky(fbm.mirror_half(sign)))
        for kernel in (cov.brownian(), cov.weighted_poly(0, 2.0), *tables):
            assert cov.level_gram(kernel, level).mirror_roots() is None, (kernel, level)
    assert cov.level_gram(cov.fractional_brownian(0.35), 0).mirror_roots() is None


def test_zero_grams_have_exact_zero_roots():
    # a zero weight has zero variances and an s + t table a zero mesh Gram:
    # roots of zeros and of width 0, no shift
    zero_weight = cov.level_gram(cov.weighted_poly(1, 0.0), 3)
    assert np.array_equal(zero_weight.root(), np.zeros((8, 8)))
    zero_table = cov.level_gram(cov.tabulated_from_fn(lambda S, T: S + T, 8), 5)
    assert zero_table.root().shape == (32, 0) and zero_table.width == 0
    assert np.array_equal(zero_table.dense(), np.zeros((32, 32)))


def test_indefinite_table_names_its_eigenvalue():
    # R = -s t: the mesh Gram is negative semidefinite, refused before any level Gram
    table = cov.tabulated_from_fn(lambda S, T: -S * T, 4)
    for level in (0, 3):
        with pytest.raises(NumericalError, match="negative eigenvalue"):
            cov.level_gram(table, level)


# ---------------------------------------------------------------------------
# level_gram
# ---------------------------------------------------------------------------

def test_increment_autocovariance_is_the_gram_row():
    for h in (0.1, 0.35, 0.5, 0.75):
        k = cov.fractional_brownian(h)
        for level in (0, 1, 3, 6):
            gram = cov.level_gram(k, level)
            assert isinstance(gram, cov.ToeplitzGram)
            gamma = gram.values
            assert gamma.shape == (2**level + 1,)
            row = checks.gram_matrix(k, cov.dyadic_partition(level))[0]
            assert np.allclose(gamma[:-1], row, rtol=0, atol=1e-13 * row[0])
    # Brownian is H = 1/2: white noise
    white = cov.level_gram(cov.fractional_brownian(0.5), 3).values
    assert np.allclose(white, [0.125] + [0.0] * 8, rtol=0, atol=1e-15 * 0.125)
    # only fBm kernels get the Toeplitz structure
    assert isinstance(cov.level_gram(cov.brownian(), 3), cov.DiagonalGram)


def test_cell_variances_are_the_gram_diagonal():
    for k in (cov.brownian(), cov.weighted_poly(1), cov.weighted_poly(3, 1.7)):
        part = cov.dyadic_partition(6)
        diag = np.diagonal(checks.gram_matrix(k, part))
        gram = cov.level_gram(k, 6)
        assert isinstance(gram, cov.DiagonalGram)
        assert np.array_equal(gram.values, diag)
    # independent increments are the Brownian and weighted kernels only
    assert isinstance(cov.level_gram(cov.fractional_brownian(0.3), 3), cov.ToeplitzGram)


def exact_table_gram(kernel, level):
    """K H K^T in np.longdouble: H the table's double difference, K the cell overlaps.

    K[k, c] = m |I_k ∩ J_c|, from the exact dyadic and mesh breakpoints.
    """
    t = np.asarray(kernel.table, dtype=float)
    h = np.diff(np.diff(t, axis=0), axis=1).astype(np.longdouble)
    m = h.shape[0]
    cells = np.arange(2**level + 1, dtype=np.longdouble) / 2**level
    mesh = np.arange(m + 1, dtype=np.longdouble) / m
    lo = np.maximum(cells[:-1, None], mesh[None, :-1])
    hi = np.minimum(cells[1:, None], mesh[None, 1:])
    K = m * np.clip(hi - lo, 0, None)
    return K @ h @ K.T


def test_level_gram_dense_and_power_sum_match_gram_matrix():
    for kernel in kernels_under_test():
        for level in range(0, 7):
            gram = cov.level_gram(kernel, level)
            ref = checks.gram_matrix(kernel, cov.dyadic_partition(level))
            dense = gram.dense()
            assert np.max(np.abs(dense - ref)) <= 1e-12 * np.max(np.abs(ref))
            if isinstance(gram, cov.DiagonalGram):
                assert np.array_equal(dense, ref)
            elif isinstance(gram, cov.FactoredGram):
                exact = exact_table_gram(kernel, level)
                assert np.max(np.abs(dense - exact)) <= 1e-14 * np.max(np.abs(exact))
            for p in (1.0, 1.5, 2.0, 5.0):
                total = np.sum(np.abs(ref) ** p)
                assert gram.abs_power_sum(p) == pytest.approx(total, rel=1e-12, abs=0)
    assert isinstance(cov.level_gram(kernels_under_test()[-1], 3), cov.FactoredGram)


def _reference_tables():
    fbm = cov.fractional_brownian(0.35)
    return {
        "min^1.3/32": cov.tabulated_from_fn(lambda S, T: np.minimum(S, T) ** 1.3, 32),
        "S*T/32": cov.tabulated_from_fn(lambda S, T: S * T, 32),
        "min/64": cov.tabulated_from_fn(np.minimum, 64),
        "fbm/100": cov.tabulated(checks.eval_grid(fbm, *2 * [np.linspace(0.0, 1.0, 101)])),
        "fbm/256": cov.tabulated(checks.eval_grid(fbm, *2 * [np.linspace(0.0, 1.0, 257)])),
        "bridge/16": cov.tabulated_from_fn(lambda S, T: np.minimum(S, T) - S * T, 16),
        "int64": cov.CovKernel(cov.TABULATED, table=np.minimum.outer(np.arange(9), np.arange(9))),
        "float32": cov.CovKernel(cov.TABULATED, table=checks.eval_grid(
            fbm, *2 * [np.linspace(0.0, 1.0, 33)]).astype(np.float32)),
    }


@pytest.mark.parametrize("name", sorted(_reference_tables()))
def test_table_grams_match_the_exact_product(name):
    # F F^T against K H K^T in long double, to 1e-14 of max|G| at levels 1-10
    kernel = _reference_tables()[name]
    for level in range(1, 11):
        gram = cov.level_gram(kernel, level)
        assert isinstance(gram, cov.FactoredGram)
        exact = exact_table_gram(kernel, level)
        gap = np.max(np.abs(gram.dense() - exact)) / np.max(np.abs(exact))
        assert gap <= 1e-14, (level, gap)


def test_table_factor_width_is_the_mesh_gram_rank():
    # the rank of H sets the width r: 1 for S*T, m - 1 for the bridge, m for min,
    # 0 for the zero process s + t
    tables = _reference_tables()
    cases = [("S*T/32", 1), ("bridge/16", 15), ("min/64", 64), ("min^1.3/32", 32)]
    for name, rank in cases:
        for level in (0, 3, 8):
            gram = cov.level_gram(tables[name], level)
            assert gram.width == rank and gram.root().shape == (2**level, rank)
    zero = cov.level_gram(cov.tabulated_from_fn(lambda S, T: S + T, 8), 4)
    assert zero.width == 0


def test_level_gram_equals_compares_the_matrix_in_its_structure():
    # weighted degree 0 coeff 1 is R = min(s, t): the Brownian cell variances, bit for bit
    brownian = cov.level_gram(cov.brownian(), 4)
    assert brownian.equals(brownian)
    assert brownian.equals(cov.level_gram(cov.weighted_poly(0), 4))
    assert not brownian.equals(cov.level_gram(cov.weighted_poly(1), 4))
    # the same matrix stored as a factor is another structure
    assert not brownian.equals(cov.FactoredGram(4, brownian.root()))
    fbm = cov.fractional_brownian(0.35)
    assert cov.level_gram(fbm, 4).equals(cov.level_gram(cov.fractional_brownian(0.35), 4))
    assert not cov.level_gram(fbm, 4).equals(cov.level_gram(fbm, 3))


def test_check_level_counts_the_largest_array_of_the_route():
    # N^2 floats for a route holding the N x N matrix (no kernel) or a dense
    # Gram, N + 1 lags for fBm, N variances for Brownian and weighted kernels
    table = cov.tabulated_from_fn(np.minimum, 4)
    tops = [(None, 12), (table, 12), (cov.fractional_brownian(0.35), 23),
            (cov.brownian(), 24), (cov.weighted_poly(2), 24)]
    for kernel, top in tops:
        assert cov.check_level(top, kernel) == top
        assert cov.check_level(0, kernel) == 0
        for level in (top + 1, 10**18):
            with pytest.raises(ResourceError):
                cov.check_level(level, kernel)
        with pytest.raises(ParameterError):
            cov.check_level(-1, kernel)


def test_level_gram_checks_its_level_before_building(monkeypatch):
    # each structure's builder is forbidden, so a level that got past the
    # check would fail here without allocating anything
    table = cov.tabulated_from_fn(np.minimum, 4)
    fbm, brownian, weighted = cov.fractional_brownian(0.35), cov.brownian(), cov.weighted_poly(1)

    def forbidden(*args, **kwargs):
        raise AssertionError("level Gram built before its level was checked")

    for name in ("dyadic_partition", "_fgn_autocovariance"):
        monkeypatch.setattr(cov, name, forbidden)
    monkeypatch.setattr(checks, "gram_matrix", forbidden)
    for kernel in (brownian, fbm, weighted, table):
        with pytest.raises(ParameterError):
            cov.level_gram(kernel, -1)
    for kernel, level in ((brownian, 25), (weighted, 25), (fbm, 24), (table, 13)):
        with pytest.raises(ResourceError):
            cov.level_gram(kernel, level)


# ---------------------------------------------------------------------------
# tabulated kernels
# ---------------------------------------------------------------------------

def test_tabulated_bilinear_exact_for_bilinear_function():
    k = cov.tabulated_from_fn(lambda S, T: S * T, 8)
    rng = np.random.default_rng(3)
    for _ in range(50):
        s, t = rng.uniform(0, 1, 2)
        assert checks.eval(k, s, t) == pytest.approx(s * t, abs=1e-14)


def four_corner(table, x, y):
    """The bilinear interpolant of table on x by y, as the explicit four-corner sum."""
    m = table.shape[0] - 1
    xs = np.clip(np.asarray(x, dtype=float)[:, None] * m, 0.0, m)
    ys = np.clip(np.asarray(y, dtype=float)[None, :] * m, 0.0, m)
    i = np.minimum(xs.astype(int), m - 1)
    j = np.minimum(ys.astype(int), m - 1)
    fx, fy = xs - i, ys - j
    return (
        table[i, j] * (1 - fx) * (1 - fy)
        + table[i + 1, j] * fx * (1 - fy)
        + table[i, j + 1] * (1 - fx) * fy
        + table[i + 1, j + 1] * fx * fy
    )


@pytest.mark.parametrize("mesh", [32, 33, 100])
def test_tabulated_grids_are_the_four_corner_sum_bit_for_bit(mesh):
    k = cov.tabulated_from_fn(lambda S, T: np.minimum(S, T) ** 1.3 + 0.1 * S * T, mesh)
    rng = np.random.default_rng(mesh)
    x = np.concatenate(([0.0], np.sort(rng.uniform(0, 1, 37)), [1.0]))
    y = np.sort(rng.uniform(0, 1, 53))
    assert checks.eval_grid(k, x, y).tobytes() == four_corner(k.table, x, y).tobytes()
    for level in (3, 8):
        part = cov.dyadic_partition(level)
        want = np.diff(np.diff(four_corner(k.table, part, part), axis=0), axis=1)
        assert checks.gram_matrix(k, part).tobytes() == want.tobytes()


def test_tabulated_tables_of_other_dtypes_interpolate_in_float64():
    # a CovKernel built directly keeps its table's dtype: int64 and float32 here
    nodes = np.linspace(0, 1, 9)
    x = np.linspace(0, 1, 13)
    for table in (np.minimum.outer(np.arange(9), np.arange(9)),
                  np.minimum.outer(nodes, nodes).astype(np.float32)):
        k = cov.CovKernel(cov.TABULATED, table=table)
        got = checks.eval_grid(k, x, x)
        assert got.dtype == float and got.tobytes() == four_corner(table, x, x).tobytes()


def test_tabulated_gram_holds_about_two_full_size_arrays():
    # the interpolant and one gathered corner term, then the corners and
    # their first difference: about 2 N^2 floats, where four corner terms
    # and their weighted products made about 7
    k = cov.tabulated_from_fn(lambda S, T: np.minimum(S, T) ** 1.3, 100)
    level = 9
    square = 8 * 4**level
    part = cov.dyadic_partition(level)
    tracemalloc.start()
    try:
        checks.gram_matrix(k, part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * square, f"{peak / square:.2f} N^2 floats"


def test_tabulated_continuity_under_refinement():
    # finer tables approximate a smooth covariance increasingly well
    target = cov.fractional_brownian(0.3)
    pts = np.linspace(0, 1, 41)
    errs = []
    for mesh in (8, 32, 128):
        approx = cov.tabulated_from_fn(
            lambda S, T: 0.5 * (S**0.6 + T**0.6 - np.abs(S - T) ** 0.6), mesh
        )
        diff = checks.eval_grid(approx, pts, pts) - checks.eval_grid(target, pts, pts)
        errs.append(float(np.max(np.abs(diff))))
    assert errs[0] > errs[1] > errs[2]


def test_table_csv_roundtrip(tmp_path):
    mesh = 4
    nodes = np.linspace(0, 1, mesh + 1)
    lines = ["s,t,value"]
    for s in nodes:
        for t in nodes:
            lines.append(f"{s},{t},{min(s, t)}")
    path = tmp_path / "kernel.csv"
    path.write_text("\n".join(lines) + "\n")
    k = cov.load_table_csv(path)
    assert checks.eval(k, 0.5, 0.75) == pytest.approx(0.5, abs=1e-12)


def test_table_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,0,0\n")
    with pytest.raises(ShapeError):
        cov.load_table_csv(path)
    path.write_text("s,t,value\n0,0,0\n0,1,0\n1,0,0\n")
    with pytest.raises(ShapeError):
        cov.load_table_csv(path)


def off_mesh_table_lines():
    """A 4-step table listing t = 0.3 in place of the node 0.25, its values those of the node."""
    nodes = np.linspace(0, 1, 5)
    return ["s,t,value"] + [
        f"{s},{0.3 if t == 0.25 else t},{min(s, t)}" for s in nodes for t in nodes
    ]


def test_table_points_off_the_mesh_are_rejected(tmp_path):
    path = tmp_path / "off.csv"
    path.write_text("\n".join(off_mesh_table_lines()) + "\n")
    with pytest.raises(ShapeError, match=r"\(0.0, 0.3\) is off the uniform 4-step mesh"):
        cov.load_table_csv(path)
    # within 1e-12 of a node is on it; a lone s value is no mesh
    nodes = np.linspace(0, 1, 5)
    near = ["s,t,value"] + [f"{float(s) + 5e-13!r},{t},{min(s, t)}" for s in nodes for t in nodes]
    path.write_text("\n".join(near) + "\n")
    assert cov.load_table_csv(path).table[2, 3] == 0.5
    for text in ("s,t,value\n0,0,1\n", "s,t,value\n0,0,0\n0,1,0\n1,0,0\nnan,1,0\n"):
        path.write_text(text)
        with pytest.raises(ShapeError):
            cov.load_table_csv(path)


def _forbid_grams(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("Gram built for a kernel that must be rejected")

    monkeypatch.setattr(checks, "gram_matrix", forbidden)
    monkeypatch.setattr(cov, "level_gram", forbidden)


def test_weight_coefficient_must_have_a_finite_square(monkeypatch):
    _forbid_grams(monkeypatch)
    # 1e200 ** 2 raises OverflowError on a Python float; the check must not
    for coeff in (float("nan"), float("inf"), -float("inf"), 1e200, -1e155):
        with pytest.raises(ParameterError, match="finite square"):
            cov.weighted_poly(1, coeff)
        with pytest.raises(ParameterError, match="finite square"):
            cov.parse_kernel_spec(f"weighted degree=1 coeff={coeff!r}")
    assert cov.weighted_poly(1, 1e150).weight.norm_sq == pytest.approx(1e300 / 3)


def test_tables_with_non_finite_values_are_rejected(tmp_path, monkeypatch):
    _forbid_grams(monkeypatch)
    nodes = np.linspace(0, 1, 5)
    for bad in (float("nan"), float("inf"), -float("inf")):
        values = np.minimum.outer(nodes, nodes)
        values[2, 3] = bad
        with pytest.raises(ParameterError, match="1 non-finite"):
            cov.tabulated(values)
        # in a CSV file the same value is reported as non-finite, not as a gap in the mesh
        lines = ["s,t,value"] + [
            f"{s},{t},{float(values[i, j])!r}" for i, s in enumerate(nodes) for j, t in enumerate(nodes)
        ]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParameterError, match="1 non-finite"):
            cov.load_table_csv(path)


def test_asymmetric_tables_are_rejected(tmp_path, monkeypatch):
    # Cholesky reads one triangle of the Gram, so this table would otherwise
    # yield a spectrum and a Monte Carlo variance from its lower triangle alone
    _forbid_grams(monkeypatch)
    nodes = np.linspace(0, 1, 9)
    S, T = np.meshgrid(nodes, nodes, indexing="ij")
    values = np.minimum(S, T) + 0.3 * S * (T - S)
    assert np.max(np.abs(values - values.T)) == pytest.approx(0.3)
    with pytest.raises(ParameterError, match="not symmetric"):
        cov.tabulated(values)
    lines = ["s,t,value"] + [
        f"{s},{t},{float(values[i, j])!r}" for i, s in enumerate(nodes) for j, t in enumerate(nodes)
    ]
    path = tmp_path / "asym.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParameterError, match="not symmetric"):
        cov.load_table_csv(path)
    # rounding-level asymmetry, below 1e-12 of max|R|, is accepted
    nearly = np.minimum(S, T)
    nearly[1, 2] += 1e-14
    assert cov.tabulated(nearly).kind == cov.TABULATED


# ---------------------------------------------------------------------------
# kernel specs
# ---------------------------------------------------------------------------

def test_parse_kernel_spec_forms():
    for text in ("brownian", " brownian ", "weighted degree=0", "weighted  degree=0\tcoeff=1"):
        k = cov.parse_kernel_spec(text)
        assert k.kind == cov.WEIGHTED and (k.weight.degree, k.weight.coeff) == (0, 1.0), text
    k = cov.parse_kernel_spec("fbm hurst=0.35")
    assert k.kind == cov.FBM and k.hurst == 0.35
    k = cov.parse_kernel_spec("fbm hurst=0.2")
    assert k.hurst == 0.2
    k = cov.parse_kernel_spec("weighted degree=1")
    assert k.weight.degree == 1 and k.weight.coeff == 1.0


def test_parse_kernel_spec_errors():
    # one grammar: the kind comes first and bare, then whitespace-separated
    # key=value fields; no kind= or weight= key, no comma, no bare field
    cases = {
        "": "unknown kernel kind ''",
        "sinusoid": "unknown kernel kind 'sinusoid'",
        "kind=fbm hurst=0.35": "unknown kernel kind 'kind=fbm'",
        "kind=brownian": "unknown kernel kind 'kind=brownian'",
        "hurst=0.35 fbm": "unknown kernel kind 'hurst=0.35'",
        "fbm,hurst=0.35": "unknown kernel kind 'fbm,hurst=0.35'",
        "weighted weight=poly degree=1": "unknown key 'weight'",
        "fbm kind=fbm hurst=0.35": "unknown key 'kind'",
        "brownian bogus=1": "unknown key 'bogus'",
        "tabulated mesh=16": "unknown key 'mesh'",
        "fbm hurst=0.35 extra": "stray token 'extra'",
        "weighted 1": "stray token '1'",
        "fbm": "requires hurst=",
        "tabulated": "requires path=",
    }
    for text, message in cases.items():
        with pytest.raises(ParameterError, match=message):
            cov.parse_kernel_spec(text)


def test_parse_kernel_spec_rejects_a_repeated_key():
    # no key is read last-wins, not even one repeated with its own value
    cases = {
        "fbm hurst=0.3 hurst=0.4": "hurst",
        "fbm hurst=0.3 hurst=0.3": "hurst",
        "weighted degree=1 coeff=2 degree=2": "degree",
        "tabulated path=a.csv path=b.csv": "path",
    }
    for text, key in cases.items():
        with pytest.raises(ParameterError, match=f"repeated key '{key}'"):
            cov.parse_kernel_spec(text)


def test_kernel_spec_string_roundtrip():
    cases = {
        "brownian": cov.brownian(),
        "fbm hurst=0.3512345": cov.fractional_brownian(0.3512345),
        "weighted degree=2 coeff=2.5": cov.weighted_poly(2, 2.5),
        "weighted degree=0 coeff=3": cov.weighted_poly(0, 3.0),
    }
    for spec, kernel in cases.items():
        assert cov.kernel_spec_string(kernel) == spec
        again = cov.parse_kernel_spec(spec)
        assert (again.kind, again.hurst, again.weight) == (kernel.kind, kernel.hurst,
                                                          kernel.weight), spec
        assert cov.kernel_spec_string(again) == spec


@settings(max_examples=200, deadline=None)
@given(
    hurst=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    degree=st.integers(min_value=0, max_value=30),
    coeff=st.floats(min_value=-1e150, max_value=1e150, allow_nan=False),
)
def test_kernel_spec_string_rebuilds_every_parameter_exactly(hurst, degree, coeff):
    # the echo is the record a run is reproduced from: it must not round
    fbm = cov.parse_kernel_spec(cov.kernel_spec_string(cov.fractional_brownian(hurst)))
    assert fbm.hurst == hurst
    weighted = cov.parse_kernel_spec(cov.kernel_spec_string(cov.weighted_poly(degree, coeff)))
    assert (weighted.weight.degree, weighted.weight.coeff) == (degree, coeff)
    assert np.signbit(weighted.weight.coeff) == np.signbit(coeff)


def test_brownian_is_the_unit_constant_weight():
    # not a kind: brownian() is weighted_poly(0), echoed as brownian
    with pytest.raises(ParameterError, match="unknown kernel kind 'brownian'"):
        cov.CovKernel("brownian")
    brownian = cov.brownian()
    assert brownian.kind == cov.WEIGHTED and brownian.weight == cov.PolyWeight(0, 1.0)
    for kernel in (brownian, cov.weighted_poly(0), cov.weighted_poly(0, 1.0)):
        assert cov.kernel_spec_string(kernel) == "brownian"
        again = cov.parse_kernel_spec(cov.kernel_spec_string(kernel))
        assert again.kind == cov.WEIGHTED and again.weight == kernel.weight
    # other constant weights, -1 among them, keep their weighted echo
    for coeff in (-1.0, 2.0, 0.0):
        assert cov.kernel_spec_string(cov.weighted_poly(0, coeff)).startswith("weighted")
    # the unit weight's values are min(s, t) and 2^-level to the bit
    x = np.linspace(0.0, 1.0, 33)
    assert np.array_equal(checks.eval_grid(brownian, x, x), np.minimum.outer(x, x))
    assert np.array_equal(cov.level_gram(brownian, 12).values, np.full(4096, 2.0**-12))


def test_constant_weight_is_read_off_the_spec():
    assert cov.constant_weight(cov.brownian()) == 1.0
    for coeff in (0.3, 2.0, 0.0, -1.5):
        assert cov.constant_weight(cov.weighted_poly(0, coeff)) == coeff
    # a weight of higher degree, fBm and a table of min(s, t) are not constant weights
    table = cov.tabulated(np.minimum.outer(*2 * [np.linspace(0.0, 1.0, 9)]))
    for kernel in (cov.weighted_poly(1), cov.fractional_brownian(0.5), table):
        assert cov.constant_weight(kernel) is None


def test_kernel_spec_string_keeps_short_numbers_short():
    assert cov.kernel_spec_string(cov.fractional_brownian(0.35)) == "fbm hurst=0.35"
    assert cov.kernel_spec_string(cov.weighted_poly(1)) == "weighted degree=1 coeff=1"
    assert cov.kernel_spec_string(cov.weighted_poly(2, 100.0)).endswith(" coeff=100")
    assert cov.kernel_spec_string(cov.fractional_brownian(0.3512345)).endswith("hurst=0.3512345")


def test_variation_index():
    assert cov.variation_index(cov.brownian()) == 1.0
    assert cov.variation_index(cov.fractional_brownian(0.35)) == pytest.approx(1 / 0.7)
    assert cov.variation_index(cov.fractional_brownian(0.75)) == 1.0
    assert cov.variation_index(cov.weighted_poly(1)) == 1.0
    assert cov.variation_index(cov.tabulated_from_fn(lambda S, T: S * T, 4)) is None
