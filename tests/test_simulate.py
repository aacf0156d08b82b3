import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levylab.checks as checks
import levylab.covariance as cov
import levylab.levy_kernel as lk
import levylab.simulate as sim
import levylab.spectral as sp
from levylab.errors import NumericalError, ParameterError, ResourceError, ShapeError

#: the largest level whose N x N float64 Gram fits covariance.MAX_GRAM_BYTES
DENSE_TOP = max(n for n in range(32) if 8 * 4**n <= cov.MAX_GRAM_BYTES)

#: the level Gram base class and its three structures
GRAM_CLASSES = (cov.LevelGram, cov.DiagonalGram, cov.ToeplitzGram, cov.FactoredGram)


def forbid_gram_methods(monkeypatch, names, forbidden):
    """Patch each named method on every level Gram class that defines it, so
    that no structure's override escapes the patch; returns how many were patched."""
    patched = 0
    for cls in GRAM_CLASSES:
        for name in names:
            if name in vars(cls):
                monkeypatch.setattr(cls, name, forbidden)
                patched += 1
    return patched


def brownian_config(seed=11, n_samples=100, level=5):
    return sim.MCConfig(
        seed=seed,
        n_samples=n_samples,
        level=level,
        kernel1=cov.brownian(),
        kernel2=cov.brownian(),
    )


def weighted_config(seed=11, n_samples=100, level=5):
    """u-weighted Brownian kernels: a diagonal factor on run_mc's conditional route."""
    k = cov.weighted_poly(1)
    return sim.MCConfig(seed=seed, n_samples=n_samples, level=level, kernel1=k, kernel2=k)


# ---------------------------------------------------------------------------
# discrete_levy_area
# ---------------------------------------------------------------------------

def test_area_hand_computation():
    assert checks.discrete_levy_area([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert checks.discrete_levy_area([0.3, -0.2, 0.5], [0.3, -0.2, 0.5]) == 0.0


def test_area_swap_flips_sign_exactly():
    rng = np.random.default_rng(0)
    for _ in range(30):
        a = rng.normal(size=17)
        b = rng.normal(size=17)
        assert checks.discrete_levy_area(a, b) == -checks.discrete_levy_area(b, a)


def test_area_shape_error():
    with pytest.raises(ShapeError):
        checks.discrete_levy_area([1.0, 2.0], [1.0])
    with pytest.raises(ShapeError):
        checks.discrete_levy_area([[1.0]], [[1.0]])


# entries are 0 or at least 2^-200 in size: every prefix sum, product and
# difference then stays a normal float, where scaling by 2^k is exact (a
# subnormal one is rounded to a fixed absolute grid, and scaling it is not)
_NORMAL_ENTRY = st.floats(min_value=-3, max_value=3).map(
    lambda x: x if abs(x) >= 2.0**-200 else 0.0
)


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(st.tuples(_NORMAL_ENTRY, _NORMAL_ENTRY), min_size=2, max_size=24),
    scale_pow=st.integers(min_value=-3, max_value=3),
)
def test_area_antisymmetry_and_dyadic_scaling(vals, scale_pow):
    a = np.array([v[0] for v in vals])
    b = np.array([v[1] for v in vals])
    area = checks.discrete_levy_area(a, b)
    assert checks.discrete_levy_area(b, a) == -area
    # scaling by powers of two is exact in binary floating point
    c = 2.0**scale_pow
    assert checks.discrete_levy_area(c * a, b) == c * area


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(
        st.tuples(st.integers(-3000, 3000), st.integers(-3000, 3000)), min_size=2, max_size=24
    ),
    a=st.floats(min_value=0.1, max_value=10.0),
    b=st.floats(min_value=0.1, max_value=10.0),
    signs=st.tuples(st.sampled_from((-1.0, 1.0)), st.sampled_from((-1.0, 1.0))),
)
def test_area_antisymmetry_and_bilinear_scaling(vals, a, b, signs):
    # entries are 0 or at least 1e-3 in size, so no product underflows
    x = np.array([v[0] for v in vals]) / 1000.0
    y = np.array([v[1] for v in vals]) / 1000.0
    a, b = signs[0] * a, signs[1] * b
    area = checks.discrete_levy_area(x, y)
    assert checks.discrete_levy_area(y, x) == -area
    scaled = checks.discrete_levy_area(a * x, b * y)
    bound = 1e-12 * abs(a * b) * np.sum(np.abs(x)) * np.sum(np.abs(y))
    assert abs(scaled - a * b * area) <= bound


def test_area_general_scaling_close():
    rng = np.random.default_rng(1)
    a = rng.normal(size=40)
    b = rng.normal(size=40)
    area = checks.discrete_levy_area(a, b)
    assert checks.discrete_levy_area(1.7 * a, b) == pytest.approx(1.7 * area, rel=1e-12)


def test_area_prefix_sum_matches_quadratic_oracle():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        n = int(rng.integers(2, 48))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        fast = checks.discrete_levy_area(a, b)
        slow = sum(
            a[k] * b[l] - b[k] * a[l] for k in range(n) for l in range(k + 1, n)
        )
        assert fast == pytest.approx(slow, abs=1e-10)


def test_area_row_sum_matches_fsum_oracle():
    rng = np.random.default_rng(21)
    for n in (2**10, 2**14):
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        pa = np.concatenate(([0.0], np.cumsum(a[:-1])))
        pb = np.concatenate(([0.0], np.cumsum(b[:-1])))
        terms = b * pa - a * pb
        exact = math.fsum(terms)
        assert abs(checks.discrete_levy_area(a, b) - exact) <= 1e-13 * np.sum(np.abs(terms))


# ---------------------------------------------------------------------------
# increment samplers: the level Grams' factors
# ---------------------------------------------------------------------------

def _fgn_gamma(hurst, level):
    """fGn lags gamma(0..N) from 40-digit decimal powers, independent of levylab."""
    with localcontext() as ctx:
        ctx.prec = 40
        h2 = Decimal(2 * hurst)
        scale = (Decimal(2) ** -level) ** h2 / 2
        return np.array([
            float(scale * (Decimal(k + 1) ** h2 - 2 * Decimal(k) ** h2 + Decimal(abs(k - 1)) ** h2))
            for k in range(2**level + 1)
        ])


def _fgn_toeplitz(hurst, level):
    n = 2**level
    lags = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return _fgn_gamma(hurst, level)[lags]


def _fgn_cross_block(hurst, level):
    """Cov(y_k, y_{2N-1-l}) of one circulant draw y: the circulant of size 2N
    with first row gamma(0..N), gamma(N-1..1) has entry gamma(min(d, 2N - d))
    at circular distance d."""
    n = 2**level
    d = (2 * n - 1 - np.arange(n)[None, :] - np.arange(n)[:, None]) % (2 * n)
    return _fgn_gamma(hurst, level)[np.minimum(d, 2 * n - d)]


def _sampler_maps(kernel, level):
    """(G1, G2, X): the Grams of the even-row and odd-row maps and their cross
    block, from unit draws of 2 width normals fed as row pairs."""
    sampler = cov.level_gram(kernel, level)
    first, second, cross = checks.sampler_maps(sampler)  # F1^T, F2^T, F1 F2^T
    assert first.shape == second.shape == (2 * sampler.width, 2**level)
    return first.T @ first, second.T @ second, cross


def test_sampler_map_reproduces_gram():
    # fBm is compared with the exact Toeplitz Gram: gram_matrix differences
    # R values of size up to 1, so at H = 0.75 and level 8 its own entries
    # sit about 1.5e-12 (relative to max |G|) off the exact ones. Both rows of
    # a draw map to the Gram; the diagonal and table maps take rows one by
    # one, so their cross block is 0, while the circulant's two paths share
    # the draw through the circulant's off-diagonal block
    table = checks.eval_grid(cov.fractional_brownian(0.35), *2 * [np.linspace(0, 1, 257)])
    others = [cov.brownian(), cov.weighted_poly(1), cov.tabulated(table)]
    for level in range(1, 9):
        cases = [(k, checks.gram_matrix(k, cov.dyadic_partition(level)), 0.0) for k in others]
        cases += [
            (cov.fractional_brownian(h), _fgn_toeplitz(h, level), _fgn_cross_block(h, level))
            for h in (0.1, 0.35, 0.75)
        ]
        for kernel, gram, cross in cases:
            g1, g2, x = _sampler_maps(kernel, level)
            tol = 1e-12 * np.max(np.abs(gram))
            for what, got, want in (("even", g1, gram), ("odd", g2, gram), ("cross", x, cross)):
                err = np.max(np.abs(got - want))
                assert err <= tol, (kernel, level, what, err)


def test_sampler_quad_matches_the_dense_quadratic_form():
    # rows of h^T G h for random h and for h = sign_product(d), the rows
    # run_mc feeds to quad, against the dense level Gram
    table = checks.eval_grid(cov.fractional_brownian(0.35), *2 * [np.linspace(0, 1, 257)])
    kernels = [cov.brownian(), cov.weighted_poly(1), cov.fractional_brownian(0.35),
               cov.fractional_brownian(0.75), cov.tabulated(table)]
    rng = np.random.default_rng(41)
    for kernel in kernels:
        for level in range(1, 9):
            sampler = cov.level_gram(kernel, level)
            gram = sampler.dense()
            paths = sampler.apply(rng.normal(size=(4, sampler.width)))
            h = np.vstack((rng.normal(size=(4, 2**level)), lk.sign_product(paths.copy())))
            exact = np.einsum("ij,jk,ik->i", h, gram, h)
            got = sampler.quad(h.copy())
            assert np.all(np.abs(got - exact) <= 1e-13 * exact), (kernel, level)


def test_circulant_embedding_eigenvalues_nonnegative():
    for h in (0.01, 0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95, 0.99):
        kernel = cov.fractional_brownian(h)
        for level in range(1, 15):
            gamma = cov.level_gram(kernel, level).values
            lam = np.fft.rfft(np.concatenate((gamma, gamma[-2:0:-1]))).real
            assert lam.min() > 0.0, (h, level, lam.min())
            # one draw of 2^(level+1) normals, fed as a pair of rows of
            # 2^level, gives two paths
            sampler = cov.level_gram(kernel, level)
            assert sampler.width == 2**level and sampler.row_floats == 2 ** (level + 1)


def count_embeddings(monkeypatch):
    """A list that grows by one for each 1-d np.fft.rfft call: a circulant
    embedding's eigenvalues; apply and quad transform 2-d rows."""
    calls, rfft = [], np.fft.rfft

    def counting_rfft(a, *args, **kwargs):
        if np.ndim(a) == 1:
            calls.append(len(a))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    return calls


def test_indefinite_circulant_embedding_raises(monkeypatch):
    # first row (1, 2, 0, 2) has eigenvalue 1 - 2 + 0 - 2 = -3: building the
    # Gram takes no FFT, and its first apply or quad computes and refuses it
    embeddings = count_embeddings(monkeypatch)
    lags = np.array([1.0, 2.0, 0.0])
    for first_use in (lambda g: g.apply(np.ones((2, 2))), lambda g: g.quad(np.ones((2, 2))),
                      lambda g: g.prepare()):
        gram = cov.ToeplitzGram(1, lags)
        assert embeddings == []
        with pytest.raises(NumericalError, match="indefinite"):
            first_use(gram)
        assert embeddings == [4]
        embeddings.clear()


def test_an_indefinite_embedding_is_refused_before_any_draw(monkeypatch):
    # the samplers are prepared on the calling thread: no normal is drawn
    def forbidden(*args, **kwargs):
        raise AssertionError("normals drawn before the embedding was checked")

    monkeypatch.setattr(cov, "level_gram", lambda kernel, level: cov.ToeplitzGram(
        level, np.array([1.0, 2.0, 0.0])))
    monkeypatch.setattr(sim, "_fill", forbidden)
    fbm = cov.fractional_brownian(0.35)
    config = sim.MCConfig(seed=1, n_samples=2 * sim.BATCH, level=1, kernel1=fbm, kernel2=fbm)
    for run in (lambda: sim.run_mc(config, threads=2), lambda: sim.sample_paths(config)):
        with pytest.raises(NumericalError, match="indefinite"):
            run()


def test_circulant_eigenvalues_are_built_on_first_use_only(monkeypatch):
    embeddings = count_embeddings(monkeypatch)
    # the p-variation sum reads the lags alone
    fbm = cov.fractional_brownian(0.35)
    assert cov.level_gram(fbm, 20).abs_power_sum(1 / 0.7) > 0.0
    assert embeddings == []
    # one run: once per distinct kernel, before the workers, not once per worker or chunk
    other = cov.fractional_brownian(0.75)
    for k2, count in ((fbm, 1), (cov.fractional_brownian(0.35), 2), (other, 2)):
        embeddings.clear()
        config = sim.MCConfig(seed=3, n_samples=3 * sim.BATCH, level=8, kernel1=fbm, kernel2=k2)
        sim.run_mc(config, threads=3)
        assert embeddings == [2**9] * count, (k2, embeddings)


def test_independent_increments_skip_the_gram(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense Gram route taken")

    monkeypatch.setattr(checks, "gram_matrix", forbidden)
    monkeypatch.setattr(cov, "_table_factor", forbidden)
    assert forbid_gram_methods(monkeypatch, ["dense"], forbidden) == 3
    for kernel in (cov.brownian(), cov.weighted_poly(1), cov.fractional_brownian(0.35)):
        config = sim.MCConfig(seed=4, n_samples=5, level=6, kernel1=kernel, kernel2=kernel)
        inc1, _ = sim.sample_paths(config)
        assert inc1.shape == (5, 64)


def test_tabulated_level_cap_fires_before_any_gram(monkeypatch):
    tab = cov.tabulated(checks.eval_grid(cov.brownian(), *2 * [np.linspace(0, 1, 17)]))

    def forbidden(*args, **kwargs):
        raise AssertionError("Gram built before the level cap was checked")

    # level_gram checks the level itself: every builder it calls is forbidden
    for name in ("dyadic_partition", "_fgn_autocovariance", "_table_factor"):
        monkeypatch.setattr(cov, name, forbidden)
    monkeypatch.setattr(checks, "gram_matrix", forbidden)
    for level in (DENSE_TOP + 1, sim.MAX_LEVEL):
        for k2 in (tab, cov.brownian()):
            config = sim.MCConfig(seed=1, n_samples=3, level=level, kernel1=tab, kernel2=k2)
            with pytest.raises(ResourceError):
                sim.run_mc(config)
            with pytest.raises(ResourceError):
                sim.sample_paths(config)


# ---------------------------------------------------------------------------
# sample_paths
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ParameterError):
        brownian_config(n_samples=0)
    with pytest.raises(ParameterError):
        brownian_config(level=15)
    with pytest.raises(ParameterError):
        brownian_config(level=0)
    # the areas take 8 bytes per sample, within MAX_GRAM_BYTES: 2^24 samples
    # construct (and are not run), one more is refused
    assert brownian_config(n_samples=2**24).n_samples == 2**24
    with pytest.raises(ResourceError):
        brownian_config(n_samples=2**24 + 1)


def test_sample_paths_shapes_and_determinism():
    config = brownian_config(seed=42, n_samples=20, level=4)
    inc1a, inc2a = sim.sample_paths(config)
    inc1b, inc2b = sim.sample_paths(config)
    assert inc1a.shape == (20, 16)
    assert np.array_equal(inc1a, inc1b)
    assert np.array_equal(inc2a, inc2b)
    # the two processes use distinct streams
    assert not np.array_equal(inc1a, inc2a)


def test_sample_paths_seed_sensitivity():
    a = sim.sample_paths(brownian_config(seed=1, n_samples=4, level=4))[0]
    b = sim.sample_paths(brownian_config(seed=2, n_samples=4, level=4))[0]
    assert not np.array_equal(a, b)


def test_brownian_increment_variance():
    level = 8
    config = brownian_config(seed=5, n_samples=2000, level=level)
    inc1, _ = sim.sample_paths(config)
    target = 2.0**-level
    est = float(np.var(inc1))
    count = inc1.size
    se = target * np.sqrt(2.0 / (count - 1))
    assert abs(est - target) <= 3.0 * se


def test_fbm_lag1_increment_correlation():
    # stationary increments: corr(d_k, d_{k+1}) = 2^{2H-1} - 1 at every level
    h = 0.75
    target = 2.0 ** (2 * h - 1) - 1.0
    config = sim.MCConfig(
        seed=9,
        n_samples=1500,
        level=6,
        kernel1=cov.fractional_brownian(h),
        kernel2=cov.fractional_brownian(h),
    )
    inc1, _ = sim.sample_paths(config)
    x = inc1[:, :-1].ravel()
    y = inc1[:, 1:].ravel()
    est = float(np.corrcoef(x, y)[0, 1])
    z_est, z_target = np.arctanh(est), np.arctanh(target)
    se = 1.0 / np.sqrt(len(x) - 3)
    assert abs(z_est - z_target) <= 3.0 * se


def fbm_config(seed=9, n_samples=100, level=6, hurst=0.35):
    k = cov.fractional_brownian(hurst)
    return sim.MCConfig(seed=seed, n_samples=n_samples, level=level, kernel1=k, kernel2=k)


def test_fbm_pairs_share_one_circulant_draw():
    # samples 2j and 2j + 1 of batch b take rows 2j and 2j + 1 of stream 2 b:
    # one draw z of 2N normals, y = H (sqrt(lam / 2N) z) with H the Hartley
    # matrix; sample 2j is y[0:N], sample 2j + 1 is y[2N-1], ..., y[N]
    level, seed = 4, 7
    n = 2**level
    config = fbm_config(seed=seed, n_samples=sim.BATCH + 4, level=level)
    inc1 = sim.sample_paths(config)[0]
    gamma = _fgn_gamma(0.35, level)
    lam = np.fft.fft(np.concatenate((gamma, gamma[-2:0:-1]))).real
    angle = np.pi * np.outer(np.arange(2 * n), np.arange(2 * n)) / n
    hartley = np.cos(angle) + np.sin(angle)
    for b in (0, 1):
        key = np.random.SeedSequence(seed, spawn_key=(2 * b,))
        draws = np.random.Generator(np.random.SFC64(key)).standard_normal((2, 2 * n))
        for j, z in enumerate(draws):
            y = hartley @ (np.sqrt(lam / (2 * n)) * z)
            i = b * sim.BATCH + 2 * j
            assert np.allclose(inc1[i], y[:n], rtol=0, atol=1e-13), (b, j)
            assert np.allclose(inc1[i + 1], y[: n - 1 : -1], rtol=0, atol=1e-13), (b, j)


def test_fbm_bits_do_not_depend_on_the_count_or_threads():
    # a pair draws whole: the last sample of an odd count takes the second
    # row of its draw from the stream, not from the zero padding
    for n in (sim.BATCH - 2, sim.BATCH - 1, 2 * sim.BATCH + 332, 2 * sim.BATCH + 333):
        one_more = sim.run_mc(fbm_config(seed=43, n_samples=n + 1, level=6)).samples
        config = fbm_config(seed=43, n_samples=n, level=6)
        areas = sim.run_mc(config, threads=1).samples
        assert np.array_equal(areas, one_more[:n]), n
        for threads in (2, 3):
            assert np.array_equal(sim.run_mc(config, threads=threads).samples, areas), (n, threads)
    for n in (5, 6):
        small, large = (sim.sample_paths(fbm_config(seed=43, n_samples=m, level=6))
                        for m in (n, n + 1))
        for a, b in zip(small, large):
            assert np.array_equal(a, b[:n]), n


def test_fbm_rows_do_not_depend_on_batching():
    for n_small, n_large in ((3, sim.BATCH + 7), (sim.BATCH + 3, 2 * sim.BATCH + 5)):
        small = fbm_config(seed=31, n_samples=n_small, level=9)
        large = fbm_config(seed=31, n_samples=n_large, level=9)
        for a, b in zip(sim.sample_paths(small), sim.sample_paths(large)):
            assert np.array_equal(a, b[:n_small])
        assert np.array_equal(
            sim.run_mc(small).samples, sim.run_mc(large).samples[:n_small]
        )


def test_tabulated_rows_agree_across_threads_and_sample_counts():
    # the factored map multiplies through BLAS, whose bits can change with a
    # chunk's row count; every chunk is zero-padded to the full row count, so
    # a table's samples and paths too depend only on (seed, i)
    table = cov.tabulated_from_fn(lambda S, T: 0.5 * (S**0.7 + T**0.7 - np.abs(S - T) ** 0.7), 256)
    for level in (6, 8, 10):
        small, large = [sim.MCConfig(seed=3, n_samples=n, level=level, kernel1=table, kernel2=table)
                        for n in (sim.BATCH + 3, 2 * sim.BATCH + 333)]
        areas = sim.run_mc(large, threads=1).samples
        assert np.array_equal(sim.run_mc(large, threads=3).samples, areas)
        assert np.array_equal(sim.run_mc(small).samples, areas[: small.n_samples]), level
        if level < 10:  # the level-10 paths would hold about 200 MB
            for a, b in zip(sim.sample_paths(small), sim.sample_paths(large)):
                assert np.array_equal(a, b[: small.n_samples]), level


def test_batch_stream_key_pin():
    # process p of batch b draws row-major from SFC64(SeedSequence(seed, spawn_key=(2 b + p,)))
    for seed in (11, 2**63 + 3):
        config = brownian_config(seed=seed, n_samples=sim.BATCH + 2, level=4)
        paths = sim.sample_paths(config)
        for b in (0, 1):
            for p, inc in enumerate(paths):
                key = np.random.SeedSequence(seed, spawn_key=(2 * b + p,))
                normals = np.random.Generator(np.random.SFC64(key)).standard_normal((2, 16))
                rows = inc[b * sim.BATCH : b * sim.BATCH + 2]
                assert np.array_equal(rows, np.sqrt(2.0**-4) * normals)
        first = [inc[b * sim.BATCH] for inc in paths for b in (0, 1)]
        assert all(not np.array_equal(x, y) for i, x in enumerate(first) for y in first[i + 1 :])


def test_outputs_do_not_depend_on_chunk_size(monkeypatch):
    configs = [
        weighted_config(seed=5, n_samples=sim.BATCH + 9, level=4),
        fbm_config(seed=5, n_samples=sim.BATCH + 9, level=4),
    ]
    reference = [(sim.sample_paths(c), sim.run_mc(c).samples) for c in configs]
    # the smallest chunk is one pair of rows, one circulant draw
    for config, (paths, areas) in zip(configs, reference):
        width = max(s.row_floats for s in sim._samplers(config))
        for rows in (2, 4):
            monkeypatch.setattr(sim, "CHUNK_ELEMENTS", rows * width)
            assert sim._chunk_rows(sim._samplers(config)) == rows
            for a, b in zip(sim.sample_paths(config), paths):
                assert np.array_equal(a, b)
            assert np.array_equal(sim.run_mc(config).samples, areas)


def _one_row_areas(config):
    """Areas from one-row _conditional_areas calls on the sample_paths rows of
    process 1, with xi read from stream 2 b + 1 of each batch b in sample order."""
    inc1 = sim.sample_paths(config)[0]
    sampler2 = sim._samplers(config)[1]
    areas = []
    for b, batch_start in enumerate(range(0, config.n_samples, sim.BATCH)):
        key = np.random.SeedSequence(config.seed, spawn_key=(2 * b + 1,))
        count = min(sim.BATCH, config.n_samples - batch_start)
        xi = np.random.Generator(np.random.SFC64(key)).standard_normal(count)
        for row, x in zip(inc1[batch_start:], xi):
            areas.append(sim._conditional_areas(row[None, :].copy(), sampler2, np.array([x]))[0])
    return np.array(areas)


def test_level_14_areas_do_not_depend_on_chunk_rows(monkeypatch):
    # N = 16384 is above the size where OpenBLAS threads its dot product. The
    # row sums stay numpy's pairwise sum(axis=1): at this N, np.vecdot (through
    # OpenBLAS ddot) gave different bits under OPENBLAS_NUM_THREADS=1 and 2,
    # and np.einsum("ij,ij->i") different bits for a 1-row than a 64-row call
    configs = [weighted_config(seed=29, n_samples=5, level=14),
               fbm_config(seed=29, n_samples=5, level=14)]
    reference = [sim.run_mc(c).samples for c in configs]
    for config, areas in zip(configs, reference):
        assert np.array_equal(_one_row_areas(config), areas)
    for elements in (2**15, 2**17):
        monkeypatch.setattr(sim, "CHUNK_ELEMENTS", elements)
        for config, areas in zip(configs, reference):
            assert np.array_equal(sim.run_mc(config).samples, areas)


def test_sample_paths_rows_give_the_run_mc_areas():
    # at level 10 and the default chunk size a batch takes many chunks, whose
    # buffers are reused; sample_paths must copy them out, not return views.
    # run_mc draws each area given process 1's path, which is the sample_paths
    # row, from the next normal of stream 2 b + 1
    config = weighted_config(seed=19, n_samples=sim.BATCH + 5, level=10)
    assert sim._chunk_rows(sim._samplers(config)) < sim.BATCH // 8
    inc1, inc2 = sim.sample_paths(config)
    assert np.array_equal(_one_row_areas(config), sim.run_mc(config).samples)
    again = sim.sample_paths(config)
    pairs = [(inc1, inc2)] + [(x, y) for x in (inc1, inc2) for y in again]
    assert not any(np.shares_memory(x, y) for x, y in pairs)


# ---------------------------------------------------------------------------
# the Brownian midpoint-refinement chain
# ---------------------------------------------------------------------------

#: seed of test_brownian_chain_matches_the_exact_level_law, fixed before its first run
CHAIN_LAW_SEED = 2027


def test_brownian_chain_matches_the_exact_level_law():
    # levels 1 and 2 draw no chi-square, level 3 one pair: the edge levels of the chain
    for level in (1, 2, 3, 4, 10):
        samples = sim.run_mc(brownian_config(seed=CHAIN_LAW_SEED, n_samples=2**18,
                                             level=level)).samples
        spectrum = sp.brownian_spectrum(2**level)
        for t in (0.5, 1.0, 2.0, 3.0):
            z = checks.cf_z_scores(samples, t, sp.cf_from_spectrum(spectrum, 1j * t).value)
            assert max(map(abs, z)) <= 4.0, (level, t, z)


def _chain_row_by_hand(seed, level, i):
    """Area of sample i from scalar draws of its batch's two streams: normals
    g0, g1, u_j, w_j row-major from stream 2 b, chi-squares c_j, c'_j with
    2^j - 1 degrees of freedom row-major from stream 2 b + 1."""
    b, row = divmod(i, sim.BATCH)
    normals, chis = (np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=(2 * b + p,)))) for p in (0, 1))
    for _ in range(row + 1):
        g = normals.standard_normal(2 * level + 2).tolist()
        c = [float(chis.chisquare(2**j - 1)) for j in range(1, level - 1) for _ in (0, 1)]
    p, q, area = g[0] * g[0], g[1] * g[1], 0.0
    for j in range(level):
        u, w = g[2 * j + 2], g[2 * j + 3]
        area += (u * math.sqrt(q) - w * math.sqrt(p)) * (0.5 * math.sqrt(2.0**-j))
        if 0 < j < level - 1:
            p = (p + (u * u + c[2 * j - 2]) * 2.0**-j) * 0.5
            q = (q + (w * w + c[2 * j - 1]) * 2.0**-j) * 0.5
        elif j == 0:
            p, q = (p + u * u) * 0.5, (q + w * w) * 0.5
    return area


def test_brownian_chain_stream_layout_pin():
    for seed, level in ((11, 1), (11, 3), (2**63 + 3, 6), (5, 10)):
        areas = sim.run_mc(brownian_config(seed=seed, n_samples=sim.BATCH + 3, level=level)).samples
        for i in (0, 2, sim.BATCH + 2):
            assert areas[i] == _chain_row_by_hand(seed, level, i), (seed, level, i)


def test_brownian_chain_bits_do_not_depend_on_threads_counts_or_chunks(monkeypatch):
    for level in (2, 10, 14):
        large = brownian_config(seed=41, n_samples=2 * sim.BATCH + 333, level=level)
        areas = sim.run_mc(large, threads=1).samples
        for threads in (2, 3):
            assert np.array_equal(sim.run_mc(large, threads=threads).samples, areas)
        small = brownian_config(seed=41, n_samples=sim.BATCH + 3, level=level)
        assert np.array_equal(sim.run_mc(small).samples, areas[: small.n_samples])
        for elements in (64, 2**10, 2**17):
            monkeypatch.setattr(sim, "CHUNK_ELEMENTS", elements)
            assert np.array_equal(sim.run_mc(large).samples, areas), (level, elements)
        monkeypatch.undo()


def test_run_mc_route_is_read_off_the_kernel_kinds(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("conditional route taken")

    monkeypatch.setattr(cov, "level_gram", forbidden)
    monkeypatch.setattr(lk, "sign_product", forbidden)
    assert sim.run_mc(brownian_config(seed=1, n_samples=50, level=12)).samples.shape == (50,)
    # a Brownian process paired with fBm, and weighted kernels of degree 1
    # (diagonal Grams like the Brownian one), keep the conditional route
    mixed = sim.MCConfig(seed=1, n_samples=5, level=4, kernel1=cov.brownian(),
                         kernel2=cov.fractional_brownian(0.35))
    for config in (mixed, weighted_config(seed=1, n_samples=5, level=4)):
        with pytest.raises(AssertionError, match="conditional route taken"):
            sim.run_mc(config)


def test_constant_weights_take_the_chain(monkeypatch):
    # c1 W1, c2 W2 have the area c1 c2 A: the Brownian chain's areas of the
    # same seed times c1 c2, to the bit, with no Gram or path formed
    def forbidden(*args, **kwargs):
        raise AssertionError("conditional route taken")

    brownian = sim.run_mc(brownian_config(seed=7, n_samples=sim.BATCH + 5, level=6)).samples
    monkeypatch.setattr(cov, "level_gram", forbidden)
    monkeypatch.setattr(lk, "sign_product", forbidden)
    for c1, c2 in ((0.3, 0.3), (2.0, 2.0), (0.0, 0.0), (0.3, 2.0), (1.0, 0.5)):
        config = sim.MCConfig(seed=7, n_samples=sim.BATCH + 5, level=6,
                              kernel1=cov.weighted_poly(0, c1), kernel2=cov.weighted_poly(0, c2))
        for threads in (1, 2):
            areas = sim.run_mc(config, threads=threads).samples
            assert np.array_equal(areas, (c1 * c2) * brownian), (c1, c2, threads)
    # a power of two scales every bit, the exponent only
    config = sim.MCConfig(seed=7, n_samples=sim.BATCH + 5, level=6,
                          kernel1=cov.weighted_poly(0, 2.0), kernel2=cov.weighted_poly(0, 0.5))
    assert np.array_equal(sim.run_mc(config).samples, brownian)


# ---------------------------------------------------------------------------
# run_mc / empirical_cf
# ---------------------------------------------------------------------------

def test_run_mc_scratch_is_bounded():
    # one worker holds at most two chunk arrays of CHUNK_ELEMENTS floats at
    # once: the normal buffer or a table's path d1 = z F^T, and one FFT of its
    # rows or sign_product's slab product (at most one chunk); the Brownian
    # chain's normals and chi-squares fill one chunk together; one more chunk
    # covers the samplers' vectors and small temporaries at these levels, and
    # run_mc adds the areas, into which it draws the xi. A 16-step table's
    # factor is only N x 16, so its chunk rows are set by the N-wide path
    n = 2 * sim.BATCH + 7
    bound = 3 * sim.CHUNK_ELEMENTS * 8 + 8 * n
    table = cov.tabulated_from_fn(lambda S, T: np.minimum(S, T) ** 1.3, 16)
    sim.run_mc(brownian_config(n_samples=1, level=1))  # lazy numpy imports are not scratch
    for config in (brownian_config(seed=3, n_samples=n, level=10),
                   weighted_config(seed=3, n_samples=n, level=10),
                   fbm_config(seed=3, n_samples=n, level=12),
                   sim.MCConfig(seed=3, n_samples=n, level=10, kernel1=table, kernel2=table)):
        tracemalloc.start()
        try:
            sim.run_mc(config, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (config.level, peak, bound)


def test_run_mc_thread_count_is_bit_invariant():
    config = brownian_config(seed=3, n_samples=sim.BATCH + 100, level=4)
    r1 = sim.run_mc(config, threads=1)
    r2 = sim.run_mc(config, threads=4)
    assert np.array_equal(r1.samples, r2.samples)
    assert r1.mean == r2.mean and r1.variance == r2.variance


def test_overflowing_run_fails_after_one_batch(monkeypatch):
    # each batch tests its own areas, so an overflowing kernel stops after
    # the first batch instead of drawing all 16
    calls = []
    streams = sim._streams

    def counting(config, b):
        calls.append(b)
        return streams(config, b)

    monkeypatch.setattr(sim, "_streams", counting)
    # one kernel per route whose areas overflow: on the conditional route
    # h^T G2 h overflows, on the chain c1 c2 = 1e308 times the Brownian area
    for spec in ("kind=weighted degree=1 coeff=1e80", "kind=weighted degree=0 coeff=1e154"):
        kernel = cov.parse_kernel_spec(spec)
        config = sim.MCConfig(seed=0, n_samples=16 * sim.BATCH, level=10, kernel1=kernel,
                              kernel2=kernel)
        with pytest.raises(NumericalError, match="areas of batch 0 are not finite"):
            sim.run_mc(config, threads=1)
        assert calls == [0], spec
        calls.clear()


def test_run_mc_fbm_thread_count_is_bit_invariant():
    config = fbm_config(seed=12, n_samples=sim.BATCH + 100, level=5)
    r1 = sim.run_mc(config, threads=1)
    r2 = sim.run_mc(config, threads=2)
    assert np.array_equal(r1.samples, r2.samples)


def _record_pool_sizes(monkeypatch):
    """Replace run_mc's thread pool by an inline one; returns its max_workers log."""
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(sim, "ThreadPoolExecutor", RecordingPool)
    return seen


def test_run_mc_clamps_workers_to_batches(monkeypatch):
    seen = _record_pool_sizes(monkeypatch)
    config = brownian_config(seed=3, n_samples=2 * sim.BATCH + 1, level=3)
    reference = sim.run_mc(config, threads=1).samples
    assert seen == []
    assert np.array_equal(sim.run_mc(config, threads=8).samples, reference)
    assert seen == [3]
    # a single batch runs inline, whatever the requested thread count
    sim.run_mc(brownian_config(seed=3, n_samples=10, level=3), threads=8)
    assert seen == [3]


def test_determinism_check_runs_a_thread_pool(monkeypatch):
    seen = _record_pool_sizes(monkeypatch)
    checks.check_mc_determinism()
    assert seen == [3, 3]  # one pool per route: the Brownian chain, then fBm


def test_run_mc_fbm_variance_matches_exact_norm():
    config = fbm_config(seed=23, n_samples=20_000, level=8)
    result = sim.run_mc(config)
    target = 2.0 * lk.norm_approx(8, config.kernel1, config.kernel2)
    # samples 2j and 2j + 1 share a circulant draw: the stderr of the mean
    # squared deviation comes from its pair means
    pairs = ((result.samples - result.mean) ** 2).reshape(-1, 2).mean(axis=1)
    se_var = float(np.std(pairs, ddof=1)) / np.sqrt(pairs.size)
    assert abs(result.variance - target) <= 5.0 * se_var


def test_run_mc_moments_match_exact_norms():
    config = brownian_config(seed=77, n_samples=20_000, level=8)
    result = sim.run_mc(config)
    assert result.samples.shape == (20_000,)
    n = result.samples.size
    # mean is 0 by symmetry; 3 sigma of the mean estimator
    se_mean = np.sqrt(result.variance / n)
    assert abs(result.mean) <= 3.0 * se_mean
    # variance equals twice the exact squared norm of the level-8 step kernel
    target = 2.0 * lk.norm_approx(8, config.kernel1, config.kernel2)
    assert target == pytest.approx(1.0 - 2.0**-8, abs=1e-12)
    m4 = float(np.mean((result.samples - result.mean) ** 4))
    se_var = np.sqrt((m4 - result.variance**2) / n)
    assert abs(result.variance - target) <= 3.0 * se_var


def test_run_mc_weighted_variance():
    wk = cov.weighted_poly(1)
    config = sim.MCConfig(seed=6, n_samples=20_000, level=8, kernel1=wk, kernel2=wk)
    result = sim.run_mc(config)
    target = 2.0 * lk.norm_approx(8, wk, wk)
    assert target == pytest.approx(1.0 / 9.0, abs=2e-3)
    n = result.samples.size
    m4 = float(np.mean((result.samples - result.mean) ** 4))
    se_var = np.sqrt((m4 - result.variance**2) / n)
    assert abs(result.variance - target) <= 3.0 * se_var


def test_run_mc_mixed_pair_variance_uses_the_second_gram():
    # the area given process 1's path has variance 4 h^T G2 h: a quad built on
    # process 1's Gram would give 2 norm_approx(8, k1, k1) = 1 - 2^-8, far
    # from the mixed pair's 1.33
    k1, k2 = cov.brownian(), cov.fractional_brownian(0.35)
    config = sim.MCConfig(seed=37, n_samples=20_000, level=8, kernel1=k1, kernel2=k2)
    result = sim.run_mc(config)
    target = 2.0 * lk.norm_approx(8, k1, k2)
    n = result.samples.size
    m4 = float(np.mean((result.samples - result.mean) ** 4))
    se_var = np.sqrt((m4 - result.variance**2) / n)
    assert abs(result.variance - target) <= 5.0 * se_var


def test_run_mc_matches_the_exact_level_law():
    # the check's bound has power: the continuum CF sech(t) of the Brownian
    # area lies far outside it at level 4
    assert "stderr of the exact law" in checks.check_mc_exact_law()
    config = brownian_config(seed=checks.EXACT_LAW_SEED, n_samples=checks.EXACT_LAW_SAMPLES,
                             level=4)
    samples = sim.run_mc(config).samples
    z_re, _ = checks.cf_z_scores(samples, 1.0, complex(1.0 / np.cosh(1.0)))
    assert abs(z_re) > 2 * checks.EXACT_LAW_Z


def test_empirical_cf_at_zero_is_exactly_one():
    result = sim.run_mc(brownian_config(seed=8, n_samples=500, level=5))
    ecf = sim.empirical_cf(result, [0.0, 1.0])
    assert ecf.estimates[0] == 1.0 + 0.0j
    assert ecf.std_errors[0] == pytest.approx(1.0 / np.sqrt(500))


def test_empirical_cf_brownian_matches_sech():
    config = brownian_config(seed=13, n_samples=40_000, level=8)
    result = sim.run_mc(config)
    ecf = sim.empirical_cf(result, [0.5, 1.0])
    for t, est in zip(ecf.t_grid, ecf.estimates):
        assert est.real == pytest.approx(1.0 / np.cosh(t), abs=0.02)
        assert abs(est.imag) <= 4.0 / np.sqrt(config.n_samples)


def test_empirical_cf_is_the_mean_of_exp_i_t_a_to_the_bit():
    # the cos/sin buffer gives the bits of the direct formula mean(exp(i t A))
    t = np.concatenate((np.linspace(0.0, 3.0, 31), [-2.0, 1e-300, 1e155]))
    configs = [brownian_config(seed=seed, n_samples=4096, level=8) for seed in (1, 2, 3)]
    configs += [brownian_config(seed=4, n_samples=65536, level=10),
                fbm_config(seed=5, n_samples=3001, level=6)]
    for config in configs:
        samples = sim.run_mc(config).samples
        want = np.array([np.mean(np.exp(1j * tk * samples)) for tk in t])
        got = sim.empirical_cf(sim.MCResult(samples, 0.0, 0.0, config), t).estimates
        assert np.array_equal(got.view(float), want.view(float)), config.seed
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


def test_empirical_cf_validation():
    result = sim.run_mc(brownian_config(seed=1, n_samples=10, level=3))
    with pytest.raises(ShapeError):
        sim.empirical_cf(result, [])


def test_empirical_cf_modulus_bound():
    result = sim.run_mc(brownian_config(seed=17, n_samples=3000, level=6))
    ecf = sim.empirical_cf(result, np.linspace(0.0, 4.0, 9))
    assert np.all(np.abs(ecf.estimates) <= 1.0 + 3.0 * ecf.std_errors)


def test_mc_result_summary_invariants():
    result = sim.run_mc(brownian_config(seed=2, n_samples=321, level=4))
    assert result.samples.shape == (321,)
    assert result.variance >= 0.0
    assert result.config.seed == 2
