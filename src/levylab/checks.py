"""Self-contained invariant audits backing the `check` CLI command.

Each check returns a short detail string on success and raises AssertionError
(or any error) on failure; run_all collects (name, ok, detail) triples.

The references the audits compare the library's routes against live here
too: the cell sign matrix that levy_kernel.sign_product multiplies by, the
midpoint matrix whose spectrum spectral.brownian_spectrum lists, and the
exhaustive enumeration that pvariation.v1p's dynamic program replaces. So do
the 2D Young audits behind the existence condition 1/p + 1/q > 1 (the control
maps and control_product_check, young_integral_2d) and the residual of the
cosh product that spectral.classical_spectrum rests on. No route uses them.

The Young integral of f against a kernel g is the anchored Riemann-Stieltjes
sum over dyadic cells (anchor = lower-left corner, matching left-closed dyadic
cell conventions up to continuity). Its classical bound

    |I| <= c(p,q) ||f||_{W_p^2} V_q^2(g),   1/p + 1/q > 1,

has an unspecified constant c(p,q), so the ratio |I| / (||f|| V_q^2(g)) is
reported for inspection rather than asserted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import covariance as cov
from . import levy_kernel as lk
from . import pvariation as pv
from . import simulate as sim
from . import spectral as sp
from .errors import NumericalError, ParameterError, ResourceError

#: numerical slack allowed in superadditivity audits
SLACK_TOL = 1e-9


def cell_sign_matrix(level: int, refine: int) -> np.ndarray:
    """Step values of the level-n approximation on the level-refine cell grid."""
    if refine < level:
        raise ParameterError(f"refine level {refine} is below the approximation level {level}")
    coarse = (np.arange(2**refine) >> (refine - level)).astype(float)
    # one float array: the differences of small integers, their signs and the halving are exact
    out = coarse[None, :] - coarse[:, None]
    np.sign(out, out=out)
    out *= 0.5
    return out


def discretize_classical_operator(grid_size: int) -> np.ndarray:
    """Midpoint collocation of the classical block operator on 2g points.

    Off-diagonal blocks discretize h -> (int_0^t h - int_t^1 h)/2 with
    uniform weight 1/g at midpoints t_i = (i + 1/2)/g; the sign-kernel form
    keeps the matrix exactly symmetric, which the spectrum tests require.
    The h(1) + h(0) = 0 boundary behaviour emerges in the eigenvectors.
    A dense reference: sp.brownian_spectrum gives its spectrum exactly.
    """
    if grid_size < 4:
        raise ParameterError(f"grid_size must be >= 4, got {grid_size}")
    if grid_size > 2**sp.MAX_OPERATOR_LEVEL:
        raise ResourceError(
            f"midpoint grid {grid_size} exceeds cap {2**sp.MAX_OPERATOR_LEVEL} = 2^MAX_OPERATOR_LEVEL"
        )
    idx = np.arange(grid_size)
    block = 0.5 * np.sign(idx[:, None] - idx[None, :]) / grid_size
    zero = np.zeros_like(block)
    return np.block([[zero, -block], [block, zero]])


def v1p_exhaustive(samples, p: float) -> float:
    """Reference of pvariation.v1p: enumerate every sub-partition.

    Exponential in the sample count; intended for grids with <= 6 points.
    """
    pv._require_exponent(p)
    vals = [float(s[1]) for s in samples]
    n = len(vals)
    if n < 2:
        return 0.0
    interior = range(1, n - 1)
    sup = 0.0
    for r in range(0, n - 1):
        for choice in combinations(interior, r):
            idx = (0,) + choice + (n - 1,)
            total = sum(
                abs(vals[idx[k + 1]] - vals[idx[k]]) ** p for k in range(len(idx) - 1)
            )
            sup = max(sup, total)
    return sup ** (1.0 / p)


def area_control():
    """The area measure, the canonical 2D control."""
    return lambda rect: (rect.s1 - rect.s0) * (rect.u1 - rect.u0)


def grid_control(kernel, p: float, level: int = 6):
    """Control candidate omega(rect) = sum |increment|^p over a local grid.

    The p-th power of the grid p-variation of the kernel restricted to the
    rectangle, evaluated on a uniform 2^level subdivision of the rectangle.
    Each call builds a (2^level + 1)^2 corner array, so the level is checked
    here, as for a dense route, by cov.check_level: ParameterError below 0,
    ResourceError above 12. A sum that is not finite (|increment|^p above the
    largest float) raises NumericalError, as in v2p_grid.
    """
    pv._require_exponent(p)
    n = 2 ** cov.check_level(level)

    def omega(rect):
        xs = np.linspace(rect.s0, rect.s1, n + 1)
        ys = np.linspace(rect.u0, rect.u1, n + 1)
        corners = cov.eval_grid(kernel, xs, ys)
        inc = np.diff(np.diff(corners, axis=0), axis=1)
        # an overflow reads inf or nan without a warning; the sum is checked below
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.sum(np.abs(inc) ** p))
        if not math.isfinite(total):
            raise NumericalError(f"grid control estimate on {rect} is {total}: a sum of "
                                 f"|increment|^{p:g} past the largest float")
        return total

    return omega


@dataclass(frozen=True)
class ControlEstimate:
    """One control evaluation omega1(rect)^{1/p} omega2(rect)^{1/q} pinned to its rectangle."""

    rectangle: cov.Rectangle
    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ParameterError(f"control values must be >= 0, got {self.value}")


@dataclass(frozen=True)
class ControlReport:
    trials: int
    max_violation: float
    n_violations: int
    slack: float
    worst_case: tuple | None = None  # (whole, left, right) ControlEstimates

    @property
    def ok(self) -> bool:
        return self.n_violations == 0


def control_product_check(
    omega1,
    omega2,
    p: float,
    q: float,
    trials: int = 1000,
    seed: int = 0,
    slack: float = SLACK_TOL,
) -> ControlReport:
    """Randomized superadditivity audit of omega1^{1/p} * omega2^{1/q}.

    Requires 1/p + 1/q >= 1; splits random rectangles along both axes and
    reports the worst violation of omega(left) + omega(right) <= omega(whole).
    An estimate that is not finite raises NumericalError: its violation
    would be nan, which no slack flags.
    """
    # written so that a NaN exponent fails the test
    if not (p > 0 and q > 0 and 1.0 / p + 1.0 / q >= 1.0):
        raise ParameterError(
            f"control product requires 1/p + 1/q >= 1, got p={p}, q={q}"
        )
    rng = np.random.default_rng(seed)

    def estimate(rect):
        value = float(omega1(rect) ** (1.0 / p) * omega2(rect) ** (1.0 / q))
        if not math.isfinite(value):
            raise NumericalError(f"control estimate on {rect} is {value}")
        return ControlEstimate(rectangle=rect, value=value)

    worst = -np.inf
    worst_case = None
    n_bad = 0
    for _ in range(trials):
        x0, x1 = np.sort(rng.uniform(0.0, 1.0, 2))
        y0, y1 = np.sort(rng.uniform(0.0, 1.0, 2))
        whole = estimate(cov.Rectangle(x0, x1, y0, y1))
        mx = x0 + rng.uniform() * (x1 - x0)
        my = y0 + rng.uniform() * (y1 - y0)
        for left, right in (
            (cov.Rectangle(x0, mx, y0, y1), cov.Rectangle(mx, x1, y0, y1)),
            (cov.Rectangle(x0, x1, y0, my), cov.Rectangle(x0, x1, my, y1)),
        ):
            el, er = estimate(left), estimate(right)
            viol = el.value + er.value - whole.value
            if viol > worst:
                worst = viol
                worst_case = (whole, el, er)
            if viol > slack:
                n_bad += 1
    return ControlReport(
        trials=trials,
        max_violation=float(worst),
        n_violations=n_bad,
        slack=slack,
        worst_case=worst_case,
    )


@dataclass(frozen=True)
class YoungNorm:
    """Four-part variation norm of a grid function on [0,1]^2."""

    v2p: float
    v1p_bottom_edge: float
    v1p_left_edge: float
    corner_abs: float

    @property
    def total(self) -> float:
        return self.v2p + self.v1p_bottom_edge + self.v1p_left_edge + self.corner_abs


@dataclass(frozen=True)
class YoungBound:
    f_norm: YoungNorm
    g_variation: float
    ratio: float
    refinement_delta: float


def young_integral_2d(f, g, p: float, q: float, level: int) -> tuple[float, YoungBound]:
    """Anchored Riemann-Stieltjes sum of f against the kernel g.

    f is evaluated once, at the level-n nodes, and read at the lower-left
    corner of each cell, against the entries of the one level Gram of g; the
    attached report carries the four-part norm of f, the grid q-variation of
    g, their product ratio against |value|, and the change from the level-
    (n-1) sum, which reads f at the even nodes against the 2x2 block sums of
    the level-n increments (rectangular increments are additive). f and the
    Gram are held as N x N arrays, so cov.check_level refuses levels above 12
    with ResourceError before f is evaluated. A sum, norm or q-variation
    that is not finite raises NumericalError.
    """
    pv._require_exponent(p)
    pv._require_exponent(q)
    if 1.0 / p + 1.0 / q <= 1.0:
        raise ParameterError(
            f"Young pairing requires 1/p + 1/q > 1, got p={p}, q={q}"
        )
    if level < 1:
        raise ParameterError("level must be >= 1")
    cov.check_level(level)
    nodes = cov.dyadic_partition(level)
    fvals = _eval_on_nodes(f, nodes)
    gram = cov.level_gram(g, level)
    inc = gram.dense()
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.sum(fvals[:-1, :-1] * inc))
        n = len(inc) // 2
        coarse = float(np.sum(fvals[:-1:2, :-1:2] * inc.reshape(n, 2, n, 2).sum(axis=(1, 3))))
        # free the dense copy of the Gram before the norm of f
        del inc

        finc = np.diff(np.diff(fvals, axis=0), axis=1)
        f_v2p = float(np.sum(np.abs(finc) ** p) ** (1.0 / p))
        bottom = pv.v1p(list(zip(nodes, fvals[:, 0])), p)
        left = pv.v1p(list(zip(nodes, fvals[0, :])), p)
        norm = YoungNorm(
            v2p=f_v2p,
            v1p_bottom_edge=bottom,
            v1p_left_edge=left,
            corner_abs=float(abs(fvals[0, 0])),
        )
        vq = gram.abs_power_sum(q) ** (1.0 / q)
    for name, x in (("sum", value), ("level-(n-1) sum", coarse), ("norm of f", norm.total),
                    ("q-variation of g", vq)):
        if not math.isfinite(x):
            raise NumericalError(f"the level-{level} Young {name} is {x}")
    denom = norm.total * vq
    ratio = abs(value) / denom if denom > 0 else float("nan")
    return value, YoungBound(
        f_norm=norm,
        g_variation=vq,
        ratio=ratio,
        refinement_delta=abs(value - coarse),
    )


def _eval_on_nodes(f, nodes):
    S, T = np.meshgrid(nodes, nodes, indexing="ij")
    vals = np.asarray(f(S, T), dtype=float)
    return np.broadcast_to(vals, S.shape).copy()


def cosh_factorization_check(z: complex, n_factors: int) -> float:
    """|prod_{n<N} (1 + 4 z^2 / (pi^2 (2n+1)^2)) - cosh(z)|."""
    if n_factors < 0:
        raise ParameterError(f"n_factors must be >= 0, got {n_factors}")
    n = np.arange(n_factors)
    factors = 1.0 + 4.0 * complex(z) ** 2 / (np.pi**2 * (2 * n + 1) ** 2)
    product = complex(np.prod(factors)) if n_factors else 1.0 + 0.0j
    return float(abs(product - np.cosh(complex(z))))


def _kernels():
    return {
        "brownian": cov.brownian(),
        "fbm-0.35": cov.fractional_brownian(0.35),
        "fbm-0.75": cov.fractional_brownian(0.75),
        "weighted-u": cov.weighted_poly(1),
        "product-st": cov.tabulated_from_fn(lambda S, T: S * T, 32),
    }


def check_rect_additivity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for kernel in _kernels().values():
        for _ in range(40):
            x0, xm, x1 = np.sort(rng.uniform(0, 1, 3))
            y0, y1 = np.sort(rng.uniform(0, 1, 2))
            whole = cov.rect_increment(kernel, cov.Rectangle(x0, x1, y0, y1))
            left = cov.rect_increment(kernel, cov.Rectangle(x0, xm, y0, y1))
            right = cov.rect_increment(kernel, cov.Rectangle(xm, x1, y0, y1))
            worst = max(worst, abs(whole - (left + right)))
    assert worst <= 1e-12, f"additivity violated by {worst:.3e}"
    return f"max split residual {worst:.2e}"


def check_gram_telescoping():
    worst = 0.0
    for kernel in _kernels().values():
        gram = cov.gram_matrix(kernel, cov.dyadic_partition(5))
        total = cov.rect_increment(kernel, cov.Rectangle(0, 1, 0, 1))
        worst = max(worst, abs(float(gram.sum()) - total))
    assert worst <= 1e-10, f"telescoping off by {worst:.3e}"
    return f"max telescoping residual {worst:.2e}"


def check_brownian_diagonal():
    for level in (1, 4, 7):
        m = cov.gram_matrix(cov.brownian(), cov.dyadic_partition(level))
        off = m - np.diag(np.diagonal(m))
        assert np.max(np.abs(off)) == 0.0
        assert np.allclose(np.diagonal(m), 2.0**-level)
    return "diagonal at levels 1,4,7"


def min_eigenvalue_ratio(matrix: np.ndarray) -> float:
    """Smallest over largest |eigenvalue| of a Gram matrix, for PSD audits."""
    w = np.linalg.eigvalsh(matrix)
    top = float(np.max(np.abs(w))) or 1.0
    return float(w[0]) / top


def check_gram_psd():
    worst = 0.0
    for kernel in _kernels().values():
        gram = cov.gram_matrix(kernel, cov.dyadic_partition(6))
        worst = min(worst, min_eigenvalue_ratio(gram))
    assert worst >= -cov.PSD_TOL, f"Gram eigenvalue ratio {worst:.3e}"
    return f"min eigenvalue ratio {worst:.2e}"


def check_level_gram_structure():
    worst = 0.0
    for name, kernel in _kernels().items():
        gram = cov.level_gram(kernel, 6)
        ref = cov.gram_matrix(kernel, cov.dyadic_partition(6))
        scale = float(np.max(np.abs(ref)))
        rel = float(np.max(np.abs(gram.dense() - ref))) / scale
        assert rel <= 1e-12, f"{name}: {gram.kind} Gram off gram_matrix by {rel:.3e} of max|G|"
        worst = max(worst, rel)
        for p in (1.0, 1.5, 2.0):
            total = float(np.sum(np.abs(ref) ** p))
            err = abs(gram.abs_power_sum(p) - total) / total
            assert err <= 1e-12, f"{name}: abs_power_sum({p}) off the dense sum by {err:.3e}"
            worst = max(worst, err)
    return f"diagonal, Toeplitz and factored Grams match gram_matrix at level 6 to {worst:.1e}"


def check_symmetry_zero_edge():
    pts = np.linspace(0, 1, 9)
    for name, kernel in _kernels().items():
        if name == "product-st":
            continue  # test-only kernel, not a process covariance
        vals = cov.eval_grid(kernel, pts, pts)
        assert np.max(np.abs(vals - vals.T)) <= 1e-12, name
        assert np.max(np.abs(vals[0])) <= 1e-12, name
        assert np.max(np.abs(vals[:, 0])) <= 1e-12, name
    return "symmetric, zero on the axes"


def check_holder_ordering():
    for kernel in (cov.brownian(), cov.fractional_brownian(0.35)):
        for level in (3, 5):
            vals = [pv.v2p_grid(kernel, p, level) for p in (1.0, 1.5, 2.0, 3.0)]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:])), vals
    return "l^p ordering holds on fixed grids"


def check_level_monotonicity():
    cases = [
        (cov.brownian(), 1.0),
        (cov.fractional_brownian(0.35), 1.0),
        (cov.fractional_brownian(0.35), 1 / 0.7),
        (cov.weighted_poly(1), 1.0),
    ]
    for kernel, p in cases:
        vals = [pv.v2p_grid(kernel, p, n) for n in range(1, 8)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])), (kernel, p, vals)
    return "grid sums non-decreasing for the audited cases"


def check_v1p_bruteforce():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = rng.integers(2, 7)
        pts = np.sort(rng.uniform(0, 1, n))
        while len(np.unique(pts)) < n:
            pts = np.sort(rng.uniform(0, 1, n))
        vals = rng.normal(size=n)
        p = float(rng.uniform(1.0, 3.0))
        samples = list(zip(pts, vals))
        fast = pv.v1p(samples, p)
        slow = v1p_exhaustive(samples, p)
        assert abs(fast - slow) <= 1e-12, (fast, slow)
    return "dynamic program matches exhaustive enumeration"


def check_young_step_exact():
    def f(S, T):
        return np.where(S >= 0.5, 1.0, 0.0) + np.where(T >= 0.25, 2.0, 0.0)

    vals = []
    for level in (3, 5, 7):
        v, _ = young_integral_2d(f, cov.brownian(), 2.0, 1.0, level)
        vals.append(v)
    spread = max(vals) - min(vals)
    assert spread <= 1e-12, vals
    return f"step integrand refinement spread {spread:.2e}"


def check_levy_antisymmetry():
    rng = np.random.default_rng(3)
    for _ in range(200):
        s, t = rng.uniform(0, 1, 2)
        assert lk.kernel_eval(s, 1, t, 2) + lk.kernel_eval(s, 2, t, 1) == 0.0
        assert lk.kernel_eval(s, 1, t, 2) + lk.kernel_eval(t, 1, s, 2) == 0.0
        assert lk.kernel_eval(s, 1, t, 1) == 0.0
    return "block and argument antisymmetry"


def check_norm_diff_basics():
    br = cov.brownian()
    fbm = cov.fractional_brownian(0.75)
    assert lk.norm_diff(3, 3, br, br) == 0.0
    a = lk.norm_diff(2, 4, fbm, fbm)
    b = lk.norm_diff(4, 2, fbm, fbm)
    assert abs(a - b) <= 1e-12, (a, b)
    # the prefix-sum norms against the explicit dense contraction 2 tr(G1 D G2 D^T) at
    # level 6: D = A_6 (norm_approx) and A_6 - A_n (norm_diff(n, 6)), every block count
    level, worst, kernels = 6, 0.0, _kernels()
    grams = {name: cov.level_gram(k, level).dense() for name, k in kernels.items()}
    for n in range(1, level + 1):
        D = cell_sign_matrix(level, level)
        if n < level:
            D -= cell_sign_matrix(n, level)
        for name1, r1 in kernels.items():
            for name2, r2 in kernels.items():
                want = 2.0 * float(np.sum((grams[name1] @ D) * (D @ grams[name2])))
                norm = lk.norm_approx(n, r1, r2) if n == level else lk.norm_diff(n, level, r1, r2)
                err = abs(norm - want)
                # the rank-one product-st Gram g g^T has g^T D g = 0: with itself both
                # contractions are zero, which its factored entries give to rounding
                # of (sum |G|)^2 = R(1,1)^2 = 1
                zero = name1 == name2 == "product-st"
                assert err <= (1e-15 if zero else 1e-13 * abs(want)), (
                    f"{name1} x {name2}, levels ({n}, {level}): {norm!r} vs dense {want!r}"
                )
                worst = max(worst, err / abs(want) if want and not zero else 0.0)
    return (f"zero at equal levels, symmetric in the pair; norms match the dense contraction "
            f"at level 6 to {worst:.1e} relative for every nonzero kernel pair")


def check_brownian_variance_identity():
    br = cov.brownian()
    worst = 0.0
    for n in (1, 4, 8):
        worst = max(worst, abs(2.0 * lk.norm_approx(n, br, br) - (1.0 - 2.0**-n)))
    assert worst <= 1e-10, worst
    return f"max residual {worst:.2e}"


def check_triangle_consistency():
    br = cov.brownian()
    worst = 0.0
    for n, m in ((1, 2), (2, 5), (3, 4)):
        d = lk.norm_diff(n, m, br, br)
        e = abs(lk.norm_approx(n, br, br) - lk.norm_approx(m, br, br))
        worst = max(worst, abs(d - e))
    assert worst <= 1e-10, worst
    return f"max residual {worst:.2e}"


def check_area_identities():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        ab = sim.discrete_levy_area(a, b)
        assert ab == -sim.discrete_levy_area(b, a)
        assert sim.discrete_levy_area(2.0 * a, b) == 2.0 * ab
        ref = sum(
            a[k] * b[l] - b[k] * a[l] for k in range(n) for l in range(n) if k < l
        )
        assert abs(ab - ref) <= 1e-10 * max(1.0, abs(ref))
    return "antisymmetry, scaling, quadratic-oracle agreement"


def check_mc_determinism():
    # three batches, so the threads=3 run really shares them out over a pool;
    # Brownian motion, a constant weight, takes the chain route, fBm the conditional one
    for kernel in (cov.brownian(), cov.fractional_brownian(0.35)):
        config = sim.MCConfig(seed=99, n_samples=2 * sim.BATCH + 1, level=3,
                              kernel1=kernel, kernel2=kernel)
        r1 = sim.run_mc(config, threads=1)
        r2 = sim.run_mc(config, threads=3)
        assert np.array_equal(r1.samples, r2.samples), kernel
    return "bit-identical samples across thread counts on both run_mc routes"


def cf_z_scores(samples: np.ndarray, t: float, exact: complex):
    """(z_re, z_im): the empirical CF at t less `exact`, per part in units of
    that part's estimated standard error.

    The standard error comes from the means of consecutive pairs, samples 2j
    and 2j + 1, on every route: two fBm samples of a pair share one circulant
    draw, so they are uncorrelated but not independent. It is the sample std
    of the pair means of cos / sin of t A over sqrt(number of pairs).
    """
    phase = t * samples
    scores = []
    for part, ref in ((np.cos(phase), exact.real), (np.sin(phase), exact.imag)):
        pairs = part[: part.size - part.size % 2].reshape(-1, 2).mean(axis=1)
        stderr = float(np.std(pairs, ddof=1)) / np.sqrt(pairs.size)
        scores.append((float(np.mean(part)) - ref) / stderr)
    return tuple(scores)


#: seed, sample count and z bound of check_mc_exact_law, fixed before its first run
EXACT_LAW_SEED = 22
EXACT_LAW_SAMPLES = 2**16
EXACT_LAW_Z = 4.0


def check_mc_exact_law():
    # the level-n area is 2 z1^T M z2, so its CF is exactly the regularized
    # determinant of M's spectrum: the MC CF must match it, not just the
    # continuum one (which differs by up to 0.06 at level 4)
    fbm, weighted = cov.fractional_brownian(0.35), cov.weighted_poly(1)
    cases = (("brownian", cov.brownian(), sp.brownian_spectrum(16)),
             ("fbm-0.35", fbm, sp.general_spectrum(fbm, fbm, 4)),
             ("weighted-u", weighted, sp.general_spectrum(weighted, weighted, 4)))
    worst = 0.0
    for name, kernel, spectrum in cases:
        config = sim.MCConfig(seed=EXACT_LAW_SEED, n_samples=EXACT_LAW_SAMPLES, level=4,
                              kernel1=kernel, kernel2=kernel)
        samples = sim.run_mc(config).samples
        for t in (0.5, 1.0, 2.0):
            z = cf_z_scores(samples, t, sp.cf_from_spectrum(spectrum, 1j * t).value)
            assert max(map(abs, z)) <= EXACT_LAW_Z, (name, t, z)
            worst = max(worst, *map(abs, z))
    return f"level-4 CF within {worst:.2f} stderr of the exact law (bound {EXACT_LAW_Z})"


def sampler_maps(factor):
    """(F1^T, F2^T, cross): the factor's maps of the two rows of a draw and
    their cross covariance F1 F2^T, from unit draws fed as row pairs."""
    rows = factor.apply(np.eye(2 * factor.width).reshape(-1, factor.width))
    first, second = rows[0::2], rows[1::2]
    return first, second, first.T @ second


def circulant_cross_block(gamma: np.ndarray) -> np.ndarray:
    """C[0:N, N:2N] J: the cross covariance of the two paths of one circulant
    draw, from the first row (gamma(0..N), gamma(N-1..1)) of C."""
    n = len(gamma) - 1
    row = np.concatenate((gamma, gamma[-2:0:-1]))
    lags = (np.arange(2 * n - 1, n - 1, -1)[None, :] - np.arange(n)[:, None]) % (2 * n)
    return row[lags]


def check_sampler_covariance():
    # one kernel per factor kind: diagonal, circulant and low rank (a table);
    # both rows of a draw must map to the Gram, and the circulant's two paths
    # share the draw through its off-diagonal block
    fbm = cov.fractional_brownian(0.35)
    table = cov.tabulated(cov.eval_grid(fbm, *2 * [np.linspace(0.0, 1.0, 257)]))
    kernels = {"brownian": cov.brownian(), "weighted-u": cov.weighted_poly(1), "fbm-0.35": fbm,
               "fbm-0.35-table": table}
    worst = 0.0
    for name, kernel in kernels.items():
        gram = cov.gram_matrix(kernel, cov.dyadic_partition(6))
        level_gram = cov.level_gram(kernel, 6)
        first, second, cross = sampler_maps(level_gram.factor())
        expected = (circulant_cross_block(level_gram.values) if level_gram.kind == cov.TOEPLITZ
                    else np.zeros_like(gram))
        scale = float(np.max(np.abs(gram)))
        for what, got, want in (("even rows", first.T @ first, gram),
                                ("odd rows", second.T @ second, gram),
                                ("cross block", cross, expected)):
            rel = float(np.max(np.abs(got - want))) / scale
            assert rel <= 1e-12, f"{name}: {what} vs gram_matrix off by {rel:.3e} relative"
            worst = max(worst, rel)
    return (f"F F^T of both rows of a draw matches gram_matrix at level 6 to {worst:.1e}, "
            "and their cross block the factor's, for every factor kind")


def check_cf_real_and_bounded():
    spec = sp.classical_spectrum(200)
    prev = 1.1
    for t in np.linspace(0.0, 3.0, 13):
        res = sp.cf_from_spectrum(spec, 1j * t)
        assert abs(res.value.imag) <= 1e-12
        assert abs(res.value) <= 1.0 + 1e-12
        assert res.value.real <= prev + 1e-12
        prev = res.value.real
    return "real, bounded by 1, decreasing on [0,3]"


def check_cf_tail_bound():
    spec = sp.classical_spectrum(50)
    for t in (0.5, 1.0, 2.0):
        res = sp.cf_from_spectrum(spec, 1j * t)
        err = abs(res.value - 1.0 / np.cosh(t))
        assert err <= res.tail_bound, (t, err, res.tail_bound)
    return "truncation bound dominates the true error"


def check_cosh_residual():
    res = cosh_factorization_check(1.0, 100_000)
    assert res < 1e-4, res
    return f"residual {res:.2e} at N=1e5"


def check_classical_operator_structure():
    w = np.linalg.eigvalsh(discretize_classical_operator(128))
    spec = sp.Spectrum(w, np.ones(w.size, dtype=int))
    top = spec.spectral_radius
    assert abs(top - 1.0 / np.pi) <= 0.01 / np.pi
    # the closed form, each value repeated by its multiplicity 2, against the
    # sorted dense eigenvalues elementwise, and against both members of each
    # pair of singular values of the level-7 step kernel A / 128
    exact = sp.brownian_spectrum(128)
    radius = exact.spectral_radius
    dense = float(np.max(np.abs(w - np.sort(exact.eigenvalues()))))
    assert dense <= 1e-12 * radius, f"dense midpoint off the closed form by {dense:.3e}"
    s = np.linalg.svd(cell_sign_matrix(7, 7) / 128, compute_uv=False)
    svd = float(max(np.max(np.abs(s[k::2] - exact.alphas[0::2])) for k in (0, 1)))
    assert svd <= 1e-12 * radius, f"level-7 step kernel off the closed form by {svd:.3e}"
    return (f"top value near 1/pi; the closed form, each value twice, matches the dense solve "
            f"to {dense / radius:.1e} and the level-7 SVD to {svd / radius:.1e} of the radius")


def check_step_operator_identity():
    # fBm 0.75 and weighted u^2 at level 10 have many eigenvalues near zero that
    # lie within 1e-6 of the radius of each other: the sum is exact there only
    # if every value keeps its own entry and the multiplicity of the construction
    worst = 0.0
    for name, kernel, level in (
        ("fbm-0.35", cov.fractional_brownian(0.35), 6),
        ("fbm-0.75", cov.fractional_brownian(0.75), 10),
        ("weighted-u^2", cov.weighted_poly(2), 10),
    ):
        spec = sp.general_spectrum(kernel, kernel, level)
        total = float(np.sum(spec.mults * spec.alphas**2))
        norm = lk.norm_approx(level, kernel, kernel)
        rel = abs(total - norm) / norm
        assert rel <= 1e-12, (
            f"{name}: sum mult*alpha^2 {total!r} vs norm_approx({level}) {norm!r}"
        )
        worst = max(worst, rel)
    return f"sum mult*alpha^2 matches norm_approx to {worst:.1e} (fBm 0.35, 0.75, weighted u^2)"


def check_mirror_split():
    def full_svd(r1, r2):
        l1, l2 = (cov.level_gram(r, 6).root() for r in (r1, r2))
        return np.linalg.svd(l1.T @ cell_sign_matrix(6, 6) @ l2, compute_uv=False)

    worst, compared = 0.0, []
    for name, kernel in _kernels().items():
        gram = cov.level_gram(kernel, 6)
        if kernel.kind != cov.FBM:
            # only a Toeplitz Gram splits: diagonal and table Grams have no roots of halves
            assert gram.mirror_roots() is None, f"{name}: a {gram.kind} Gram has mirror roots"
            continue
        s = full_svd(kernel, kernel)
        got = np.sort(sp.general_spectrum(kernel, kernel, 6).eigenvalues())
        err = float(np.max(np.abs(got - np.sort(np.concatenate([-s, s]))))) / s[0]
        assert err <= 1e-12, f"{name}: split spectrum off the full SVD by {err:.3e} of the radius"
        # the split route's prefix-sum form of R+^T A_+- against the explicit product
        plus = gram.mirror_roots()[0]
        explicit = plus.T @ (cell_sign_matrix(5, 5) - 0.5)
        prefix = lk.sign_product(plus.copy().T) - 0.5 * np.sum(plus, axis=0)[:, None]
        gap = float(np.max(np.abs(prefix - explicit)))
        assert gap <= 1e-13 * float(np.max(np.abs(plus))), (
            f"{name}: prefix-sum R+^T A_+- off the explicit product by {gap:.3e}"
        )
        worst, compared = max(worst, err), compared + [name]
    # different Toeplitz and diagonal Grams take the full route, every value once
    s = full_svd(cov.fractional_brownian(0.35), cov.brownian())
    mixed = sp.general_spectrum(cov.fractional_brownian(0.35), cov.brownian(), 6)
    gap = float(np.max(np.abs(mixed.eigenvalues() - np.column_stack((s, -s)).ravel())))
    assert np.all(mixed.mults == 1) and gap <= 1e-13 * s[0], f"fBm 0.35/Brownian off by {gap:.3e}"
    # constant weights take the scaled closed form, the full SVD their reference
    closed = 0.0
    for c in (0.3, 2.0):
        kernel = cov.weighted_poly(0, c)
        s = full_svd(kernel, kernel)
        got = np.sort(sp.general_spectrum(kernel, kernel, 6).eigenvalues())
        err = float(np.max(np.abs(got - np.sort(np.concatenate([-s, s]))))) / s[0]
        assert err <= 1e-12, f"constant weight {c}: closed form off the full SVD by {err:.3e}"
        closed = max(closed, err)
    return (f"split matches the full SVD at level 6 to {worst:.1e} ({', '.join(compared)}), "
            "its prefix-sum product the explicit one; fBm 0.35/Brownian, diagonal and table "
            f"Grams unsplit; constant weights 0.3 and 2 match it to {closed:.1e}")


def check_symmetry_audit():
    # negative controls on a classical spectrum: the mirror rule and the parity rule must fire
    spec = sp.classical_spectrum(8)
    shifted = spec.alphas + 2.0 * sp.PAIR_TOL * spec.spectral_radius * (np.arange(16) == 5)
    broken = {
        "a dropped multiplicity": sp.Spectrum(spec.alphas, spec.mults - (np.arange(16) == 3)),
        "a partner shifted by 2 tol": sp.Spectrum(shifted, spec.mults),
        "an odd count": sp.Spectrum(np.append(spec.alphas, 0.0), np.append(spec.mults, 1)),
    }
    for name, bad in broken.items():
        assert not sp.symmetry_check(bad).ok, f"{name} passed the audit"
    midpoint = np.linalg.eigvalsh(discretize_classical_operator(128))
    passing = [sp.classical_spectrum(100), sp.Spectrum(midpoint, np.ones(midpoint.size, dtype=int))]
    passing += [sp.general_spectrum(k, k, 6) for k in _kernels().values()]
    for spec in passing:
        assert sp.symmetry_check(spec).ok, sp.symmetry_check(spec).violations
    return f"{len(broken)} broken spectra flagged; classical, midpoint and level-6 spectra pass"


ALL_CHECKS = [
    ("covariance.rect-additivity", check_rect_additivity),
    ("covariance.gram-telescoping", check_gram_telescoping),
    ("covariance.brownian-diagonal", check_brownian_diagonal),
    ("covariance.gram-psd", check_gram_psd),
    ("covariance.level-gram-structure", check_level_gram_structure),
    ("covariance.symmetry-zero-edge", check_symmetry_zero_edge),
    ("pvariation.holder-ordering", check_holder_ordering),
    ("pvariation.level-monotonicity", check_level_monotonicity),
    ("pvariation.v1p-bruteforce", check_v1p_bruteforce),
    ("pvariation.young-step-exactness", check_young_step_exact),
    ("levy.kernel-antisymmetry", check_levy_antisymmetry),
    ("levy.norm-diff-basics", check_norm_diff_basics),
    ("levy.brownian-variance-identity", check_brownian_variance_identity),
    ("levy.triangle-consistency", check_triangle_consistency),
    ("simulate.area-identities", check_area_identities),
    ("simulate.determinism", check_mc_determinism),
    ("simulate.sampler-covariance", check_sampler_covariance),
    ("simulate.exact-level-law", check_mc_exact_law),
    ("spectral.cf-real-bounded", check_cf_real_and_bounded),
    ("spectral.cf-tail-bound", check_cf_tail_bound),
    ("spectral.cosh-residual", check_cosh_residual),
    ("spectral.classical-structure", check_classical_operator_structure),
    ("spectral.step-operator-identity", check_step_operator_identity),
    ("spectral.mirror-split", check_mirror_split),
    ("spectral.symmetry-audit", check_symmetry_audit),
]


def run_all():
    """Run every audit; returns a list of (name, ok, detail)."""
    results = []
    for name, fn in ALL_CHECKS:
        try:
            detail = fn()
            results.append((name, True, detail or ""))
        except Exception as exc:  # noqa: BLE001 - report any failure mode
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
