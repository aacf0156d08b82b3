"""Covariance kernels on [0,1]^2 and their rectangular-increment calculus.

Supported kernels (all with R(0,t) = R(s,0) = 0, processes started at zero):

    fbm         R(s,t) = (s^{2H} + t^{2H} - |s-t|^{2H}) / 2,  H in (0,1)
    weighted    R(s,t) = int_0^{min(s,t)} f(u)^2 du  for a polynomial weight
                f(u) = c u^d, so R(s,t) = c^2 (s ^ t)^{2d+1} / (2d+1); Brownian
                motion, min(s,t), is f = 1, spelled `brownian` (constant_weight)
    tabulated   bilinear interpolation of a value table on a uniform mesh

The rectangular increment

    R([s0,s1] x [u0,u1]) = R(s1,u1) - R(s1,u0) - R(s0,u1) + R(s0,u0)

is the basic quantity out of which every inner product downstream is built;
weighted kernels therefore carry a closed-form antiderivative of f^2 instead
of a quadrature rule, so increments stay exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    NumericalError,
    ParameterError,
    PartitionError,
    ResourceError,
    ShapeError,
)

FBM = "fbm"
WEIGHTED = "weighted"
TABULATED = "tabulated"

#: the retired jitter ladder; its only reader is benchmarks/tracer.py, at install
JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)

#: relative tolerance for positive semidefiniteness audits
PSD_TOL = 1e-8

#: largest array a level route may hold: the level-12 N x N float64 Gram (128 MiB)
MAX_GRAM_BYTES = 8 * 4**12


@dataclass(frozen=True)
class PolyWeight:
    """Weight f(u) = coeff * u**degree with exact antiderivative of f^2."""

    degree: int
    coeff: float = 1.0

    def __post_init__(self):
        if self.degree < 0:
            raise ParameterError(f"polynomial weight degree must be >= 0, got {self.degree}")
        # a product, not coeff**2, which raises OverflowError for a large float
        if not math.isfinite(self.coeff * self.coeff):
            raise ParameterError(
                f"polynomial weight coefficient must have a finite square, got {self.coeff}"
            )

    def antiderivative_sq(self, x):
        """int_0^x f(u)^2 du = coeff^2 x^{2d+1} / (2d+1)."""
        k = 2 * self.degree + 1
        return (self.coeff**2 / k) * np.asarray(x, dtype=float) ** k

    @property
    def norm_sq(self) -> float:
        """L^2([0,1]) norm squared of f."""
        return float(self.antiderivative_sq(1.0))


@dataclass(frozen=True, eq=False)
class CovKernel:
    kind: str
    hurst: float | None = None
    weight: PolyWeight | None = None
    table: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (FBM, WEIGHTED, TABULATED):
            raise ParameterError(f"unknown kernel kind {self.kind!r}")
        if self.kind == FBM:
            if self.hurst is None or not 0.0 < self.hurst < 1.0:
                raise ParameterError(f"Hurst parameter must lie in (0,1), got {self.hurst}")
        if self.kind == WEIGHTED and self.weight is None:
            raise ParameterError("weighted kernel requires a weight spec")
        if self.kind == TABULATED:
            t = self.table
            if t is None or t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] < 2:
                raise ShapeError("tabulated kernel requires a square table with >= 2 nodes")
            if not np.all(np.isfinite(t)):
                raise ParameterError(
                    f"tabulated kernel has {int(np.sum(~np.isfinite(t)))} non-finite values"
                )
            asym = float(np.max(np.abs(t - t.T)))  # eigh of the mesh Gram reads one triangle only
            if asym > 1e-12 * float(np.max(np.abs(t))):
                raise ParameterError(
                    f"tabulated kernel is not symmetric: max|R(s,t) - R(t,s)| = {asym:.3e}"
                )

    def __repr__(self):
        return f"CovKernel({kernel_spec_string(self)!r})"


def brownian() -> CovKernel:
    return weighted_poly(0)


def fractional_brownian(hurst: float) -> CovKernel:
    return CovKernel(FBM, hurst=float(hurst))


def weighted_poly(degree: int, coeff: float = 1.0) -> CovKernel:
    return CovKernel(WEIGHTED, weight=PolyWeight(int(degree), float(coeff)))


def tabulated(values: np.ndarray) -> CovKernel:
    return CovKernel(TABULATED, table=np.array(values, dtype=float))


def tabulated_from_fn(fn, mesh: int) -> CovKernel:
    """Sample fn(s,t) on a uniform (mesh+1)^2 node grid."""
    t = np.linspace(0.0, 1.0, mesh + 1)
    S, T = np.meshgrid(t, t, indexing="ij")
    return tabulated(fn(S, T))


def load_table_csv(path) -> CovKernel:
    """Read a tabulated kernel from CSV with header ``s,t,value``.

    The (s,t) points must fill a complete uniform mesh on [0,1]^2: with n
    distinct s values, every s and t lies within 1e-12 of a node k/(n-1).
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().lower().replace(" ", "")
        if header != "s,t,value":
            raise ShapeError(f"expected CSV header 's,t,value', got {header!r}")
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            s, t, v = line.split(",")
            rows.append((float(s), float(t), float(v)))
    if not rows:
        raise ShapeError("empty kernel table")
    data = np.array(rows)
    n = len(np.unique(data[:, 0]))
    if n < 2 or len(rows) != n * n:
        raise ShapeError(f"incomplete table: {len(rows)} rows for {n} distinct s values; "
                         "a mesh of n >= 2 values needs n * n rows")
    # in units of the mesh step 1/(n-1) the nodes are 0..n-1; a nan coordinate is off the mesh
    scaled = data[:, :2] * (n - 1)
    nodes = np.rint(scaled)
    on = (np.abs(scaled - nodes) <= 1e-12 * (n - 1)) & (nodes >= 0) & (nodes <= n - 1)
    if not on.all():
        s, t = data[np.argmin(on.all(axis=1)), :2].tolist()
        raise ShapeError(f"table point ({s!r}, {t!r}) is off the uniform {n - 1}-step mesh")
    i, j = nodes.astype(int).T
    if np.unique(i * n + j).size < n * n:
        raise ShapeError("table does not cover the full mesh")
    values = np.zeros((n, n))
    values[i, j] = data[:, 2]
    return tabulated(values)


def _check_unit_square(*axes):
    # each axis separately: x and y may have different lengths; nan is outside
    for axis in axes:
        axis = np.asarray(axis)
        if not np.all((axis >= 0) & (axis <= 1)):
            raise DomainError("covariance arguments must lie in [0,1]")


def eval_grid(kernel: CovKernel, x, y) -> np.ndarray:
    """R on the outer product of coordinate vectors x and y.

    x has shape (m,), y has shape (k,); the result has shape (m, k).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_unit_square(x, y)
    S = x[:, None]
    T = y[None, :]
    if kernel.kind == FBM:
        h2 = 2.0 * kernel.hurst
        return 0.5 * (S**h2 + T**h2 - np.abs(S - T) ** h2)
    if kernel.kind == WEIGHTED:
        vals = kernel.weight.antiderivative_sq(np.minimum(S, T))
        return np.broadcast_to(vals, (len(x), len(y))).copy()
    return _bilinear(kernel.table, S, T)


def _bilinear(table, S, T):
    # the products below are taken in place, so a table of another dtype
    # (a CovKernel built directly) is first read as float64, exactly
    table = np.asarray(table, dtype=float)
    m = table.shape[0] - 1
    xs = np.clip(S * m, 0.0, m)
    ys = np.clip(T * m, 0.0, m)
    i = np.minimum(xs.astype(int), m - 1)
    j = np.minimum(ys.astype(int), m - 1)
    fx = xs - i
    fy = ys - j
    gx = 1 - fx
    gy = 1 - fy
    # v00 gx gy + v10 fx gy + v01 gx fy + v11 fx fy, in that order and with the
    # same roundings, built from one gathered corner at a time: the weights
    # are broadcast vectors, so the result and one term are the only full arrays
    out = table[i, j]
    out *= gx
    out *= gy
    for di, dj, wx, wy in ((1, 0, fx, gy), (0, 1, gx, fy), (1, 1, fx, fy)):
        term = table[i + di, j + dj]
        term *= wx
        term *= wy
        out += term
        del term
    return out


def eval(kernel: CovKernel, s: float, t: float) -> float:  # noqa: A001 - shadows builtins.eval on purpose
    """Point evaluation R(s,t)."""
    return float(eval_grid(kernel, [s], [t])[0, 0])


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle [s0,s1] x [u0,u1] inside the unit square."""

    s0: float
    s1: float
    u0: float
    u1: float

    def __post_init__(self):
        if not (self.s0 <= self.s1 and self.u0 <= self.u1):
            raise ParameterError(f"degenerate rectangle bounds {self}")
        _check_unit_square([self.s0, self.s1], [self.u0, self.u1])


def rect_increment(kernel: CovKernel, rect: Rectangle) -> float:
    """Mixed second difference of R over rect."""
    corners = eval_grid(kernel, [rect.s0, rect.s1], [rect.u0, rect.u1])
    return float(corners[1, 1] - corners[1, 0] - corners[0, 1] + corners[0, 0])


def dyadic_partition(level: int) -> np.ndarray:
    if level < 0:
        raise ParameterError(f"dyadic level must be >= 0, got {level}")
    return np.linspace(0.0, 1.0, 2**level + 1)


def gram_matrix(kernel: CovKernel, partition) -> np.ndarray:
    """Increment Gram G[k,l] = R over I_k x I_l of the partition's cells, as an array."""
    part = np.asarray(partition, dtype=float)
    if part.ndim != 1 or len(part) < 2:
        raise PartitionError("partition needs at least two breakpoints")
    if part[0] != 0.0 or part[-1] != 1.0:
        raise PartitionError("partition must start at 0 and end at 1")
    if not np.all(np.diff(part) > 0):  # a nan breakpoint fails too
        raise PartitionError("partition breakpoints must be strictly increasing")
    corners = eval_grid(kernel, part, part)
    # rebound, so the (N+1)^2 corner values are freed before the second difference
    corners = np.diff(corners, axis=0)
    return np.diff(corners, axis=1)


#: structures of the level-n increment Gram, see level_gram
DIAGONAL = "diagonal"
TOEPLITZ = "toeplitz"
FACTORED = "factored"

#: the structure of each kernel kind's level Gram
_STRUCTURE = {WEIGHTED: DIAGONAL, FBM: TOEPLITZ, TABULATED: FACTORED}


@dataclass(frozen=True, eq=False)
class LevelGram:
    """Increment Gram of the N = 2^level equal dyadic cells, stored by structure.

        diagonal  values[k] = G[k,k], the N cell variances
        toeplitz  values[k] = gamma(k) for lags k = 0..N, G[k,l] = gamma(|k-l|)
        factored  values = F, an N x r array with F F^T = G
    """

    kind: str
    level: int
    values: np.ndarray

    def dense(self) -> np.ndarray:
        """The N x N matrix, as a fresh array."""
        if self.kind == DIAGONAL:
            return np.diag(self.values)
        if self.kind == TOEPLITZ:
            return _toeplitz(self.values, 2**self.level)
        return self.values @ self.values.T

    def mirror_half(self, sign: float) -> np.ndarray:
        """The N/2 x N/2 block G11 + sign G12 K of a Toeplitz Gram, as a fresh array.

        With K the flip of N/2 cells, a mirror-symmetric Gram (J G J = G for
        the cell flip J: k -> N-1-k), as every Toeplitz Gram is, is
        block-diagonal in the even/odd basis [I; +-K]/sqrt(2), with blocks G+
        (sign +1) and G- (sign -1); for a Toeplitz Gram G+- is Toeplitz +-
        Hankel in the lags. Built as one Toeplitz copy of G11, then G12 K
        added in place. Other Grams have no halves (mirror_roots returns None).
        """
        if self.kind != TOEPLITZ:
            raise ShapeError(f"only a Toeplitz Gram has mirror halves, not a {self.kind} one")
        n = 2 ** (self.level - 1)
        half = _toeplitz(self.values, n)
        # (G12 K)[k, l] = gamma(N-1-k-l): window k of (gamma(N-1), ..., gamma(1))
        g12k = np.lib.stride_tricks.sliding_window_view(self.values[2 * n - 1 : 0 : -1], n)
        if sign > 0:
            half += g12k
        else:
            half -= g12k
        return half

    def abs_power_sum(self, p: float) -> float:
        """sum over all N^2 entries of |G[k,l]|^p, in O(N) unless factored.

        Lag k of a Toeplitz Gram occurs N times on the diagonal (k = 0) and
        2 (N - k) times off it; the zero off-diagonal of a diagonal Gram adds
        nothing. A factored Gram forms G.
        """
        terms = np.abs(self.dense() if self.kind == FACTORED else self.values[: 2**self.level])
        # a power above the largest float reads inf without a warning: callers check the sum
        with np.errstate(over="ignore", invalid="ignore"):
            terms **= p
            if self.kind == TOEPLITZ:
                # times the counts, N at lag 0 and 2 (N - k) at lag k; the doubling is exact
                terms[1:] *= 2.0
                terms *= np.arange(len(terms), 0, -1.0)
            return float(np.sum(terms))

    def equals(self, other: LevelGram) -> bool:
        """Whether other is the same matrix: the same structure and the same values."""
        return other is self or (other.kind == self.kind
                                 and bool(np.array_equal(other.values, self.values)))

    def root(self) -> np.ndarray:
        """A fresh N x w array R with R R^T = G, unshifted.

        diag(sqrt(variances)), bit for bit LAPACK's Cholesky factor where
        positive; numpy's Cholesky factor of a Toeplitz Gram; or a copy of F.
        """
        if self.kind == DIAGONAL:
            return np.diag(np.sqrt(self.values))
        if self.kind == TOEPLITZ:
            return np.linalg.cholesky(self.dense())
        return self.values.copy()

    def mirror_roots(self) -> tuple | None:
        """(R+, R-): fresh roots R+- R+-^T = mirror_half(+-1) of a Toeplitz Gram, else None.

        A Toeplitz Gram at level >= 1 is mirror-symmetric by its structure;
        its roots are numpy's Cholesky factors of the halves, each half built
        just before it is factored, so at most R+, G- and R- are alive. Every
        other Gram returns None: a diagonal one has the closed form or gains
        nothing from the split, and a table's root is already r wide.
        """
        if self.kind != TOEPLITZ or self.level < 1:
            return None
        return tuple(np.linalg.cholesky(self.mirror_half(sign)) for sign in (1.0, -1.0))

    def factor(self):
        """The factor F (F F^T = G) of this Gram's structure, as a linear map.

        The result has `width`, `row_floats` and `apply(Z)`, which maps rows
        of Z, shape (rows, width), to paths of increments with Gram G, shape
        (rows, 2^level). `apply` may overwrite Z and may return a view of it,
        so it needs no array larger than Z beyond one FFT of its rows.
        `quad(H)` returns the quadratic forms h^T G h = ||F^T h||^2 of the
        rows h of H, shape (rows, 2^level); it may overwrite H and needs at
        most one array of rows x row_floats floats, the widest row that
        apply or quad holds. F is sqrt(variances) for a diagonal Gram, the
        minimal circulant embedding for a Toeplitz one and the stored N x r
        array of a factored one, whose width r may be 0 (a zero Gram).

        The diagonal and factored maps take rows one by one: output row i is
        row i of Z F^T. The circulant map takes rows in pairs, so rows must
        be even: one draw of 2N normals, rows 2j and 2j + 1, gives two paths,
        each with Gram G, whose cross covariance is the circulant's
        off-diagonal block (see _Circulant). The factored map multiplies
        through BLAS, whose bits may change with the row count of Z or H (by
        a few ulps), so simulate passes chunks of one fixed row count; the
        diagonal and circulant factors' rows do not depend on it.
        """
        if self.kind == TOEPLITZ:
            return _Circulant(self.values)
        if self.kind == DIAGONAL:
            return _Diagonal(self.values)
        return _Dense(self.values)


class _Diagonal:
    """d = sqrt(v) * z for independent increments with variances v."""

    def __init__(self, variances):
        self.variances = variances
        self.scale = np.sqrt(variances)
        self.width = self.row_floats = len(variances)

    def apply(self, Z):
        Z *= self.scale
        return Z

    def quad(self, H):
        """Rows of h^T G h = sum_l v_l h_l^2; overwrites H. Squares and sums above
        the largest float read inf without a warning: the caller checks them."""
        with np.errstate(over="ignore", invalid="ignore"):
            H *= H
            H *= self.variances
            return H.sum(axis=1)


class _Circulant:
    """Exact stationary Gaussian increments by minimal circulant embedding,
    two paths per draw.

    The autocovariance gamma(0..N) is the first row of a symmetric circulant C
    of size M = 2N with eigenvalues lam = DFT(first row). The Hartley matrix
    H[j,k] = cos(2 pi jk/M) + sin(2 pi jk/M) diagonalizes C as
    C = H diag(lam) H / M, so y = H (sqrt(lam / M) z) has covariance C for a
    draw z of M standard normals. For real x, (H x)_j = Re F_j - Im F_j and
    (H x)_{M-j} = Re F_j + Im F_j with F = rfft(x), so the N + 1 rfft bins
    give both halves of y: y[0:N] from bins 0 .. N-1, and y[M-1], ..., y[N]
    from bins 1 .. N. Both are exact paths, because C's diagonal blocks are
    the Toeplitz Gram G and the reversal J keeps it, J G J = G; their cross
    covariance is C's off-diagonal block C[0:N, N:M] J, so the two are not
    independent (Davies & Harte 1987; Dietrich & Newsam 1997).

    The same diagonalization gives the Gram's quadratic form: with h
    zero-padded to length M and F_k its DFT, h^T C h = sum_k lam_k |F_k|^2 / M,
    and lam_k = lam_{M-k}, |F_k| = |F_{M-k}| for real h fold the sum onto the
    N + 1 rfft bins, doubled for 0 < k < N.
    """

    def __init__(self, gamma):
        self.n = len(gamma) - 1
        lam = np.fft.rfft(np.concatenate((gamma, gamma[-2:0:-1]))).real
        if lam.min() < 0.0:
            raise NumericalError(
                f"circulant embedding of the increment autocovariance is indefinite: "
                f"smallest eigenvalue {lam.min():.3e}"
            )
        self.width = self.n
        # quad zero-pads its rows to M = 2N floats
        self.row_floats = 2 * self.n
        self.scale = np.sqrt(np.concatenate((lam, lam[-2:0:-1])) / self.row_floats)
        weights = lam / self.row_floats
        weights[1:-1] *= 2.0
        # one weight per float of the complex rfft bins: real, imaginary
        self.weights = np.repeat(weights, 2)

    def apply(self, Z):
        """Paths of the row pairs of Z, (rows, N) with rows even, written into Z.

        Rows 2j and 2j + 1 together hold one draw of M normals; row 2j becomes
        y[0:N] and row 2j + 1 becomes y[M-1], ..., y[N] of that draw.
        """
        draws = Z.reshape(-1, 2 * self.n)
        draws *= self.scale
        f = np.fft.rfft(draws, axis=1)
        np.subtract(f.real[:, : self.n], f.imag[:, : self.n], out=draws[:, : self.n])
        np.add(f.real[:, 1:], f.imag[:, 1:], out=draws[:, self.n :])
        return draws.reshape(Z.shape)

    def quad(self, H):
        """Rows of h^T G h from one rfft of the zero-padded rows of H."""
        f = np.fft.rfft(H, n=self.row_floats, axis=1).view(float)
        f *= f
        f *= self.weights
        return f.sum(axis=1)


class _Dense:
    """d = F z with F the N x r array of a factored Gram."""

    def __init__(self, F):
        self.F = F
        self.width = F.shape[1]
        self.row_floats = max(F.shape)

    def apply(self, Z):
        return Z @ self.F.T

    def quad(self, H):
        """Rows of h^T G h = ||h F||^2."""
        y = H @ self.F
        y *= y
        return y.sum(axis=1)


def _toeplitz(gamma: np.ndarray, n: int) -> np.ndarray:
    """The n x n matrix gamma(|k - l|) from the lags gamma(0..n-1)."""
    # window n-1-k of (gamma(n-1), ..., gamma(1), gamma(0), ..., gamma(n-1)) is row k
    lags = np.concatenate((gamma[n - 1 : 0 : -1], gamma[:n]))
    return np.lib.stride_tricks.sliding_window_view(lags, n)[::-1].copy()


def level_gram(kernel: CovKernel, level: int) -> LevelGram:
    """The level-n increment Gram in its exact structure.

    Weighted kernels (Brownian motion too) have R(s,t) = F(min(s,t)), so the cell
    increments are independent and the Gram is diagonal, with variances
    F(t_{k+1}) - F(t_k) bit-identical to the diagonal of gram_matrix. fBm
    increments over equal cells are stationary (fractional Gaussian noise),
    so the Gram is Toeplitz. Tabulated kernels get the factor of
    _table_factor. check_level bounds the level by that structure before
    anything is built.
    """
    check_level(level, kernel)
    if kernel.kind == FBM:
        values = _fgn_autocovariance(kernel.hurst, level)
    elif kernel.kind == TABULATED:
        values = _table_factor(kernel.table, level)
    else:
        values = np.diff(kernel.weight.antiderivative_sq(dyadic_partition(level)))
    return LevelGram(_STRUCTURE[kernel.kind], level, values)


def _table_factor(table, level: int) -> np.ndarray:
    """The N x r factor F of the bilinear interpolant of an (m+1) x (m+1) node table T.

    The level Gram is exactly G = K H K^T: H is the m x m mesh increment Gram
    (the double difference of T, read as float64) and K[k, c] = m |I_k ∩ J_c|
    the overlap of dyadic cell k with mesh cell c, exact as the differences of
    clip(m t - c, 0, 1) over the breakpoints t. One eigh H = V diag(w) V^T
    checks H (NumericalError below -PSD_TOL of max|w|) and factors it: the w
    above numpy's matrix_rank cut m eps max|w| give F = K V+ sqrt(w+), N x r
    with r = rank H (0 for a zero H). F is the table's root, already r wide,
    so its spectrum takes the full route: the M of general_spectrum is r x r.
    """
    h = np.diff(np.diff(np.asarray(table, dtype=float), axis=0), axis=1)
    m = h.shape[0]
    w, v = np.linalg.eigh(h)
    top = float(np.max(np.abs(w)))
    if w[0] < -PSD_TOL * top:
        raise NumericalError(
            f"tabulated kernel is not positive semidefinite: its mesh Gram has the "
            f"negative eigenvalue {w[0]:.3e} against a largest |eigenvalue| of {top:.3e}"
        )
    keep = w > m * np.finfo(float).eps * top
    overlap = np.clip(m * dyadic_partition(level)[:, None] - np.arange(m), 0.0, 1.0)
    return np.diff(overlap, axis=0) @ (v[:, keep] * np.sqrt(w[keep]))


def check_level(level: int, kernel: CovKernel | None = None) -> int:
    """level, if the largest array of its level-n route fits MAX_GRAM_BYTES.

    A route that holds the N x N matrix (N = 2^level) passes no kernel and
    counts N^2 floats. A route that holds only the kernel's level_gram counts
    that structure: N floats diagonal, N + 1 lags Toeplitz, and N^2 floats
    factored, whose norm and p-variation routes still form G. So dense
    routes and tabulated kernels reach level 12, fBm level 23, and
    weighted kernels level 24. Raises ParameterError below 0 and
    ResourceError above, before anything is built and without forming 2^level
    for a huge level.
    """
    if level < 0:
        raise ParameterError(f"dyadic level must be >= 0, got {level}")
    structure = "dense" if kernel is None else _STRUCTURE[kernel.kind]
    limit = MAX_GRAM_BYTES // 8
    # every level Gram holds at least 2^level floats, so a huge level stops here
    if level < limit.bit_length():
        n = 2**level
        if {DIAGONAL: n, TOEPLITZ: n + 1}.get(structure, n * n) <= limit:
            return level
    raise ResourceError(
        f"level-{level} {structure} Gram exceeds MAX_GRAM_BYTES = {MAX_GRAM_BYTES}"
    )


def _fgn_autocovariance(hurst: float, level: int) -> np.ndarray:
    """Lags 0..N of the autocovariance of fBm increments over N = 2^level cells.

    For h = 1/N,

        gamma(k) = h^{2H} (|k+1|^{2H} - 2 k^{2H} + |k-1|^{2H}) / 2.

    For k >= 2 the bracket is evaluated as
    k^{2H} (expm1(2H log1p(1/k)) + expm1(2H log1p(-1/k))), which avoids the
    cancellation between the three large powers: relative to gamma(0) the
    error stays near 1e-14 up to level 14 for H <= 0.75, where the direct
    form (and gram_matrix's double difference) loses about k^{2H} ulps.
    """
    h2 = 2.0 * hurst
    k = np.arange(2.0, 2**level + 1)
    gamma = np.empty(2**level + 1)
    gamma[0] = 2.0
    gamma[1] = 2.0**h2 - 2.0
    # in place: expm1(h2 log1p(1/k)) in `up`, expm1(h2 log1p(-1/k)) in gamma[2:]
    up, down = np.divide(1.0, k), np.divide(-1.0, k, out=gamma[2:])
    for x in (up, down):
        np.log1p(x, out=x)
        x *= h2
        np.expm1(x, out=x)
    down += up
    k **= h2
    down *= k
    gamma *= 0.5 * 2.0 ** (-level * h2)
    return gamma


def variation_index(kernel: CovKernel) -> float | None:
    """Smallest p with finite grid p-variation, where known.

    Bounded variation (p = 1) for weighted kernels; 1/(2H) for rough
    fractional kernels with H <= 1/2; unknown (None) for tabulated data.
    """
    if kernel.kind == WEIGHTED:
        return 1.0
    if kernel.kind == FBM:
        return 1.0 / (2.0 * kernel.hurst) if kernel.hurst <= 0.5 else 1.0
    return None


def constant_weight(kernel: CovKernel) -> float | None:
    """c of a constant weight f = c (weighted, degree 0), else None: the process
    c W, Brownian motion (c = 1) on the clock c^2 t. Routes take its Brownian
    closed forms by this rule, read off the spec, never off Gram values."""
    if kernel.kind == WEIGHTED and kernel.weight.degree == 0:
        return kernel.weight.coeff
    return None


def parse_kernel_spec(text: str) -> CovKernel:
    """Parse a flat key=value kernel record.

    Accepted forms: ``brownian``, ``kind=fbm hurst=0.35``, ``fbm hurst=0.35``,
    ``kind=weighted weight=poly degree=1 coeff=2``, ``kind=tabulated path=t.csv``.
    A key given twice (a bare kind counts as ``kind=``) raises ParameterError.
    """
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ParameterError("empty kernel spec")
    fields = {}
    for tok in tokens:
        if "=" in tok:
            key, val = tok.split("=", 1)
        elif "kind" not in fields:
            key, val = "kind", tok
        else:
            raise ParameterError(f"stray token {tok!r} in kernel spec {text!r}")
        if key in fields:
            raise ParameterError(f"repeated key {key!r} in kernel spec {text!r}")
        fields[key] = val
    kind = fields.pop("kind", None)
    if kind is None:
        raise ParameterError(f"kernel spec {text!r} does not name a kind")
    if kind == "brownian":
        _reject_extras(fields, text)
        return brownian()
    if kind == FBM:
        if "hurst" not in fields:
            raise ParameterError("fbm kernel spec requires hurst=")
        hurst = float(fields.pop("hurst"))
        _reject_extras(fields, text)
        return fractional_brownian(hurst)
    if kind == WEIGHTED:
        weight = fields.pop("weight", "poly")
        if weight != "poly":
            raise ParameterError(f"unsupported weight family {weight!r}")
        degree = int(fields.pop("degree", 1))
        coeff = float(fields.pop("coeff", 1.0))
        _reject_extras(fields, text)
        return weighted_poly(degree, coeff)
    if kind == TABULATED:
        if "path" not in fields:
            raise ParameterError("tabulated kernel spec requires path=")
        path = fields.pop("path")
        _reject_extras(fields, text)
        return load_table_csv(path)
    raise ParameterError(f"unknown kernel kind {kind!r}")


def _reject_extras(fields, text):
    if fields:
        raise ParameterError(f"unknown kernel spec keys {sorted(fields)} in {text!r}")


def kernel_spec_string(kernel: CovKernel) -> str:
    """Canonical key=value record for config echoes.

    Numbers are written as their shortest round-trip repr without a trailing
    ".0", so parse_kernel_spec rebuilds the same kernel exactly (the unit weight
    as kind=brownian); a tabulated kernel is named by its mesh only.
    """
    if constant_weight(kernel) == 1.0:
        return "kind=brownian"
    if kernel.kind == FBM:
        return f"kind=fbm hurst={_spec_number(kernel.hurst)}"
    if kernel.kind == WEIGHTED:
        w = kernel.weight
        return f"kind=weighted weight=poly degree={w.degree} coeff={_spec_number(w.coeff)}"
    return f"kind=tabulated mesh={kernel.table.shape[0] - 1}"


def _spec_number(x: float) -> str:
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text
