"""Covariance kernels on [0,1]^2 and their level Grams.

Supported kernels (all with R(0,t) = R(s,0) = 0, processes started at zero):

    fbm         R(s,t) = (s^{2H} + t^{2H} - |s-t|^{2H}) / 2,  H in (0,1)
    weighted    R(s,t) = int_0^{min(s,t)} f(u)^2 du  for a polynomial weight
                f(u) = c u^d, so R(s,t) = c^2 (s ^ t)^{2d+1} / (2d+1); Brownian
                motion, min(s,t), is f = 1, spelled `brownian` (constant_weight)
    tabulated   bilinear interpolation of a value table on a uniform mesh

A route that needs a kernel's inner products reads them off its level Gram,
the increment Gram of the N = 2^level equal dyadic cells, which level_gram
builds exactly (closed forms, or a table's mesh product) as one class per
structure: DiagonalGram (weighted kernels, independent increments),
ToeplitzGram (fBm, stationary increments) and FactoredGram (tabulated
kernels, an N x r factor). Each is also its own sampler. The pointwise
reference the level Grams are checked against lives in checks: point values,
the rectangular increment and gram_matrix, the Gram of any partition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError, ParameterError, ResourceError, ShapeError

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


def dyadic_partition(level: int) -> np.ndarray:
    if level < 0:
        raise ParameterError(f"dyadic level must be >= 0, got {level}")
    return np.linspace(0.0, 1.0, 2**level + 1)


@dataclass(frozen=True, eq=False)
class LevelGram:
    """Increment Gram G of the N = 2^level equal dyadic cells, one subclass per structure:

        DiagonalGram  values[k] = G[k,k], the N cell variances
        ToeplitzGram  values[k] = gamma(k) for lags k = 0..N, G[k,l] = gamma(|k-l|)
        FactoredGram  values = F, an N x r array with F F^T = G (r may be 0)

    Each has dense() and root(), fresh arrays: the N x N matrix and an
    unshifted N x w R with R R^T = G; abs_power_sum(p); and peak_floats(N),
    the floats of the largest array a route holding it forms (check_level).
    A level Gram is its own sampler, the map of a factor F (F F^T = G):
    apply(Z) maps rows of Z, (rows, width), to paths with Gram G, (rows, N),
    and quad(H) returns h^T G h = ||F^T h||^2 for the rows h of H. Both may
    overwrite their argument (apply may return a view of it) and hold at most
    one more array of rows x row_floats floats; prepare() builds what they
    read, on the calling thread. The circulant map takes row pairs (see
    ToeplitzGram), the others single rows; the factored one's BLAS bits may
    change with the row count, so simulate passes one fixed row count.
    """

    level: int
    values: np.ndarray

    #: normals per row: one per cell unless factored
    width = property(lambda self: 2**self.level)
    #: floats of the widest row apply or quad holds: a path or a row of normals
    row_floats = property(lambda self: max(2**self.level, self.width))

    def equals(self, other: LevelGram) -> bool:
        """Whether other is the same matrix: the same structure and the same values."""
        return other is self or (type(other) is type(self)
                                 and bool(np.array_equal(other.values, self.values)))

    def mirror_roots(self) -> tuple | None:
        """None: only a Toeplitz Gram splits into mirror halves. A diagonal one has
        the closed form or gains nothing from the split; a table's root is r wide."""
        return None

    def prepare(self) -> None:
        """Nothing to build: apply and quad read the stored values."""


@dataclass(frozen=True, eq=False)
class DiagonalGram(LevelGram):
    """Independent increments, the N cell variances v: d = sqrt(v) z."""

    peak_floats = staticmethod(lambda n: n)

    def dense(self) -> np.ndarray:
        return np.diag(self.values)

    def root(self) -> np.ndarray:
        """diag(sqrt(variances)), bit for bit LAPACK's Cholesky factor where positive."""
        return np.diag(np.sqrt(self.values))

    def abs_power_sum(self, p: float) -> float:
        """sum over all N^2 entries of |G[k,l]|^p: the zero off-diagonal adds nothing."""
        return _abs_power_sum(self.values, p)

    def apply(self, Z):
        Z *= np.sqrt(self.values)
        return Z

    def quad(self, H):
        """Rows of h^T G h = sum_l v_l h_l^2; overwrites H. Squares and sums above
        the largest float read inf without a warning: the caller checks them."""
        with np.errstate(over="ignore", invalid="ignore"):
            H *= H
            H *= self.values
            return H.sum(axis=1)


@dataclass(frozen=True, eq=False)
class ToeplitzGram(LevelGram):
    """Stationary increments, the lags gamma(0..N), sampled by minimal circulant embedding.

    gamma(0..N) is the first row of a symmetric circulant C of size M = 2N
    with eigenvalues lam = DFT(first row). The Hartley matrix
    H[j,k] = cos(2 pi jk/M) + sin(2 pi jk/M) diagonalizes C as
    C = H diag(lam) H / M, so y = H (sqrt(lam / M) z) has covariance C for a
    draw z of M standard normals. For real x, (H x)_j = Re F_j - Im F_j and
    (H x)_{M-j} = Re F_j + Im F_j with F = rfft(x), so the N + 1 rfft bins
    give both halves of y: y[0:N] from bins 0 .. N-1, and y[M-1], ..., y[N]
    from bins 1 .. N. Both are exact paths, because C's diagonal blocks are
    the Toeplitz Gram G and the reversal J keeps it, J G J = G; their cross
    covariance is C's off-diagonal block C[0:N, N:M] J, so the two are not
    independent (Davies & Harte 1987; Dietrich & Newsam 1997). The same
    diagonalization gives the quadratic form: with h zero-padded to length M
    and F_k its DFT, h^T C h = sum_k lam_k |F_k|^2 / M, and lam_k = lam_{M-k},
    |F_k| = |F_{M-k}| for real h fold the sum onto the N + 1 rfft bins,
    doubled for 0 < k < N. lam is computed on first use, so building the
    Gram takes no FFT.
    """

    peak_floats = staticmethod(lambda n: n + 1)
    row_floats = property(lambda self: 2 * 2**self.level)  # quad zero-pads rows to M = 2N

    def dense(self) -> np.ndarray:
        return _toeplitz(self.values, 2**self.level)

    def root(self) -> np.ndarray:
        """numpy's Cholesky factor of the matrix."""
        return np.linalg.cholesky(self.dense())

    def abs_power_sum(self, p: float) -> float:
        """sum over all N^2 entries of |G[k,l]|^p in O(N): lag k occurs N times
        on the diagonal (k = 0) and 2 (N - k) times off it."""
        counts = np.arange(2**self.level, 0, -1.0)
        counts[1:] *= 2.0
        return _abs_power_sum(self.values[:-1], p, counts)

    def mirror_half(self, sign: float) -> np.ndarray:
        """The N/2 x N/2 block G11 + sign G12 K, as a fresh array: with K the
        flip of N/2 cells, a mirror-symmetric Gram (J G J = G for the cell flip
        J: k -> N-1-k), as every Toeplitz Gram is, is block-diagonal in the
        even/odd basis [I; +-K]/sqrt(2), with blocks G+ (sign +1) and G- (sign
        -1), here Toeplitz +- Hankel in the lags. Built as one Toeplitz copy of
        G11, then G12 K added in place."""
        n = 2 ** (self.level - 1)
        half = _toeplitz(self.values, n)
        # (G12 K)[k, l] = gamma(N-1-k-l): window k of (gamma(N-1), ..., gamma(1))
        g12k = np.lib.stride_tricks.sliding_window_view(self.values[2 * n - 1 : 0 : -1], n)
        if sign > 0:
            half += g12k
        else:
            half -= g12k
        return half

    def mirror_roots(self) -> tuple | None:
        """(R+, R-): numpy's Cholesky factors of mirror_half(+-1), each half
        built just before it is factored; None at level 0."""
        if self.level < 1:
            return None
        return tuple(np.linalg.cholesky(self.mirror_half(sign)) for sign in (1.0, -1.0))

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """lam, the N + 1 rfft bins of C's first row; NumericalError if one is negative."""
        lam = np.fft.rfft(np.concatenate((self.values, self.values[-2:0:-1]))).real
        if lam.min() < 0.0:
            raise NumericalError("circulant embedding of the increment autocovariance is "
                                 f"indefinite: smallest eigenvalue {lam.min():.3e}")
        return lam

    @cached_property
    def scale(self) -> np.ndarray:
        """sqrt(lam / M) over all M bins, which apply reads."""
        lam = self.eigenvalues
        return np.sqrt(np.concatenate((lam, lam[-2:0:-1])) / self.row_floats)

    @cached_property
    def weights(self) -> np.ndarray:
        """lam / M, doubled for 0 < k < N, once per float (real, imaginary) of the rfft bins."""
        weights = self.eigenvalues / self.row_floats
        weights[1:-1] *= 2.0
        return np.repeat(weights, 2)

    def prepare(self) -> None:
        """The scale and weights: NumericalError here for an indefinite embedding."""
        self.scale, self.weights

    def apply(self, Z):
        """Paths of the row pairs of Z, (rows, N) with rows even, written into Z:
        rows 2j and 2j + 1 hold one draw of M normals and become y[0:N] and
        y[M-1], ..., y[N] of that draw."""
        n = self.width
        draws = Z.reshape(-1, 2 * n)
        draws *= self.scale
        f = np.fft.rfft(draws, axis=1)
        np.subtract(f.real[:, :n], f.imag[:, :n], out=draws[:, :n])
        np.add(f.real[:, 1:], f.imag[:, 1:], out=draws[:, n:])
        return draws.reshape(Z.shape)

    def quad(self, H):
        """Rows of h^T G h from one rfft of the zero-padded rows of H."""
        f = np.fft.rfft(H, n=self.row_floats, axis=1).view(float)
        f *= f
        f *= self.weights
        return f.sum(axis=1)


@dataclass(frozen=True, eq=False)
class FactoredGram(LevelGram):
    """A tabulated kernel's N x r factor F, F F^T = G: d = F z."""

    #: the norm and p-variation routes form G
    peak_floats = staticmethod(lambda n: n * n)
    width = property(lambda self: self.values.shape[1])

    def dense(self) -> np.ndarray:
        return self.values @ self.values.T

    def root(self) -> np.ndarray:
        return self.values.copy()

    def abs_power_sum(self, p: float) -> float:
        """sum over all N^2 entries of |G[k,l]|^p, from the formed G."""
        return _abs_power_sum(self.dense(), p)

    def apply(self, Z):
        return Z @ self.values.T

    def quad(self, H):
        """Rows of h^T G h = ||h F||^2."""
        y = H @ self.values
        y *= y
        return y.sum(axis=1)


def _abs_power_sum(x: np.ndarray, p: float, counts: np.ndarray | None = None) -> float:
    """sum of |x|^p, each term times its count. A power above the largest
    float reads inf without a warning: callers check the sum."""
    terms = np.abs(x)
    with np.errstate(over="ignore", invalid="ignore"):
        terms **= p
        if counts is not None:
            terms *= counts
        return float(np.sum(terms))


def _toeplitz(gamma: np.ndarray, n: int) -> np.ndarray:
    """The n x n matrix gamma(|k - l|) from the lags gamma(0..n-1)."""
    # window n-1-k of (gamma(n-1), ..., gamma(1), gamma(0), ..., gamma(n-1)) is row k
    lags = np.concatenate((gamma[n - 1 : 0 : -1], gamma[:n]))
    return np.lib.stride_tricks.sliding_window_view(lags, n)[::-1].copy()


_GRAM_CLASS = {WEIGHTED: DiagonalGram, FBM: ToeplitzGram, TABULATED: FactoredGram}


def level_gram(kernel: CovKernel, level: int) -> LevelGram:
    """The level-n increment Gram as the class of its exact structure, whose
    peak_floats check_level bounds before anything is built.

    Weighted kernels (Brownian motion too) have R(s,t) = F(min(s,t)), so the
    cell increments are independent: a DiagonalGram, with variances
    F(t_{k+1}) - F(t_k) bit-identical to the diagonal of checks.gram_matrix.
    fBm increments over equal cells are stationary (fractional Gaussian
    noise): a ToeplitzGram. Tabulated kernels get the FactoredGram of
    _table_factor.
    """
    check_level(level, kernel)
    if kernel.kind == FBM:
        values = _fgn_autocovariance(kernel.hurst, level)
    elif kernel.kind == TABULATED:
        values = _table_factor(kernel.table, level)
    else:
        values = np.diff(kernel.weight.antiderivative_sq(dyadic_partition(level)))
    return _GRAM_CLASS[kernel.kind](level, values)


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
    the peak_floats of its class: N diagonal, N + 1 Toeplitz and N^2 factored
    floats. So dense routes and tabulated kernels reach level 12, fBm level
    23, and weighted kernels level 24. Raises ParameterError below 0 and
    ResourceError above, before anything is built and without forming 2^level
    for a huge level.
    """
    if level < 0:
        raise ParameterError(f"dyadic level must be >= 0, got {level}")
    # a dense route counts the N^2 floats that a factored Gram's routes form
    gram = FactoredGram if kernel is None else _GRAM_CLASS[kernel.kind]
    limit = MAX_GRAM_BYTES // 8
    # every level Gram holds at least 2^level floats, so a huge level stops here
    if level < limit.bit_length() and gram.peak_floats(2**level) <= limit:
        return level
    name = "dense Gram" if kernel is None else gram.__name__
    raise ResourceError(f"level-{level} {name} exceeds MAX_GRAM_BYTES = {MAX_GRAM_BYTES}")


def _fgn_autocovariance(hurst: float, level: int) -> np.ndarray:
    """Lags 0..N of the autocovariance of fBm increments over N = 2^level cells.

    For h = 1/N,

        gamma(k) = h^{2H} (|k+1|^{2H} - 2 k^{2H} + |k-1|^{2H}) / 2.

    For k >= 2 the bracket is evaluated as
    k^{2H} (expm1(2H log1p(1/k)) + expm1(2H log1p(-1/k))), which avoids the
    cancellation between the three large powers: relative to gamma(0) the
    error stays near 1e-14 up to level 14 for H <= 0.75, where the direct
    form (and checks.gram_matrix's double difference) loses about k^{2H} ulps.
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


#: the keys each kind's spec may carry after the kind
_SPEC_KEYS = {"brownian": (), FBM: ("hurst",), WEIGHTED: ("degree", "coeff"),
              TABULATED: ("path",)}


def parse_kernel_spec(text: str) -> CovKernel:
    """Parse a kernel spec: the kind, then whitespace-separated key=value fields.

    The kinds and their keys: ``brownian`` (none), ``fbm hurst=0.35``,
    ``weighted degree=1 coeff=2`` (degree 1 and coeff 1 by default) and
    ``tabulated path=t.csv``. Any other kind or key, a key given twice or a
    field without ``=`` raises ParameterError.
    """
    kind, *tokens = text.split() or [""]
    if kind not in _SPEC_KEYS:
        raise ParameterError(f"unknown kernel kind {kind!r} in kernel spec {text!r}; a spec "
                             f"starts with its kind: {', '.join(_SPEC_KEYS)}")
    fields = {}
    for tok in tokens:
        key, eq, val = tok.partition("=")
        if not eq:
            raise ParameterError(f"stray token {tok!r} in kernel spec {text!r}")
        if key in fields:
            raise ParameterError(f"repeated key {key!r} in kernel spec {text!r}")
        if key not in _SPEC_KEYS[kind]:
            raise ParameterError(f"unknown key {key!r} for kind {kind} in kernel spec {text!r}")
        fields[key] = val
    if kind == "brownian":
        return brownian()
    if kind == WEIGHTED:
        return weighted_poly(int(fields.get("degree", 1)), float(fields.get("coeff", 1.0)))
    if kind == FBM and "hurst" in fields:
        return fractional_brownian(float(fields["hurst"]))
    if kind == TABULATED and "path" in fields:
        return load_table_csv(fields["path"])
    raise ParameterError(f"{kind} kernel spec requires {_SPEC_KEYS[kind][0]}=")


def kernel_spec_string(kernel: CovKernel) -> str:
    """The kernel's spec for config echoes, in parse_kernel_spec's grammar.

    ``brownian`` for the unit weight, ``fbm hurst=0.35``, ``weighted degree=1
    coeff=1`` and ``tabulated mesh=16``. Numbers are written as their shortest
    round-trip repr without a trailing ".0", so parse_kernel_spec rebuilds the
    same kernel exactly. A tabulated kernel is named by its mesh only: its
    spec names the table's file (path=), which the echo does not record.
    """
    if constant_weight(kernel) == 1.0:
        return "brownian"
    if kernel.kind == FBM:
        return f"fbm hurst={_spec_number(kernel.hurst)}"
    if kernel.kind == WEIGHTED:
        w = kernel.weight
        return f"weighted degree={w.degree} coeff={_spec_number(w.coeff)}"
    return f"tabulated mesh={kernel.table.shape[0] - 1}"


def _spec_number(x: float) -> str:
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text
