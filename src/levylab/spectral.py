"""Characteristic functions of second-chaos variables via operator spectra.

For a symmetric Hilbert-Schmidt operator with eigenvalues a_n (repeated by
multiplicity) the double-integral variable I_2 has

    E[exp(z I_2)] = prod_n ((1 - 2 z a_n) exp(2 z a_n))^{-1/2},
    valid for 2 |Re z| sigma < 1, sigma = sup |a_n|,

the regularized (Carleman-Fredholm) determinant. The classical area operator
has spectrum +-(pi (2n+1))^{-1}, each value twice, which collapses the
product to 1/cosh. Equivalently cosh factors as

    cosh(z) = prod_{n>=0} (1 + 4 z^2 / (pi^2 (2n+1)^2)).

The midpoint collocation of the classical block integral operator on g
points has the closed-form spectrum +-cot(pi (2k+1) / (2g)) / (2g), each
value twice, which brownian_spectrum lists in O(g); at g = 2^n that is also
the Brownian level-n step-kernel spectrum. The dense midpoint matrix, the
reference the closed form is checked against, lives in checks.
On dyadic step functions, in the coordinates whitened by unshifted roots
R_i of the increment Grams G_i = R_i R_i^T, the step-kernel operator is the
block matrix [[0, M], [M^T, 0]] with M = R_1^T A R_2 and A the cell sign
matrix. Its nonzero eigenvalues are +-s for the singular values s of M,
whichever roots are taken, so the spectrum comes from one SVD (half-size
for two equal Toeplitz Grams), or from the closed form scaled by |c1 c2| for
two constant weights c1, c2, and mirror symmetry holds by construction. So
do the multiplicities: every value is listed twice when the two Grams are
equal or both constant weights' (M is then antisymmetric) and once otherwise.
No Gram is shifted, so no listed value is made of a shift. A is never built:
products with it are blocked prefix sums (levy_kernel.sign_product).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import covariance as cov
from . import levy_kernel as lk
from .errors import ParameterError, ResourceError

#: relative tolerance for matching each sorted eigenvalue with its mirror partner
PAIR_TOL = 1e-6
#: cap on the step-kernel level, and on the midpoint grid at 2 ** MAX_OPERATOR_LEVEL
MAX_OPERATOR_LEVEL = 10
#: cap on the +-alpha pairs classical_spectrum lists
MAX_CLASSICAL_PAIRS = 10**6


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues alphas (|alpha| descending, + before -) with integer multiplicities mults.

    tail_sq carries the sum of squared eigenvalues *not* listed (zero for
    finite spectra); truncation bounds downstream rely on it.
    """

    alphas: np.ndarray
    mults: np.ndarray
    tail_sq: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "alphas", np.asarray(self.alphas, dtype=float))
        object.__setattr__(self, "mults", np.asarray(self.mults, dtype=int))

    @property
    def entries(self) -> tuple:
        """((alpha, multiplicity), ...) as Python numbers."""
        return tuple(zip(self.alphas.tolist(), self.mults.tolist()))

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.alphas), initial=0.0))

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues repeated according to multiplicity."""
        return np.repeat(self.alphas, self.mults)


def classical_spectrum(count: int) -> Spectrum:
    """First `count` levels of the classical area spectrum.

    Level n contributes +-(pi (2n+1))^{-1}, each with multiplicity 2. The
    remaining tail of squared eigenvalues is carried analytically: the full
    sum over the spectrum is 1/2. A count above MAX_CLASSICAL_PAIRS raises
    ResourceError before anything is allocated.
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    if count > MAX_CLASSICAL_PAIRS:
        raise ResourceError(f"classical pairs {count} exceed cap {MAX_CLASSICAL_PAIRS}")
    ns = np.arange(count)
    alphas = 1.0 / (np.pi * (2 * ns + 1))
    listed_sq = float(np.sum(4.0 * alphas**2))
    return _plus_minus(alphas, 2, tail_sq=max(0.5 - listed_sq, 0.0))


def _plus_minus(s: np.ndarray, mult: int, **fields) -> Spectrum:
    """The spectrum s_0, -s_0, s_1, -s_1, ... for descending s >= 0, every value mult times."""
    # 0.0 - s, not -s: an exact zero is listed as +0 twice, never as -0
    return Spectrum(np.column_stack((s, 0.0 - s)).ravel(), np.full(2 * len(s), mult), **fields)


@dataclass(frozen=True)
class CFProduct:
    z: complex
    value: complex
    tail_bound: float


def cf_from_spectrum(spectrum: Spectrum, z: complex) -> CFProduct:
    """Regularized determinant of the listed eigenvalues evaluated at z.

    Every listed eigenvalue enters, repeated by its multiplicity. Factors are
    combined through per-factor principal logarithms so the square-root
    branch stays unambiguous and long products cannot underflow; where the
    summed phase overflows (|z| near the largest float) only the modulus is
    kept. The tail bound |z|^2 * spectrum.tail_sq (0 for a zero tail, inf
    where |z|^2 overflows) bounds the error against the product over the
    untruncated spectrum for purely imaginary z. A non-finite z is refused.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ParameterError(f"argument must be finite, got {z}")
    sigma = spectrum.spectral_radius
    if 2.0 * abs(z.real) * sigma >= 1.0:
        raise ParameterError(
            f"argument outside the determinant domain: 2|Re z| sigma = "
            f"{2.0 * abs(z.real) * sigma:.6g} >= 1"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        # z times 2 alpha, not 2 z times alpha: 2 z overflows for |z| above half the float range
        w = z * (2.0 * spectrum.eigenvalues())
        log_sum = complex(np.sum(np.log1p(-w) + w))
    if not math.isfinite(log_sum.imag):
        log_sum = complex(log_sum.real, 0.0)
    value = complex(np.exp(-0.5 * log_sum))
    try:
        tail_bound = abs(z) ** 2 * spectrum.tail_sq
    except OverflowError:
        tail_bound = math.inf if spectrum.tail_sq else 0.0
    return CFProduct(z=z, value=value, tail_bound=tail_bound)


def weighted_cf(weight_norm_sq: float, t: float) -> float:
    """Characteristic function sech(t * ||f||^2) of the weighted-process area.

    Where cosh(x) overflows (|x| above about 710), sech(x) =
    2 e^{-|x|} / (1 + e^{-2|x|}) is 2 e^{-|x|} to double precision, so large
    arguments give values near 0, not an error. A zero norm (a zero weight, or
    one whose square underflows) is the identically zero process: CF 1.
    """
    if not 0.0 <= weight_norm_sq < math.inf:
        raise ParameterError(f"weight norm squared must be finite and >= 0, got {weight_norm_sq}")
    x = t * weight_norm_sq
    try:
        return 1.0 / math.cosh(x)
    except OverflowError:
        return 2.0 * math.exp(-abs(x))


def brownian_spectrum(grid: int) -> Spectrum:
    """Exact spectrum of the midpoint operator on `grid` points, in O(grid).

    The operator (dense in checks.discretize_classical_operator) is
    [[0, K^T], [K, 0]] with K = sign(i - j) / (2g) antisymmetric, so its
    eigenvalues are +-|mu| for the eigenvalues mu = i cot(pi (2k+1) / (2g))
    / (2g), k = 0..g-1, of K: each cot value twice. The g//2 positive values
    are listed +-, descending, with multiplicity 2; an odd grid adds an exact
    zero (k = (g-1)/2) with multiplicity 2, last. At grid = 2^n this is the level-n
    step-kernel spectrum of two Brownian kernels, whose whitened step kernel
    A / 2^n is the same matrix; general_spectrum returns it from here. An integer
    grid below 2 raises ParameterError, one above 2^MAX_OPERATOR_LEVEL
    ResourceError, before anything is allocated.
    """
    if not isinstance(grid, numbers.Integral) or grid < 2:
        raise ParameterError(f"grid must be an integer >= 2, got {grid!r}")
    if grid > 2**MAX_OPERATOR_LEVEL:
        raise ResourceError(
            f"midpoint grid {grid} exceeds cap {2**MAX_OPERATOR_LEVEL} = 2^MAX_OPERATOR_LEVEL"
        )
    g = int(grid)
    s = 1.0 / np.tan(np.pi * (2 * np.arange(g // 2) + 1) / (2 * g)) / (2 * g)
    spectrum = _plus_minus(s, 2)
    if g % 2 == 0:
        return spectrum
    return Spectrum(np.append(spectrum.alphas, 0.0), np.append(spectrum.mults, 2))


@dataclass(frozen=True)
class SymmetryReport:
    violations: tuple
    max_pair_gap: float

    @property
    def ok(self) -> bool:
        return not self.violations


def symmetry_check(spectrum: Spectrum) -> SymmetryReport:
    """Audit mirror symmetry and even multiplicity of a spectrum.

    The eigenvalues e_0 <= ... <= e_{n-1}, each repeated by its multiplicity,
    must equal their own negatives reversed: |e_k + e_{n-1-k}| <= PAIR_TOL *
    spectral_radius for every k, and n must be even. max_pair_gap is the
    largest |e_k + e_{n-1-k}|.
    """
    e = np.sort(spectrum.eigenvalues())
    gaps = np.abs(e + e[::-1])
    tol = PAIR_TOL * (spectrum.spectral_radius or 1.0)
    violations = []
    bad = np.flatnonzero(gaps > tol)
    if bad.size:
        k = int(bad[-1])
        violations.append(
            f"mirror multiplicity broken at {bad.size} of {e.size} sorted eigenvalues: "
            f"{e[k]:.6g} vs {-e[-1 - k]:.6g} (gap {gaps[k]:.3g} > {tol:.3g})"
        )
    if e.size % 2:
        violations.append(f"odd total multiplicity {e.size}")
    return SymmetryReport(
        violations=tuple(violations), max_pair_gap=float(np.max(gaps, initial=0.0))
    )


def general_spectrum(r1: cov.CovKernel, r2: cov.CovKernel, level: int) -> Spectrum:
    """Spectrum of the level-n step-kernel operator for a covariance pair.

    The route is read off the kernels' specs and structure, never off rounding.
    Two constant weights c1, c2 (cov.constant_weight) return the closed form
    brownian_spectrum(2^level) scaled by |c1 c2| before the +- listing (a zero
    weight lists +0) and build no Gram. Otherwise the eigenvalues are +-s for
    the singular values s of M = R_1^T A R_2, R_i the unshifted roots of the
    level Grams (LevelGram.root), with multiplicities from the construction,
    not from a tolerance: when the two level Grams are equal (r2 is r1, or
    LevelGram.equals), M is antisymmetric and each pair of equal s is listed
    once with multiplicity 2, floor(w/2) pairs for M of width w (an odd
    one's unpaired s is zero); otherwise every s has multiplicity 1. With J
    the flip of the N = 2^level cells, J A J = -A; for equal Toeplitz Grams,
    which have J G J = G, the even/odd basis turns M into the blocks
    B = R+^T A_+- R- and -B^T, with R+- the roots of the Gram halves
    (LevelGram.mirror_roots, None for every other Gram) and A_+- the
    level-(n-1) cell sign matrix less 1/2, so one SVD of B gives every pair.
    Every other pair takes one SVD of M; M has rank at most N, so no more s
    are kept, and a table of rank r gives an r x r M and floor(min(r, N)/2)
    pairs. No sign matrix is built: R+^T A_+- is lk.sign_product(R+^T) less
    half of each column sum of R+, and R_1^T A is lk.sign_product(R_1^T),
    each in the root's own memory (in a copy of R_1 when equal Grams share
    it). So the split route holds at most three N/2 x N/2 arrays besides the
    SVD's own copy, and the full route three N x N arrays for diagonal and
    Toeplitz Grams. No Gram is shifted: a zero Gram lists exact zeros or
    nothing.
    """
    check_operator_level(level)
    n = 2**level
    c1, c2 = cov.constant_weight(r1), cov.constant_weight(r2)
    if c1 is not None and c2 is not None:
        return _plus_minus(abs(c1 * c2) * brownian_spectrum(n).alphas[0::2], 2)
    g1 = cov.level_gram(r1, level)
    g2 = g1 if r2 is r1 else cov.level_gram(r2, level)
    equal = g1.equals(g2)
    roots = g1.mirror_roots() if equal else None
    if roots is not None:
        plus, minus = roots
        del roots
        # the column sums first: sign_product overwrites plus
        half_sums = 0.5 * np.sum(plus, axis=0)
        x = lk.sign_product(plus.T)
        x -= half_sums[:, None]
        b = x @ minus
        del plus, minus, x
        return _plus_minus(np.linalg.svd(b, compute_uv=False)[: n // 2], 2)
    l1 = g1.root()
    l2 = l1 if equal else g2.root()
    x = lk.sign_product((l1.copy() if equal else l1).T)  # R1^T A
    del l1
    m = x @ l2
    del x, l2
    s = np.linalg.svd(m, compute_uv=False)[:n]
    if equal:
        pairs = len(s) // 2
        s = (s[0 : 2 * pairs : 2] + s[1 : 2 * pairs : 2]) / 2.0
    return _plus_minus(s, 2 if equal else 1)


def check_operator_level(level: int) -> int:
    """level, if 1 <= level <= MAX_OPERATOR_LEVEL; ParameterError below, ResourceError above."""
    if level < 1:
        raise ParameterError(f"level must be >= 1, got {level}")
    if level > MAX_OPERATOR_LEVEL:
        raise ResourceError(f"operator level {level} exceeds cap {MAX_OPERATOR_LEVEL}")
    return level


def cf_curve(spectrum: Spectrum, t_grid):
    """CFProduct at z = i t for every t in the grid."""
    return [cf_from_spectrum(spectrum, 1j * float(t)) for t in np.asarray(t_grid)]
