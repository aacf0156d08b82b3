"""The Levy kernel, its dyadic step approximations and exact chaos norms.

The kernel lives on ([0,1] x {1,2})^2 and takes the value +1/2 on the
off-diagonal triangle s < t of the (1,2) block, -1/2 on s > t, with signs
flipped on the (2,1) block and zero diagonal blocks. Its level-n dyadic
approximation replaces the triangles by unions of product cells, which
zeroes out the band of diagonal cells of width 2^-n.

Inner products in the tensor Hilbert space attached to covariance kernels
R_1, R_2 reduce, for step functions, to quadruple sums of cell values against
the two increment Gram matrices. A step function D on the level-r cell grid
therefore has the exact squared norm 2 tr(G_1 D G_2 D^T), G_i the level-r
increment Grams. The level-n approximation and the difference of the level-n
and level-m approximations are both step functions on the level-max(n, m)
grid, so one contraction there gives norms and inter-level distances exactly,
for every covariance pair and without any factorization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import covariance as cov
from . import pvariation as pv
from .errors import NumericalError, ParameterError, ResourceError


def kernel_eval(s: float, i: int, t: float, j: int) -> float:
    """Value of the Levy kernel at ((s,i),(t,j)); the diagonal s = t gets 0."""
    _check_index(i)
    _check_index(j)
    if i == j or s == t:
        return 0.0
    base = 0.5 if s < t else -0.5
    return base if (i, j) == (1, 2) else -base


def cell_index(x: float, level: int) -> int:
    """Index of the left-open dyadic cell (t_k, t_{k+1}] containing x; 0 at x=0."""
    return min(max(math.ceil(x * 2**level) - 1, 0), 2**level - 1)


def approx_eval(level: int, s: float, i: int, t: float, j: int) -> float:
    """Value of the level-n step approximation; zero on diagonal cells."""
    if level < 0:
        raise ParameterError(f"approximation level must be >= 0, got {level}")
    _check_index(i)
    _check_index(j)
    if i == j:
        return 0.0
    k = cell_index(s, level)
    l = cell_index(t, level)
    if k == l:
        return 0.0
    base = 0.5 if k < l else -0.5
    return base if (i, j) == (1, 2) else -base


def _check_index(i):
    if i not in (1, 2):
        raise ParameterError(f"process index must be 1 or 2, got {i}")


@dataclass(frozen=True)
class DyadicApprox:
    """Level-n dyadic step approximation of the Levy kernel."""

    level: int

    def __post_init__(self):
        if self.level < 1:
            raise ParameterError(f"approximation level must be >= 1, got {self.level}")

    def eval(self, s, i, t, j):
        return approx_eval(self.level, s, i, t, j)


@dataclass(frozen=True)
class ChaosNorm:
    """A squared tensor-space norm and the dyadic grid level it was contracted on."""

    value: float
    refine: int


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


def _step_norm(D: np.ndarray, r1: cov.CovKernel, r2: cov.CovKernel, level: int) -> float:
    """Exact squared norm 2 tr(G_1 D G_2 D^T) of the step function D on the level grid.

    A result negative beyond rounding means an indefinite Gram (a covariance
    table that is not positive semidefinite) and raises NumericalError.
    """
    g1 = cov.level_gram(r1, level).dense().matrix
    g2 = g1 if r2 is r1 else cov.level_gram(r2, level).dense().matrix
    terms = g1 @ D
    terms *= D @ g2
    total = float(np.sum(terms))
    if total < 0.0:
        if total < -1e-10 * float(np.sum(np.abs(terms))):
            raise NumericalError(
                f"squared norm came out negative ({2.0 * total:.3e}) on the level-{level} grid"
            )
        total = 0.0
    return 2.0 * total


def _require_contraction_level(level: int) -> None:
    """Raise ResourceError above pv.MAX_LEVEL, before any step matrix or Gram is built."""
    if level > pv.MAX_LEVEL:
        raise ResourceError(f"contraction level {level} exceeds cap {pv.MAX_LEVEL}")


def norm_approx(n: int, r1: cov.CovKernel, r2: cov.CovKernel) -> ChaosNorm:
    """Exact squared tensor norm of the level-n approximation."""
    if n < 1:
        raise ParameterError(f"approximation level must be >= 1, got {n}")
    _require_contraction_level(n)
    value = _step_norm(cell_sign_matrix(n, n), r1, r2, n)
    return ChaosNorm(value=value, refine=n)


def norm_diff(n: int, m: int, r1: cov.CovKernel, r2: cov.CovKernel) -> ChaosNorm:
    """Exact squared tensor distance between the level-n and level-m approximations."""
    if n < 1 or m < 1:
        raise ParameterError(f"approximation levels must be >= 1, got ({n}, {m})")
    level = max(n, m)
    _require_contraction_level(level)
    D = cell_sign_matrix(n, level) - cell_sign_matrix(m, level)
    value = _step_norm(D, r1, r2, level)
    return ChaosNorm(value=value, refine=level)


def existence_check(p: float, q: float) -> bool:
    """Complementary-variation condition for the limit object to exist."""
    return 1.0 / p + 1.0 / q > 1.0


def fbm_existence_check(h1: float, h2: float) -> bool:
    return existence_check(
        cov.variation_index(cov.fractional_brownian(h1)),
        cov.variation_index(cov.fractional_brownian(h2)),
    )


COVERED = "covered"
NOT_COVERED = "not-covered-by-theorem"
UNKNOWN = "unknown-variation"


def coverage_flag(r1: cov.CovKernel, r2: cov.CovKernel) -> str:
    """Whether the kernel pair satisfies the existence condition, if decidable."""
    p = cov.variation_index(r1)
    q = cov.variation_index(r2)
    if p is None or q is None:
        return UNKNOWN
    return COVERED if existence_check(p, q) else NOT_COVERED


@dataclass(frozen=True)
class CauchyTable:
    rows: tuple  # ((n, m, ChaosNorm), ...)
    slope: float | None
    flag: str

    def csv(self) -> str:
        lines = ["n,m,norm_sq,refine,flag"]
        for n, m, norm in self.rows:
            lines.append(f"{n},{m},{norm.value:.17g},{norm.refine},{self.flag}")
        return "\n".join(lines) + "\n"


def cauchy_table(levels, r1: cov.CovKernel, r2: cov.CovKernel) -> CauchyTable:
    """Distances across consecutive levels with a fitted dyadic decay rate.

    The slope is the least-squares fit of log2(norm_sq) against n over the
    consecutive pairs (n, n+1); -1 means norm_sq halves per level.
    """
    levels = [int(x) for x in levels]
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ParameterError("levels must be an increasing list with at least two entries")
    _require_contraction_level(levels[-1])
    rows = []
    for a, b in zip(levels, levels[1:]):
        rows.append((a, b, norm_diff(a, b, r1, r2)))
    xs = [a for a, _, norm in rows if norm.value > 0]
    ys = [math.log2(norm.value) for _, _, norm in rows if norm.value > 0]
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(xs) >= 2 else None
    return CauchyTable(rows=tuple(rows), slope=slope, flag=coverage_flag(r1, r2))
