"""The Levy kernel, its dyadic step approximations and exact chaos norms.

The kernel lives on ([0,1] x {1,2})^2 and takes the value +1/2 on the
off-diagonal triangle s < t of the (1,2) block, -1/2 on s > t, with signs
flipped on the (2,1) block and zero diagonal blocks. Its level-n dyadic
approximation replaces the triangles by unions of product cells, which
zeroes out the band of diagonal cells of width 2^-n. The approximation is
never evaluated at a point: it is the sign matrix sign(l - k) / 2 over the
cells k, l = 0..2^n - 1, and kernel_eval is only the kernel's definition.

Inner products in the tensor Hilbert space attached to covariance kernels
R_1, R_2 reduce, for step functions, to quadruple sums of cell values against
the two increment Gram matrices. A step function D on the level-r cell grid
therefore has the exact squared norm 2 tr(G_1 D G_2 D^T), G_i the level-r
increment Grams. The level-n approximation and the difference of the level-n
and level-m approximations are both step functions on the level-max(n, m)
grid, and both are +-(a sign matrix within 1 or 2^min(n, m) equal blocks of
cells). Multiplying by such a matrix is a blocked prefix sum (sign_product),
so one such product over each Gram and one elementwise contraction give
norms and inter-level distances exactly, for every covariance pair and
without any factorization, N x N step matrix or Gram product.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import covariance as cov
from .errors import NumericalError, ParameterError


def kernel_eval(s: float, i: int, t: float, j: int) -> float:
    """Value of the Levy kernel at ((s,i),(t,j)); the diagonal s = t gets 0."""
    _check_index(i)
    _check_index(j)
    if i == j or s == t:
        return 0.0
    base = 0.5 if s < t else -0.5
    return base if (i, j) == (1, 2) else -base


def _check_index(i):
    if i not in (1, 2):
        raise ParameterError(f"process index must be 1 or 2, got {i}")


#: rows per slab of sign_product: a slab's product, and for a transposed x
#: the slab's copy, are its only row-sized temporaries, never one of all of x
_SLAB_ROWS = 32

#: cells per block of sign_product's within-block matrix product
_BLOCK = 32


@functools.lru_cache(maxsize=None)
def _cell_signs(width: int) -> np.ndarray:
    """The width x width cell sign matrix sign(l - k) / 2, read-only."""
    k = np.arange(width)
    signs = np.sign(k[None, :] - k[:, None]) * 0.5
    signs.flags.writeable = False
    return signs


def sign_product(x: np.ndarray, blocks: int = 1) -> np.ndarray:
    """x @ S, written into x's own memory and returned; x is overwritten.

    S[k, l] = sign(l - k) / 2 when cells k and l lie in the same one of
    `blocks` equal runs of x's columns, and 0 otherwise. One block gives
    the level-n cell sign matrix A_n; 2^c blocks on level r give A_r - A_c
    on the level-r grid, the difference of two approximations (the dense
    A_n is checks.cell_sign_matrix). Within a run, column l of the product
    is (sum_{k<l} x_k - sum_{k>l} x_k) / 2. Each run is cut into blocks
    of w = 32 cells (a shorter run, or one 32 does not divide, is one
    block). The sums within l's block are the product of the (rows,
    cols / w, w) view of x with the w x w cell sign matrix; the sums over
    the run's other blocks are sign_product of the block totals, with the
    same `blocks` runs, added to every cell of the block. That two-level
    blocked scan (Blelloch 1990) has no accumulate, only matrix products
    and adds, during which numpy releases the GIL.

    Each row's bits depend only on its own values and on (cols, blocks):
    both products (the totals are the product with a vector of ones) are
    stacked matmuls, one BLAS call of one fixed shape per row, where one
    matmul over all rows would take another BLAS path for one row than
    for several. x is processed in slabs of _SLAB_ROWS rows. Rows of unit
    column stride (C-ordered x, or a column slice of one) are read in
    place; others (a transposed x) are copied one slab at a time. Pass only
    arrays the caller owns.
    """
    rows, cols = x.shape
    run = cols // blocks
    width = _BLOCK if run % _BLOCK == 0 else run
    signs = _cell_signs(width)
    for start in range(0, rows, _SLAB_ROWS):
        slab = x[start : start + _SLAB_ROWS]
        cells = slab if slab.strides[-1] == slab.itemsize else np.ascontiguousarray(slab)
        cells = np.reshape(cells, (len(slab), cols // width, width), copy=False)
        part = np.matmul(cells, signs)
        if run > width:
            part += sign_product(np.matmul(cells, np.ones(width)), blocks)[..., None]
        np.copyto(slab, np.reshape(part, slab.shape))
    return x


def _step_norm(r1: cov.CovKernel, r2: cov.CovKernel, blocks: int, level: int) -> float:
    """Exact squared norm 2 tr(G_1 S G_2 S^T) of the step function S on the level grid.

    S is sign_product's matrix with `blocks` runs. It is antisymmetric, so
    tr(G_1 S G_2 S^T) = -sum (G_1 S) * (G_2 S)^T, whether or not G_2 is
    symmetric, and both factors are prefix sums over fresh level Grams.
    Every level Gram is positive semidefinite (level_gram refuses an
    indefinite table), so the trace is ||G_1^{1/2} S G_2^{1/2}||_F^2 >= 0
    and a negative rounding of it reads 0. A contraction that is not finite
    (Grams too large for their products to fit a float) raises
    NumericalError.
    """
    # an overflow reads inf or nan without a warning; the total is checked below
    with np.errstate(over="ignore", invalid="ignore"):
        x1 = sign_product(cov.level_gram(r1, level).dense(), blocks)
        if r2 is r1:
            terms = x1 * x1.T
        else:
            x2 = sign_product(cov.level_gram(r2, level).dense(), blocks)
            terms = np.multiply(x1, x2.T, out=x1)
        total = float(np.sum(terms))
    if not math.isfinite(total):
        raise NumericalError(f"the level-{level} chaos-norm contraction is {total}")
    # 0.0 - sum: an exact zero is +0.0, never -0.0
    return 2.0 * max(0.0 - total, 0.0)


def norm_approx(n: int, r1: cov.CovKernel, r2: cov.CovKernel) -> float:
    """Exact squared tensor norm of the level-n approximation, as a float.

    It is contracted on the level-n grid, whose N x N arrays, N = 2^n, cap n
    through cov.check_level (at most 12) before any Gram is built.
    """
    if n < 1:
        raise ParameterError(f"approximation level must be >= 1, got {n}")
    cov.check_level(n)
    return _step_norm(r1, r2, 1, n)


def norm_diff(n: int, m: int, r1: cov.CovKernel, r2: cov.CovKernel) -> float:
    """Exact squared tensor distance between the level-n and level-m approximations.

    It is contracted on the level-max(n, m) grid, the cauchy.csv
    refine column. On that grid the difference is +-S with 2^min(n, m) blocks
    (sign_product), which is zero at equal levels. Like norm_approx it holds
    N x N arrays, so max(n, m) is checked by cov.check_level (at most 12).
    """
    if n < 1 or m < 1:
        raise ParameterError(f"approximation levels must be >= 1, got ({n}, {m})")
    level = max(n, m)
    cov.check_level(level)
    return _step_norm(r1, r2, 2 ** min(n, m), level)


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
    rows: tuple  # ((n, m, norm_sq, refine), ...), the cauchy.csv rows
    slope: float | None
    flag: str


def cauchy_table(levels, r1: cov.CovKernel, r2: cov.CovKernel) -> CauchyTable:
    """Distances across consecutive levels with a fitted dyadic decay rate.

    Each row is the cauchy.csv row (n, m, norm_sq, refine) of consecutive
    levels n < m: norm_sq = norm_diff(n, m), contracted on the level-refine
    grid, refine = m. The slope is the least-squares fit of log2(norm_sq)
    against n over the rows; -1 means norm_sq halves per level. The top
    level is checked by cov.check_level (at most 12) before the first row.
    """
    levels = [int(x) for x in levels]
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ParameterError("levels must be an increasing list with at least two entries")
    cov.check_level(levels[-1])
    rows = tuple((a, b, norm_diff(a, b, r1, r2), b) for a, b in zip(levels, levels[1:]))
    xs = [a for a, _, norm_sq, _ in rows if norm_sq > 0]
    ys = [math.log2(norm_sq) for _, _, norm_sq, _ in rows if norm_sq > 0]
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(xs) >= 2 else None
    return CauchyTable(rows=rows, slope=slope, flag=coverage_flag(r1, r2))
