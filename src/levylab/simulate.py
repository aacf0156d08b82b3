"""Monte Carlo sampling of discrete Levy areas and empirical characteristic
functions.

Path increments over the N = 2^level dyadic cells are d = F z, one standard
normal vector z per process per sample, where the factor F (F F^T =
increment Gram) of every sampler is covariance.LevelGram.factor() of the
kernel's level Gram: diag(sqrt(cell variance)) for independent increments
(Brownian, weighted), the minimal circulant embedding of size 2N for
stationary ones (fBm: d in O(N log N) from 2N normals; Davies & Harte 1987;
Dietrich & Newsam 1997) and the N x r low-rank factor of a tabulated kernel,
r the rank of its mesh Gram (r normals; none for a zero process, whose
increments are exact zeros).

The discrete area of one sample is

    A = sum_{k<l} (d1_k d2_l - d2_k d1_l) = 2 d2 . h,
    h_l = (sum_{k<l} d1_k - sum_{k>l} d1_k) / 2 = (d1 S)_l,

with S the cell sign matrix (levy_kernel.sign_product). Given d1, A is linear
in the Gaussian vector d2 of the other process, so A | d1 ~ N(0, 4 h^T G2 h)
exactly, G2 the second process's increment Gram; this conditional Gaussian
law is the one Gaines & Lyons (SIAM J. Appl. Math. 54, 1994) and Wiktorsson
(Ann. Appl. Probab. 11, 2001) build on. run_mc therefore draws one path per
sample, d1, forms h by one blocked prefix sum, evaluates the quadratic form
q = h^T G2 h through the second factor's `quad` (a weighted sum, one FFT or
one matrix product) and returns A = 2 sqrt(q) xi for one more standard normal
xi. The samples are independent, each with the law of the two-path double
sum; sample_paths and discrete_levy_area stay the path-level API for that
sum. (The paper's Monte Carlo draws both paths; drawing the area from its
conditional law given one path halves the normals and the prefix sums.)

Randomness comes from SFC64 generators, one independent stream per batch and
process. Samples are split into batches of the fixed size BATCH; stream
s = 2 b + p of batch b is seeded by

    SeedSequence(seed mod 2^64, spawn_key=(s,))

Stream 2 b holds process 1's normals row-major, one row of `width` normals
per sample, in run_mc and sample_paths alike. Stream 2 b + 1 holds, in
run_mc, one xi per sample, in sample order; in sample_paths, process 2's
normals row-major. So sample i takes its normals from fixed positions of
fixed streams, and its bits depend only on (seed, i): not on n_samples, on
the row chunks work is done in, or on how many worker threads share out the
batches, for every kernel on a given numpy/BLAS build. The last chunk of a
batch is zero-padded to the full row count (_fill), so the BLAS products of
a table's factor and of sign_product always take one shape. (The paper
names Philox counter-based streams, Salmon et al., SC'11;
the sampling contract needs only independent streams per (seed, batch,
process), and SFC64 fills normals about a third faster.)

Work runs in row chunks whose row count is set by the wider of the two
factors, at most CHUNK_ELEMENTS normals. A run_mc worker draws process 1's
normals into one reused buffer; the factor maps them to d1 and sign_product
to h in place (with a temporary of at most half a chunk), and `quad` needs
at most one more chunk-sized array (an FFT of the rows or the product h F).
So the scratch memory of one worker is a small fixed multiple of
CHUNK_ELEMENTS floats whatever the level or sample count;
run_mc adds 8 bytes per sample for the areas, into which the xi are drawn.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import covariance as cov
from . import levy_kernel as lk
from .errors import ParameterError, ShapeError

#: samples per work batch; fixed so outputs never depend on the thread count
BATCH = 4096

#: normals per chunk buffer (512 KiB of float64), so that a run_mc worker's
#: normal buffer and the one chunk-sized array of `quad` (at most 1 MiB) stay
#: within a 2 MiB per-core L2 cache
CHUNK_ELEMENTS = 2**16

MAX_LEVEL = 14


@dataclass(frozen=True)
class MCConfig:
    seed: int
    n_samples: int
    level: int
    kernel1: cov.CovKernel
    kernel2: cov.CovKernel

    def __post_init__(self):
        if self.n_samples < 1:
            raise ParameterError(f"n_samples must be >= 1, got {self.n_samples}")
        if not 1 <= self.level <= MAX_LEVEL:
            raise ParameterError(
                f"dyadic level must lie in [1, {MAX_LEVEL}], got {self.level}"
            )


@dataclass(frozen=True, eq=False)
class MCResult:
    samples: np.ndarray
    mean: float
    variance: float
    config: MCConfig


@dataclass(frozen=True, eq=False)
class EmpiricalCF:
    t_grid: np.ndarray
    estimates: np.ndarray
    std_errors: np.ndarray


def _samplers(config: MCConfig):
    """The two processes' level-Gram factors: one shared factor when both use one kernel object."""
    first = cov.level_gram(config.kernel1, config.level).factor()
    if config.kernel2 is config.kernel1:
        return [first, first]
    return [first, cov.level_gram(config.kernel2, config.level).factor()]


def _chunk_rows(samplers) -> int:
    """Rows per work chunk; a power of two dividing BATCH, fixed per config.

    Factors of width 0 (zero processes) draw no normals and count as width 1.
    """
    width = max(1, *(s.width for s in samplers))
    return max(1, min(BATCH, CHUNK_ELEMENTS // width))


def _streams(config: MCConfig, b: int):
    """The two SFC64 generators of batch b: streams 2 b and 2 b + 1."""
    seed = config.seed & (2**64 - 1)
    return [
        np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(2 * b + p,))))
        for p in (0, 1)
    ]


def sample_paths(config: MCConfig):
    """Increment arrays (n_samples, 2^level) for the two processes.

    Process p of batch b draws its normals row-major from stream 2 b + p in
    row chunks, so chunk boundaries only split the streams and never change a
    sample's bits. Materializes everything; intended for moderate n_samples.
    """
    samplers = _samplers(config)
    rows = _chunk_rows(samplers)
    shape = (config.n_samples, 2**config.level)
    outs = np.empty(shape), np.empty(shape)
    for batch_start in range(0, config.n_samples, BATCH):
        gens = _streams(config, batch_start // BATCH)
        bufs = [np.empty((rows, s.width)) for s in samplers]
        stop = min(batch_start + BATCH, config.n_samples)
        for start in range(batch_start, stop, rows):
            count = min(rows, stop - start)
            for s, g, buf, out in zip(samplers, gens, bufs, outs):
                out[start : start + count] = s.apply(_fill(g, buf, count))[:count]
    return outs


def _fill(gen, buf, count):
    """buf with gen's next count rows of normals on top and zeros below, returned.

    Every chunk then has the full row count, so the factor's BLAS products
    take one shape and a sample's bits do not depend on where its batch ends.
    """
    gen.standard_normal(out=buf[:count])
    buf[count:] = 0.0
    return buf


def _conditional_areas(inc1: np.ndarray, sampler2, xi: np.ndarray) -> np.ndarray:
    """Areas 2 sqrt(h^T G2 h) xi of inc1's first len(xi) rows, written into xi and returned.

    h = lk.sign_product(inc1), formed in inc1's memory, and G2 is sampler2's
    Gram. Every quad is a sum of nonnegative terms (the circulant eigenvalues
    are checked nonnegative), so the square root is real. Each row's bits
    depend on that row alone: the row reductions are numpy's pairwise
    sum(axis=1), whose bits per row do not depend on the row count; vecdot
    and einsum were measured to break that at N = 16384 (see
    tests/test_simulate.py).
    """
    q = sampler2.quad(lk.sign_product(inc1))[: len(xi)]
    np.sqrt(q, out=q)
    q *= 2.0
    xi *= q
    return xi


def discrete_levy_area(increments1, increments2) -> float:
    """Antisymmetrized double sum over k < l of the two increment arrays.

    It is sum_l b_l P(a)_l - sum_l a_l P(b)_l with P the exclusive prefix
    sum, each sum formed in one scratch and reduced by numpy's pairwise sum;
    swapping the arrays swaps the two sums, so the area flips sign exactly.
    """
    a = np.asarray(increments1, dtype=float)
    b = np.asarray(increments2, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ShapeError(
            f"increment arrays must be 1-d with equal length, got {a.shape} and {b.shape}"
        )
    if a.size == 0:
        return 0.0
    scratch = np.empty_like(a)
    sums = []
    for prefix, weight in ((a, b), (b, a)):
        scratch[0] = 0.0
        np.cumsum(prefix[:-1], out=scratch[1:])
        scratch *= weight
        sums.append(float(scratch.sum()))
    return sums[0] - sums[1]


def run_mc(config: MCConfig, threads: int = 1) -> MCResult:
    """Independent discrete-area draws with summary moments.

    Each area is drawn from its exact law given process 1's path (see the
    module docstring). Work is split into fixed-size batches, one per task,
    processed in fixed-size row chunks; the thread count (clamped to the
    number of batches) changes only the scheduling, never the batch streams
    or the reduction order, so the samples array is bit-identical for any
    `threads`.
    """
    sampler1, sampler2 = _samplers(config)
    rows = _chunk_rows((sampler1, sampler2))
    areas = np.empty(config.n_samples)
    starts = list(range(0, config.n_samples, BATCH))

    def work(batch_start):
        paths, scalars = _streams(config, batch_start // BATCH)
        buf = np.empty((rows, sampler1.width))
        stop = min(batch_start + BATCH, config.n_samples)
        for start in range(batch_start, stop, rows):
            count = min(rows, stop - start)
            inc1 = sampler1.apply(_fill(paths, buf, count))
            xi = scalars.standard_normal(out=areas[start : start + count])
            _conditional_areas(inc1, sampler2, xi)

    workers = min(threads, len(starts))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, starts))
    else:
        for start in starts:
            work(start)
    mean = float(np.mean(areas))
    variance = float(np.var(areas, ddof=1)) if config.n_samples > 1 else 0.0
    return MCResult(samples=areas, mean=mean, variance=variance, config=config)


def empirical_cf(result: MCResult, t_grid) -> EmpiricalCF:
    """Empirical characteristic function on a grid of real arguments.

    estimate(t) = mean of exp(i t A); at t = 0 this is exactly 1. The per
    component standard error is 1/sqrt(n_samples).
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ShapeError("t_grid must be a nonempty 1-d array")
    samples = result.samples
    if samples.size == 0:
        raise ShapeError("empirical CF needs at least one sample")
    estimates = np.empty(len(t), dtype=complex)
    for idx, tk in enumerate(t):
        estimates[idx] = np.mean(np.exp(1j * tk * samples))
    stderr = np.full(len(t), 1.0 / np.sqrt(samples.size))
    return EmpiricalCF(t_grid=t, estimates=estimates, std_errors=stderr)
