"""Monte Carlo sampling of discrete Levy areas and empirical characteristic
functions.

Path increments over the N = 2^level dyadic cells are d = T z, one
independent standard normal vector z per process per sample, where the
linear map T (T T^T = increment Gram) comes from a sampler chosen by the
structure of the Gram that covariance.level_gram returns:

    diagonal   independent increments (Brownian, weighted):
               T = diag(sqrt(cell variance))
    toeplitz   stationary increments (fBm): the minimal circulant embedding
               of size 2N (Davies & Harte 1987; Dietrich & Newsam 1997)
               gives d in O(N log N) from 2N normals
    dense      dense Cholesky factor of the Gram (tabulated kernels)

Randomness comes from SFC64 generators, one independent stream per batch and
process. Samples are split into batches of the fixed size BATCH; process p of
batch b draws from the stream seeded by

    SeedSequence(seed mod 2^64, spawn_key=(2 * b + p,))

row by row, so sample i takes its normals from a fixed position of a fixed
stream. Its bits depend only on (seed, i): not on n_samples, on the row chunks
work is done in, or on how many worker threads share out the batches, and the
two processes never share a stream. (The paper names Philox counter-based
streams, Salmon et al., SC'11; the sampling contract needs only independent
streams per (seed, batch, process), and SFC64 fills normals about a third
faster.)

The discrete area of one sample is

    sum_{k<l} (d1_k d2_l - d2_k d1_l) = sum_l d2_l P1_l - sum_l d1_l P2_l,

with P the exclusive prefix sums, evaluated in O(N): each of the two sums is
formed in one prefix scratch and reduced by numpy's pairwise row sum, and
swapping the processes swaps the two sums, so the area flips sign exactly.

Work runs in row chunks of at most CHUNK_ELEMENTS normals per process. Each
worker draws a batch's normals into one reused buffer per process, the
samplers map them to increments in place, and the area reduction reuses one
prefix scratch, so the scratch memory of one worker is a small fixed multiple
of CHUNK_ELEMENTS floats whatever the level or sample count; run_mc adds 8
bytes per sample for the areas.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import covariance as cov
from .errors import NumericalError, ParameterError, ShapeError

#: samples per work batch; fixed so outputs never depend on the thread count
BATCH = 4096

#: normals per process held at once by one worker (512 KiB of float64), so
#: that a worker's two normal buffers and one prefix scratch (at most 1.5 MiB)
#: stay within a 2 MiB per-core L2 cache
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


class _Diagonal:
    """d = sqrt(v) * z for independent increments with variances v."""

    def __init__(self, variances):
        self.scale = np.sqrt(variances)
        self.width = len(variances)

    def apply(self, Z):
        Z *= self.scale
        return Z


class _Circulant:
    """Exact stationary Gaussian increments by minimal circulant embedding.

    The autocovariance gamma(0..N) is the first row of a symmetric circulant C
    of size M = 2N with eigenvalues lam = DFT(first row). The Hartley matrix
    H[j,k] = cos(2 pi jk/M) + sin(2 pi jk/M) diagonalizes C as
    C = H diag(lam) H / M, so d = H (sqrt(lam / M) z) has covariance C, whose
    leading N x N block is the Toeplitz Gram. For real y, H y = Re(F y) - Im(F y)
    with F the forward DFT, and only the first N of the M outputs are needed,
    which rfft provides.
    """

    def __init__(self, gamma):
        self.n = len(gamma) - 1
        lam = np.fft.rfft(np.concatenate((gamma, gamma[-2:0:-1]))).real
        if lam.min() < 0.0:
            raise NumericalError(
                f"circulant embedding of the increment autocovariance is indefinite: "
                f"smallest eigenvalue {lam.min():.3e}"
            )
        self.width = 2 * self.n
        self.scale = np.sqrt(np.concatenate((lam, lam[-2:0:-1])) / self.width)

    def apply(self, Z):
        Z *= self.scale
        f = np.fft.rfft(Z, axis=1)[:, : self.n]
        out = Z[:, : self.n]
        np.subtract(f.real, f.imag, out=out)
        return out


class _Cholesky:
    """d = L z with L the dense Cholesky factor of the increment Gram."""

    def __init__(self, L):
        self.L = L
        self.width = L.shape[0]

    def apply(self, Z):
        return Z @ self.L.T


def increment_sampler(kernel: cov.CovKernel, level: int):
    """Linear map from `width` standard normals to the 2^level cell increments.

    The result has `width` and `apply(Z)`, which maps rows of Z, shape
    (rows, width), to increment rows, shape (rows, 2^level); each output row
    depends on its own input row only. `apply` may overwrite Z and may return
    a view of it, so it needs no array larger than Z beyond one FFT of its
    rows. The map is chosen by the structure of the level Gram: diagonal,
    Toeplitz (circulant embedding) or dense (Cholesky). cov.level_gram
    bounds the level by that structure before the Gram is built, so a dense
    Gram above level 12 raises ResourceError.
    """
    gram = cov.level_gram(kernel, level)
    if gram.kind == cov.TOEPLITZ:
        return _Circulant(gram.values)
    if gram.kind == cov.DIAGONAL:
        return _Diagonal(gram.values)
    return _Cholesky(cov.cholesky_factor(gram.dense())[0])


def _samplers(config: MCConfig):
    """Samplers of the two processes: one shared sampler when both use one kernel object."""
    first = increment_sampler(config.kernel1, config.level)
    if config.kernel2 is config.kernel1:
        return [first, first]
    return [first, increment_sampler(config.kernel2, config.level)]


def _chunk_rows(samplers) -> int:
    """Rows per work chunk; a power of two dividing BATCH, fixed per config."""
    width = max(s.width for s in samplers)
    return max(1, min(BATCH, CHUNK_ELEMENTS // width))


def _batch_chunks(config: MCConfig, samplers, batch_start: int, rows: int):
    """Yield (start, inc1, inc2, scratch) for each row chunk of the batch at batch_start.

    Each process draws its normals row-major from its own batch stream, so
    chunk boundaries only split the stream and never change a sample's bits.
    The increments are views of buffers that the next chunk overwrites, and
    scratch is a (chunk rows, 2^level) prefix array for _areas_from_increments.
    """
    b = batch_start // BATCH
    seed = config.seed & (2**64 - 1)
    gens = [
        np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(2 * b + p,))))
        for p in (0, 1)
    ]
    bufs = [np.empty((rows, s.width)) for s in samplers]
    scratch = np.empty((rows, 2**config.level))
    stop = min(batch_start + BATCH, config.n_samples)
    for start in range(batch_start, stop, rows):
        count = min(rows, stop - start)
        inc1, inc2 = (
            s.apply(g.standard_normal(out=buf[:count]))
            for s, g, buf in zip(samplers, gens, bufs)
        )
        yield start, inc1, inc2, scratch[:count]


def sample_paths(config: MCConfig):
    """Increment arrays (n_samples, 2^level) for the two processes.

    Materializes everything; intended for moderate n_samples. run_mc streams
    chunks instead and never holds more than one chunk of increments per worker.
    """
    samplers = _samplers(config)
    rows = _chunk_rows(samplers)
    shape = (config.n_samples, 2**config.level)
    out1, out2 = np.empty(shape), np.empty(shape)
    for batch_start in range(0, config.n_samples, BATCH):
        for start, inc1, inc2, _ in _batch_chunks(config, samplers, batch_start, rows):
            out1[start : start + len(inc1)] = inc1
            out2[start : start + len(inc2)] = inc2
    return out1, out2


def _areas_from_increments(inc1: np.ndarray, inc2: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Row areas sum_l inc2_l P1_l - sum_l inc1_l P2_l, each sum formed in `scratch`.

    P is the exclusive prefix sum along a row. The row reduction stays numpy's
    pairwise sum(axis=1), whose bits per row do not depend on the row count;
    vecdot and einsum were measured to break that at N = 16384 (see
    tests/test_simulate.py).
    """
    sums = []
    for prefix, weight in ((inc1, inc2), (inc2, inc1)):
        scratch[:, 0] = 0.0
        np.cumsum(prefix[:, :-1], axis=1, out=scratch[:, 1:])
        scratch *= weight
        sums.append(scratch.sum(axis=1))
    return np.subtract(*sums, out=sums[0])


def discrete_levy_area(increments1, increments2) -> float:
    """Antisymmetrized double sum over k < l of the two increment arrays."""
    a = np.asarray(increments1, dtype=float)
    b = np.asarray(increments2, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ShapeError(
            f"increment arrays must be 1-d with equal length, got {a.shape} and {b.shape}"
        )
    if a.size == 0:
        return 0.0
    a, b = a[None, :], b[None, :]
    return float(_areas_from_increments(a, b, np.empty_like(a))[0])


def run_mc(config: MCConfig, threads: int = 1) -> MCResult:
    """Independent discrete-area draws with summary moments.

    Work is split into fixed-size batches, one per task, processed in
    fixed-size row chunks; the thread count (clamped to the number of
    batches) changes only the scheduling, never the batch streams or the
    reduction order, so the samples array is bit-identical for any `threads`.
    """
    samplers = _samplers(config)
    rows = _chunk_rows(samplers)
    areas = np.empty(config.n_samples)
    starts = list(range(0, config.n_samples, BATCH))

    def work(batch_start):
        for start, inc1, inc2, scratch in _batch_chunks(config, samplers, batch_start, rows):
            areas[start : start + len(inc1)] = _areas_from_increments(inc1, inc2, scratch)

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
