"""Monte Carlo sampling of discrete Levy areas and empirical characteristic
functions.

The discrete area of two increment vectors d1, d2 over the N = 2^level
dyadic cells is

    A = sum_{k<l} (d1_k d2_l - d2_k d1_l).

run_mc draws it along one of two routes, read off the kernels' kinds.

Two Brownian kernels: Levy's midpoint refinement as a Markov chain on three
scalars (P. Levy 1948; Gaines & Lyons, SIAM J. Appl. Math. 54, 1994). Let
X, Y be the two processes' increment vectors at level j (m = 2^j cells of
variance s^2 = 2^-j), A_j their area, P_j = |X|^2 and Q_j = |Y|^2. Splitting
every cell into halves, the half differences E = x_left - x_right and E'
are independent of X and Y with variance s^2 per cell, the cross-cell terms
give back A_j and each pair adds (E_k Y_k - X_k E'_k) / 2:

    A_{j+1} = A_j + (E . Y - X . E') / 2,
    P_{j+1} = (P_j + |E|^2) / 2,   Q_{j+1} = (Q_j + |E'|^2) / 2.

By rotation invariance of the Gaussian vector E, (E . Y, |E|^2) has the law
of (s u sqrt(Q_j), s^2 (u^2 + c)) with u ~ N(0, 1) and c ~ chi^2_{m-1}
independent, and likewise E' with w and c'. So from P_0 = g0^2, Q_0 = g1^2
and A_0 = 0,

    A += (s / 2) (u sqrt(Q) - w sqrt(P)),
    P, Q = (P + s^2 (u^2 + c)) / 2, (Q + s^2 (w^2 + c')) / 2,

for j = 0 .. level - 1 gives the level's area with its exact law: no chi-square
at j = 0 (one cell) and no norm update at the last level, so 2 level + 2
normals and 2 (level - 2) chi-squares per sample (22 and 16 at level 10)
instead of a path of 2^level cells. No path, sign product or level Gram is
formed, and every step is an elementwise +, * or sqrt.

Every other pair: the conditional law given one path. Path increments are
d = F z, standard normals z per process per sample, where the factor F
(F F^T = increment Gram) is covariance.LevelGram.factor() of the kernel's
level Gram: diag(sqrt(cell variance)) for independent increments (weighted,
and Brownian in sample_paths), the minimal circulant embedding of size 2N
for stationary ones (fBm; Davies & Harte 1987; Dietrich & Newsam 1997) and
the N x r low-rank factor of a tabulated kernel, r the rank of its mesh
Gram (r normals; none for a zero process, whose increments are exact
zeros). The circulant maps one draw of 2N normals to two exact paths in
O(N log N), the two halves of one circular vector (the second reversed in
time), so an fBm sample takes N normals: samples 2j and 2j + 1 share a
draw. Then

    A = 2 d2 . h,   h_l = (sum_{k<l} d1_k - sum_{k>l} d1_k) / 2 = (d1 S)_l,

with S the cell sign matrix (levy_kernel.sign_product). Given d1, A is linear
in the Gaussian vector d2 of the other process, so A | d1 ~ N(0, 4 h^T G2 h)
exactly, G2 the second process's increment Gram (the law Gaines & Lyons and
Wiktorsson, Ann. Appl. Probab. 11, 2001, build on). This route draws one
path per sample, d1, forms h by one blocked prefix sum, evaluates the
quadratic form q = h^T G2 h through the second factor's `quad` (a weighted
sum, one FFT or one matrix product) and returns A = 2 sqrt(q) xi for one
more standard normal xi. Every sample of both routes has the law of the
two-path double sum; sample_paths and discrete_levy_area stay the path-level
API for that sum. (The paper's Monte Carlo draws both paths; both routes
draw the same law from fewer normals.) The samples are independent, except
that when process 1 is fBm the two samples of a pair share their circulant
draw: each has its own xi, so the pair is uncorrelated (E[A A'] = E[q^1/2
q'^1/2] E[xi] E[xi'] = 0), but not independent (q and q' are correlated,
about 0.02 at H = 0.75 and 0.07 at H = 0.9 for A^2 and A'^2).

Randomness comes from SFC64 generators, one independent stream per batch and
process. Samples are split into batches of the fixed size BATCH; stream
s = 2 b + p of batch b is seeded by

    SeedSequence(seed mod 2^64, spawn_key=(s,))

Stream 2 b holds, row-major with one row per sample: the chain's normals
(g0, g1, u_0, w_0, ..., u_{level-1}, w_{level-1}), or process 1's `width`
normals of the conditional route and of sample_paths (for fBm N per sample,
rows 2j and 2j + 1 forming one draw). Stream 2 b + 1 holds the chain's
chi-squares (c_1, c'_1, ..., c_{level-2}, c'_{level-2}) row-major, or one xi
per sample in sample order, or process 2's normals of sample_paths
row-major. Rows are drawn in whole pairs, so the last sample of an odd count
still reads the second row of its draw from the stream. So sample i takes
its draws from fixed positions of fixed streams, and its bits depend only on
(seed, i): not on n_samples, on the row chunks work is done in, or on how
many worker threads share out the batches, for every kernel on a given
numpy/BLAS build. On the conditional route the last chunk of a batch is
zero-padded to the full row count (_fill), so the BLAS products of a table's
factor and of sign_product always take one shape; the chain has no BLAS
product and needs no padding. (The paper names Philox counter-based streams,
Salmon et al., SC'11; the sampling contract needs only independent streams
per (seed, batch, process), and SFC64 fills normals about a third faster.)

Work runs in row chunks. A chain chunk holds at most CHUNK_ELEMENTS draws,
its normals in one reused buffer per worker. A conditional chunk has
CHUNK_ELEMENTS // max(row_floats) rows, an even count of at least 2
(_chunk_rows); row_floats is the widest row a factor holds: 2^level cells of
a path, a table's rank, or the 2^(level+1) floats of the circulant quad's
zero-padded FFT row. A worker draws the normals into one reused buffer; the
factor maps them to d1 in that buffer (diagonal, circulant) or through one
new chunk-sized array (a table's product z F^T), the circulant through one
FFT of its row pairs, half a chunk; sign_product forms h in d1's memory with
a temporary of one slab of at most 32 rows, which is the whole chunk when
the chunk has no more rows (weighted at level 14: 4 rows of 16384); and
`quad` needs at most one more chunk-sized array (an FFT of the zero-padded
rows or the product h F). So the scratch memory of one worker is a small
fixed multiple of CHUNK_ELEMENTS floats whatever the level or sample count;
run_mc adds 8 bytes per sample for the areas, into which the xi are drawn.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import covariance as cov
from . import levy_kernel as lk
from .errors import NumericalError, ParameterError, ShapeError

#: samples per work batch; fixed so outputs never depend on the thread count
BATCH = 4096

#: floats per chunk (512 KiB of float64), counted over the widest row a
#: factor holds, so that a run_mc worker's normal buffer and the one
#: chunk-sized array of `quad` (at most 1 MiB) stay within a 2 MiB per-core
#: L2 cache; an fBm chunk's normals fill half of it
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


def _chunk_rows(samplers, level: int) -> int:
    """Rows per work chunk, fixed per config: CHUNK_ELEMENTS over the widest
    row a factor holds (`row_floats`: the 2^level cells of a path, a table's
    rank r, the circulant quad's zero-padded 2^(level+1) floats), rounded
    down to whole pairs of rows, at least one pair and at most BATCH.

    That is a power of two dividing BATCH unless a table's rank r exceeds
    2^level (then an even count, at least 2).
    """
    rows = CHUNK_ELEMENTS // max(2**level, *(s.row_floats for s in samplers))
    return max(2, min(BATCH, rows - rows % 2))


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
    rows = _chunk_rows(samplers, config.level)
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
    """buf with gen's next rows of normals on top, count rounded up to whole
    pairs, and zeros below, returned.

    A circulant factor maps row pairs to two paths, so the last sample of an
    odd count still gets its pair's second row from the stream and its bits
    do not depend on the count's parity. Every chunk then has the full row
    count, so the factor's BLAS products take one shape and a sample's bits
    do not depend on where its batch ends.
    """
    count += count % 2
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


def _chain_chunks(level: int):
    """(rows, width, chunk) of the Brownian chain route at `level`.

    chunk(buf, normals, chis, out) draws len(out) rows of the chain's 2 level + 2
    normals into buf (rows x width) from `normals` and its 2 (level - 2)
    chi-squares from `chis`, both row-major, and writes the areas into out.
    A chunk holds at most CHUNK_ELEMENTS draws.
    """
    width = 2 * level + 2
    dfs = np.repeat(2.0 ** np.arange(1, level - 1) - 1.0, 2)
    rows = max(1, min(BATCH, CHUNK_ELEMENTS // (width + dfs.size)))

    def chunk(buf, normals, chis, out):
        draws = normals.standard_normal(out=buf[: len(out)])
        _chain_areas(draws, chis.chisquare(dfs, size=(len(out), dfs.size)), out)

    return rows, width, chunk


def _chain_areas(normals: np.ndarray, chis: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Level-n Brownian areas of the chain's draws, written into out and returned.

    Row i of `normals` holds g0, g1, u_0, w_0, ..., u_{n-1}, w_{n-1} and row i
    of `chis` holds c_j, c'_j ~ chi^2_{2^j - 1} for j = 1 .. n - 2 (see the
    module docstring). Every step is an elementwise +, * or sqrt, so each
    row's bits depend on that row's draws alone.
    """
    level = normals.shape[1] // 2 - 1
    p, q = np.square(normals[:, 0]), np.square(normals[:, 1])
    out[:] = 0.0
    for j in range(level):
        u, w = normals[:, 2 * j + 2], normals[:, 2 * j + 3]
        root_p, root_q = np.sqrt(p), np.sqrt(q)
        root_q *= u
        root_p *= w
        root_q -= root_p
        root_q *= 0.5 * np.sqrt(2.0**-j)
        out += root_q
        if j == level - 1:
            break
        # the half differences' squared norms: s^2 (u^2 + c), c = 0 at one cell
        for norm, draw, col in ((p, u, 2 * j - 2), (q, w, 2 * j - 1)):
            step = np.square(draw)
            if j:
                step += chis[:, col]
            step *= 2.0**-j
            norm += step
            norm *= 0.5
    return out


def _conditional_chunks(config: MCConfig):
    """(rows, width, chunk) of the conditional route: chunk(buf, paths, scalars,
    out) maps len(out) rows of process 1's normals to paths and draws their
    areas given the paths, with xi from `scalars`, into out."""
    sampler1, sampler2 = _samplers(config)

    def chunk(buf, paths, scalars, out):
        inc1 = sampler1.apply(_fill(paths, buf, len(out)))
        _conditional_areas(inc1, sampler2, scalars.standard_normal(out=out))

    return _chunk_rows((sampler1, sampler2), config.level), sampler1.width, chunk


def run_mc(config: MCConfig, threads: int = 1) -> MCResult:
    """Discrete-area draws with summary moments.

    Two Brownian kernels draw each area from the midpoint-refinement chain,
    every other pair from its exact law given process 1's path (see the
    module docstring). Work is split into fixed-size batches, one per task,
    processed in fixed-size row chunks; the thread count (clamped to the
    number of batches) changes only the scheduling, never the batch streams
    or the reduction order, so the samples array is bit-identical for any
    `threads`. Samples 2j and 2j + 1 share one circulant draw when process
    1 is fBm (uncorrelated, not independent). Each batch tests its own
    areas as it finishes, and one that is not finite raises NumericalError:
    one thread draws no later batch, and a pool cancels the batches it has
    not started. The conditional route's h^T G2 h is the square of an
    area's scale, so it overflows for areas above about 1e154.
    """
    if config.kernel1.kind == config.kernel2.kind == cov.BROWNIAN:
        rows, width, chunk = _chain_chunks(config.level)
    else:
        rows, width, chunk = _conditional_chunks(config)
    areas = np.empty(config.n_samples)
    starts = list(range(0, config.n_samples, BATCH))

    def work(batch_start):
        streams = _streams(config, batch_start // BATCH)
        buf = np.empty((rows, width))
        stop = min(batch_start + BATCH, config.n_samples)
        for start in range(batch_start, stop, rows):
            chunk(buf, *streams, areas[start : min(start + rows, stop)])
        bad = int(np.sum(~np.isfinite(areas[batch_start:stop])))
        if bad:
            raise NumericalError(
                f"{bad} of the {stop - batch_start} areas of batch {batch_start // BATCH} are "
                "not finite (the kernels' scale overflows a float)"
            )

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
    component standard error is 1/sqrt(n_samples), a bound that holds for
    the fBm pairs too. Given q = h^T G2 h, A ~ N(0, 4q), so
    m = E[cos tA | q] = exp(-2 t^2 q) in [0, 1] and E[cos^2 tA | q] =
    (1 + m^4) / 2; the xi of a pair are independent, so its covariance is
    Cov(m, m') <= E m^2 - (E m)^2. Then n Var(mean cos) <= Var(cos) +
    Cov_pair <= 1/2 + E m^4 / 2 + E m^2 - 2 (E m)^2 <= 1/2 + 9/32 < 1
    (E m^4 <= E m^2 <= E m, maximized at E m = 3/8), and the sin parts of a
    pair are uncorrelated, since E[sin tA | q] = 0.
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
