"""Monte Carlo sampling of discrete Levy areas and empirical characteristic
functions.

The discrete area of two increment vectors d1, d2 over the N = 2^level
dyadic cells is

    A = sum_{k<l} (d1_k d2_l - d2_k d1_l).

run_mc draws it along one of two routes, read off the kernels' specs.

Two constant weights c1, c2 (covariance.constant_weight): c1 c2 times the
area of W1, W2 from Levy's midpoint refinement as a Markov chain on three
scalars (P. Levy 1948; Gaines & Lyons, SIAM J. Appl. Math. 54, 1994). Let
X, Y be the increment vectors of W1, W2 at level j (m = 2^j cells of
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
instead of a path of 2^level cells, times c1 c2 (1.0 keeps every bit). No
path, sign product or level Gram is formed; every step is elementwise.

Every other pair: the conditional law given one path. Path increments are
d = F z, standard normals z per process per sample, where the factor F
(F F^T = increment Gram) is applied by the kernel's level Gram itself:
diag(sqrt(cell variance)) for independent increments (DiagonalGram:
weighted, Brownian motion among them), the minimal circulant embedding of
size 2N for stationary ones (ToeplitzGram: fBm; Davies & Harte 1987;
Dietrich & Newsam 1997) and the N x r low-rank factor of a tabulated kernel
(FactoredGram), r the rank of its mesh Gram (r normals; none for a zero
process, whose increments are exact zeros). The circulant maps one draw of
2N normals to two exact paths in O(N log N), the two halves of one circular
vector (the second reversed in time), so an fBm sample takes N normals:
samples 2j and 2j + 1 share a draw. Then

    A = 2 d2 . h,   h_l = (sum_{k<l} d1_k - sum_{k>l} d1_k) / 2 = (d1 S)_l,

with S the cell sign matrix (levy_kernel.sign_product). Given d1, A is linear
in the Gaussian vector d2 of the other process, so A | d1 ~ N(0, 4 h^T G2 h)
exactly, G2 the second process's increment Gram (the law Gaines & Lyons and
Wiktorsson, Ann. Appl. Probab. 11, 2001, build on). This route draws one
path per sample, d1, forms h by one blocked prefix sum, evaluates the
quadratic form q = h^T G2 h through the second factor's `quad` (a weighted
sum, one FFT or one matrix product) and returns A = 2 sqrt(q) xi for one
more standard normal xi. Every sample of both routes has the law of the
two-path double sum: sample_paths draws the two paths themselves, and the
sum's reference is checks.discrete_levy_area. (The paper's Monte Carlo draws both paths; both routes
draw the same law from fewer normals.) The samples are independent, except
that when process 1 is fBm the two samples of a pair share their circulant
draw: each has its own xi, so the pair is uncorrelated (E[A A'] = E[q^1/2
q'^1/2] E[xi] E[xi'] = 0), but not independent (q and q' are correlated,
about 0.02 at H = 0.75 and 0.07 at H = 0.9 for A^2 and A'^2).

Randomness comes from SFC64 generators, one independent stream per batch and
process. Samples are split into batches of the fixed size BATCH; stream
s = 2 b + p of batch b is seeded by

    SeedSequence(seed mod 2^64, spawn_key=(s,))

The chain draws its batch by columns, each of BATCH values, whatever the
batch's sample count: stream 2 b holds the normal columns g0, g1, u_0, w_0,
..., u_{level-1}, w_{level-1} and stream 2 b + 1 the chi-square columns c_1,
c'_1, ..., c_{level-2}, c'_{level-2}, each one scalar-df chisquare(2^j - 1,
size=BATCH), so sample i of the batch takes entry i of every column. The
conditional route draws row-major, one row per sample: stream 2 b holds
process 1's `width` normals (also those of sample_paths; for fBm N per
sample, rows 2j and 2j + 1 forming one draw), and stream 2 b + 1 one xi per
sample in sample order, or process 2's normals of sample_paths row-major.
Rows are drawn in whole pairs, so the last sample of an odd count still
reads the second row of its draw from the stream. So sample i takes its
draws from fixed positions of fixed streams, and its bits depend only on
(seed, i): not on n_samples, on the row chunks work is done in, or on how
many worker threads share out the batches, for every kernel on a given
numpy/BLAS build. On the conditional route the last chunk of a batch is
zero-padded to the full row count (_fill), so the BLAS products of a table's
factor and of sign_product always take one shape; the chain has no BLAS
product and needs no padding. (The paper names Philox counter-based streams,
Salmon et al., SC'11; the sampling contract needs only independent streams
per (seed, batch, process), and SFC64 fills normals about a third faster.)

Each batch is reduced in the worker that draws it, once its areas pass the
finiteness test: their sum, and sum cos(t A) and sum sin(t A) at every t of
the CF grid. run_mc adds the batches' sums in batch order, and takes the
variance as sum (A - mean)^2 over the areas in BATCH blocks, so the mean,
variance and CF are bit-identical for any thread count.

Memory. The chain holds a few columns of BATCH floats per worker. The
conditional route runs in row chunks of CHUNK_ELEMENTS // max(row_floats)
rows, an even count of at least 2 (_chunk_rows); row_floats is the widest
row a factor holds: 2^level cells of a path, a table's rank, or the
2^(level+1) floats of the circulant quad's zero-padded FFT row. A worker
draws the normals into one reused buffer; the factor maps them to d1 in
that buffer (diagonal, circulant) or through one new chunk-sized array (a
table's product z F^T), the circulant through one FFT of its row pairs,
half a chunk; sign_product forms h in d1's memory with a temporary of one
slab of at most 32 rows, which is the whole chunk when the chunk has no
more rows (weighted at level 14: 4 rows of 16384); and `quad` needs at most
one more chunk-sized array (an FFT of the zero-padded rows or the product
h F). So the scratch memory of one worker is a small fixed multiple of
CHUNK_ELEMENTS floats, or of BATCH floats on either route's reductions,
whatever the level or sample count; run_mc adds 8 bytes per sample for the
areas, into which the xi are drawn.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import covariance as cov
from . import levy_kernel as lk
from .errors import NumericalError, ParameterError, ResourceError, ShapeError

#: samples per work batch; fixed so outputs never depend on the thread count
BATCH = 4096

#: floats per conditional-route chunk (512 KiB of float64), counted over the
#: widest row a factor holds, so that a run_mc worker's normal buffer and the
#: one chunk-sized array of `quad` (at most 1 MiB) stay within a 2 MiB
#: per-core L2 cache; an fBm chunk's normals fill half of it
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
        # run_mc holds 8 bytes per sample, the areas; everything else is per batch
        if 8 * self.n_samples > cov.MAX_GRAM_BYTES:
            raise ResourceError(
                f"n_samples {self.n_samples} exceeds cap {cov.MAX_GRAM_BYTES // 8} = MAX_GRAM_BYTES / 8"
            )
        if not 1 <= self.level <= MAX_LEVEL:
            raise ParameterError(
                f"dyadic level must lie in [1, {MAX_LEVEL}], got {self.level}"
            )


@dataclass(frozen=True, eq=False)
class EmpiricalCF:
    """Empirical characteristic function on a grid of real arguments.

    estimate(t) = mean of exp(i t A); at t = 0 this is exactly 1 + 0j. The
    per component standard error is 1/sqrt(n_samples), a bound that holds
    for the fBm pairs too. Given q = h^T G2 h, A ~ N(0, 4q), so m = E[cos tA
    | q] = exp(-2 t^2 q) in [0, 1] and E[cos^2 tA | q] = (1 + m^4) / 2; the
    xi of a pair are independent, so its covariance is Cov(m, m') <= E m^2 -
    (E m)^2. Then n Var(mean cos) <= Var(cos) + Cov_pair <= 1/2 + E m^4 / 2
    + E m^2 - 2 (E m)^2 <= 1/2 + 9/32 < 1 (E m^4 <= E m^2 <= E m, maximized
    at E m = 3/8), and the sin parts of a pair are uncorrelated, since E[sin
    tA | q] = 0.
    """
    t_grid: np.ndarray
    estimates: np.ndarray
    std_errors: np.ndarray


@dataclass(frozen=True, eq=False)
class MCResult:
    samples: np.ndarray
    mean: float
    variance: float
    cf: EmpiricalCF
    config: MCConfig


def _samplers(config: MCConfig):
    """The two processes' level Grams, their own samplers (one shared Gram when both
    use one kernel object), prepared before any normal is drawn: the workers only read them."""
    first = cov.level_gram(config.kernel1, config.level)
    grams = [first, first if config.kernel2 is config.kernel1
             else cov.level_gram(config.kernel2, config.level)]
    for gram in grams:
        gram.prepare()
    return grams


def _chunk_rows(samplers) -> int:
    """Rows per work chunk, fixed per config: CHUNK_ELEMENTS over the widest
    row a factor holds (`row_floats`: the 2^level cells of a path, a table's
    rank r, the circulant quad's zero-padded 2^(level+1) floats), rounded
    down to whole pairs of rows, at least one pair and at most BATCH.

    That is a power of two dividing BATCH unless a table's rank r exceeds
    2^level (then an even count, at least 2).
    """
    rows = CHUNK_ELEMENTS // max(s.row_floats for s in samplers)
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


def _chain_batch(level: int, scale: float):
    """batch(normals, chis, out): the chain's areas at `level` times `scale`,
    into out (inf, with no warning, on overflow).

    The batch draws whole columns of BATCH values, its 2 level + 2 normal
    columns g0, g1, u_j, w_j from `normals` and its 2 (level - 2) chi-square
    columns c_j, c'_j ~ chi^2_{2^j - 1}, j = 1 .. level - 2, from `chis` (see
    the module docstring), and writes their first len(out) areas. Every step
    is an elementwise +, * or sqrt, so each area's bits depend on its own
    entries of the columns alone.
    """

    def batch(normals, chis, out):
        p, q = np.square(normals.standard_normal(BATCH)), np.square(normals.standard_normal(BATCH))
        area = np.zeros(BATCH)
        for j in range(level):
            u, w = normals.standard_normal(BATCH), normals.standard_normal(BATCH)
            root_p, root_q = np.sqrt(p), np.sqrt(q)
            root_q *= u
            root_p *= w
            root_q -= root_p
            root_q *= 0.5 * np.sqrt(2.0**-j)
            area += root_q
            if j == level - 1:
                break
            # the half differences' squared norms: s^2 (u^2 + c), c = 0 at one cell
            for norm, draw in ((p, u), (q, w)):
                step = np.square(draw)
                if j:
                    step += chis.chisquare(2.0**j - 1.0, size=BATCH)
                step *= 2.0**-j
                norm += step
                norm *= 0.5
        with np.errstate(over="ignore"):
            np.multiply(area[: len(out)], scale, out=out)

    return batch


def _conditional_batch(config: MCConfig):
    """batch(paths, scalars, out): len(out) rows of process 1's normals from
    `paths`, mapped to paths in row chunks, and their areas given the paths,
    with xi from `scalars`, into out."""
    sampler1, sampler2 = _samplers(config)
    rows = _chunk_rows((sampler1, sampler2))

    def batch(paths, scalars, out):
        buf = np.empty((rows, sampler1.width))
        for start in range(0, len(out), rows):
            chunk = out[start : start + rows]
            inc1 = sampler1.apply(_fill(paths, buf, len(chunk)))
            _conditional_areas(inc1, sampler2, scalars.standard_normal(out=chunk))

    return batch


def _batch_sums(areas: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(sum A, sum cos(t_k A) for every k, sum sin(t_k A) for every k) of one
    batch's areas, each a numpy pairwise sum over at most BATCH floats."""
    sums = np.empty(1 + 2 * t.size)
    with np.errstate(over="ignore"):
        sums[0] = np.sum(areas)
    angle, phase = np.empty_like(areas), np.empty_like(areas)
    for k, tk in enumerate(t):
        np.multiply(tk, areas, out=angle)
        sums[1 + k] = np.sum(np.cos(angle, out=phase))
        sums[1 + t.size + k] = np.sum(np.sin(angle, out=phase))
    return sums


def run_mc(config: MCConfig, threads: int = 1, t_grid=()) -> MCResult:
    """Discrete-area draws with their mean, variance and empirical CF on t_grid.

    Two constant weights draw each area from the midpoint-refinement chain,
    every other pair from its exact law given process 1's path (see the
    module docstring). Work is split into fixed-size batches, one per task;
    the thread count (clamped to the number of batches) changes only the
    scheduling, never the batch streams or the reduction order, so the
    samples, mean, variance and CF are bit-identical for any `threads`.
    Samples 2j and 2j + 1 share one circulant draw when process 1 is fBm
    (uncorrelated, not independent). Each batch tests its own areas as it
    finishes, and one that is not finite raises NumericalError: one thread
    draws no later batch, and a pool cancels the batches it has not
    started. A batch that passes is reduced at once to its sums (the area
    sum, sum cos(tA) and sum sin(tA)), which run_mc adds in batch order;
    the variance is sum (A - mean)^2 over BATCH blocks, divided by n - 1.
    The conditional route's h^T G2 h is the square of an area's scale, so it
    overflows for areas above about 1e154; so does the variance of finite
    areas, which raises NumericalError after the run.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1:
        raise ShapeError(f"t_grid must be a 1-d array, got shape {t.shape}")
    c1, c2 = cov.constant_weight(config.kernel1), cov.constant_weight(config.kernel2)
    if c1 is not None and c2 is not None:
        batch = _chain_batch(config.level, c1 * c2)
    else:
        batch = _conditional_batch(config)
    n = config.n_samples
    areas = np.empty(n)
    starts = range(0, n, BATCH)

    def work(batch_start):
        block = areas[batch_start : batch_start + BATCH]
        batch(*_streams(config, batch_start // BATCH), block)
        bad = int(np.sum(~np.isfinite(block)))
        if bad:
            raise NumericalError(
                f"{bad} of the {block.size} areas of batch {batch_start // BATCH} are "
                "not finite (the kernels' scale overflows a float)"
            )
        return _batch_sums(block, t)

    def combine(parts):
        """The batches' sums added as they arrive, in batch order from +0.0
        (so the sin sums at t = 0 add to +0.0)."""
        sums = np.zeros(1 + 2 * t.size)
        for part in parts:
            with np.errstate(over="ignore"):
                sums += part
        return sums

    workers = min(threads, len(starts))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            sums = combine(pool.map(work, starts))
    else:
        sums = combine(map(work, starts))
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(sums[0]) / n
        squares = 0.0
        for start in starts:
            dev = areas[start : start + BATCH] - mean
            squares += float(np.sum(np.square(dev, out=dev)))
        variance = squares / (n - 1) if n > 1 else 0.0
    if not np.isfinite([mean, variance]).all():
        raise NumericalError(f"the areas' mean {mean} or variance {variance} overflows a float")
    estimates = np.empty(t.size, dtype=complex)
    estimates.real = sums[1 : 1 + t.size] / n
    estimates.imag = sums[1 + t.size :] / n
    cf = EmpiricalCF(t_grid=t, estimates=estimates, std_errors=np.full(t.size, 1.0 / np.sqrt(n)))
    return MCResult(samples=areas, mean=mean, variance=variance, cf=cf, config=config)
