"""Grid p-variation estimates, control-map audits and the 2D Young integral.

1D variation of f over sample points x_0 < ... < x_n is the supremum of

    ( sum_i |f(x_{i+1'}) - f(x_{i'})|^p )^{1/p}

over all sub-partitions of the samples; on a fixed sample set this supremum
is computed exactly by dynamic programming. The 2D analogue replaces point
differences with rectangular increments over a partition pair. The true 2D
supremum over arbitrary partition pairs is combinatorially explosive, so
``v2p_grid`` sums |increment|^p over the full dyadic product grid of a given
level and reports it as a lower bound; ``variation_profile`` tracks that
bound over a refinement ladder and classifies its behaviour.

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

import numpy as np

from . import covariance as cov
from .errors import NumericalError, ParameterError

#: relative tolerance deciding that a profile has stabilized
PROFILE_TOL = 1e-3
#: per-level growth ratio classifying a profile as growing
GROWTH_FACTOR = 1.2
#: numerical slack allowed in superadditivity audits
SLACK_TOL = 1e-9

STABILIZING = "Stabilizing"
GROWING = "Growing"
INCONCLUSIVE = "Inconclusive"


def _require_exponent(p: float) -> None:
    """Raise ParameterError unless p is a finite variation exponent p >= 1."""
    if not (math.isfinite(p) and p >= 1.0):
        raise ParameterError(f"variation exponent must be finite and >= 1, got {p}")


def v1p(samples, p: float) -> float:
    """Exact 1D p-variation over all sub-partitions of the sample points.

    samples: sequence of (point, value) pairs with strictly increasing points.
    """
    _require_exponent(p)
    pts = np.asarray([s[0] for s in samples], dtype=float)
    vals = np.asarray([s[1] for s in samples], dtype=float)
    if len(pts) and np.any(np.diff(pts) <= 0):
        raise ParameterError("sample points must be strictly increasing")
    n = len(vals)
    if n < 2:
        return 0.0
    # best[j] = max over sub-partitions ending at j of sum |delta|^p
    best = np.zeros(n)
    for j in range(1, n):
        best[j] = np.max(best[:j] + np.abs(vals[j] - vals[:j]) ** p)
    return float(best[-1] ** (1.0 / p))


def v2p_grid(kernel, p: float, level: int) -> float:
    """(sum over level-n product-grid cells |rect increment|^p)^{1/p}.

    A lower bound of the true 2D p-variation (the supremum is restricted to
    the full dyadic product partition of the given level). The cell
    increments are the entries of the level Gram, so the sum takes O(N) time
    and memory for diagonal and Toeplitz Grams. cov.level_gram bounds the
    level by the Gram's structure before it is built: 24 for Brownian and
    weighted kernels, 23 for fBm, 12 for tabulated kernels. A sum that is
    not finite (|increment|^p above the largest float) raises NumericalError.
    """
    _require_exponent(p)
    total = cov.level_gram(kernel, level).abs_power_sum(p)
    if not math.isfinite(total):
        raise NumericalError(f"the level-{level} sum of |increment|^{p:g} is {total}")
    return total ** (1.0 / p)


@dataclass(frozen=True)
class VariationProfile:
    p: float
    levels: tuple  # ((level, estimate), ...)
    verdict: str

    def estimates(self):
        return [e for _, e in self.levels]


def variation_profile(kernel, p: float, max_level: int) -> VariationProfile:
    """Ladder of v2p_grid estimates for levels 1..max_level with a verdict.

    Stabilizing: the last two estimates agree to PROFILE_TOL relatively.
    Growing: each of the last three refinement steps multiplies the estimate
    by at least GROWTH_FACTOR. Otherwise inconclusive. max_level is bounded
    as in v2p_grid, by cov.check_level before the first Gram is built.
    """
    if max_level < 1:
        raise ParameterError(f"maximum grid level must be >= 1, got {max_level}")
    cov.check_level(max_level, kernel)
    ests = [(n, v2p_grid(kernel, p, n)) for n in range(1, max_level + 1)]
    vals = [e for _, e in ests]
    verdict = INCONCLUSIVE
    if len(vals) >= 2:
        a, b = vals[-2], vals[-1]
        if abs(b - a) <= PROFILE_TOL * max(abs(a), 1e-300):
            verdict = STABILIZING
        elif len(vals) >= 4 and all(
            vals[i + 1] >= GROWTH_FACTOR * vals[i] for i in range(len(vals) - 4, len(vals) - 1)
        ):
            verdict = GROWING
    return VariationProfile(p=p, levels=tuple(ests), verdict=verdict)


def area_control():
    """The area measure, the canonical 2D control."""
    return lambda rect: (rect.s1 - rect.s0) * (rect.u1 - rect.u0)


def grid_control(kernel, p: float, level: int = 6):
    """Control candidate omega(rect) = sum |increment|^p over a local grid.

    The p-th power of the grid p-variation of the kernel restricted to the
    rectangle, evaluated on a uniform 2^level subdivision of the rectangle.
    Each call builds a (2^level + 1)^2 corner array, so the level is checked
    here, as for a dense route, by cov.check_level: ParameterError below 0,
    ResourceError above 12.
    """
    _require_exponent(p)
    n = 2 ** cov.check_level(level)

    def omega(rect):
        xs = np.linspace(rect.s0, rect.s1, n + 1)
        ys = np.linspace(rect.u0, rect.u1, n + 1)
        corners = cov.eval_grid(kernel, xs, ys)
        inc = np.diff(np.diff(corners, axis=0), axis=1)
        return float(np.sum(np.abs(inc) ** p))

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
    """
    # written so that a NaN exponent fails the test
    if not (p > 0 and q > 0 and 1.0 / p + 1.0 / q >= 1.0):
        raise ParameterError(
            f"control product requires 1/p + 1/q >= 1, got p={p}, q={q}"
        )
    rng = np.random.default_rng(seed)

    def estimate(rect):
        value = omega1(rect) ** (1.0 / p) * omega2(rect) ** (1.0 / q)
        return ControlEstimate(rectangle=rect, value=float(value))

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
    with ResourceError before f is evaluated.
    """
    _require_exponent(p)
    _require_exponent(q)
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
    value = float(np.sum(fvals[:-1, :-1] * inc))
    n = len(inc) // 2
    coarse = float(np.sum(fvals[:-1:2, :-1:2] * inc.reshape(n, 2, n, 2).sum(axis=(1, 3))))
    # free the dense copy of the Gram before the norm of f
    del inc

    finc = np.diff(np.diff(fvals, axis=0), axis=1)
    f_v2p = float(np.sum(np.abs(finc) ** p) ** (1.0 / p))
    bottom = v1p(list(zip(nodes, fvals[:, 0])), p)
    left = v1p(list(zip(nodes, fvals[0, :])), p)
    norm = YoungNorm(
        v2p=f_v2p,
        v1p_bottom_edge=bottom,
        v1p_left_edge=left,
        corner_abs=float(abs(fvals[0, 0])),
    )
    vq = gram.abs_power_sum(q) ** (1.0 / q)
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
