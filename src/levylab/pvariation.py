"""Grid p-variation estimates of a covariance kernel.

The 2D p-variation replaces the point differences of 1D variation with
rectangular increments over a partition pair. The true 2D supremum over
arbitrary partition pairs is combinatorially explosive, so ``v2p_grid`` sums
|increment|^p over the full dyadic product grid of a given level and reports
it as a lower bound; ``variation_profile`` tracks that bound over a
refinement ladder and classifies its behaviour. The exact 1D p-variation of
sample points (checks.v1p) and the 2D Young audits are references in checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import covariance as cov
from .errors import NumericalError, ParameterError

#: relative tolerance deciding that a profile has stabilized
PROFILE_TOL = 1e-3
#: per-level growth ratio classifying a profile as growing
GROWTH_FACTOR = 1.2

STABILIZING = "Stabilizing"
GROWING = "Growing"
INCONCLUSIVE = "Inconclusive"


def _require_exponent(p: float) -> None:
    """Raise ParameterError unless p is a finite variation exponent p >= 1."""
    if not (math.isfinite(p) and p >= 1.0):
        raise ParameterError(f"variation exponent must be finite and >= 1, got {p}")


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
