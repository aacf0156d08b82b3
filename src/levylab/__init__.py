"""Generalised Levy areas of independent Gaussian processes.

Covariance-kernel calculus, grid p-variation diagnostics, dyadic chaos
norms, Monte Carlo area sampling and determinant-based characteristic
functions, plus a CLI (`levylab`) that wires them together.
"""
from .covariance import (
    CovKernel,
    LevelGram,
    brownian,
    fractional_brownian,
    level_gram,
    load_table_csv,
    parse_kernel_spec,
    tabulated,
    tabulated_from_fn,
    weighted_poly,
)
from .levy_kernel import (
    CauchyTable,
    cauchy_table,
    existence_check,
    fbm_existence_check,
    kernel_eval,
    norm_approx,
    norm_diff,
)
from .pvariation import VariationProfile, v2p_grid, variation_profile
from .simulate import EmpiricalCF, MCConfig, MCResult, empirical_cf, run_mc, sample_paths
from .spectral import (
    CFProduct,
    Spectrum,
    brownian_spectrum,
    cf_from_spectrum,
    classical_spectrum,
    general_spectrum,
    symmetry_check,
    weighted_cf,
)

__version__ = "0.1.0"
