"""Exact densities and tails of Gaussian norms, two-sided eigenvalue-product
tail bounds, and Feller-type upper/lower class integral tests for sequences
of covariance matrices, cross-checked by a seeded Monte Carlo oracle."""

__version__ = "0.1.0"

from .chidensity import (
    ConstantTable,
    WeightedChiSquare,
    chisq_density,
    chisq_norm_tail,
    constants,
    density_lower_bound,
    density_upper_bound,
    log_weighted_norm_tail,
    log_weighted_shell_probability,
    weighted_density,
    weighted_norm_tail,
    weighted_shell_probability,
    zolotarev_constant,
)
from .errors import NumericError, ValidationError
from .integraltest import (
    EquivalenceReport,
    FluctuationReport,
    PhiFamily,
    SeriesDiagnostics,
    classify,
    equivalence_report,
    fluctuation_diagnostic,
    gamma_n,
    series_term,
    subsequence_index,
)
from .montecarlo import (
    PathRecord,
    SeededStream,
    TailEstimate,
    empirical_limsup,
    estimate_tail,
    sample_norm_Y,
    sample_standard_normal,
    simulate_paths,
)
from .regularize import (
    RegularizedSpectrum,
    d_tilde,
    density_comparison_check,
    derived_constants,
    regularized,
    shell_lower_bound,
    tail_lower_bound,
    tail_upper_bound,
)
from .sequences import (
    CovarianceSequence,
    CutoffFamily,
    DiscreteDistribution,
    delta_k,
    limit_and_convergence_report,
    truncated_covariance,
)
from .spectral import (
    CovarianceMatrix,
    Spectrum,
    eigh,
    operator_norm,
    sqrt_psd,
)
