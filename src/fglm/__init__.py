"""Functional generalized linear regression: simulation and estimation.

Predictor curves live in L2[0,1] through their cosine-basis
coefficients; responses follow a one-parameter exponential family whose
canonical parameter is an affine functional of the curve.  The package
simulates such data, estimates the slope function by spectral
truncation plus maximum likelihood, reproduces the risk-decay exponent
of that estimator by Monte Carlo, and numerically certifies the
perturbation and likelihood bounds the analysis rests on.
"""
from .datagen import Dataset, GroundTruth, make_ground_truth, sample_dataset
from .estimator import (
    FitResult,
    NewtonConfig,
    TuningRule,
    estimate_slope,
    fit_mle,
    loss,
    tuning,
    zeta_interval,
)
from .expfam import (
    ExpFamilySpec,
    family_names,
    get_family,
    hellinger_sq_bound,
    hellinger_sq_exact,
    sample_response,
    verify_envelope,
)
from .fpca import spectral_estimate
from .funcspace import evaluate_on_grid, norm_sq, uniform_grid
from .harness import (
    ExperimentConfig,
    fit_loglog_slope,
    load_config,
    parse_config,
    replication_seed,
    run_rate_study,
    theoretical_exponent,
)
from .lowerbound import (
    AssouadConfig,
    affinity_study,
    assouad_bound_value,
    calibrated_eps,
    hypercube_slope,
)
from .spectral_diag import (
    PerturbationPair,
    check_chisq_maximal,
    check_eigenvalue_bound,
    check_eigenvector_bound,
    check_eigenvector_remainder,
    check_mle_linearization,
    check_projection_bound,
    expected_fisher,
    fisher_study,
    random_perturbation_suite,
)

__version__ = "0.1.0"

