"""Polynomial loss functions whose minimizers are a prescribed finite set.

The package interpolates a generating system through a point set, fits
that system to noisy samples by a penalized least-squares solve, reads
the zeros back out of multiplication matrices, and clusters data by
descending the resulting losses.
"""

from .clustering import (
    ClusterAssignment,
    GmmSpec,
    MinimizeResult,
    RecoveryResult,
    assign_labels,
    bounded_noise_sample,
    clustering_accuracy,
    gmm_sample,
    minimize_from,
    nearest_point_assignment,
    random_gmm_spec,
    recover_point_set,
)
from .errors import (
    DegenerateConfigurationError,
    InvalidStateError,
    NumericalFailureError,
)
from .extraction import ZeroSet, extract_zero_set, real_projection, set_distance
from .fitting import (
    FitOptions,
    FitResult,
    SampleSet,
    fit_generating_matrix,
)
from .generating_system import (
    GeneratingMatrix,
    PointSet,
    commutator_residual,
    evaluate_generators,
    generator_strings,
    generator_terms,
    multiplication_matrices,
    solve_generating_matrix,
)
from .loss_functions import (
    GeneratingLoss,
    TransformedLoss,
    build_transformed_loss,
)
from .monomial_basis import (
    MonomialBasis,
    border_monomials,
    grlex_key,
    monomial_matrix,
    standard_monomials,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterAssignment",
    "DegenerateConfigurationError",
    "FitOptions",
    "FitResult",
    "GeneratingLoss",
    "GeneratingMatrix",
    "GmmSpec",
    "InvalidStateError",
    "MinimizeResult",
    "MonomialBasis",
    "NumericalFailureError",
    "PointSet",
    "RecoveryResult",
    "SampleSet",
    "TransformedLoss",
    "ZeroSet",
    "assign_labels",
    "border_monomials",
    "bounded_noise_sample",
    "build_transformed_loss",
    "clustering_accuracy",
    "nearest_point_assignment",
    "commutator_residual",
    "evaluate_generators",
    "extract_zero_set",
    "fit_generating_matrix",
    "generator_strings",
    "generator_terms",
    "gmm_sample",
    "grlex_key",
    "minimize_from",
    "monomial_matrix",
    "multiplication_matrices",
    "random_gmm_spec",
    "real_projection",
    "recover_point_set",
    "set_distance",
    "solve_generating_matrix",
    "standard_monomials",
]
