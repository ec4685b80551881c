"""Extropy-family information measures for lifetime distributions.

Computes extropy, weighted extropy, residual/past and dynamic-survival
variants, and bivariate versions over a catalog of lifetime distributions,
with an adaptive quadrature engine as the single numerical backbone and a
claims harness that verifies every advertised identity and bound
numerically instead of assuming it.
"""

from .distributions import (
    UnivariateDistribution,
    ValidationError,
    beta2,
    beta3,
    beta_dist,
    closed_form,
    exponential,
    gamma_dist,
    log_gamma,
    make_distribution,
    pareto,
    piecewise,
    tabulated,
    uniform,
)
from .measures import (
    MEASURE_IDS,
    ConditionalLifetime,
    DomainError,
    compute_measure,
    decomposition_check,
    default_t_grid,
    dynamic_survival_extropy,
    extropy,
    measure_points,
    past_extropy,
    residual_extropy,
    weighted_extropy,
    weighted_past_derivative,
    weighted_past_extropy,
    weighted_residual_derivative,
    weighted_residual_extropy,
)
from .bivariate import (
    BIVARIATE_MEASURE_IDS,
    BivariateDistribution,
    bivariate_beta,
    bivariate_extropy,
    bivariate_weighted_extropy,
    compute_bivariate,
    independence_factorization_check,
    make_bivariate,
    product_distribution,
)
from .transforms import (
    MonotoneTransform,
    linear_transform_extropy,
    pushforward_distribution,
    transform_from_name,
    transformed_residual_past,
    transformed_weighted_extropy,
)
from .claims import (
    CLAIM_IDS,
    ConstancyODEFamily,
    HazardCurve,
    constancy_explorer,
    invert_weighted_residual,
    lemma1_past_check,
    lemma1_residual_check,
    past_bound_check,
    reconstruct_survival,
    residual_bound_check,
    sum_bound_check,
)
from .quadrature import (
    Estimate,
    Integrand,
    detect_divergence,
    differentiate,
    integrate,
)
from .reporting import ClaimReport

__version__ = "0.1.0"
