"""Quasi-arithmetic opinion pooling with respect to proper scoring rules.

A pooling method for every continuous proper scoring rule: aggregate
expert forecasts by averaging their exposures (score-gradient vectors)
and inverting the exposure map.  The package evaluates the rule
families, computes the pools (with a Bregman-minimizing generalization
for rules whose exposure range is not convex), verifies the max-min
optimality and axiomatic properties of the pool, and learns expert
weights online with a sqrt(T) regret guarantee.
"""

from .errors import (
    ConfigError,
    DegenerateError,
    DomainError,
    ExposureRangeError,
    QapoolError,
    SolverError,
)
from .rules import (
    ExposureVector,
    Forecast,
    RuleSpec,
    as_forecast,
    bregman,
    expected_reward,
    exposure,
    exposure_norm_bound,
    has_convex_exposure,
    parse_rule,
    score,
)
from .pooling import (
    PoolResult,
    WeightedForecast,
    generalized_pool,
    invert_exposure,
    qa_pool,
)
from .learning import (
    LearningConfig,
    RegretReport,
    WeightVector,
    as_weight_vector,
    loss_gradient,
    offline_best_weights,
    ogd_run,
    project_to_simplex,
    weight_score,
)
from .analysis import (
    AxiomSuiteReport,
    ConcavityReport,
    ExposureProbeReport,
    SurplusReport,
    aggregator_utility,
    axiom_suite,
    concavity_probe,
    exposure_probe,
    maxmin_verify,
    sample_forecast,
    surplus_report,
)

__version__ = "0.1.0"

__all__ = [
    "QapoolError",
    "DomainError",
    "ExposureRangeError",
    "DegenerateError",
    "ConfigError",
    "SolverError",
    "Forecast",
    "RuleSpec",
    "ExposureVector",
    "as_forecast",
    "parse_rule",
    "expected_reward",
    "exposure",
    "score",
    "bregman",
    "has_convex_exposure",
    "exposure_norm_bound",
    "WeightedForecast",
    "PoolResult",
    "qa_pool",
    "invert_exposure",
    "generalized_pool",
    "WeightVector",
    "LearningConfig",
    "RegretReport",
    "as_weight_vector",
    "weight_score",
    "loss_gradient",
    "project_to_simplex",
    "ogd_run",
    "offline_best_weights",
    "SurplusReport",
    "AxiomSuiteReport",
    "ExposureProbeReport",
    "ConcavityReport",
    "aggregator_utility",
    "surplus_report",
    "maxmin_verify",
    "axiom_suite",
    "exposure_probe",
    "concavity_probe",
    "sample_forecast",
    "__version__",
]
