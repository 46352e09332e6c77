"""Hierarchical Bayesian estimation and sequential testing for multivariate
AB tests.

Subpackages by concern: ``design`` (factors, cells, design matrices),
``glm`` (the hierarchical logistic model), ``sampler`` (No-U-Turn MCMC),
``conjugate`` (closed-form pooled-Gaussian reference model), ``estimate``
(competing rate estimators and marginalization), ``seqtest`` (sequential
Bayes-factor tests), ``metaprior`` (effect-size dispersion learning),
``sim`` (simulation harness and scoring), ``cli`` (batch commands).
"""

from .conjugate import (
    ConjugateInstance,
    ConjugatePosterior,
    shrinkage_coefficients,
)
from .design import (
    DesignMatrix,
    ExperimentSpec,
    Factor,
    build_design_matrix,
    enumerate_cells,
    enumerate_comparisons,
    load_experiment_spec,
)
from .estimate import CellEstimate, CellEstimates, hb_estimate, marginalize, mle_estimates
from .glm import CountData, fit_posterior
from .metaprior import LearntTau, learn_tau
from .sampler import PosteriorSamples, SamplerConfig, posterior_summary, sample
from .seqtest import ComparisonResult, TauSpec, bayes_factor, run_all_comparisons
from .sim import (
    MetricsReport,
    ScenarioConfig,
    desk_scenario,
    generate_truth,
    naive_sequential_test_fpr,
    paper_scenario,
    run_repetition,
    run_scenario,
    score,
    stream_updates,
    tau_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "CellEstimate",
    "CellEstimates",
    "ComparisonResult",
    "ConjugateInstance",
    "ConjugatePosterior",
    "CountData",
    "DesignMatrix",
    "ExperimentSpec",
    "Factor",
    "LearntTau",
    "MetricsReport",
    "PosteriorSamples",
    "SamplerConfig",
    "ScenarioConfig",
    "TauSpec",
    "bayes_factor",
    "build_design_matrix",
    "desk_scenario",
    "enumerate_cells",
    "enumerate_comparisons",
    "fit_posterior",
    "generate_truth",
    "hb_estimate",
    "learn_tau",
    "load_experiment_spec",
    "marginalize",
    "mle_estimates",
    "naive_sequential_test_fpr",
    "paper_scenario",
    "posterior_summary",
    "run_all_comparisons",
    "run_repetition",
    "run_scenario",
    "sample",
    "score",
    "shrinkage_coefficients",
    "stream_updates",
    "tau_experiment",
]
