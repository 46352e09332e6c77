"""Per-cell response-rate estimators and context marginalization.

Two competing estimators over the same cells: the plain maximum-likelihood
proportion with its binomial variance, and the hierarchical Bayesian
estimate obtained by pushing every posterior draw through the model's rate
transform. Marginalization pools cell estimates over context combinations
with traffic-proportional weights, draw-wise for the Bayesian path so that
marginal uncertainty stays coherent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .design import DesignMatrix, ExperimentSpec
from .glm import CountData
from .sampler import PosteriorSamples

__all__ = [
    "CellEstimate",
    "marginal_weights",
    "mle_estimate",
    "mle_estimates",
    "hb_estimate",
    "marginalize",
]


@dataclass(frozen=True)
class CellEstimate:
    """Mean and variance of one cell's response rate; hierarchical
    estimates also carry the posterior draws they summarize."""

    mean: float
    variance: float
    draws: np.ndarray | None = None

    @property
    def is_defined(self) -> bool:
        return not math.isnan(self.mean)


def mle_estimate(assignments: int, responses: int) -> CellEstimate:
    """Proportion estimate r/a with variance mean(1-mean)/a.

    Zero assignments yield an undefined (NaN-valued) estimate rather than
    an error, so sparse cells can be carried along and reported as such.
    """
    if assignments < 0 or responses < 0 or responses > assignments:
        raise ValueError("need 0 <= responses <= assignments")
    if assignments == 0:
        return CellEstimate(math.nan, math.nan)
    mean = responses / assignments
    return CellEstimate(mean, mean * (1.0 - mean) / assignments)


def mle_estimates(data: CountData) -> list[CellEstimate]:
    return [
        mle_estimate(int(a), int(r))
        for a, r in zip(data.assignments, data.responses)
    ]


def hb_estimate(samples: PosteriorSamples, X: DesignMatrix) -> list[CellEstimate]:
    """Posterior rate distribution per cell from coefficient draws.

    Every draw of (beta, epsilon) is pushed through sigmoid(X beta + eps);
    the per-cell mean/variance/draws summarize the resulting rates.
    """
    flat = samples.flat()
    beta_cols = [
        j for j, lab in enumerate(samples.parameter_labels) if lab.startswith("beta[")
    ]
    if len(beta_cols) != X.cols:
        raise ValueError(
            f"samples carry {len(beta_cols)} coefficients, design has {X.cols} columns"
        )
    eps = flat[:, samples.parameter_index("epsilon")]
    rates = expit(flat[:, beta_cols] @ X.matrix.T + eps[:, None])
    return [
        CellEstimate(
            float(rates[:, k].mean()),
            float(rates[:, k].var(ddof=1)) if rates.shape[0] > 1 else 0.0,
            rates[:, k].copy(),
        )
        for k in range(X.rows)
    ]


def marginal_weights(traffic: np.ndarray) -> np.ndarray:
    """Traffic-proportional context weights, normalized to sum to one."""
    t = np.asarray(traffic, dtype=float)
    if np.any(t < 0):
        raise ValueError("traffic counts must be non-negative")
    total = t.sum()
    if total <= 0:
        raise ValueError("cannot marginalize: no traffic in any context")
    return t / total


def marginalize(
    cell_estimates: list[CellEstimate],
    spec: ExperimentSpec,
    traffic: np.ndarray,
) -> list[CellEstimate]:
    """Context-pooled estimate per content combination.

    ``traffic`` holds assignment counts per context combination (in
    enumeration order). Hierarchical estimates are combined draw-wise, so a
    marginal credible interval is the interval of the weighted-average
    rate; plain estimates combine means linearly and variances with squared
    weights.
    """
    contexts = spec.context_combinations()
    contents = spec.content_combinations()
    if len(cell_estimates) != len(contents) * len(contexts):
        raise ValueError("need one estimate per cell")
    w = marginal_weights(traffic)
    if w.size != len(contexts):
        raise ValueError("need one traffic count per context combination")

    draw_wise = all(e.draws is not None for e in cell_estimates)
    out = []
    for i in range(len(contents)):
        block = [cell_estimates[i * len(contexts) + j] for j in range(len(contexts))]
        if draw_wise:
            pooled = sum(wj * e.draws for wj, e in zip(w, block) if wj > 0)
            out.append(
                CellEstimate(
                    float(pooled.mean()),
                    float(pooled.var(ddof=1)) if pooled.size > 1 else 0.0,
                    pooled,
                )
            )
        else:
            mean = sum(wj * e.mean for wj, e in zip(w, block) if wj > 0)
            var = sum(wj**2 * e.variance for wj, e in zip(w, block) if wj > 0)
            out.append(CellEstimate(float(mean), float(var)))
    return out
