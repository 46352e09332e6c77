"""Per-cell response-rate estimators and context marginalization.

Two competing estimators over the same cells: the plain maximum-likelihood
proportion with its binomial variance, and the hierarchical Bayesian
estimate obtained by pushing every posterior draw through the model's rate
transform; each returns one ``CellEstimates`` record of per-cell arrays.
Marginalization pools cells over context combinations with
traffic-proportional weights, draw-wise for the Bayesian path so that
marginal uncertainty stays coherent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix, ExperimentSpec
from .glm import CountData
from .sampler import PosteriorSamples

__all__ = [
    "CellEstimate",
    "CellEstimates",
    "marginal_weights",
    "mle_estimates",
    "hb_estimate",
    "marginalize",
]


@dataclass(frozen=True)
class CellEstimate:
    """One cell of a ``CellEstimates``: mean and variance of its response
    rate and, for hierarchical estimates, a row view of the draws."""

    mean: float
    variance: float
    draws: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class CellEstimates:
    """Mean and variance of every cell's response rate, in cell order.

    Hierarchical estimates also carry the ``[cells, draws]`` matrix of
    posterior rate draws they summarize; an undefined cell reads NaN.
    ``estimates[k]`` is cell ``k`` as a ``CellEstimate``, so ``len()`` and
    iteration run over cells.
    """

    means: np.ndarray
    variances: np.ndarray
    draws: np.ndarray | None = None

    def __post_init__(self):
        for name in ("means", "variances", "draws"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, np.asarray(getattr(self, name), float))
        n = len(self.means)
        if self.means.shape != (n,) or self.variances.shape != (n,) or not (
                self.draws is None or self.draws.ndim == 2 and len(self.draws) == n):
            raise ValueError("need [cells] means and variances, [cells, draws] draws")

    def __len__(self) -> int:
        return self.means.size

    def __getitem__(self, k: int) -> CellEstimate:
        draws = None if self.draws is None else self.draws[k]
        return CellEstimate(float(self.means[k]), float(self.variances[k]), draws)


def mle_estimates(data: CountData) -> CellEstimates:
    """Proportion estimate r/a with variance mean(1-mean)/a per cell.

    Cells with zero assignments get NaN rather than an error, so sparse
    cells can be carried along and reported as such.
    """
    a = data.assignments
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 -> NaN
        means = data.responses / a
        variances = means * (1.0 - means) / a
    return CellEstimates(means, variances)


def hb_estimate(samples: PosteriorSamples, X: DesignMatrix) -> CellEstimates:
    """Posterior rate distribution per cell from coefficient draws.

    Every draw of (beta, epsilon) is pushed through sigmoid(X beta + eps);
    the ``[cells, draws]`` rates are returned with their per-cell moments.
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
    # The [draws, cells] product (this orientation fixes the bits) is
    # dropped once its contiguous transpose exists.
    logits = flat[:, beta_cols] @ X.matrix.T
    logits += eps[:, None]
    # exp(-x) overflows to inf below x = -709, where the rate reads 0.
    with np.errstate(over="ignore"):
        rates = 1.0 / (1.0 + np.exp(-logits))
    del logits
    return _summarize(np.ascontiguousarray(rates.T))


def _summarize(draws: np.ndarray) -> CellEstimates:
    """Per-row moments of a C-contiguous ``[cells, draws]`` matrix: a
    contiguous row reduces to the same bits as a 1-D array of its draws, a
    strided column or an axis-0 reduction need not."""
    variances = draws.var(axis=1, ddof=1) if draws.shape[1] > 1 else np.zeros(len(draws))
    return CellEstimates(draws.mean(axis=1), variances, draws)


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
    estimates: CellEstimates,
    spec: ExperimentSpec,
    traffic: np.ndarray,
) -> CellEstimates:
    """Context-pooled estimate per content combination.

    ``traffic`` holds assignment counts per context combination (in
    enumeration order). Hierarchical estimates are combined draw-wise, so a
    marginal credible interval is the interval of the weighted-average
    rate; plain estimates combine means linearly and variances with squared
    weights.
    """
    n_contexts = len(spec.context_combinations())
    n_contents = len(spec.content_combinations())
    if len(estimates) != n_contents * n_contexts:
        raise ValueError("need one estimate per cell")
    w = marginal_weights(traffic)
    if w.size != n_contexts:
        raise ValueError("need one traffic count per context combination")
    used = [j for j in range(n_contexts) if w[j] > 0]

    # Content factors lead the cell order: row i, column j is content i in
    # context j.
    if estimates.draws is not None:
        block = estimates.draws.reshape(n_contents, n_contexts, -1)
        return _summarize(sum(w[j] * block[:, j] for j in used))
    means = estimates.means.reshape(n_contents, n_contexts)
    variances = estimates.variances.reshape(n_contents, n_contexts)
    return CellEstimates(sum(w[j] * means[:, j] for j in used),
                         sum(w[j] ** 2 * variances[:, j] for j in used))
