"""Hierarchical Bayesian logistic model for binomial cell counts.

Cell response probabilities are ``sigmoid(X @ beta + epsilon)`` where X is
the binary design matrix, every coefficient shares a Gaussian prior
``Normal(mu, sigma^2)`` and ``epsilon ~ Normal(0, 1)`` is a single latent
offset drawn once per fit. The priors are the paper's and fixed:
``mu ~ Normal(0, 10^2)`` and ``sigma ~ HalfCauchy(5)``. The sampler's
target is non-centered, ``beta = mu + sigma * beta_raw`` with ``sigma`` on
the log scale, which samples far better when the data are sparse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .design import DesignMatrix
from .sampler import (
    Diagnostics,
    PosteriorSamples,
    SamplerConfig,
    TargetDensity,
    WarmStart,
    sample,
)

__all__ = [
    "CountData",
    "half_cauchy_log_density_log_scale",
    "make_target",
    "fit_posterior",
]


# mu ~ Normal(_MU_PRIOR_MEAN, _MU_PRIOR_SD^2), sigma ~ HalfCauchy(_SIGMA_SCALE).
_MU_PRIOR_MEAN = 0.0
_MU_PRIOR_SD = 10.0
_SIGMA_SCALE = 5.0

# The most assignments a cell may accumulate: counts enter the density as
# floats, which hold every integer up to 2**53 exactly.
MAX_ASSIGNMENTS = 2**53


@dataclass(frozen=True)
class CountData:
    """Per-cell assignment and response counts, aligned with design rows."""

    assignments: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignments, dtype=np.int64)
        r = np.asarray(self.responses, dtype=np.int64)
        object.__setattr__(self, "assignments", a)
        object.__setattr__(self, "responses", r)
        if a.shape != r.shape or a.ndim != 1:
            raise ValueError("assignments and responses must be equal-length vectors")
        if np.any(a < 0) or np.any(r < 0) or np.any(r > a):
            raise ValueError("need 0 <= responses <= assignments per cell")


def half_cauchy_log_density_log_scale(log_sigma: float, scale: float) -> float:
    """Half-Cauchy log density of sigma = exp(log_sigma), including the
    log-scale change-of-variables term, so exp of it integrates to one over
    the log_sigma axis."""
    return _half_cauchy_log_scale(scale)(log_sigma)


def _half_cauchy_log_scale(scale: float) -> Callable[[float], float]:
    """``half_cauchy_log_density_log_scale`` at one ``scale``, with its
    constants computed once."""
    log_norm = math.log(2.0 / (math.pi * scale))
    log_scale = math.log(scale)

    def log_density(log_sigma: float) -> float:
        # log1p((sigma/scale)^2) written as softplus to survive huge log_sigma.
        t = 2.0 * (log_sigma - log_scale)
        softplus = t + math.log1p(math.exp(-t)) if t > 0 else math.log1p(math.exp(t))
        return log_norm - softplus + log_sigma

    return log_density


def _softplus_and_sigmoid(eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``log(1 + exp(eta))`` and ``1 / (1 + exp(-eta))``, the second taken
    from the first: it cannot overflow at any finite ``eta``."""
    softplus = np.logaddexp(0.0, eta)
    return softplus, np.exp(eta - softplus)


def make_target(data: CountData, X: DesignMatrix) -> TargetDensity:
    """Differentiable target over the flat unconstrained vector
    [beta_raw..., mu, log_sigma, epsilon].

    The leading block holds the standardized coefficients
    ``beta_raw = (beta - mu) / sigma``; the density is the joint log density
    of the natural parameters and the counts (binomial normalization
    included, so it is proper) plus the log-Jacobian ``P * log_sigma``, and
    its geometry avoids the funnel that defeats samplers when counts are
    thin.
    """
    if data.assignments.shape[0] != X.rows:
        raise ValueError("count vectors must have one entry per design row")
    P = X.cols
    Xm = X.matrix
    a = data.assignments
    r = data.responses
    m, s, b = _MU_PRIOR_MEAN, _MU_PRIOR_SD, _SIGMA_SCALE

    # Constants hoisted out of the sampler's hot loop.
    XmT = np.ascontiguousarray(Xm.T)
    af = a.astype(float)
    rf = r.astype(float)
    binom_const = math.fsum(
        term for ai, ri in zip(a.tolist(), r.tolist())
        for term in (math.lgamma(ai + 1), -math.lgamma(ri + 1), -math.lgamma(ai - ri + 1)))
    norm_const = -0.5 * (P + 2) * math.log(2 * math.pi) - math.log(s)
    half_cauchy = _half_cauchy_log_scale(b)
    log_b = math.log(b)
    s_sq = s * s
    add, both = np.add.reduce, np.logical_and.reduce

    def raw(z):
        beta_raw = z[:P]
        mu, ls, eps = z[P:].tolist()
        if ls > 700.0:  # scale beyond float range: no posterior mass out here
            return -math.inf, np.zeros(P + 3)
        sigma = math.exp(ls)
        eta = Xm @ (mu + sigma * beta_raw)
        eta += eps
        if not both(np.isfinite(eta)):
            return -math.inf, np.zeros(P + 3)
        softplus, p = _softplus_and_sigmoid(eta)
        resid = rf - af * p
        # r*log(p) + (a-r)*log(1-p) collapses to r*eta - a*softplus(eta).
        loglik = float(rf @ eta) - float(af @ softplus) + binom_const

        lp = (
            norm_const
            + half_cauchy(ls)
            - 0.5 * float(beta_raw @ beta_raw)
            - 0.5 * (mu - m) ** 2 / s_sq
            - 0.5 * eps * eps
            + loglik
        )
        if not math.isfinite(lp):
            return -math.inf, np.zeros(P + 3)
        g_beta = XmT @ resid
        grad = np.empty(P + 3)
        np.multiply(g_beta, sigma, out=grad[:P])
        grad[:P] -= beta_raw
        grad[P] = float(add(g_beta)) - (mu - m) / s_sq
        # 1 - 2 sigma^2 / (b^2 + sigma^2) is the half-Cauchy and Jacobian term.
        grad[P + 1] = sigma * float(beta_raw @ g_beta) - math.tanh(ls - log_b)
        grad[P + 2] = float(add(resid)) - eps
        return lp, grad

    labels = tuple(f"raw[{j}]" for j in range(P)) + ("mu", "log_sigma", "epsilon")
    return TargetDensity(dim=P + 3, log_density_and_grad=raw, labels=labels)


_MIN_CELL_ESS = 50.0
_MAX_CELL_RHAT = 1.1


def fit_posterior(
    data: CountData,
    X: DesignMatrix,
    config: SamplerConfig,
    warm_start: WarmStart | None = None,
) -> PosteriorSamples:
    """Run the sampler on the model and return draws in natural coordinates.

    Output labels are beta[j], mu, sigma, epsilon; the non-centered
    coefficients and log_sigma are mapped back before summaries. The
    coefficients are identified only through the prior, so the diagnostics
    cover the quantities the likelihood identifies instead: ``logit[k]``
    for each cell, the quantities every estimate is built from, then
    ``sigma`` and ``mu+epsilon``. Their warnings also report a fit whose
    cell logits mixed too poorly to be trusted.

    ``warm_start`` is the ``warm_start`` of a fit of the same model to
    earlier counts (see ``sampler.sample``); the result carries the
    sampler's own for the next fit.
    """
    target = make_target(data, X)
    samples = sample(target, config, warm_start)
    P = X.cols

    draws = samples.draws.copy()
    mu = draws[..., P]
    sigma = np.exp(draws[..., P + 1])
    draws[..., :P] = mu[..., None] + sigma[..., None] * draws[..., :P]
    draws[..., P + 1] = sigma
    labels = tuple(f"beta[{j}]" for j in range(P)) + ("mu", "sigma", "epsilon")

    epsilon = draws[..., P + 2:]
    identified = np.concatenate(
        [draws[..., :P] @ X.matrix.T + epsilon, sigma[..., None], mu[..., None] + epsilon],
        axis=2,
    )
    quantities = tuple(f"logit[{k}]" for k in range(X.rows)) + ("sigma", "mu+epsilon")
    raw = samples.diagnostics
    diag = Diagnostics.of(identified, quantities, raw.divergence_count, raw.warnings)
    ess = diag.effective_sample_size[:X.rows].min()
    rhat = diag.split_r_hat[:X.rows].max()
    if not (ess >= _MIN_CELL_ESS and rhat <= _MAX_CELL_RHAT):
        total = draws.shape[0] * draws.shape[1]
        warning = (
            f"cell logits mixed poorly (min ESS {ess:.0f} of {total} "
            f"draws, max split R-hat {rhat:.3f}); cell estimates may be off"
        )
        diag = replace(diag, warnings=diag.warnings + (warning,))
    return replace(samples, draws=draws, parameter_labels=labels, diagnostics=diag)
