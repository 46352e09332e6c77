"""Hierarchical Bayesian logistic model for binomial cell counts.

Cell response probabilities are ``sigmoid(X @ beta + epsilon)`` where X is
the binary design matrix, every coefficient shares a Gaussian prior
``Normal(mu, sigma^2)``, ``mu ~ Normal(0, 100)``, ``sigma ~ HalfCauchy(5)``
and ``epsilon ~ Normal(0, 1)`` is a single latent offset drawn once per
fit. The module exposes the joint log density and its analytic gradient
(``sigma`` handled on the log scale with the change-of-variables term) both
in the natural parameterization and in a non-centered one where
``beta = mu + sigma * beta_raw``, which samples far better when the data
are sparse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit, gammaln

from .design import DesignMatrix
from .sampler import (
    PosteriorSamples,
    SamplerConfig,
    TargetDensity,
    effective_sample_size,
    sample,
    split_r_hat,
)

__all__ = [
    "Hyperparams",
    "ModelParams",
    "CountData",
    "sigmoid",
    "predict_rates",
    "log_posterior",
    "grad_log_posterior",
    "half_cauchy_log_density_log_scale",
    "make_target",
    "fit_posterior",
]


@dataclass(frozen=True)
class Hyperparams:
    """Fixed prior settings: Normal(mean, sd^2) for the shared coefficient
    mean, HalfCauchy(scale) for the coefficient spread."""

    mu_prior_mean: float = 0.0
    mu_prior_sd: float = 10.0
    sigma_cauchy_scale: float = 5.0

    def __post_init__(self):
        if self.mu_prior_sd <= 0 or self.sigma_cauchy_scale <= 0:
            raise ValueError("prior scales must be positive")


@dataclass(frozen=True)
class ModelParams:
    """One point in parameter space; sigma is stored as log_sigma."""

    beta: np.ndarray
    mu: float
    log_sigma: float
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))

    @property
    def sigma(self) -> float:
        return float(np.exp(self.log_sigma))


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


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def predict_rates(params: ModelParams, X: DesignMatrix) -> np.ndarray:
    """Cell response probabilities sigmoid(X beta + epsilon), in open (0, 1)."""
    if params.beta.shape[0] != X.cols:
        raise ValueError(
            f"beta has {params.beta.shape[0]} entries, design has {X.cols} columns"
        )
    p = sigmoid(X.matrix @ params.beta + params.epsilon)
    return np.clip(p, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def half_cauchy_log_density_log_scale(log_sigma: float, scale: float) -> float:
    """Half-Cauchy log density of sigma = exp(log_sigma), including the
    log-scale change-of-variables term, so exp of it integrates to one over
    the log_sigma axis."""
    # log1p((sigma/scale)^2) written as softplus to survive huge log_sigma.
    t = 2.0 * (log_sigma - math.log(scale))
    softplus = t + math.log1p(math.exp(-t)) if t > 0 else math.log1p(math.exp(t))
    return math.log(2.0 / (math.pi * scale)) - softplus + log_sigma


def _binomial_loglik_terms(eta, data: CountData):
    a, r = data.assignments, data.responses
    log_p = -_softplus(-eta)
    log_1mp = -_softplus(eta)
    const = gammaln(a + 1) - gammaln(r + 1) - gammaln(a - r + 1)
    return float(np.sum(const + r * log_p + (a - r) * log_1mp))


def log_posterior(
    params: ModelParams, data: CountData, X: DesignMatrix, hyper: Hyperparams
) -> float:
    """Joint log density of parameters and observed counts.

    Cells with zero assignments contribute nothing; the binomial
    normalization constant is kept so the value is a proper log density.
    """
    if data.assignments.shape[0] != X.rows:
        raise ValueError("count vectors must have one entry per design row")
    beta, mu, ls, eps = params.beta, params.mu, params.log_sigma, params.epsilon
    sigma = np.exp(ls)
    m, s = hyper.mu_prior_mean, hyper.mu_prior_sd

    lp = -0.5 * beta.size * np.log(2 * np.pi) - beta.size * ls
    lp -= 0.5 * np.sum(((beta - mu) / sigma) ** 2)
    lp += -0.5 * np.log(2 * np.pi) - np.log(s) - 0.5 * ((mu - m) / s) ** 2
    lp += half_cauchy_log_density_log_scale(ls, hyper.sigma_cauchy_scale)
    lp += -0.5 * np.log(2 * np.pi) - 0.5 * eps**2
    lp += _binomial_loglik_terms(X.matrix @ beta + eps, data)
    return float(lp)


def grad_log_posterior(
    params: ModelParams, data: CountData, X: DesignMatrix, hyper: Hyperparams
) -> np.ndarray:
    """Gradient of ``log_posterior`` packed as [beta..., mu, log_sigma, epsilon]."""
    beta, mu, ls, eps = params.beta, params.mu, params.log_sigma, params.epsilon
    sigma = np.exp(ls)
    m, s = hyper.mu_prior_mean, hyper.mu_prior_sd
    b = hyper.sigma_cauchy_scale

    eta = X.matrix @ beta + eps
    resid = data.responses - data.assignments * sigmoid(eta)

    z = (beta - mu) / sigma
    g_beta = X.matrix.T @ resid - z / sigma
    g_mu = np.sum(z) / sigma - (mu - m) / s**2
    g_ls = (
        -beta.size
        + np.sum(z**2)
        - math.tanh(ls - math.log(b))  # 1 - 2 sigma^2 / (b^2 + sigma^2)
    )
    g_eps = np.sum(resid) - eps
    return np.concatenate([g_beta, [g_mu, g_ls, g_eps]])


def _labels(n_coef: int) -> tuple[str, ...]:
    return tuple(f"beta[{j}]" for j in range(n_coef)) + ("mu", "log_sigma", "epsilon")


def make_target(
    data: CountData,
    X: DesignMatrix,
    hyper: Hyperparams = Hyperparams(),
    noncentered: bool = True,
) -> TargetDensity:
    """Differentiable target over the flat unconstrained vector
    [beta..., mu, log_sigma, epsilon].

    With ``noncentered=True`` (default) the leading block holds the
    standardized coefficients ``beta_raw = (beta - mu) / sigma``; the
    posterior over the natural parameters is unchanged, but the geometry
    avoids the funnel that defeats samplers when counts are thin.
    """
    if data.assignments.shape[0] != X.rows:
        raise ValueError("count vectors must have one entry per design row")
    P = X.cols
    Xm = X.matrix
    a = data.assignments
    r = data.responses
    m, s = hyper.mu_prior_mean, hyper.mu_prior_sd
    b = hyper.sigma_cauchy_scale

    def centered(z):
        if z[P + 1] > 700.0:
            return -math.inf, np.zeros(P + 3)
        params = ModelParams(z[:P], z[P], z[P + 1], z[P + 2])
        lp = log_posterior(params, data, X, hyper)
        if not math.isfinite(lp):
            return -math.inf, np.zeros(P + 3)
        return lp, grad_log_posterior(params, data, X, hyper)

    # Constants hoisted out of the sampler's hot loop.
    XmT = np.ascontiguousarray(Xm.T)
    af = a.astype(float)
    rf = r.astype(float)
    binom_const = float(np.sum(gammaln(a + 1) - gammaln(r + 1) - gammaln(a - r + 1)))
    norm_const = -0.5 * (P + 2) * math.log(2 * math.pi) - math.log(s)
    log_b = math.log(b)
    s_sq = s * s

    def raw(z):
        beta_raw, mu, ls, eps = z[:P], z[P], z[P + 1], z[P + 2]
        if ls > 700.0:  # scale beyond float range: no posterior mass out here
            return -math.inf, np.zeros(P + 3)
        sigma = math.exp(ls)
        eta = Xm @ (mu + sigma * beta_raw)
        eta += eps
        if not np.isfinite(eta).all():
            return -math.inf, np.zeros(P + 3)
        p = expit(eta)
        resid = rf - af * p
        # r*log(p) + (a-r)*log(1-p) collapses to r*eta - a*softplus(eta).
        loglik = float(rf @ eta) - float(af @ np.logaddexp(0.0, eta)) + binom_const

        lp = (
            norm_const
            + half_cauchy_log_density_log_scale(ls, b)
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
        grad[P] = float(g_beta.sum()) - (mu - m) / s_sq
        # 1 - 2 sigma^2 / (b^2 + sigma^2) is the half-Cauchy and Jacobian term.
        grad[P + 1] = sigma * float(beta_raw @ g_beta) - math.tanh(ls - log_b)
        grad[P + 2] = float(resid.sum()) - eps
        return lp, grad

    fn = raw if noncentered else centered
    kind = "raw" if noncentered else "beta"
    labels = tuple(f"{kind}[{j}]" for j in range(P)) + ("mu", "log_sigma", "epsilon")
    return TargetDensity(dim=P + 3, log_density_and_grad=fn, labels=labels)


_MIN_CELL_ESS = 50.0
_MAX_CELL_RHAT = 1.1


def _cell_mixing_warning(logits: np.ndarray) -> str | None:
    """A warning if the cell logits [draws, chains, cells] have an effective
    sample size under ``_MIN_CELL_ESS`` or a split R-hat over
    ``_MAX_CELL_RHAT`` in any cell, else None."""
    cells = range(logits.shape[2])
    ess = min(effective_sample_size(logits[:, :, k]) for k in cells)
    rhat = max(split_r_hat(logits[:, :, k]) for k in cells)
    if ess >= _MIN_CELL_ESS and rhat <= _MAX_CELL_RHAT:
        return None
    return (
        f"cell logits mixed poorly (min ESS {ess:.0f} of {logits.shape[0] * logits.shape[1]} "
        f"draws, max split R-hat {rhat:.3f}); cell estimates may be off"
    )


def fit_posterior(
    data: CountData,
    X: DesignMatrix,
    config: SamplerConfig,
    hyper: Hyperparams = Hyperparams(),
    noncentered: bool = True,
) -> PosteriorSamples:
    """Run the sampler on the model and return draws in natural coordinates.

    Output labels are beta[j], mu, sigma, epsilon; the non-centered
    coefficients (if used) and log_sigma are mapped back before summaries,
    and convergence diagnostics are recomputed on the reported scale. The
    coefficients themselves are identified only through the prior, so the
    diagnostics warnings also report a fit whose cell logits, the quantities
    every estimate is built from, mixed too poorly to be trusted.
    """
    target = make_target(data, X, hyper, noncentered=noncentered)
    samples = sample(target, config)
    P = X.cols

    draws = samples.draws.copy()
    mu = draws[..., P]
    sigma = np.exp(draws[..., P + 1])
    if noncentered:
        draws[..., :P] = mu[..., None] + sigma[..., None] * draws[..., :P]
    draws[..., P + 1] = sigma
    labels = tuple(f"beta[{j}]" for j in range(P)) + ("mu", "sigma", "epsilon")
    natural = samples.relabeled(draws, labels)
    warning = _cell_mixing_warning(draws[..., :P] @ X.matrix.T + draws[..., P + 2:])
    if warning is None:
        return natural
    diag = natural.diagnostics
    return replace(natural, diagnostics=replace(diag, warnings=diag.warnings + (warning,)))

