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
from functools import partial
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
    "nested_laplace_draws",
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


# The nested Laplace approximation: how far below its peak the log-sigma
# grid reaches, the most nodes on either side of its centre, the bounds of
# the node spacing, and when a node's Newton search stops (the decrement is
# twice the density still to gain).
_TAIL_NATS = 10.0
_MAX_SIDE_NODES = 64
_SPACING = (0.02, 0.5)
_NEWTON_DECREMENT = 1e-10
_NEWTON_STEPS = 100
_ARMIJO = 1e-4
# Mixture draws pooled for a cold fit's first metric, beside one start per chain.
_START_DRAWS = 300


def nested_laplace_draws(
    data: CountData, X: DesignMatrix, n: int, rng: np.random.Generator
) -> np.ndarray:
    """``n`` draws [n, P + 3] in ``make_target``'s coordinates from a nested
    Laplace approximation of the posterior (Rue, Martino & Chopin, JRSS-B
    2009).

    Given log sigma, the model is a logistic regression in (beta_raw, mu,
    epsilon) with Gaussian priors, and its log density is strictly concave.
    At each node of a uniform log-sigma grid, Newton's method finds the mode
    and the Cholesky factor of the negative Hessian there, and the node is
    weighted by its Laplace marginal: the log density at the mode less half
    the log determinant of that Hessian. The grid is centred on the best
    point of a search for the marginal's highest point, spaced at half the
    sd its curvature there implies, and runs out on each side until the
    marginal has fallen ``_TAIL_NATS`` below its peak. A draw picks a node
    by weight and draws that node's Gaussian; each node keeps only its mode
    and weight, and only the nodes drawn are factored again. The nodes and
    weights are deterministic; the draws depend on ``rng`` alone.
    """
    density = make_target(data, X).log_density_and_grad
    P = X.cols
    ls = P + 1  # log sigma's index; the other coordinates are the free ones
    free = np.r_[0:ls, ls + 1]
    row_sums = X.matrix.sum(axis=1)
    assignments = data.assignments.astype(float)
    prior_precision = np.r_[np.ones(P), 1.0 / _MU_PRIOR_SD**2, 1.0]
    weighted = np.empty((X.rows, P + 2))

    def weigh(z):
        """Fill ``weighted`` with W^1/2 A at ``z``. The rows of A are the cell
        logits' derivatives in the free coordinates (sigma * X, X's row
        sums for mu and ones for epsilon), and W holds the binomial weights
        a * p * (1 - p) = a * exp(eta - 2 softplus(eta))."""
        sigma = math.exp(z[ls])
        eta = X.matrix @ (z[P] + sigma * z[:P])
        eta += z[P + 2]
        root_w = np.sqrt(assignments * np.exp(eta - 2.0 * np.logaddexp(0.0, eta)))
        np.multiply(X.matrix, (sigma * root_w)[:, None], out=weighted[:, :P])
        np.multiply(row_sums, root_w, out=weighted[:, P])
        weighted[:, P + 1] = root_w

    def factor(z):
        """(H, R) at ``z``: H the negative Hessian A.T W A plus the prior
        precision over the free coordinates, and upper-triangular R with
        R.T @ R = H. R is the Cholesky factor of H formed, or where rounding
        has left that not positive definite (counts near
        ``MAX_ASSIGNMENTS``), the R of a QR of [W^1/2 A; prior
        precision^1/2], which does not square A's condition number; H is
        then R.T @ R."""
        weigh(z)
        neg_hessian = weighted.T @ weighted
        neg_hessian[np.diag_indices(P + 2)] += prior_precision
        try:
            return neg_hessian, np.linalg.cholesky(neg_hessian).T
        except np.linalg.LinAlgError:
            root_prior = np.diag(np.sqrt(prior_precision))
            r = np.linalg.qr(np.vstack([weighted, root_prior]), mode="r")
            return r.T @ r, r

    def node(log_sigma, start):
        """(log Laplace marginal, mode) at ``log_sigma``, from the mode
        ``start`` at another log sigma rescaled so that every cell logit
        stays as it was. The line search keeps each Newton step an ascent."""
        z = start.copy()
        z[:P] *= math.exp(start[ls] - log_sigma)
        z[ls] = log_sigma
        lp, grad = density(z)
        neg_hessian, r = factor(z)
        for _ in range(_NEWTON_STEPS):
            g = grad[free]
            step = np.linalg.solve(neg_hessian, g)
            decrement = float(g @ step)
            if not decrement > _NEWTON_DECREMENT:
                break
            t = 1.0
            while t > 1e-12:  # backtrack to sufficient ascent
                trial = z.copy()
                trial[free] += t * step
                with np.errstate(over="ignore", invalid="ignore"):  # a step too long
                    lp_t, grad_t = density(trial)
                if lp_t >= lp + _ARMIJO * t * decrement:
                    break
                t *= 0.5
            else:
                break  # no ascent left at float precision
            z, lp, grad = trial, lp_t, grad_t
            neg_hessian, r = factor(z)
        return lp - float(np.log(np.abs(np.diag(r))).sum()), z

    nodes = {}  # log sigma -> (log marginal, mode)

    def marginal(x):
        if x not in nodes:
            nearest = min(nodes, key=lambda y: abs(y - x), default=None)
            nodes[x] = node(x, np.zeros(P + 3) if nearest is None else nodes[nearest][1])
        return nodes[x][0]

    # Bracket the highest point by doubling steps from log sigma 0 and 1.
    # The marginal falls at both ends (as the prior's sigma below, and
    # faster above), so the steps stop.
    lo, mid = 0.0, 1.0
    if marginal(mid) < marginal(lo):
        lo, mid = mid, lo
    step = mid - lo
    while True:
        step *= 2.0
        hi = mid + step
        if marginal(hi) < marginal(mid):
            break
        lo, mid = mid, hi
    # Probe the wider half of the bracket until it is no wider than the
    # sd of the parabola through its three points.
    (a, b, c) = sorted((lo, mid, hi))
    while True:
        fa, fb, fc = marginal(a), marginal(b), marginal(c)
        curvature = 2.0 * ((fb - fa) / (b - a) - (fc - fb) / (c - b)) / (c - a)
        sd = 1.0 / math.sqrt(curvature) if curvature > 0 else math.inf
        if c - a <= max(sd, 2.0 * _SPACING[0]):
            break
        x = 0.5 * (a + b) if b - a > c - b else 0.5 * (b + c)
        if marginal(x) > fb:
            a, b, c = (a, x, b) if x < b else (b, x, c)
        else:
            a, c = (x, c) if x < b else (a, x)
    h = min(max(0.5 * sd, _SPACING[0]), _SPACING[1])
    grid = [b]
    peak = marginal(b)
    for direction in (-1.0, 1.0):
        for k in range(1, _MAX_SIDE_NODES + 1):
            x = b + direction * k * h
            grid.append(x)
            peak = max(peak, marginal(x))
            if marginal(x) < peak - _TAIL_NATS:
                break

    log_weights = np.array([nodes[x][0] for x in grid])
    weights = np.exp(log_weights - log_weights.max())
    modes = np.array([nodes[x][1] for x in grid])
    picks = rng.choice(len(grid), size=n, p=weights / weights.sum())
    draws = modes[picks]
    for k in np.unique(picks):
        rows = np.flatnonzero(picks == k)
        normals = rng.standard_normal((P + 2, rows.size))
        draws[rows[:, None], free] += np.linalg.solve(factor(modes[k])[1], normals).T
    return draws


def _laplace_start(data: CountData, X: DesignMatrix, config: SamplerConfig) -> WarmStart:
    """A fit's start: ``config.chains`` mixture draws of
    ``nested_laplace_draws`` as the chains' starts and ``_START_DRAWS`` more
    pooled, which are also the kept step's probes, from their own stream:
    the one a spawn of one more child than the chains' would add, so each
    chain's stream stays as it is."""
    stream = np.random.SeedSequence(config.seed).spawn(config.chains + 1)[-1]
    start = nested_laplace_draws(data, X, config.chains + _START_DRAWS,
                                 np.random.Generator(np.random.Philox(stream)))
    pooled = start[config.chains:]
    return WarmStart(start[:config.chains], pooled, probes=pooled)


_MIN_CELL_ESS = 50.0
_MAX_CELL_RHAT = 1.1


def fit_posterior(
    data: CountData,
    X: DesignMatrix,
    config: SamplerConfig,
) -> PosteriorSamples:
    """Run the sampler on the model and return draws in natural coordinates.

    Output labels are beta[j], mu, sigma, epsilon; the non-centered
    coefficients and log_sigma are mapped back before summaries. The
    coefficients are identified only through the prior, so the diagnostics
    cover the quantities the likelihood identifies instead: ``logit[k]``
    for each cell, the quantities every estimate is built from, then
    ``sigma`` and ``mu+epsilon``. Their warnings also report a fit whose
    cell logits mixed too poorly to be trusted.

    Every fit starts from its own ``nested_laplace_draws``: each chain at
    its own mixture draw, with ``_START_DRAWS`` more pooled for the first
    metric. So no fit of the model runs the sampler's identity-metric
    phase, which took about 44% of a cold paper fit's gradients, and the
    chains start dispersed, so their split R-hat also checks that they
    forgot where they started. The pooled draws are also the start's
    probes: chains started in the bulk do not visit the high-sigma neck
    during warmup, and the kept step must stay stable there too. The
    approximation is built where the chains run, at one BLAS thread, from
    the seed's stream after the chains', so the draws depend only on the
    data and the seed. NUTS still draws every estimate; the approximation
    only places the start.
    """
    samples = sample(make_target(data, X), config, partial(_laplace_start, data, X, config))
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
