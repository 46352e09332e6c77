"""Hierarchical Bayesian logistic model for binomial cell counts.

Cell response probabilities are ``sigmoid(X @ beta + epsilon)`` where X is
the binary design matrix, every coefficient shares a Gaussian prior
``Normal(mu, sigma^2)`` and ``epsilon ~ Normal(0, 1)`` is a single latent
offset drawn once per fit. The priors are the paper's and fixed:
``mu ~ Normal(0, 10^2)`` and ``sigma ~ HalfCauchy(5)``. The sampler's
target is non-centered, ``beta = mu + sigma * beta_raw`` with ``sigma`` on
the log scale, which samples far better when the data are sparse.

Two fits share that target: ``fit_laplace``, importance-corrected nested
Laplace, which ``sim.look_estimates`` runs at every look, and
``fit_posterior``, NUTS, its fallback and the reference it is checked
against.
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
    one_blas_thread,
    sample,
)

__all__ = [
    "CountData",
    "half_cauchy_log_density_log_scale",
    "make_target",
    "log_density_batch",
    "nested_laplace_draws",
    "fit_posterior",
    "LaplaceFit",
    "LaplaceRecord",
    "fit_laplace",
    "pareto_k_hat",
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


def log_density_batch(
    data: CountData, X: DesignMatrix
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """``make_target``'s density as a function of points ``z`` [n, P + 3]:
    the log densities [n] and gradients [n, P + 3] of every row.

    Every product over cells and coefficients is one matrix product for
    all rows, so the last bits may differ from ``make_target``'s, which
    computes one point with matrix-vector products and stays the sampler's
    density. A row whose log sigma passes 700 or whose cell logits or log
    density are not finite reads -inf with a zero gradient; the arithmetic
    of such a row may raise floating-point warnings.
    """
    if data.assignments.shape[0] != X.rows:
        raise ValueError("count vectors must have one entry per design row")
    P = X.cols
    Xm = X.matrix
    af = data.assignments.astype(float)
    rf = data.responses.astype(float)
    m, s, b = _MU_PRIOR_MEAN, _MU_PRIOR_SD, _SIGMA_SCALE
    binom_const = math.fsum(
        term for ai, ri in zip(data.assignments.tolist(), data.responses.tolist())
        for term in (math.lgamma(ai + 1), -math.lgamma(ri + 1), -math.lgamma(ai - ri + 1)))
    const = -0.5 * (P + 2) * math.log(2 * math.pi) - math.log(s) + math.log(2.0 / (math.pi * b))
    log_b = math.log(b)

    def batch(z):
        beta_raw = z[:, :P]
        mu, ls, eps = z[:, P], z[:, P + 1], z[:, P + 2]
        sigma = np.exp(np.minimum(ls, 700.0))
        eta = (mu[:, None] + sigma[:, None] * beta_raw) @ Xm.T
        eta += eps[:, None]
        softplus, p = _softplus_and_sigmoid(eta)
        resid = rf - af * p
        # r*log(p) + (a-r)*log(1-p) collapses to r*eta - a*softplus(eta); the
        # half-Cauchy on log sigma is log(2 / (pi b)) - log1p((sigma/b)^2) + ls.
        lp = (const - np.logaddexp(0.0, 2.0 * (ls - log_b)) + ls
              - 0.5 * np.einsum("ij,ij->i", beta_raw, beta_raw)
              - 0.5 * (mu - m) ** 2 / (s * s) - 0.5 * eps * eps
              + (eta @ rf - softplus @ af + binom_const))
        g_beta = resid @ Xm
        grad = np.empty(z.shape)
        grad[:, :P] = sigma[:, None] * g_beta - beta_raw
        grad[:, P] = g_beta.sum(axis=1) - (mu - m) / (s * s)
        # 1 - 2 sigma^2 / (b^2 + sigma^2) is the half-Cauchy and Jacobian term.
        grad[:, P + 1] = sigma * np.einsum("ij,ij->i", beta_raw, g_beta) - np.tanh(ls - log_b)
        grad[:, P + 2] = resid.sum(axis=1) - eps
        dead = (ls > 700.0) | ~np.isfinite(lp) | ~np.isfinite(eta).all(axis=1)
        lp[dead] = -math.inf
        grad[dead] = 0.0
        return lp, grad

    return batch


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
# Mixture draws pooled for a fit's first metric, beside one start per chain.
_START_DRAWS = 300


@dataclass(frozen=True)
class _Nodes:
    """The log-sigma grid of a nested Laplace approximation: at node ``k``
    log sigma ``modes[k, P + 1]``, the mode ``modes[k]`` given that log
    sigma and its Laplace marginal ``log_marginals[k]``. ``factor(z)`` is
    the (negative Hessian, upper Cholesky factor) pair over the free
    coordinates ``free``; ``newton_iterations`` counts the Newton steps
    of every node that the search evaluated."""

    modes: np.ndarray
    log_marginals: np.ndarray
    free: np.ndarray
    factor: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    newton_iterations: int


def _laplace_nodes(data: CountData, X: DesignMatrix) -> _Nodes:
    """The nodes of ``nested_laplace_draws``' approximation.

    Given log sigma, the model is a logistic regression in (beta_raw, mu,
    epsilon) with Gaussian priors, and its log density is strictly concave.
    At each node of a uniform log-sigma grid, Newton's method finds the mode
    and the Cholesky factor of the negative Hessian there, and the node is
    weighted by its Laplace marginal: the log density at the mode less half
    the log determinant of that Hessian. The grid is centred on the best
    point of a search for the marginal's highest point, spaced at half the
    sd its curvature there implies, and runs out on each side until the
    marginal has fallen ``_TAIL_NATS`` below its peak. Everything here is
    deterministic.
    """
    density = make_target(data, X).log_density_and_grad
    P = X.cols
    ls = P + 1  # log sigma's index; the other coordinates are the free ones
    free = np.r_[0:ls, ls + 1]
    row_sums = X.matrix.sum(axis=1)
    assignments = data.assignments.astype(float)
    prior_precision = np.r_[np.ones(P), 1.0 / _MU_PRIOR_SD**2, 1.0]
    weighted = np.empty((X.rows, P + 2))
    iterations = 0

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
        nonlocal iterations
        z = start.copy()
        z[:P] *= math.exp(start[ls] - log_sigma)
        z[ls] = log_sigma
        lp, grad = density(z)
        neg_hessian, r = factor(z)
        for _ in range(_NEWTON_STEPS):
            g = grad[free]
            try:
                step = np.linalg.solve(neg_hessian, g)
            except np.linalg.LinAlgError:  # H rounds to singular: solve through R
                step = np.linalg.solve(r, np.linalg.solve(r.T, g))
            decrement = float(g @ step)
            if not decrement > _NEWTON_DECREMENT:
                break
            iterations += 1
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

    return _Nodes(np.array([nodes[x][1] for x in grid]),
                  np.array([nodes[x][0] for x in grid]), free, factor, iterations)


def _mixture_draws(nodes: _Nodes, n: int, rng: np.random.Generator, roots: dict):
    """``n`` draws [n, P + 3] of the nodes' mixture and the log density of
    each draw under the mixture, less a constant.

    A draw picks a node by its Laplace marginal and draws that node's
    Gaussian, with log sigma held at the node. ``roots`` caches, per node,
    the Cholesky factor of its negative Hessian and that factor's log
    determinant; only the nodes drawn are factored. The draws depend on
    ``rng`` alone.
    """
    weights = np.exp(nodes.log_marginals - nodes.log_marginals.max())
    probabilities = weights / weights.sum()
    picks = rng.choice(len(weights), size=n, p=probabilities)
    draws = nodes.modes[picks]
    log_proposal = np.log(probabilities[picks])
    free = nodes.free
    for k in np.unique(picks):
        if k not in roots:
            r = nodes.factor(nodes.modes[k])[1]
            roots[k] = r, float(np.log(np.abs(np.diag(r))).sum())
        r, log_det = roots[k]
        rows = np.flatnonzero(picks == k)
        normals = rng.standard_normal((free.size, rows.size))
        draws[rows[:, None], free] += np.linalg.solve(r, normals).T
        log_proposal[rows] += log_det - 0.5 * (normals * normals).sum(axis=0)
    return draws, log_proposal


def nested_laplace_draws(
    data: CountData, X: DesignMatrix, n: int, rng: np.random.Generator
) -> np.ndarray:
    """``n`` draws [n, P + 3] in ``make_target``'s coordinates from a nested
    Laplace approximation of the posterior (Rue, Martino & Chopin, JRSS-B
    2009): a mixture over a log-sigma grid of the Gaussians of the
    remaining coordinates given log sigma (``_laplace_nodes``). A draw picks
    a node by weight and draws that node's Gaussian; each node keeps only
    its mode and weight, and only the nodes drawn are factored again. The
    nodes and weights are deterministic; the draws depend on ``rng`` alone.
    """
    return _mixture_draws(_laplace_nodes(data, X), n, rng, {})[0]


# The importance-corrected fit: draws per block and the most blocks, the
# ESS of the weights that ends the blocks and the Pareto k-hat that the
# weights must not pass (PSIS's 0.7), and the draws it resamples. A block's
# arrays stay small (a desk block's draws take 72 kB), so a fit adds little
# to the peak memory of the process that runs it.
_BLOCK_DRAWS = 250
_MAX_BLOCKS = 40
MIN_WEIGHT_ESS = 1000.0
MAX_K_HAT = 0.7
_RESAMPLED_DRAWS = 400
# The spawn key of the fit's streams under its seed: above any chain index,
# so that a NUTS fallback under the same seed shares none of them.
_LAPLACE_STREAMS = 2**32


@dataclass(frozen=True)
class LaplaceRecord:
    """What one ``fit_laplace`` did: the nodes of its log-sigma grid, the
    Newton steps of its node search, the Pareto k-hat of its importance
    weights and their effective sample size ``(sum w)^2 / sum w^2``.
    ``trusted`` is whether k-hat is at most ``MAX_K_HAT`` and the ESS at
    least ``MIN_WEIGHT_ESS``."""

    nodes: int
    newton_iterations: int
    k_hat: float
    weight_ess: float

    @property
    def trusted(self) -> bool:
        return self.k_hat <= MAX_K_HAT and self.weight_ess >= MIN_WEIGHT_ESS


@dataclass(frozen=True)
class LaplaceFit:
    """``fit_laplace``'s draws and record. ``samples`` holds
    ``_RESAMPLED_DRAWS`` draws resampled by weight, as one chain [draws, 1,
    P + 3], under ``fit_posterior``'s labels, so that ``hb_estimate`` reads
    them as it reads a NUTS fit; its diagnostics cover no quantities."""

    samples: PosteriorSamples
    record: LaplaceRecord


def fit_laplace(data: CountData, X: DesignMatrix, seed: int) -> LaplaceFit:
    """The posterior by importance-corrected nested Laplace (INLA: Rue,
    Martino & Chopin, JRSS-B 2009; checked by PSIS k-hat: Vehtari, Simpson,
    Gelman, Yao & Gabry, JMLR 2024).

    Blocks of ``_BLOCK_DRAWS`` draws of ``nested_laplace_draws``' mixture
    are each weighted by the target's density over the mixture's
    (``log_density_batch``), until the weights' ESS reaches
    ``MIN_WEIGHT_ESS`` or ``_MAX_BLOCKS`` blocks are drawn. Log sigma is
    held at the grid's nodes, which are equally spaced, so the weighted
    draws estimate the posterior up to the error of the grid's quadrature
    of log sigma. ``_RESAMPLED_DRAWS`` draws are then resampled by weight
    (systematic resampling) and mapped to natural coordinates as
    ``fit_posterior`` maps its draws.

    Only one block's draws are held at a time: each block draws from its
    own stream of ``seed``, and the resampled draws are drawn again from
    the streams of their blocks. No stream is one that ``sample`` uses
    under the same seed. The fit runs at one BLAS thread
    (``sampler.one_blas_thread``), so it depends on the counts and the seed
    alone.
    """
    P = X.cols
    seeds = np.random.SeedSequence(seed, spawn_key=(_LAPLACE_STREAMS,)).spawn(_MAX_BLOCKS + 1)

    def stream(key):
        return np.random.Generator(np.random.Philox(seeds[key]))

    with one_blas_thread:
        nodes = _laplace_nodes(data, X)
        density = log_density_batch(data, X)
        roots = {}
        blocks = []
        log_weights = np.empty(0)
        ess = 0.0
        while len(blocks) < _MAX_BLOCKS and not ess >= MIN_WEIGHT_ESS:
            draws, log_proposal = _mixture_draws(nodes, _BLOCK_DRAWS, stream(len(blocks)), roots)
            with np.errstate(over="ignore", invalid="ignore"):  # a draw far in a tail
                log_target = density(draws)[0]
            blocks.append(log_target - log_proposal)
            log_weights = np.concatenate(blocks)
            ess = _weight_ess(log_weights)
        k_hat = pareto_k_hat(log_weights)

        weights = np.exp(log_weights - log_weights.max())
        picks = _systematic_resample(weights, _RESAMPLED_DRAWS, stream(_MAX_BLOCKS))
        block_of = picks // _BLOCK_DRAWS
        kept = np.empty((_RESAMPLED_DRAWS, P + 3))
        for b in np.unique(block_of):
            rows = np.flatnonzero(block_of == b)
            draws = _mixture_draws(nodes, _BLOCK_DRAWS, stream(b), roots)[0]
            kept[rows] = draws[picks[rows] - b * _BLOCK_DRAWS]

    sigma = np.exp(kept[:, P + 1])
    kept[:, :P] = kept[:, P, None] + sigma[:, None] * kept[:, :P]
    kept[:, P + 1] = sigma
    labels = tuple(f"beta[{j}]" for j in range(P)) + ("mu", "sigma", "epsilon")
    samples = PosteriorSamples(kept[:, None, :], labels,
                               Diagnostics((), np.empty(0), np.empty(0), 0))
    return LaplaceFit(samples, LaplaceRecord(len(nodes.modes), nodes.newton_iterations,
                                             k_hat, ess))


def _weight_ess(log_weights: np.ndarray) -> float:
    """Effective sample size ``(sum w)^2 / sum w^2`` of importance weights."""
    w = np.exp(log_weights - log_weights.max())
    return float(w.sum() ** 2 / (w @ w))


def _systematic_resample(weights: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` indices drawn in proportion to ``weights``, one uniform offset
    for all; ascending."""
    cumulative = np.cumsum(weights)
    points = (rng.uniform() + np.arange(n)) * (cumulative[-1] / n)
    return np.minimum(np.searchsorted(cumulative, points, side="right"), len(weights) - 1)


def pareto_k_hat(log_weights: np.ndarray) -> float:
    """Pareto k-hat of importance weights, as PSIS fits it (Vehtari et al.,
    JMLR 2024): the shape of a generalized Pareto distribution fitted to
    the largest ``min(S / 5, 3 sqrt(S))`` of ``S`` weights, above the next
    largest, by Zhang & Stephens' (Technometrics 2009) posterior-mean
    estimate, shrunk toward 0.5 as a prior of 10 weights would. Above 0.7
    the weights' estimates are not to be trusted; inf where fewer than five
    weights exceed the threshold.
    """
    lw = np.sort(log_weights[np.isfinite(log_weights)])
    tail = int(math.ceil(min(0.2 * lw.size, 3.0 * math.sqrt(lw.size))))
    if tail < 5 or lw.size <= tail:
        return math.inf
    threshold = lw[-tail - 1]
    x = np.exp(lw[-tail:] - lw[-1]) - math.exp(threshold - lw[-1])
    if not x[-1] > 0.0:
        return math.inf
    n = x.size
    m = 30 + int(math.sqrt(n))
    b = 1.0 - np.sqrt(m / (np.arange(1, m + 1) - 0.5))
    b /= 3.0 * x[int(n / 4 + 0.5) - 1]
    b += 1.0 / x[-1]
    k = np.log1p(-b[:, None] * x).mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        profile = n * (np.log(-b / k) - k - 1.0)  # a b at 0 reads NaN and drops out
        weights = 1.0 / np.exp(profile - profile[:, None]).sum(axis=1)
    weights[~np.isfinite(weights)] = 0.0
    b_post = float(weights @ b / weights.sum())
    k_post = float(np.log1p(-b_post * x).mean())
    return (n * k_post + 10 * 0.5) / (n + 10)


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
    forgot where they started. The kept step's bound also weighs the pooled
    draws: chains started in the bulk do not visit the high-sigma neck
    during warmup, and the kept step must stay stable there too. The
    approximation is built where the chains run, at one BLAS thread, from
    the stream ``sample`` gives a start, so the draws depend only on the
    data and the seed; it only places the start, and NUTS draws. This is
    the fallback of ``sim.look_estimates`` where ``fit_laplace`` is not
    trusted, and the reference that the tests check ``fit_laplace``
    against.
    """
    samples = sample(make_target(data, X), config,
                     partial(nested_laplace_draws, data, X, config.chains + _START_DRAWS))
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
