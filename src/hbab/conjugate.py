"""Closed-form reference model: Gaussian partial pooling with known variances.

A simplified two-level model admits an exact posterior: per-cell empirical
means ``y_bar_f`` (on the log-odds scale) are Gaussian around unknown cell
effects ``beta_f`` with known variances ``s_f^2``; the ``beta_f`` share a
Gaussian prior ``Normal(mu, sigma_beta^2)`` whose mean ``mu`` is itself
``Normal(0, sigma_mu^2)``. Everything here is exact algebra plus two
numerical cross-checks (quadrature marginalization and Monte-Carlo
replication), so the module doubles as the ground truth against which the
MCMC engine and the shrinkage claims are validated. ``oracle_checks`` is
that validation battery, as ``hbab oracle-check`` reports it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .sampler import SamplerConfig, TargetDensity, effective_sample_size, sample

__all__ = [
    "ConjugateInstance",
    "ConjugatePosterior",
    "ShrinkageCoefficients",
    "posterior",
    "posterior_mean_matrix",
    "quadrature_posterior",
    "estimator_mean",
    "variance_upper_bound",
    "shrinkage_coefficients",
    "simulate_estimator_moments",
    "pooling_target",
    "oracle_checks",
]


@dataclass(frozen=True)
class ConjugateInstance:
    """Data and hyperparameters of one pooled-Gaussian problem.

    y_bar: per-cell empirical means on the log-odds scale.
    s_sq: known sampling variances of those means (sigma_f^2 / n_f).
    sigma_beta_sq: prior variance of each cell effect around the shared mean.
    sigma_mu_sq: prior variance of the shared mean (centered at zero).
    """

    y_bar: np.ndarray
    s_sq: np.ndarray
    sigma_beta_sq: float
    sigma_mu_sq: float

    def __post_init__(self):
        y = np.asarray(self.y_bar, dtype=float)
        s = np.asarray(self.s_sq, dtype=float)
        object.__setattr__(self, "y_bar", y)
        object.__setattr__(self, "s_sq", s)
        if y.ndim != 1 or s.shape != y.shape or y.size < 1:
            raise ValueError("y_bar and s_sq must be equal-length 1-d vectors")
        if np.any(s <= 0) or self.sigma_beta_sq <= 0 or self.sigma_mu_sq <= 0:
            raise ValueError("all variances must be strictly positive")


@dataclass(frozen=True)
class ConjugatePosterior:
    """Exact posterior: per-cell Normal(beta_hat_f, sigma_hat_sq_f), plus the
    posterior Normal(mu_tilde, sigma_tilde_sq) of the shared mean."""

    beta_hat: np.ndarray
    sigma_hat_sq: np.ndarray
    mu_tilde: float
    sigma_tilde_sq: float


@dataclass(frozen=True)
class ShrinkageCoefficients:
    c1: float
    c2: float


def _shared_mean_posterior(s_sq, sigma_beta_sq, sigma_mu_sq):
    """Precision and per-cell weights of the shared mean's posterior."""
    inv_tot = 1.0 / (sigma_beta_sq + s_sq)
    precision = 1.0 / sigma_mu_sq + inv_tot.sum()
    return inv_tot / precision, 1.0 / precision


def posterior(instance: ConjugateInstance) -> ConjugatePosterior:
    """Exact posterior of every cell effect.

    Each posterior mean trades the cell's own empirical mean against a
    precision-weighted average over all cells; the balance is set by the
    ratio of data noise ``s_f^2`` to prior spread ``sigma_beta^2``.
    """
    y, s_sq = instance.y_bar, instance.s_sq
    sb2, sm2 = instance.sigma_beta_sq, instance.sigma_mu_sq
    weights, sigma_tilde_sq = _shared_mean_posterior(s_sq, sb2, sm2)
    mu_tilde = float(weights @ y)

    own = y / (1.0 + s_sq / sb2)
    pooled_gain = 1.0 / (1.0 + sb2 / s_sq)
    beta_hat = own + pooled_gain * mu_tilde
    sigma_hat_sq = 1.0 / (1.0 / sb2 + 1.0 / s_sq) + pooled_gain**2 * sigma_tilde_sq
    return ConjugatePosterior(beta_hat, sigma_hat_sq, mu_tilde, float(sigma_tilde_sq))


def posterior_mean_matrix(
    y_bars: np.ndarray, s_sq: np.ndarray, sigma_beta_sq: float, sigma_mu_sq: float
) -> np.ndarray:
    """Posterior means for many replications at once.

    y_bars has one replication per row; returns the matching matrix of
    posterior means. Used by the Monte-Carlo bias/variance studies, where
    the same formula is pushed through many simulated data sets.
    """
    y_bars = np.atleast_2d(np.asarray(y_bars, dtype=float))
    weights, _ = _shared_mean_posterior(s_sq, sigma_beta_sq, sigma_mu_sq)
    mu_tilde = y_bars @ weights
    own = y_bars / (1.0 + s_sq / sigma_beta_sq)
    pooled_gain = 1.0 / (1.0 + sigma_beta_sq / s_sq)
    return own + pooled_gain * mu_tilde[:, None]


def quadrature_posterior(
    instance: ConjugateInstance, n_points: int = 10_000, half_width: float = 8.0
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean/variance per cell by numerical marginalization.

    Integrates the conditional cell posterior against the shared mean's
    posterior on a trapezoid grid spanning ``half_width`` posterior standard
    deviations. Gaussian tails make the truncation error negligible at the
    default width, and the route shares none of the closed-form
    marginalization algebra, so it serves as an independent check.
    """
    y, s_sq = instance.y_bar, instance.s_sq
    sb2, sm2 = instance.sigma_beta_sq, instance.sigma_mu_sq
    weights, sigma_tilde_sq = _shared_mean_posterior(s_sq, sb2, sm2)
    mu_tilde = float(weights @ y)
    sigma_tilde = np.sqrt(sigma_tilde_sq)

    grid = np.linspace(
        mu_tilde - half_width * sigma_tilde, mu_tilde + half_width * sigma_tilde, n_points
    )
    dens = np.exp(-0.5 * ((grid - mu_tilde) / sigma_tilde) ** 2)
    w = dens.copy()
    w[0] *= 0.5
    w[-1] *= 0.5
    w /= w.sum()

    # Conditional posterior of each cell effect given the shared mean:
    # precision-weighted combination of its data mean and the shared mean.
    prec = 1.0 / sb2 + 1.0 / s_sq
    cond_var = 1.0 / prec
    cond_mean = (y / s_sq)[:, None] / prec[:, None] + (grid[None, :] / sb2) / prec[:, None]

    mean = cond_mean @ w
    second = (cond_var[:, None] + cond_mean**2) @ w
    return mean, second - mean**2


def estimator_mean(true_beta: np.ndarray, instance: ConjugateInstance) -> np.ndarray:
    """Expectation of the posterior-mean estimator at fixed true effects.

    The estimator is biased in general: each component mixes its own true
    effect with a weighted average of all of them.
    """
    beta = np.asarray(true_beta, dtype=float)
    if beta.shape != instance.s_sq.shape:
        raise ValueError("true_beta must match the instance's cell count")
    s_sq, sb2, sm2 = instance.s_sq, instance.sigma_beta_sq, instance.sigma_mu_sq
    weights, _ = _shared_mean_posterior(s_sq, sb2, sm2)
    own = beta / (1.0 + s_sq / sb2)
    pooled_gain = 1.0 / (1.0 + sb2 / s_sq)
    return own + pooled_gain * (weights @ beta)


def variance_upper_bound(instance: ConjugateInstance) -> np.ndarray:
    """Upper bound on the sampling variance of the posterior-mean estimator."""
    s_sq, sb2, sm2 = instance.s_sq, instance.sigma_beta_sq, instance.sigma_mu_sq
    weights, _ = _shared_mean_posterior(s_sq, sb2, sm2)
    pooled_gain = 1.0 / (1.0 + sb2 / s_sq)
    return (
        s_sq / (1.0 + s_sq / sb2) ** 2
        + 2.0 * sb2 * pooled_gain**2
        + pooled_gain**2 * ((weights**2) @ s_sq)
    )


def shrinkage_coefficients(h: float, c: float) -> ShrinkageCoefficients:
    """Variance-ratio bounds of the pooled estimator vs. the plain mean.

    ``h`` is the data-to-prior variance ratio ``s_f^2 / sigma_beta^2`` for
    the cell under study, ``c`` caps ``sigma_mu^2 / sigma_beta^2``. ``c1``
    bounds Var(estimator)/s_f^2 when every other cell is measured much more
    precisely (their ratios at most 1/h); it decays like 1/h, so noisy cells
    gain the most from pooling. ``c2`` covers the homogeneous case where all
    cells share the same ratio h; it tends to 1, i.e. no guaranteed gain.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if c <= 0:
        raise ValueError("c must be positive")
    inv = (1.0 + 1.0 / h) ** 2
    c1 = (
        1.0 / (1.0 + h) ** 2
        + 2.0 / (h * inv)
        + c**2 / ((1.0 + h) ** 2 * inv)
        + 1.0 / (h**2 * inv)
    )
    c2 = 1.0 / (1.0 + h) ** 2 + 2.0 / (h * inv) + 1.0 / inv
    return ShrinkageCoefficients(float(c1), float(c2))


def pooling_target(instance: ConjugateInstance) -> TargetDensity:
    """The same model as a differentiable MCMC target over [beta..., mu].

    Sampling this target and comparing against ``posterior`` validates any
    general-purpose sampler on a problem whose answer is known exactly.
    """
    y, s_sq = instance.y_bar, instance.s_sq
    sb2, sm2 = instance.sigma_beta_sq, instance.sigma_mu_sq
    n = y.size

    def log_density_and_grad(z):
        beta, mu = z[:n], z[n]
        lp = (
            -0.5 * np.sum((y - beta) ** 2 / s_sq)
            - 0.5 * np.sum((beta - mu) ** 2) / sb2
            - 0.5 * mu**2 / sm2
        )
        g_beta = (y - beta) / s_sq - (beta - mu) / sb2
        g_mu = np.sum(beta - mu) / sb2 - mu / sm2
        return float(lp), np.concatenate([g_beta, [g_mu]])

    labels = tuple(f"beta[{j}]" for j in range(n)) + ("mu",)
    return TargetDensity(n + 1, log_density_and_grad, labels)


def simulate_estimator_moments(
    true_beta: np.ndarray,
    instance: ConjugateInstance,
    n_reps: int = 100_000,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Monte-Carlo mean, variance, and standard error of the estimator.

    Draws fresh data around fixed true effects, re-runs the posterior-mean
    formula for every replication, and returns empirical moments. This is
    the simulation route against which the closed-form mean and the
    variance bound are checked.
    """
    beta = np.asarray(true_beta, dtype=float)
    rng = np.random.Generator(np.random.Philox(seed))
    y_bars = rng.normal(beta, np.sqrt(instance.s_sq), size=(n_reps, beta.size))
    means = posterior_mean_matrix(
        y_bars, instance.s_sq, instance.sigma_beta_sq, instance.sigma_mu_sq
    )
    mc_mean = means.mean(axis=0)
    mc_var = means.var(axis=0, ddof=1)
    se_mean = np.sqrt(mc_var / n_reps)
    return mc_mean, mc_var, se_mean


# The sampler runs of ``oracle_checks``, each seeded from its seed.
ORACLE_SAMPLER = SamplerConfig(chains=2, warmup_draws=250, kept_draws=400)


def oracle_checks(corrupt: bool = False, seed: int = 20240501):
    """Yield the (name, tolerance_description, observed, passed) tuples of
    the verification battery. ``corrupt`` scales the closed-form posterior
    mean by 1.001, a negative control that the quadrature check fails."""
    rng = np.random.default_rng(seed)
    fudge = 1.001 if corrupt else 1.0

    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 6))
        inst = ConjugateInstance(
            rng.uniform(-2, 2, n), rng.uniform(0.05, 2.0, n),
            float(rng.uniform(0.1, 4.0)), float(rng.uniform(0.1, 4.0)),
        )
        post = posterior(inst)
        q_mean, q_var = quadrature_posterior(inst)
        worst = max(
            worst,
            float(np.max(np.abs(post.beta_hat * fudge - q_mean))),
            float(np.max(np.abs(post.sigma_hat_sq - q_var))),
        )
    yield ("closed_form_vs_quadrature", "abs error < 1e-6 (50 instances)",
           worst, worst < 1e-6)

    worst_z = 0.0
    for i in range(5):
        n = int(rng.integers(2, 6))
        inst = ConjugateInstance(
            rng.uniform(-2, 2, n), rng.uniform(0.05, 1.0, n),
            float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0)),
        )
        post = posterior(inst)
        samples = sample(
            pooling_target(inst),
            replace(ORACLE_SAMPLER, seed=seed + i),
        )
        beta = samples.draws[:, :, :n]
        flat = beta.reshape(-1, n)
        m, v = flat.mean(axis=0), flat.var(axis=0, ddof=1)
        ess = effective_sample_size(beta)
        # The sample variance is a mean of squared centred draws, so its
        # Monte-Carlo error follows their ESS, not the ESS of the draws.
        ess_sq = effective_sample_size((beta - m) ** 2)
        worst_z = max(
            worst_z,
            float(np.max(np.abs(m - post.beta_hat * fudge) / np.sqrt(v / ess))),
            float(np.max(np.abs(v - post.sigma_hat_sq) / (v * np.sqrt(2.0 / ess_sq)))),
        )
    yield ("sampler_vs_closed_form", "max |z| < 3 Monte-Carlo SE (5 instances)",
           worst_z, worst_z < 3.0)

    inst = ConjugateInstance(rng.uniform(-1, 1, 4), rng.uniform(0.05, 1.0, 4), 0.8, 1.2)
    beta = rng.uniform(-1, 1, 4)
    mc_mean, mc_var, se = simulate_estimator_moments(beta, inst, n_reps=100_000,
                                                     seed=seed)
    z = float(np.max(np.abs(estimator_mean(beta, inst) * fudge - mc_mean) / se))
    yield ("estimator_mean_vs_monte_carlo", "max |z| < 3 (1e5 replications)", z, z < 3.0)

    excess = float(np.max(mc_var / variance_upper_bound(inst)))
    yield ("variance_bound_vs_monte_carlo", "Var ratio <= 1", excess, excess <= 1.0)

    h, c = 10.0, 1.0
    coeffs = shrinkage_coefficients(h, c)
    yield ("shrinkage_c1_below_one", "c1(10, 1) < 1", coeffs.c1, coeffs.c1 < 1.0)

    sb2 = 1.0
    s_sq = np.concatenate([[h * sb2], rng.uniform(0.01, 1.0 / h, 3)])
    inst_gap = ConjugateInstance(np.zeros(4), s_sq, sb2, 0.5)
    beta = rng.uniform(-1, 1, 4)
    _, mc_var, _ = simulate_estimator_moments(beta, inst_gap, n_reps=100_000,
                                              seed=seed + 1)
    ratio = float(mc_var[0] / (coeffs.c1 * s_sq[0]))
    yield ("shrinkage_bound_vs_monte_carlo", "Var(pooled)/(c1*s_f^2) <= 1",
           ratio, ratio <= 1.0)

    scaled = max(shrinkage_coefficients(hh, 1.0).c1 * hh for hh in (1e2, 1e3, 1e4))
    yield ("c1_decays_like_1_over_h", "c1(h)*h < 3 for h up to 1e4",
           scaled, scaled < 3.0)

    c2_tail = shrinkage_coefficients(1e4, 1.0).c2
    yield ("c2_stays_order_one", "|c2(1e4) - 1| < 0.01", c2_tail,
           abs(c2_tail - 1.0) < 0.01)
