"""Learning the effect-size dispersion tau from past experiments.

Observed experiment-level effects are modelled as draws from
``Normal(0, noise_sd_i^2 + tau)``: experiments are assumed to cancel out
on average, and what is learnt is the excess dispersion tau beyond each
effect's own sampling noise, under a HalfCauchy(5) prior. The posterior
mean of tau plugs straight back into the sequential tests as the
alternative-hypothesis variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .glm import half_cauchy_log_density_log_scale
from .sampler import PosteriorSamples, SamplerConfig, TargetDensity, sample
from .seqtest import ComparisonResult

__all__ = [
    "EffectObservation",
    "LearntTau",
    "tau_target",
    "learn_tau",
    "collect_effects",
]

_TAU_FLOOR = 1e-8


@dataclass(frozen=True)
class EffectObservation:
    """One observed effect size with its standard error."""

    delta: float
    noise_sd: float

    def __post_init__(self):
        if self.noise_sd <= 0:
            raise ValueError("noise_sd must be positive")


@dataclass(frozen=True)
class LearntTau:
    posterior_mean: float
    q2_5: float
    median: float
    q97_5: float
    point_value_for_testing: float


def tau_target(
    effects: list[EffectObservation], cauchy_scale: float = 5.0
) -> TargetDensity:
    """One-dimensional target over log(tau) for the dispersion model.

    Effects are sorted before summation so the result is exactly invariant
    to the corpus order, not just up to float round-off.
    """
    ordered = sorted(effects, key=lambda e: (e.delta, e.noise_sd))
    delta = np.array([e.delta for e in ordered])
    noise_var = np.array([e.noise_sd**2 for e in ordered])
    b = cauchy_scale
    log_b = math.log(b)

    def log_density_and_grad(z):
        log_tau = z[0]
        if log_tau > 700.0:
            return -math.inf, np.zeros(1)
        tau = np.exp(log_tau)
        v = noise_var + tau
        lp = half_cauchy_log_density_log_scale(log_tau, b)
        lp += np.sum(-0.5 * np.log(2 * np.pi * v) - delta**2 / (2 * v))
        if not math.isfinite(lp):
            return -math.inf, np.zeros(1)
        d_tau = np.sum(0.5 * (delta / v) ** 2 - 0.5 / v)
        # 1 - 2 tau^2 / (b^2 + tau^2), without squaring tau.
        grad = tau * d_tau - math.tanh(log_tau - log_b)
        return float(lp), np.array([grad])

    return TargetDensity(1, log_density_and_grad, ("log_tau",))


def learn_tau(
    effects: list[EffectObservation],
    config: SamplerConfig = SamplerConfig(chains=2, warmup_draws=400, kept_draws=600),
    cauchy_scale: float = 5.0,
) -> LearntTau:
    """Posterior over tau from a corpus of observed effects.

    The point value for plugging back into sequential tests is the
    posterior mean, floored just above zero so a corpus with no excess
    dispersion still yields a usable (if extremely skeptical) setting.
    Needs at least two observations; dispersion is meaningless for one.
    """
    if len(effects) < 2:
        raise ValueError("learning tau requires at least 2 effect observations")
    samples = sample(tau_target(effects, cauchy_scale), config)
    tau_draws = np.exp(samples.parameter_draws("log_tau"))
    q = np.quantile(tau_draws, [0.025, 0.5, 0.975])
    mean = float(tau_draws.mean())
    return LearntTau(
        posterior_mean=mean,
        q2_5=float(q[0]),
        median=float(q[1]),
        q97_5=float(q[2]),
        point_value_for_testing=max(mean, _TAU_FLOOR),
    )


def collect_effects(
    results: Iterable[ComparisonResult],
    policy: Callable[[ComparisonResult], bool] | None = None,
) -> list[EffectObservation]:
    """Turn finished comparisons into an effects corpus.

    Takes each comparison's final difference summary as one observation;
    ``policy`` filters which comparisons contribute (default: all).
    Comparisons that never produced a usable difference are skipped.
    """
    out = []
    for res in results:
        if policy is not None and not policy(res):
            continue
        if math.isnan(res.diff_mean) or not res.diff_var > 0:
            continue
        out.append(EffectObservation(res.diff_mean, math.sqrt(res.diff_var)))
    return out
