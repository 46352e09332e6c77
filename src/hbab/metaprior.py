"""Learning the effect-size dispersion tau from past experiments.

Observed experiment-level effects are modelled as draws from
``Normal(0, noise_sd_i^2 + tau)``: experiments are assumed to cancel out
on average, and what is learnt is the excess dispersion tau beyond each
effect's own sampling noise, under a HalfCauchy(5) prior. The posterior
mean of tau plugs straight back into the sequential tests as the
alternative-hypothesis variance. A corpus is two 1-D arrays: each
effect's ``delta`` and its ``noise_sd``.

The posterior is one-dimensional, so ``learn_tau`` integrates it by
quadrature over log tau rather than sampling it: the same corpus always
gives the same result, within about 1e-9 relative of adaptive quadrature
on the corpora in the tests. ``tau_target`` is the one
density; the grid evaluates it point by point. The quantiles need the
sine integral, which ``_si`` computes in numpy. Differences enter a
corpus through ``effects_from_differences``, which keeps a difference
only with a finite mean and a finite positive variance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .glm import half_cauchy_log_density_log_scale
from .sampler import TargetDensity

__all__ = [
    "LearntTau",
    "tau_target",
    "learn_tau",
    "effects_from_differences",
]

_TAU_FLOOR = 1e-8
_CAUCHY_SCALE = 5.0  # tau ~ HalfCauchy(5)
_GRID_POINTS = 256
_TAIL_NATS = 40.0
# exp overflows past this log tau.
_MAX_LOG_TAU = math.log(np.finfo(float).max)
# The log tau range where tau is positive and the density can be finite,
# and the points of the coarse grid that checks the mode search.
_LOG_TAU_RANGE = (-745.0, 700.0)
_SCAN_POINTS = 16
# First bracketing step in log tau. The bracket ends lie about 9 posterior
# sd from the mode, which comes closer than this only beyond about 1e8
# effects.
_FIRST_STEP = 1e-3
_SQUARE_BLOCK = 1 << 12  # effects squared through Python floats at once
# Si(x) below _SI_SWITCH in magnitude is a Gauss-Legendre rule of
# _SI_NODES nodes, whose error there is rounding; above, the _SI_TERMS
# terms of its asymptotic series err by less than 1e-15.
_SI_SWITCH = 40.0
_SI_NODES = 32
_SI_TERMS = 10
# Column 0 holds the coefficients of f(x) * x, column 1 those of
# g(x) * x**2, as polynomials in 1 / x**2: (-1)**k (2k)! and (-1)**k (2k+1)!.
_SI_SERIES = np.array([[(-1.0) ** k * math.factorial(2 * k),
                        (-1.0) ** k * math.factorial(2 * k + 1)] for k in range(_SI_TERMS)])


@dataclass(frozen=True)
class LearntTau:
    """The tau posterior of a corpus of ``n_effects`` effects."""

    n_effects: int
    posterior_mean: float
    q2_5: float
    median: float
    q97_5: float
    point_value_for_testing: float


def tau_target(delta: np.ndarray, noise_sd: np.ndarray) -> TargetDensity:
    """One-dimensional target over log(tau) for the dispersion model.

    Effects are sorted by ``(delta, noise_sd)`` before summation so the
    result is exactly invariant to the corpus order, not just up to float
    round-off. Each variance is the Python-float square of its sd, one
    libm ``pow`` per element: numpy's vectorised square can differ from it
    in the last bit.

    Effects near the float limits overflow, divide by zero or subtract
    infinities here, silently: a density that is not finite reads -inf, and
    a NaN slope reads as not positive in ``learn_tau``'s mode search.
    """
    order = np.lexsort((noise_sd, delta))
    delta = delta[order]
    with np.errstate(over="ignore"):
        delta_sq = delta**2
    try:
        noise_var = _squares(noise_sd[order])
    except OverflowError:
        raise ValueError("noise_sd must square to a finite variance") from None
    del order  # freed before the buffers below are made
    b = _CAUCHY_SCALE
    log_b = math.log(b)

    # Every evaluation computes, in these buffers and in this order,
    #   sum(-0.5 * log(2 * pi * v) - delta_sq / (2 * v)) and
    #   sum(0.5 * (delta / v) ** 2 - 0.5 / v),
    # bit for bit as the plain expressions would, without their temporaries.
    v, a, c = (np.empty_like(noise_var) for _ in range(3))

    def log_density_and_grad(z):
        log_tau = z[0]
        if log_tau > _LOG_TAU_RANGE[1]:
            return -math.inf, np.zeros(1)
        tau = np.exp(log_tau)
        np.add(noise_var, tau, out=v)
        lp = half_cauchy_log_density_log_scale(log_tau, b)
        with np.errstate(all="ignore"):
            np.log(np.multiply(2 * np.pi, v, out=a), out=a)
            np.multiply(-0.5, a, out=a)
            np.divide(delta_sq, np.multiply(2, v, out=c), out=c)
            lp += np.sum(np.subtract(a, c, out=a))
            if not math.isfinite(lp):
                return -math.inf, np.zeros(1)
            np.square(np.divide(delta, v, out=a), out=a)
            np.multiply(0.5, a, out=a)
            np.divide(0.5, v, out=c)
            d_tau = np.sum(np.subtract(a, c, out=a))
            # 1 - 2 tau^2 / (b^2 + tau^2), without squaring tau.
            grad = tau * d_tau - math.tanh(log_tau - log_b)
        return float(lp), np.array([grad])

    return TargetDensity(1, log_density_and_grad, ("log_tau",))


def _squares(x: np.ndarray) -> np.ndarray:
    """The Python-float square of every element of ``x``, a block of
    ``_SQUARE_BLOCK`` elements at a time: whole, the Python floats took
    about 60 bytes an element."""
    out = np.empty(x.size)
    for s in range(0, x.size, _SQUARE_BLOCK):
        out[s:s + _SQUARE_BLOCK] = [e**2 for e in x[s:s + _SQUARE_BLOCK].tolist()]
    return out


def learn_tau(delta, noise_sd) -> LearntTau:
    """Posterior over tau from a corpus of observed effects, the 1-D arrays
    ``delta`` and ``noise_sd``.

    The log-tau posterior is integrated on a uniform grid of
    ``_GRID_POINTS`` nodes whose ends sit about ``_TAIL_NATS`` below the
    mode's log density. The trapezoid rule gives the mean; the quantiles
    invert the sinc-interpolated CDF of the same nodes. Both rules converge
    exponentially for a smooth density that has decayed at the ends, so the
    result is deterministic and free of Monte-Carlo error.

    The point value for plugging back into sequential tests is the
    posterior mean, floored just above zero so a corpus with no excess
    dispersion still yields a usable (if extremely skeptical) setting.
    Needs at least two observations; dispersion is meaningless for one.
    Raises ``ValueError`` for arrays that are not 1-D of one length, for
    non-finite values, for a ``noise_sd`` that is not positive or whose
    square overflows, and for a posterior that has no finite mode or has
    not fallen ``_TAIL_NATS`` below it where tau overflows.
    """
    delta = np.asarray(delta, dtype=float)
    noise_sd = np.asarray(noise_sd, dtype=float)
    if delta.ndim != 1 or delta.shape != noise_sd.shape:
        raise ValueError(f"delta {delta.shape} and noise_sd {noise_sd.shape} must be "
                         "1-D arrays of one length")
    if delta.size < 2:
        raise ValueError(f"need at least 2 effect observations, found {delta.size}")
    if not (np.isfinite(delta).all() and np.isfinite(noise_sd).all()):
        raise ValueError("delta and noise_sd must be finite")
    if not (noise_sd > 0).all():
        raise ValueError("noise_sd must be positive")
    density = tau_target(delta, noise_sd).log_density_and_grad

    def log_density(log_tau: float) -> float:
        return density(np.array([log_tau]))[0]

    def slope(log_tau: float) -> float:
        return float(density(np.array([log_tau]))[1][0])

    mode = _mode(slope)
    peak = log_density(mode)
    # The slope's first sign change can be a local mode far below the
    # highest: bracket again around the best point of a coarse scan.
    scan = np.linspace(*_scan_range(delta, noise_sd), _SCAN_POINTS)
    scan_lp = np.array([log_density(x) for x in scan])
    best = int(scan_lp.argmax())
    if scan_lp[best] > peak:
        mode = _climb(slope, scan[max(best - 1, 0)], scan[min(best + 1, _SCAN_POINTS - 1)])
        peak = log_density(mode)
    if not math.isfinite(peak):
        raise ValueError("the tau posterior has no finite mode for these effects")
    floor = peak - _TAIL_NATS
    upper = _tail_end(log_density, mode, 1.0, floor)
    if upper > _MAX_LOG_TAU:
        raise ValueError("the tau posterior does not fall off before tau overflows "
                         "for these effects")
    log_tau = np.linspace(_tail_end(log_density, mode, -1.0, floor), upper, _GRID_POINTS)
    lp = np.array([log_density(x) for x in log_tau])
    weights = np.exp(lp - lp.max())
    weights /= weights.sum()
    mean = float(weights @ np.exp(log_tau))
    q2_5, median, q97_5 = (math.exp(q) for q in _sinc_quantiles(
        log_tau, weights, np.array([0.025, 0.5, 0.975])).tolist())
    return LearntTau(
        n_effects=delta.size,
        posterior_mean=mean,
        q2_5=q2_5,
        median=median,
        q97_5=q97_5,
        point_value_for_testing=max(mean, _TAU_FLOOR),
    )


def _scan_range(delta: np.ndarray, noise_sd: np.ndarray) -> tuple[float, float]:
    """Log tau ends between which the tau posterior has its highest point.

    Below the lower end, tau is under half an ulp of every noise variance,
    so only the prior moves, and it rises up to tau = its scale. Above the
    upper end, tau exceeds every squared effect and the prior's scale, so
    every term falls.
    """
    log_b = math.log(_CAUCHY_SCALE)
    with np.errstate(divide="ignore"):  # an all-zero delta
        log_var, log_delta_sq = 2.0 * np.log([noise_sd.min(), np.abs(delta).max()])
    return (max(min(log_var - 40.0, log_b), _LOG_TAU_RANGE[0]),
            min(max(log_delta_sq, log_b), _LOG_TAU_RANGE[1]))


def _mode(slope: Callable[[float], float]) -> float:
    """Root of the log-tau slope, bracketed by doubling steps away from zero.

    The slope tends to +1 as tau -> 0 (the log-scale Jacobian) and is
    negative for large tau, so a sign change exists unless the density is
    not finite: ``tau_target`` gives a zero slope there, or a NaN one where
    the gradient's sum is not finite. Above log tau 700 it is never finite,
    and below -745 tau is 0, so the search stops there. The root found is
    the first local mode out from log tau 0, which ``learn_tau`` checks
    against a coarse scan of ``_scan_range``.
    """
    if slope(0.0) > 0:
        lo, hi = 0.0, 1.0
        while slope(hi) > 0:
            lo, hi = hi, 2.0 * hi
    else:
        lo, hi = -1.0, 0.0
        while not slope(lo) > 0:  # a NaN slope too
            if lo < _LOG_TAU_RANGE[0]:
                raise ValueError("the tau posterior has no finite mode for these effects")
            lo, hi = 2.0 * lo, lo
    return _climb(slope, lo, hi)


def _climb(slope: Callable[[float], float], lo: float, hi: float) -> float:
    """Where ``slope`` turns from positive to not positive on ``[lo, hi]``,
    to 1e-6."""
    return float(_bisect(lambda x: -slope(float(x)), lo, hi, 1e-6))


def _tail_end(
    log_density: Callable[[float], float], mode: float, direction: float, floor: float
) -> float:
    """A point on one side of ``mode`` where the log density crosses ``floor``.

    Doubling steps from ``_FIRST_STEP`` bracket the crossing; bisection then
    narrows it to within an eighth of its distance from the mode, so the
    grid is spent on the posterior rather than on its dead tails.
    """
    step = _FIRST_STEP
    while log_density(mode + direction * step) >= floor:
        step *= 2.0
    inside = step / 2.0
    while step - inside > step / 8.0:
        mid = 0.5 * (inside + step)
        if log_density(mode + direction * mid) >= floor:
            inside = mid
        else:
            step = mid
    return mode + direction * step


def _sinc_quantiles(x: np.ndarray, weights: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Quantiles ``ps`` of normalised weights on the uniform grid ``x``,
    bisected together.

    Integrates the sinc interpolant of the weights (Stenger's sinc
    indefinite integration): node k contributes
    ``weights[k] * (1/2 + Si(pi (t - x[k]) / h) / pi)`` to the CDF at t.
    """
    h = x[1] - x[0]

    def cdf_minus_p(t: np.ndarray) -> np.ndarray:
        terms = 0.5 + _si(np.pi * (t[:, None] - x) / h) / np.pi
        return np.array([weights @ row for row in terms]) - ps

    return _bisect(cdf_minus_p, x[0], np.full(ps.shape, x[-1]), 1e-12)


@functools.cache
def _si_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes u and weights w / u of the Gauss-Legendre rule on [0, 1], so
    that Si(x) is ``sin(x * u) @ (w / u)``; made on first use, as the
    eigenvalue solve costs milliseconds."""
    nodes, weights = np.polynomial.legendre.leggauss(_SI_NODES)
    nodes = 0.5 * (nodes + 1.0)
    return nodes, 0.5 * weights / nodes


def _si(x: np.ndarray) -> np.ndarray:
    """The sine integral Si(x), the integral of sin(t) / t from 0 to x, of
    every element of ``x``, within 2e-14.

    Si is odd. For |x| below ``_SI_SWITCH``, the integral of sin(x u) / u
    over [0, 1] by Gauss-Legendre quadrature; above, the asymptotic series
    pi/2 - f(x) cos x - g(x) sin x (Abramowitz & Stegun 5.2.34-35).
    """
    ax = np.abs(x)
    out = np.empty_like(ax)
    near = ax < _SI_SWITCH
    nodes, weights = _si_rule()
    out[near] = np.sin(ax[near, None] * nodes) @ weights
    far = ~near
    x_far = ax[far]
    inv = 1.0 / x_far
    inv_sq = inv * inv
    powers = np.empty((_SI_TERMS, x_far.size))
    powers[0] = 1.0
    for k in range(1, _SI_TERMS):
        np.multiply(powers[k - 1], inv_sq, out=powers[k])
    f, g = _SI_SERIES.T @ powers
    out[far] = 0.5 * np.pi - f * inv * np.cos(x_far) - g * inv_sq * np.sin(x_far)
    return np.copysign(out, x)


def _bisect(f: Callable[[np.ndarray], np.ndarray], lo, hi, tol: float) -> np.ndarray:
    """Where ``f`` turns from negative to non-negative on ``[lo, hi]``, for
    each element of the broadcast ends; ``f`` maps an array of points to
    an array of values.

    An element stops once its bracket is narrower than ``tol`` relative to
    its ends (absolute below 1), which float spacing always allows. Plain
    bisection: the roots here need no more than a few dozen halvings.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, float), np.asarray(hi, float))
    while True:
        wide = hi - lo > tol * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        mid = 0.5 * (lo + hi)
        if not wide.any():
            return mid
        below = f(mid) < 0
        lo = np.where(wide & below, mid, lo)
        hi = np.where(wide & ~below, mid, hi)


def effects_from_differences(
    diff_mean, diff_var
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(delta, noise_sd)`` corpus of paired difference means and
    variances.

    A difference counts only with a finite mean and a finite positive
    variance; a comparison that never produced a usable difference is
    skipped.
    """
    d = np.asarray(diff_mean, dtype=float)
    v = np.asarray(diff_var, dtype=float)
    keep = np.isfinite(d) & (v > 0) & (v < math.inf)
    noise_sd = v[keep]
    return d[keep], np.sqrt(noise_sd, out=noise_sd)
