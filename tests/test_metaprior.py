import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy import integrate, optimize, stats
from scipy.special import sici

import hbab.metaprior
from hbab.glm import half_cauchy_log_density_log_scale
from hbab.metaprior import effects_from_differences, learn_tau, tau_target


def synthetic_corpus(n, tau_true, noise_sd, seed):
    """``(delta, noise_sd)`` arrays of ``n`` effects."""
    rng = np.random.default_rng(seed)
    deltas = rng.normal(0.0, np.sqrt(noise_sd**2 + tau_true), n)
    return deltas, np.full(n, float(noise_sd))


def grid_posterior_mean(effects, cauchy_scale=5.0):
    """Direct numerical integration of the 1-d tau posterior.

    The right end sits at log tau 12: for a handful of effects the mean's
    integrand falls only like tau^-2.5, and an end at 6 dropped about 1e-6
    of it.
    """
    log_tau = np.linspace(-30.0, 12.0, 40_001)
    tau = np.exp(log_tau)
    log_post = np.log(stats.halfcauchy.pdf(tau, scale=cauchy_scale)) + log_tau
    for delta, noise_sd in zip(*effects):
        v = noise_sd**2 + tau
        log_post += stats.norm.logpdf(delta, 0.0, np.sqrt(v))
    w = np.exp(log_post - log_post.max())
    return float(np.trapezoid(w * tau, log_tau) / np.trapezoid(w, log_tau))


def quad_posterior(effects, cauchy_scale=5.0):
    """Mean and 2.5/50/97.5% quantiles of tau by adaptive quadrature.

    Shares nothing with ``learn_tau`` but the model: scipy.stats densities,
    a mode from a bounded scalar search, ``quad`` on either side of it over
    200 units of log tau to the left (where the tail decays only like tau)
    and 60 to the right, and quantiles by root-finding on the CDF.
    """
    delta, noise_sd = effects
    noise_var = noise_sd**2

    def log_post(x):
        tau = math.exp(x)
        return (stats.halfcauchy.logpdf(tau, scale=cauchy_scale) + x
                + stats.norm.logpdf(delta, 0.0, np.sqrt(noise_var + tau)).sum())

    mode = optimize.minimize_scalar(lambda x: -log_post(x), bounds=(-60.0, 10.0),
                                    method="bounded", options={"xatol": 1e-10}).x
    peak = log_post(mode)
    kw = dict(epsabs=0.0, epsrel=1e-12, limit=500)

    def dens(x):
        return math.exp(log_post(x) - peak)

    left = integrate.quad(dens, mode - 200.0, mode, **kw)[0]
    total = left + integrate.quad(dens, mode, mode + 60.0, **kw)[0]
    mean = sum(integrate.quad(lambda x: math.exp(x) * dens(x), a, b, **kw)[0]
               for a, b in ((mode - 200.0, mode), (mode, mode + 60.0))) / total

    def cdf_minus(p):
        return lambda x: (left + integrate.quad(dens, mode, x, **kw)[0]) / total - p

    quantiles = [math.exp(optimize.brentq(cdf_minus(p), mode - 200.0, mode + 60.0,
                                          xtol=1e-13))
                 for p in (0.025, 0.5, 0.975)]
    return mean, quantiles


class TestLearnTau:
    def test_no_dispersion_concentrates_near_zero(self):
        learnt = learn_tau(np.zeros(50), np.full(50, 1e-3))
        assert learnt.q97_5 < 1e-3
        assert learnt.point_value_for_testing >= 1e-8

    def test_recovers_known_dispersion(self):
        effects = synthetic_corpus(200, tau_true=0.01, noise_sd=0.02, seed=1)
        learnt = learn_tau(*effects)
        assert 0.005 <= learnt.posterior_mean <= 0.02

    def test_matches_grid_integration(self):
        effects = synthetic_corpus(5, tau_true=0.05, noise_sd=0.1, seed=2)
        learnt = learn_tau(*effects)
        oracle = grid_posterior_mean(effects)
        assert learnt.posterior_mean == pytest.approx(oracle, rel=1e-6)

    def test_permutation_invariant(self):
        # Rounded deltas tie, so the order of equal deltas comes from noise_sd.
        delta = np.round(synthetic_corpus(30, tau_true=0.02, noise_sd=0.05, seed=3)[0], 2)
        rng = np.random.default_rng(4)
        noise_sd = rng.uniform(0.03, 0.07, 30)
        order = rng.permutation(30)
        a = learn_tau(delta, noise_sd)
        b = learn_tau(delta[order], noise_sd[order])
        assert a == b

    def test_scale_equivariant_within_mc_error(self):
        effects = synthetic_corpus(200, tau_true=0.01, noise_sd=0.02, seed=5)
        a = learn_tau(*effects)
        b = learn_tau(2 * effects[0], 2 * effects[1])
        assert b.posterior_mean / a.posterior_mean == pytest.approx(4.0, rel=0.12)

    def test_needs_at_least_two_effects(self):
        with pytest.raises(ValueError):
            learn_tau([0.1], [0.05])

    @pytest.mark.parametrize("effects", [
        synthetic_corpus(5, tau_true=0.05, noise_sd=0.1, seed=2),
        synthetic_corpus(200, tau_true=0.01, noise_sd=0.02, seed=1),
        # No excess dispersion: the left tail decays only like tau.
        synthetic_corpus(100, tau_true=0.0, noise_sd=0.05, seed=9),
        # Paper-sized: the posterior sd of log tau is about 0.018.
        synthetic_corpus(7680, tau_true=9e-4, noise_sd=0.01, seed=7),
    ], ids=["5", "200", "no-dispersion", "7680"])
    def test_matches_adaptive_quadrature(self, effects):
        learnt = learn_tau(*effects)
        mean, (q2_5, median, q97_5) = quad_posterior(effects)
        assert learnt.posterior_mean == pytest.approx(mean, rel=1e-6)
        assert learnt.q2_5 == pytest.approx(q2_5, rel=1e-6)
        assert learnt.median == pytest.approx(median, rel=1e-6)
        assert learnt.q97_5 == pytest.approx(q97_5, rel=1e-6)

    def test_evaluates_the_density_a_few_hundred_times(self, monkeypatch):
        calls = []

        def counting_target(*args, **kwargs):
            target = tau_target(*args, **kwargs)
            density = target.log_density_and_grad

            def counted(z):
                calls.append(z[0])
                return density(z)

            return dataclasses.replace(target, log_density_and_grad=counted)

        monkeypatch.setattr(hbab.metaprior, "tau_target", counting_target)
        learn_tau(*synthetic_corpus(200, tau_true=0.01, noise_sd=0.02, seed=1))
        assert 256 <= len(calls) <= 400

    def test_quantiles_ordered(self):
        effects = synthetic_corpus(40, tau_true=0.02, noise_sd=0.05, seed=6)
        learnt = learn_tau(*effects)
        assert learnt.q2_5 <= learnt.median <= learnt.q97_5


def plain_log_density_and_grad(delta, noise_sd, log_tau):
    """``tau_target``'s density and slope as plain numpy expressions, each
    operation making its own temporary: the reference the buffered density
    must match bit for bit."""
    order = np.lexsort((noise_sd, delta))
    delta = delta[order]
    with np.errstate(over="ignore"):
        delta_sq = delta**2
    noise_var = np.array([sd**2 for sd in noise_sd[order].tolist()])
    if log_tau > 700.0:
        return -math.inf, 0.0
    tau = np.exp(log_tau)
    v = noise_var + tau
    lp = half_cauchy_log_density_log_scale(log_tau, 5.0)
    with np.errstate(all="ignore"):
        lp += np.sum(-0.5 * np.log(2 * np.pi * v) - delta_sq / (2 * v))
        if not math.isfinite(lp):
            return -math.inf, 0.0
        d_tau = np.sum(0.5 * (delta / v) ** 2 - 0.5 / v)
        grad = tau * d_tau - math.tanh(log_tau - math.log(5.0))
    return float(lp), float(grad)


def test_sine_integral_matches_scipy():
    x = np.concatenate([np.linspace(-2000.0, 2000.0, 400_001),
                        [0.0, 5e-324, -5e-324, 1e300, -1e300],
                        np.nextafter(40.0, [0.0, 80.0]), -np.nextafter(40.0, [0.0, 80.0]),
                        [40.0, -40.0]])
    np.testing.assert_allclose(hbab.metaprior._si(x), sici(x)[0], rtol=0, atol=1e-13)


def test_tau_target_equals_the_plain_expressions():
    delta, noise_sd = synthetic_corpus(2000, tau_true=0.01, noise_sd=0.02, seed=8)
    # Effects at the float limits: a subnormal, squares that underflow, a
    # variance that vanishes beside any tau; then squares near overflow.
    corpora = [
        (np.concatenate([delta, [5e-324, -1e-160, 0.0]]),
         np.concatenate([noise_sd, [1e-160, 1e-160, 5e-324]])),
        (np.concatenate([delta, [1e150, -1e154]]), np.concatenate([noise_sd, [1e-8, 1e-300]])),
    ]
    values = []
    for delta, noise_sd in corpora:
        density = tau_target(delta, noise_sd).log_density_and_grad
        for log_tau in [-1024.0, *np.linspace(-745.0, 700.0, 9).tolist(), -4.0, 701.0]:
            lp, grad = density(np.array([log_tau]))
            expected = plain_log_density_and_grad(delta, noise_sd, log_tau)
            assert np.array_equal([lp, grad[0]], expected, equal_nan=True), log_tau
            values.append(lp)
    assert -math.inf in values and sum(map(math.isfinite, values)) > 12


@pytest.mark.parametrize("log_tau", [-600.0, 600.0])
def test_tau_target_finite_at_extreme_log_scale(log_tau):
    # tau^2 and (noise + tau)^2 overflow here; the density and gradient must not.
    target = tau_target(*synthetic_corpus(50, 0.01, 0.05, seed=3))
    lp, grad = target.log_density_and_grad(np.array([log_tau]))
    assert np.isfinite(lp)
    assert np.isfinite(grad).all()


class TestCollectEffects:
    """Which differences enter an effects corpus."""

    def test_differences_need_finite_mean_and_positive_variance(self):
        delta, noise_sd = effects_from_differences(
            [0.1, np.nan, np.inf, 0.2, 0.3, 0.5, -0.4],
            [1e-4, 1e-4, 1e-4, 0.0, np.nan, np.inf, 4e-4],
        )
        assert delta.tolist() == [0.1, -0.4]
        assert noise_sd.tolist() == [0.01, 0.02]

    def test_validation(self):
        for delta, noise_sd, message in [
            ([0.1, 0.2], [0.05, 0.0], "noise_sd must be positive"),
            ([0.1, 0.2], [0.05, -0.1], "noise_sd must be positive"),
            ([0.1, 0.2], [0.05], "1-D arrays of one length"),
            ([[0.1, 0.2]], [[0.05, 0.05]], "1-D arrays of one length"),
            ([0.1, np.nan], [0.05, 0.05], "must be finite"),
            ([0.1, 0.2], [0.05, np.inf], "must be finite"),
            ([0.2, 0.1], [0.1, 1e200], "noise_sd must square to a finite variance"),
        ]:
            with pytest.raises(ValueError, match=message):
                learn_tau(delta, noise_sd)

    def test_density_that_is_nowhere_finite(self, monkeypatch):
        # 1e154 squares to a finite 1e308, but 2 pi times it overflows, so
        # the log density is -inf at every tau; the mode search used to
        # double its bracket for ever. A bounded count of density calls
        # turns such a hang into a failure.
        calls = itertools.count()

        def bounded_target(*args):
            target = tau_target(*args)
            density = target.log_density_and_grad

            def bounded(z):
                assert next(calls) < 10_000, "the mode search does not stop"
                return density(z)

            return dataclasses.replace(target, log_density_and_grad=bounded)

        monkeypatch.setattr(hbab.metaprior, "tau_target", bounded_target)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="no finite mode"):
            learn_tau([0.2, 0.1], [0.1, 1e154])
