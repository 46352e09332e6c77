import numpy as np
import pytest
from scipy import stats

from hbab.metaprior import EffectObservation, collect_effects, learn_tau, tau_target
from hbab.sampler import SamplerConfig
from hbab.seqtest import ComparisonResult

CFG = SamplerConfig(chains=2, warmup_draws=400, kept_draws=600, seed=0)


def synthetic_corpus(n, tau_true, noise_sd, seed):
    rng = np.random.default_rng(seed)
    deltas = rng.normal(0.0, np.sqrt(noise_sd**2 + tau_true), n)
    return [EffectObservation(float(d), noise_sd) for d in deltas]


def grid_posterior_mean(effects, cauchy_scale=5.0):
    """Direct numerical integration of the 1-d tau posterior."""
    log_tau = np.linspace(-30.0, 6.0, 40_001)
    tau = np.exp(log_tau)
    log_post = np.log(stats.halfcauchy.pdf(tau, scale=cauchy_scale)) + log_tau
    for e in effects:
        v = e.noise_sd**2 + tau
        log_post += stats.norm.logpdf(e.delta, 0.0, np.sqrt(v))
    w = np.exp(log_post - log_post.max())
    return float(np.trapezoid(w * tau, log_tau) / np.trapezoid(w, log_tau))


class TestLearnTau:
    def test_no_dispersion_concentrates_near_zero(self):
        effects = [EffectObservation(0.0, 1e-3) for _ in range(50)]
        learnt = learn_tau(effects, CFG)
        assert learnt.q97_5 < 1e-3
        assert learnt.point_value_for_testing >= 1e-8

    def test_recovers_known_dispersion(self):
        effects = synthetic_corpus(200, tau_true=0.01, noise_sd=0.02, seed=1)
        learnt = learn_tau(effects, CFG)
        assert 0.005 <= learnt.posterior_mean <= 0.02

    def test_matches_grid_integration(self):
        effects = synthetic_corpus(5, tau_true=0.05, noise_sd=0.1, seed=2)
        learnt = learn_tau(effects, CFG)
        oracle = grid_posterior_mean(effects)
        assert learnt.posterior_mean == pytest.approx(oracle, rel=0.15)

    def test_permutation_invariant(self):
        effects = synthetic_corpus(30, tau_true=0.02, noise_sd=0.05, seed=3)
        rng = np.random.default_rng(4)
        shuffled = list(effects)
        rng.shuffle(shuffled)
        a = learn_tau(effects, CFG)
        b = learn_tau(shuffled, CFG)
        assert a.posterior_mean == b.posterior_mean

    def test_scale_equivariant_within_mc_error(self):
        effects = synthetic_corpus(200, tau_true=0.01, noise_sd=0.02, seed=5)
        scaled = [EffectObservation(2 * e.delta, 2 * e.noise_sd) for e in effects]
        a = learn_tau(effects, CFG)
        b = learn_tau(scaled, CFG)
        assert b.posterior_mean / a.posterior_mean == pytest.approx(4.0, rel=0.12)

    def test_needs_at_least_two_effects(self):
        with pytest.raises(ValueError):
            learn_tau([EffectObservation(0.1, 0.05)], CFG)

    def test_quantiles_ordered(self):
        effects = synthetic_corpus(40, tau_true=0.02, noise_sd=0.05, seed=6)
        learnt = learn_tau(effects, CFG)
        assert learnt.q2_5 <= learnt.median <= learnt.q97_5


@pytest.mark.parametrize("log_tau", [-600.0, 600.0])
def test_tau_target_finite_at_extreme_log_scale(log_tau):
    # tau^2 and (noise + tau)^2 overflow here; the density and gradient must not.
    target = tau_target(synthetic_corpus(50, 0.01, 0.05, seed=3))
    lp, grad = target.log_density_and_grad(np.array([log_tau]))
    assert np.isfinite(lp)
    assert np.isfinite(grad).all()


class TestCollectEffects:
    def result(self, d, v, **kw):
        return ComparisonResult(
            (0,), (0,), (1,), diff_mean=d, diff_var=v, updates=1, **kw
        )

    def test_passthrough(self):
        effects = collect_effects([self.result(0.02, 1e-4)])
        assert len(effects) == 1
        assert effects[0].delta == pytest.approx(0.02)
        assert effects[0].noise_sd == pytest.approx(0.01)

    def test_policy_filters(self):
        results = [self.result(0.02, 1e-4), self.result(0.3, 1e-4)]
        effects = collect_effects(results, policy=lambda r: abs(r.diff_mean) < 0.1)
        assert len(effects) == 1

    def test_skips_never_updated(self):
        assert collect_effects([ComparisonResult((0,), (0,), (1,))]) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            EffectObservation(0.1, 0.0)
