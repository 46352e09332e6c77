import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

from hbab.design import DesignMatrix, build_design_matrix
from hbab.glm import (
    MAX_ASSIGNMENTS,
    CountData,
    fit_posterior,
    half_cauchy_log_density_log_scale,
    make_target,
    nested_laplace_draws,
)
from hbab import glm as glm_module
from hbab import sampler as sampler_module
from hbab.sampler import SamplerConfig, WarmStart, effective_sample_size, sample, split_r_hat
from tests.test_design import make_spec

SPEC6 = make_spec([2, 3], [])
X6 = build_design_matrix(SPEC6, interaction_order=2)


def random_params(rng, n_coef):
    """Natural parameters (beta, mu, log_sigma, epsilon)."""
    return (rng.uniform(-1.5, 1.5, n_coef), float(rng.uniform(-1, 1)),
            float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))


def random_counts(rng, n_cells, max_assign=200):
    a = rng.integers(1, max_assign, n_cells)
    r = rng.binomial(a, rng.uniform(0.2, 0.8, n_cells))
    return CountData(a, r)


def straight_line_log_posterior(params, data, X):
    """Independent re-implementation through scipy distributions, with the
    model's fixed priors mu ~ Normal(0, 10^2) and sigma ~ HalfCauchy(5)."""
    beta, mu, log_sigma, epsilon = params
    sigma = np.exp(log_sigma)
    p = expit(X.matrix @ beta + epsilon)
    lp = stats.norm.logpdf(beta, mu, sigma).sum()
    lp += stats.norm.logpdf(mu, 0.0, 10.0)
    lp += stats.halfcauchy.logpdf(sigma, scale=5.0)
    lp += log_sigma  # change of variables to the log scale
    lp += stats.norm.logpdf(epsilon, 0.0, 1.0)
    lp += stats.binom.logpmf(data.responses, data.assignments, p).sum()
    return float(lp)


def pack(beta, mu, log_sigma, epsilon):
    return np.concatenate([beta, [mu, log_sigma, epsilon]])


def target_log_posterior(params, data, X):
    """The target's density at the non-centred image of natural parameters,
    less the log-Jacobian ``P * log_sigma`` of beta = mu + sigma * beta_raw."""
    beta, mu, log_sigma, epsilon = params
    raw = (beta - mu) / np.exp(log_sigma)
    lp, _ = make_target(data, X).log_density_and_grad(pack(raw, mu, log_sigma, epsilon))
    return lp - X.cols * log_sigma


class TestLogPosterior:
    """The joint log density of the natural parameters and the counts."""

    def test_no_data_reduces_to_prior(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, X6.cols)
        empty = CountData(np.zeros(X6.rows, int), np.zeros(X6.rows, int))
        assert target_log_posterior(params, empty, X6) == pytest.approx(
            straight_line_log_posterior(params, empty, X6), rel=1e-12
        )

    def test_single_cell_binomial_term(self):
        a = np.zeros(X6.rows, int)
        r = np.zeros(X6.rows, int)
        a[0], r[0] = 10, 5
        data = CountData(a, r)
        empty = CountData(np.zeros(X6.rows, int), np.zeros(X6.rows, int))
        params = (np.zeros(X6.cols), 0.0, 0.0, 0.0)  # rate 0.5
        lik = target_log_posterior(params, data, X6) - target_log_posterior(
            params, empty, X6
        )
        from math import comb, log

        assert lik == pytest.approx(log(comb(10, 5)) + 10 * log(0.5), rel=1e-12)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            params = random_params(rng, X6.cols)
            data = random_counts(rng, X6.rows)
            assert target_log_posterior(params, data, X6) == pytest.approx(
                straight_line_log_posterior(params, data, X6), rel=1e-10
            )

    def test_invariant_under_cell_permutation(self):
        # The permuted problem against the oracle of the original one.
        rng = np.random.default_rng(3)
        params = random_params(rng, X6.cols)
        data = random_counts(rng, X6.rows)
        perm = rng.permutation(X6.rows)
        Xp = DesignMatrix(X6.matrix[perm], X6.column_labels)
        datap = CountData(data.assignments[perm], data.responses[perm])
        assert target_log_posterior(params, datap, Xp) == pytest.approx(
            straight_line_log_posterior(params, data, X6), rel=1e-12
        )


def finite_difference(f, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


class TestTarget:
    def test_noncentered_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        data = random_counts(rng, X6.rows)
        target = make_target(data, X6)
        for _ in range(20):
            z = pack(*random_params(rng, X6.cols))
            lp, analytic = target.log_density_and_grad(z)
            numeric = finite_difference(
                lambda v: target.log_density_and_grad(v)[0], z
            )
            assert np.allclose(analytic, numeric, atol=1e-5, rtol=1e-5)


@pytest.mark.parametrize("log_sigma", [-600.0, 600.0])
def test_target_finite_at_extreme_log_scale(log_sigma):
    # sigma^2 overflows here; the density and gradient must not.
    rng = np.random.default_rng(10)
    data = random_counts(rng, X6.rows)
    target = make_target(data, X6)
    z = np.zeros(X6.cols + 3)
    z[X6.cols + 1] = log_sigma
    lp, grad = target.log_density_and_grad(z)
    assert np.isfinite(lp)
    assert np.isfinite(grad).all()


def test_sigmoid_is_finite_past_exp_overflow():
    eta = np.array([-1e300, -800.0, 800.0, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        softplus, p = glm_module._softplus_and_sigmoid(eta)
    assert np.array_equal(p, [0.0, 0.0, 1.0, 1.0])
    assert np.array_equal(softplus, [0.0, 0.0, 800.0, 1e300])


def test_sigmoid_matches_expit():
    eta = np.linspace(-40.0, 40.0, 200_001)
    _, p = glm_module._softplus_and_sigmoid(eta)
    np.testing.assert_allclose(p, expit(eta), rtol=1e-14, atol=0)


class TestFitPosterior:
    DATA = random_counts(np.random.default_rng(4), X6.rows)

    def test_well_mixed_fit_has_no_warning(self):
        s = fit_posterior(self.DATA, X6, SamplerConfig(chains=2, warmup_draws=200,
                                                       kept_draws=200, seed=1))
        assert s.parameter_labels[-3:] == ("mu", "sigma", "epsilon")
        assert s.diagnostics.warnings == ()

    def test_diagnostics_cover_the_identified_quantities(self, monkeypatch):
        runs, passes = [], []
        original, original_ess = glm_module.sample, sampler_module.effective_sample_size

        def recorded(*args):
            runs.append(original(*args))
            return runs[-1]

        def counted_ess(values):
            passes.append(values.shape)
            return original_ess(values)

        monkeypatch.setattr(glm_module, "sample", recorded)
        monkeypatch.setattr(sampler_module, "effective_sample_size", counted_ess)
        s = fit_posterior(self.DATA, X6, SamplerConfig(chains=2, warmup_draws=100,
                                                       kept_draws=100, seed=2))
        names = tuple(f"logit[{k}]" for k in range(X6.rows)) + ("sigma", "mu+epsilon")
        diag = s.diagnostics
        assert diag.quantities == names
        assert diag.split_r_hat.shape == diag.effective_sample_size.shape == (len(names),)
        # The cell logits are the rows of X beta + epsilon, draw by draw.
        logits = s.draws[..., :X6.cols] @ X6.matrix.T + s.draws[..., -1:]
        np.testing.assert_array_equal(diag.effective_sample_size[:X6.rows],
                                      effective_sample_size(logits))
        assert diag.split_r_hat[-1] == split_r_hat(s.draws[..., -3] + s.draws[..., -1])
        # The natural-scale result keeps the sampler's own divergence count.
        assert diag.divergence_count == runs[0].diagnostics.divergence_count
        # One vectorised pass on the sampler's coordinates, one on these.
        assert passes == [runs[0].draws.shape, s.draws.shape[:2] + (len(names),)]

    def test_poorly_mixed_cells_are_reported(self):
        # No warmup and one leapfrog per transition: a random walk whose
        # cell logits keep only a handful of effective draws.
        s = fit_posterior(self.DATA, X6, SamplerConfig(chains=2, warmup_draws=0,
                                                       kept_draws=200, max_tree_depth=1,
                                                       seed=1))
        assert any("cell logits mixed poorly" in w for w in s.diagnostics.warnings)


def cell_rates(draws, X):
    """Cell response rates of draws [..., P + 3] in the target's coordinates."""
    P = X.cols
    beta = draws[..., P, None] + np.exp(draws[..., P + 1, None]) * draws[..., :P]
    return expit(beta @ X.matrix.T + draws[..., P + 2, None])


class TestNestedLaplace:
    """The nested Laplace mixture that every fit starts from."""

    @staticmethod
    def desk_look_1():
        from hbab.sim import _rep_seed_sequences, desk_scenario, generate_truth, stream_updates

        config = desk_scenario(seed=7)
        truth_seed, stream_seed = _rep_seed_sequences(config, 0)
        look = stream_updates(generate_truth(config, truth_seed), config, stream_seed)[0]
        return CountData(look.assignments, look.responses), build_design_matrix(config.spec)

    def test_mixture_agrees_with_a_long_nuts_fit(self):
        # Desk look 1, about 10 assignments a cell, where a Gaussian in the
        # logits is weakest. z divides each difference by its Monte-Carlo
        # error: NUTS's from the ESS of the rates (of their squared
        # deviations for the sd), the mixture's from its independent draws.
        data, X = self.desk_look_1()
        n = 4000
        mixture = cell_rates(nested_laplace_draws(data, X, n, np.random.default_rng(1)), X)
        s = fit_posterior(data, X, SamplerConfig(chains=2, warmup_draws=250, kept_draws=1000,
                                                 max_tree_depth=8, seed=3))
        nuts = expit(s.draws[..., :X.cols] @ X.matrix.T + s.draws[..., -1:])
        mean, sd = nuts.mean(axis=(0, 1)), nuts.std(axis=(0, 1))
        ess = effective_sample_size(nuts)
        ess_sq = effective_sample_size((nuts - mean) ** 2)
        m_mean, m_sd = mixture.mean(axis=0), mixture.std(axis=0)
        z_mean = (m_mean - mean) / np.sqrt(sd**2 / ess + m_sd**2 / n)
        z_sd = (m_sd - sd) / np.sqrt(sd**2 / (2 * ess_sq) + m_sd**2 / (2 * n))
        for z in (z_mean, z_sd):
            assert np.sqrt(np.mean(z**2)) < 2.0
            assert np.abs(z).max() < 4.5

    @pytest.mark.parametrize("assignments, responses", [
        ([100] * 4, [100, 0, 50, 50]),
        ([MAX_ASSIGNMENTS] * 4, [MAX_ASSIGNMENTS, 0, MAX_ASSIGNMENTS // 3, 7]),
    ], ids=["separation", "max-assignments"])
    def test_extreme_counts_give_finite_draws(self, assignments, responses):
        # A cell at every response beside one at none; RuntimeWarnings are
        # errors in the tests, so none was raised either.
        X = build_design_matrix(make_spec([2], [2]))
        draws = nested_laplace_draws(CountData(assignments, responses), X, 500,
                                     np.random.default_rng(2))
        assert draws.shape == (500, X.cols + 3)
        assert np.isfinite(draws).all()

    def test_deterministic_given_the_generator(self):
        data, X = self.desk_look_1()
        a, b = (nested_laplace_draws(data, X, 50, np.random.default_rng(5)) for _ in range(2))
        np.testing.assert_array_equal(a, b)

    def test_cold_fit_is_the_warm_path_from_the_mixture(self, monkeypatch):
        # Chains start at their own mixture draws and the rest are pooled
        # and probed for the kept step; the mixture's stream is the one a
        # spawn of one more child than the chains' adds, so the chains'
        # streams are as they were.
        cfg = SamplerConfig(chains=2, warmup_draws=100, kept_draws=100, max_tree_depth=6,
                            seed=11)
        data = TestFitPosterior.DATA
        stream = np.random.SeedSequence(11).spawn(3)[-1]
        start = nested_laplace_draws(data, X6, 302, np.random.Generator(np.random.Philox(stream)))
        expected = sample(make_target(data, X6), cfg,
                          WarmStart(start[:2], start[2:], probes=start[2:]))
        runs, original = [], glm_module.sample

        def recorded(*args):
            runs.append(original(*args))
            return runs[-1]

        monkeypatch.setattr(glm_module, "sample", recorded)
        fit_posterior(data, X6, cfg)
        assert np.array_equal(runs[0].draws, expected.draws)


def test_half_cauchy_log_scale_normalized():
    # exp(log density) must integrate to one over the log-sigma axis.
    grid = np.linspace(-30.0, 30.0, 60_001)
    dens = np.exp([half_cauchy_log_density_log_scale(v, 5.0) for v in grid])
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)


def test_count_data_validation():
    with pytest.raises(ValueError):
        CountData(np.array([5]), np.array([6]))
    with pytest.raises(ValueError):
        CountData(np.array([5]), np.array([-1]))
