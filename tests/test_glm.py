import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

from hbab.design import DesignMatrix, build_design_matrix
from hbab.glm import (
    CountData,
    fit_posterior,
    half_cauchy_log_density_log_scale,
    make_target,
)
from hbab import glm as glm_module
from hbab import sampler as sampler_module
from hbab.sampler import SamplerConfig, effective_sample_size, split_r_hat
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
        # The natural-scale result keeps the sampler's own warm start and
        # divergence count.
        assert s.warm_start is runs[0].warm_start
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
