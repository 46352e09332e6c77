import numpy as np
import pytest
from scipy import stats
from scipy.special import expit, logit

from hbab.design import ColumnLabel, DesignMatrix, build_design_matrix
from hbab.glm import (
    CountData,
    Hyperparams,
    ModelParams,
    fit_posterior,
    grad_log_posterior,
    half_cauchy_log_density_log_scale,
    log_posterior,
    make_target,
    predict_rates,
)
from hbab.sampler import SamplerConfig
from tests.test_design import make_spec

SPEC6 = make_spec([2, 3], [])
X6 = build_design_matrix(SPEC6, interaction_order=2)
HYPER = Hyperparams()


def random_params(rng, n_coef):
    return ModelParams(
        beta=rng.uniform(-1.5, 1.5, n_coef),
        mu=float(rng.uniform(-1, 1)),
        log_sigma=float(rng.uniform(-1, 1)),
        epsilon=float(rng.uniform(-1, 1)),
    )


def random_counts(rng, n_cells, max_assign=200):
    a = rng.integers(1, max_assign, n_cells)
    r = rng.binomial(a, rng.uniform(0.2, 0.8, n_cells))
    return CountData(a, r)


def straight_line_log_posterior(params, data, X, hyper):
    """Independent re-implementation through scipy distributions."""
    sigma = np.exp(params.log_sigma)
    p = expit(X.matrix @ params.beta + params.epsilon)
    lp = stats.norm.logpdf(params.beta, params.mu, sigma).sum()
    lp += stats.norm.logpdf(params.mu, hyper.mu_prior_mean, hyper.mu_prior_sd)
    lp += stats.halfcauchy.logpdf(sigma, scale=hyper.sigma_cauchy_scale)
    lp += params.log_sigma  # change of variables to the log scale
    lp += stats.norm.logpdf(params.epsilon, 0.0, 1.0)
    lp += stats.binom.logpmf(data.responses, data.assignments, p).sum()
    return float(lp)


class TestPredictRates:
    def test_zero_params_give_half(self):
        params = ModelParams(np.zeros(X6.cols), 0.0, 0.0, 0.0)
        assert np.allclose(predict_rates(params, X6), 0.5)

    def test_intercept_only_recovers_rate(self):
        X = DesignMatrix(np.ones((4, 1)), (ColumnLabel("intercept"),), 1)
        params = ModelParams(np.array([logit(0.7)]), 0.0, 0.0, 0.0)
        assert np.allclose(predict_rates(params, X), 0.7)

    def test_matches_per_cell_brute_force(self):
        rng = np.random.default_rng(0)
        params = random_params(rng, X6.cols)
        rates = predict_rates(params, X6)
        for k in range(X6.rows):
            eta = sum(
                params.beta[j] for j in range(X6.cols) if X6.matrix[k, j] == 1.0
            ) + params.epsilon
            assert rates[k] == pytest.approx(float(expit(eta)), rel=1e-12)

    def test_open_interval(self):
        params = ModelParams(np.full(X6.cols, 50.0), 0.0, 0.0, 0.0)
        rates = predict_rates(params, X6)
        assert np.all(rates > 0) and np.all(rates < 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict_rates(ModelParams(np.zeros(3), 0, 0, 0), X6)


class TestLogPosterior:
    def test_no_data_reduces_to_prior(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, X6.cols)
        empty = CountData(np.zeros(X6.rows, int), np.zeros(X6.rows, int))
        assert log_posterior(params, empty, X6, HYPER) == pytest.approx(
            straight_line_log_posterior(params, empty, X6, HYPER), rel=1e-12
        )

    def test_single_cell_binomial_term(self):
        a = np.zeros(X6.rows, int)
        r = np.zeros(X6.rows, int)
        a[0], r[0] = 10, 5
        data = CountData(a, r)
        empty = CountData(np.zeros(X6.rows, int), np.zeros(X6.rows, int))
        params = ModelParams(np.zeros(X6.cols), 0.0, 0.0, 0.0)  # rate 0.5
        lik = log_posterior(params, data, X6, HYPER) - log_posterior(
            params, empty, X6, HYPER
        )
        from math import comb, log

        assert lik == pytest.approx(log(comb(10, 5)) + 10 * log(0.5), rel=1e-12)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            params = random_params(rng, X6.cols)
            data = random_counts(rng, X6.rows)
            assert log_posterior(params, data, X6, HYPER) == pytest.approx(
                straight_line_log_posterior(params, data, X6, HYPER), rel=1e-10
            )

    def test_invariant_under_cell_permutation(self):
        rng = np.random.default_rng(3)
        params = random_params(rng, X6.cols)
        data = random_counts(rng, X6.rows)
        perm = rng.permutation(X6.rows)
        Xp = DesignMatrix(X6.matrix[perm], X6.column_labels, X6.interaction_order)
        datap = CountData(data.assignments[perm], data.responses[perm])
        assert log_posterior(params, data, X6, HYPER) == pytest.approx(
            log_posterior(params, datap, Xp, HYPER), rel=1e-12
        )


def finite_difference(f, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def pack(params):
    return np.concatenate(
        [params.beta, [params.mu, params.log_sigma, params.epsilon]]
    )


def unpack(z, n_coef):
    return ModelParams(z[:n_coef], z[n_coef], z[n_coef + 1], z[n_coef + 2])


class TestGradLogPosterior:
    def test_mu_gradient_zero_at_symmetric_point(self):
        data = random_counts(np.random.default_rng(4), X6.rows)
        params = ModelParams(np.zeros(X6.cols), 0.0, 0.0, 0.0)
        g = grad_log_posterior(params, data, X6, HYPER)
        assert g[X6.cols] == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        data = random_counts(rng, X6.rows)

        def f(z):
            return log_posterior(unpack(z, X6.cols), data, X6, HYPER)

        worst = 0.0
        for _ in range(100):
            z = pack(random_params(rng, X6.cols))
            analytic = grad_log_posterior(unpack(z, X6.cols), data, X6, HYPER)
            numeric = finite_difference(f, z)
            rel = np.abs(numeric - analytic) / np.maximum(1.0, np.abs(analytic))
            worst = max(worst, rel.max())
        assert worst < 1e-5

    def test_no_data_gives_prior_gradient(self):
        rng = np.random.default_rng(6)
        params = random_params(rng, X6.cols)
        empty = CountData(np.zeros(X6.rows, int), np.zeros(X6.rows, int))

        def prior(z):
            return straight_line_log_posterior(unpack(z, X6.cols), empty, X6, HYPER)

        analytic = grad_log_posterior(params, empty, X6, HYPER)
        assert np.allclose(analytic, finite_difference(prior, pack(params)), atol=1e-6)


class TestTarget:
    def test_noncentered_density_identity(self):
        # Densities differ exactly by the log-Jacobian of beta = mu + sigma*raw.
        rng = np.random.default_rng(7)
        data = random_counts(rng, X6.rows)
        raw_t = make_target(data, X6, HYPER, noncentered=True)
        cen_t = make_target(data, X6, HYPER, noncentered=False)
        for _ in range(10):
            z = pack(random_params(rng, X6.cols))
            sigma = np.exp(z[X6.cols + 1])
            zc = z.copy()
            zc[: X6.cols] = z[X6.cols] + sigma * z[: X6.cols]
            lp_raw, _ = raw_t.log_density_and_grad(z)
            lp_cen, _ = cen_t.log_density_and_grad(zc)
            assert lp_raw == pytest.approx(lp_cen + X6.cols * z[X6.cols + 1], rel=1e-10)

    def test_noncentered_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        data = random_counts(rng, X6.rows)
        target = make_target(data, X6, HYPER, noncentered=True)
        for _ in range(20):
            z = pack(random_params(rng, X6.cols))
            lp, analytic = target.log_density_and_grad(z)
            numeric = finite_difference(
                lambda v: target.log_density_and_grad(v)[0], z
            )
            assert np.allclose(analytic, numeric, atol=1e-5, rtol=1e-5)


@pytest.mark.parametrize("noncentered", [True, False])
@pytest.mark.parametrize("log_sigma", [-600.0, 600.0])
def test_target_finite_at_extreme_log_scale(noncentered, log_sigma):
    # sigma^2 overflows here; the density and gradient must not.
    rng = np.random.default_rng(10)
    data = random_counts(rng, X6.rows)
    target = make_target(data, X6, HYPER, noncentered=noncentered)
    z = np.zeros(X6.cols + 3)
    z[X6.cols + 1] = log_sigma
    lp, grad = target.log_density_and_grad(z)
    assert np.isfinite(lp)
    assert np.isfinite(grad).all()


class TestFitPosterior:
    DATA = random_counts(np.random.default_rng(4), X6.rows)

    def test_well_mixed_fit_has_no_warning(self):
        s = fit_posterior(self.DATA, X6, SamplerConfig(chains=2, warmup_draws=200,
                                                       kept_draws=200, seed=1))
        assert s.parameter_labels[-3:] == ("mu", "sigma", "epsilon")
        assert s.diagnostics.warnings == ()

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
