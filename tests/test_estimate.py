import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from hbab.design import build_design_matrix
from hbab.estimate import (
    CellEstimates,
    hb_estimate,
    marginal_weights,
    marginalize,
    mle_estimates,
)
from hbab.glm import CountData, fit_posterior
from hbab.sampler import Diagnostics, PosteriorSamples, SamplerConfig
from tests.test_design import make_spec


def mle(assignments, responses):
    return mle_estimates(CountData(np.array(assignments), np.array(responses)))


class TestMleEstimate:
    def test_basic_formula(self):
        est = mle([10], [5])[0]
        assert (est.mean, est.variance) == (0.5, 0.025)

    def test_boundary(self):
        est = mle([10], [0])[0]
        assert (est.mean, est.variance) == (0.0, 0.0)

    def test_larger_counts(self):
        est = mle([100], [30])[0]
        assert est.mean == pytest.approx(0.30)
        assert est.variance == pytest.approx(0.0021)

    def test_zero_assignments_undefined(self):
        ests = mle([0, 10], [0, 5])
        assert math.isnan(ests[0].mean) and math.isnan(ests[0].variance)
        assert (ests[1].mean, ests[1].variance) == (0.5, 0.025)
        assert ests.draws is None

    def test_matches_the_scalar_formula(self):
        rng = np.random.default_rng(7)
        a = rng.integers(1, 10_000, 500)
        r = rng.integers(0, a + 1)
        ests = mle(a, r)
        for k, (ak, rk) in enumerate(zip(a.tolist(), r.tolist())):
            mean = rk / ak
            assert ests[k].mean == mean
            assert ests[k].variance == mean * (1.0 - mean) / ak

    def test_label_swap_equivariance(self):
        rng = np.random.default_rng(0)
        a = rng.integers(1, 200, 20)
        r = rng.integers(0, a + 1)
        ests, flipped = mle(a, r), mle(a, a - r)
        for est, flip in zip(ests, flipped):
            assert flip.mean == pytest.approx(1.0 - est.mean)
            assert flip.variance == pytest.approx(est.variance)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            mle([3], [4])


def manual_samples(beta_draws, eps_draws):
    """PosteriorSamples with given flat draws (one chain)."""
    n, p = beta_draws.shape
    draws = np.concatenate(
        [beta_draws, np.zeros((n, 2)), eps_draws[:, None]], axis=1
    ).reshape(n, 1, p + 3)
    labels = tuple(f"beta[{j}]" for j in range(p)) + ("mu", "sigma", "epsilon")
    diag = Diagnostics(labels, np.ones(p + 3), np.full(p + 3, float(n)), 0)
    return PosteriorSamples(draws, labels, diag)


class TestHbEstimate:
    def test_identical_draws_have_zero_variance(self):
        X = build_design_matrix(make_spec([2], []), interaction_order=1)
        beta = np.tile(np.array([0.2, -0.1, 0.4]), (200, 1))
        samples = manual_samples(beta, np.full(200, 0.1))
        ests = hb_estimate(samples, X)
        for k, est in enumerate(ests):
            assert est.variance == pytest.approx(0.0, abs=1e-30)
            expected = expit(X.matrix[k] @ beta[0] + 0.1)
            assert est.mean == pytest.approx(float(expected))

    def test_intercept_dominated_model_shares_estimates(self):
        # Only the intercept column varies across draws: every cell gets the
        # same pushed-forward distribution.
        X = build_design_matrix(make_spec([2], []), interaction_order=1)
        rng = np.random.default_rng(1)
        beta = np.zeros((300, 3))
        beta[:, 0] = rng.normal(0.3, 0.2, 300)
        samples = manual_samples(beta, np.zeros(300))
        ests = hb_estimate(samples, X)
        assert ests[0].mean == ests[1].mean
        assert ests[0].variance == ests[1].variance

    def test_matches_draw_level_brute_force(self):
        spec = make_spec([2, 3], [])
        X = build_design_matrix(spec, interaction_order=2)
        rng = np.random.default_rng(2)
        truth = rng.uniform(0.3, 0.7, X.rows)
        a = np.full(X.rows, 80)
        data = CountData(a, rng.binomial(a, truth))
        samples = fit_posterior(
            data, X, SamplerConfig(chains=2, warmup_draws=200, kept_draws=150, seed=3)
        )
        ests = hb_estimate(samples, X)

        flat = samples.flat()
        beta = flat[:, :X.cols]
        eps = flat[:, samples.parameter_index("epsilon")]
        # The per-column 1-D reductions of the [draws, cells] rate product
        # are the reference to the last bit; scipy's expit, to rounding.
        logits = beta @ X.matrix.T + eps[:, None]
        product = 1.0 / (1.0 + np.exp(-logits))
        for k in range(X.rows):
            assert ests[k].mean == product[:, k].mean()
            assert ests[k].variance == product[:, k].var(ddof=1)
            assert ests[k].mean == pytest.approx(expit(logits[:, k]).mean(), rel=1e-14)
            rates = np.array(
                [1.0 / (1.0 + np.exp(-(X.matrix[k] @ b + e)))
                 for b, e in zip(beta, eps)]
            )
            assert ests[k].mean == pytest.approx(rates.mean(), rel=1e-12)
            assert ests[k].variance == pytest.approx(rates.var(ddof=1), rel=1e-10)

    def test_rates_are_finite_past_exp_overflow(self):
        X = build_design_matrix(make_spec([2], []), interaction_order=1)
        eps = np.array([-1e300, -800.0, 800.0, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ests = hb_estimate(manual_samples(np.zeros((4, X.cols)), eps), X)
        assert np.array_equal(ests.draws, np.tile([0.0, 0.0, 1.0, 1.0], (X.rows, 1)))

    def test_rates_match_expit(self):
        X = build_design_matrix(make_spec([2], []), interaction_order=1)
        eps = np.linspace(-40.0, 40.0, 20_001)
        ests = hb_estimate(manual_samples(np.zeros((eps.size, X.cols)), eps), X)
        np.testing.assert_allclose(ests.draws[0], expit(eps), rtol=1e-14, atol=0)

    def test_draws_are_one_matrix_viewed_per_cell(self):
        X = build_design_matrix(make_spec([2, 2], [2]), interaction_order=2)
        rng = np.random.default_rng(8)
        samples = manual_samples(rng.normal(0, 0.3, (120, X.cols)),
                                 rng.normal(0, 0.1, 120))
        ests = hb_estimate(samples, X)
        assert len(ests) == X.rows
        assert ests.draws.shape == (X.rows, 120)
        assert ests.draws.flags.c_contiguous
        for k, est in enumerate(ests):
            assert est.draws.base is ests.draws
            assert np.shares_memory(est.draws, ests.draws)
            assert np.array_equal(est.draws, ests.draws[k])

    def test_dimension_mismatch(self):
        X = build_design_matrix(make_spec([2, 2], []), interaction_order=1)
        samples = manual_samples(np.zeros((150, 3)), np.zeros(150))
        with pytest.raises(ValueError):
            hb_estimate(samples, X)


def test_cell_estimates_take_one_row_per_cell():
    ests = CellEstimates([0.1, 0.2], [0.01, 0.02], [[0.1, 0.1], [0.2, 0.2]])
    assert len(ests) == 2 and ests.means.dtype == float
    assert [e.mean for e in ests] == [0.1, 0.2]
    with pytest.raises(ValueError):
        CellEstimates([0.1, 0.2], [0.01])
    with pytest.raises(ValueError):
        CellEstimates([0.1, 0.2], [0.01, 0.02], np.zeros((3, 5)))


class TestMarginalize:
    def test_identical_estimates_pass_through(self):
        spec = make_spec([2], [2])
        ests = CellEstimates(np.full(4, 0.4), np.full(4, 0.01))
        out = marginalize(ests, spec, np.array([30.0, 70.0]))
        assert all(e.mean == pytest.approx(0.4) for e in out)

    def test_weighted_mean(self):
        spec = make_spec([2], [2])
        # content combo 0: rates 0.2 / 0.6 across contexts with 75/25 traffic.
        ests = CellEstimates(np.array([0.2, 0.6, 0.5, 0.5]), np.full(4, 0.0004))
        out = marginalize(ests, spec, np.array([75.0, 25.0]))
        assert out[0].mean == pytest.approx(0.3)
        assert out[0].variance == pytest.approx(0.5625 * 4e-4 + 0.0625 * 4e-4)

    def test_draw_wise_matches_manual_average(self):
        spec = make_spec([2], [2, 2])
        rng = np.random.default_rng(4)
        n_draws = 500
        draws = rng.uniform(0.1, 0.9, (8, n_draws))
        ests = CellEstimates(draws.mean(axis=1), draws.var(axis=1, ddof=1), draws)
        traffic = np.array([10.0, 30.0, 25.0, 35.0])
        out = marginalize(ests, spec, traffic)
        w = traffic / traffic.sum()
        for i in range(2):
            manual = sum(w[j] * draws[4 * i + j] for j in range(4))
            assert out[i].mean == pytest.approx(float(manual.mean()), rel=1e-12)
            assert np.allclose(out[i].draws, manual)
            # The per-content loop this replaced, to the last bit.
            assert out[i].mean == manual.mean()
            assert out[i].variance == manual.var(ddof=1)

    def test_marginal_within_context_range(self):
        spec = make_spec([2], [3])
        rng = np.random.default_rng(5)
        for _ in range(20):
            means = rng.uniform(0, 1, 6)
            ests = CellEstimates(means, np.full(6, 0.001))
            traffic = rng.uniform(0, 10, 3)
            if traffic.sum() == 0:
                continue
            out = marginalize(ests, spec, traffic)
            for i in range(2):
                block = means[3 * i: 3 * i + 3]
                assert block.min() - 1e-12 <= out[i].mean <= block.max() + 1e-12

    def test_no_traffic_errors(self):
        spec = make_spec([2], [2])
        ests = CellEstimates(np.full(4, 0.5), np.full(4, 0.01))
        with pytest.raises(ValueError, match="no traffic"):
            marginalize(ests, spec, np.zeros(2))

    def test_weights_normalized(self):
        w = marginal_weights(np.array([1.0, 3.0]))
        assert np.allclose(w, [0.25, 0.75])


def test_hierarchical_estimates_shrink_under_null():
    # All true rates equal: pooling should compress the spread of the
    # hierarchical means below the plain proportions' spread.
    spec = make_spec([2, 2], [2])
    X = build_design_matrix(spec, interaction_order=2)
    rng = np.random.default_rng(6)
    a = np.full(X.rows, 40)
    data = CountData(a, rng.binomial(a, 0.5))
    samples = fit_posterior(
        data, X, SamplerConfig(chains=2, warmup_draws=250, kept_draws=200, seed=7)
    )
    hb_means = hb_estimate(samples, X).means
    ml_means = mle_estimates(data).means
    assert hb_means.var() < ml_means.var()
