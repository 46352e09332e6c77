from dataclasses import replace

import numpy as np
import pytest

from hbab.conjugate import ConjugateInstance, pooling_target, posterior
from hbab.sampler import (
    Diagnostics,
    PosteriorSamples,
    SamplerConfig,
    TargetDensity,
    dump_draws,
    effective_sample_size,
    leapfrog,
    posterior_summary,
    sample,
    split_r_hat,
)
from hbab.sampler import _stable_step, _window_metric


def std_normal_target(dim=1):
    return TargetDensity(dim, lambda x: (float(-0.5 * x @ x), -x))


def mvn_target(cov):
    prec = np.linalg.inv(cov)
    return TargetDensity(
        cov.shape[0], lambda x: (float(-0.5 * x @ prec @ x), -prec @ x)
    )


class TestSample:
    def test_standard_normal_moments(self):
        s = sample(
            std_normal_target(),
            SamplerConfig(chains=4, warmup_draws=500, kept_draws=1000, seed=42),
        )
        x = s.flat()[:, 0]
        assert abs(x.mean()) < 0.05
        assert abs(x.std() - 1.0) < 0.05

    def test_correlated_gaussian_covariance(self):
        cov = np.array([[2.0, 0.9, 0.6], [0.9, 1.5, 0.5], [0.6, 0.5, 1.0]])
        s = sample(
            mvn_target(cov),
            SamplerConfig(chains=4, warmup_draws=500, kept_draws=1500, seed=7),
        )
        emp = np.cov(s.flat().T)
        assert np.max(np.abs(emp - cov) / np.abs(cov)) < 0.10

    def test_matches_closed_form_pooling_posterior(self):
        rng = np.random.default_rng(5)
        inst = ConjugateInstance(
            rng.uniform(-2, 2, 4), rng.uniform(0.05, 1.0, 4), 0.8, 1.5
        )
        s = sample(
            pooling_target(inst),
            SamplerConfig(chains=4, warmup_draws=400, kept_draws=500, seed=11),
        )
        exact = posterior(inst)
        flat = s.flat()
        for j in range(4):
            ess = s.diagnostics.effective_sample_size[j]
            m, v = flat[:, j].mean(), flat[:, j].var(ddof=1)
            assert abs(m - exact.beta_hat[j]) <= 3 * np.sqrt(v / ess)
            assert abs(v - exact.sigma_hat_sq[j]) <= 3 * v * np.sqrt(2.0 / ess)

    def test_convergence_diagnostics_on_clean_target(self):
        rng = np.random.default_rng(9)
        inst = ConjugateInstance(
            rng.uniform(-1, 1, 3), rng.uniform(0.1, 0.5, 3), 1.0, 1.0
        )
        s = sample(pooling_target(inst), SamplerConfig(seed=1))
        assert np.all(s.diagnostics.split_r_hat < 1.01)
        assert np.all(s.diagnostics.effective_sample_size > 400)
        assert s.diagnostics.warnings == ()

    def test_deterministic_given_seed(self):
        cfg = SamplerConfig(chains=3, warmup_draws=200, kept_draws=150, seed=123)
        a = sample(std_normal_target(2), cfg)
        b = sample(std_normal_target(2), cfg)
        assert np.array_equal(a.draws, b.draws)

    def test_chain_substreams_stable_under_chain_count(self):
        # Adding chains must not perturb earlier chains' draws.
        few = sample(
            std_normal_target(),
            SamplerConfig(chains=2, warmup_draws=100, kept_draws=100, seed=5),
        )
        more = sample(
            std_normal_target(),
            SamplerConfig(chains=4, warmup_draws=100, kept_draws=100, seed=5),
        )
        assert np.array_equal(few.draws, more.draws[:, :2, :])

    def test_nonfinite_initial_density_raises(self):
        bad = TargetDensity(1, lambda x: (float("-inf"), np.zeros(1)))
        with pytest.raises(ValueError, match="not finite"):
            sample(bad, SamplerConfig(chains=1, warmup_draws=10, kept_draws=100))

    def test_nonfinite_gradient_is_a_divergence(self):
        # The density stays finite past |x[0]| = 1.5 but its gradient is NaN.
        def broken(x):
            grad = -x if abs(x[0]) < 1.5 else np.full(x.size, np.nan)
            return -0.5 * float(x @ x), grad

        s = sample(
            TargetDensity(2, broken),
            SamplerConfig(chains=2, warmup_draws=200, kept_draws=300, seed=3),
        )
        assert s.diagnostics.divergence_count > 0
        assert np.isfinite(s.draws).all()
        assert np.abs(s.draws[:, :, 0]).max() < 1.5

    def test_dense_metric_follows_a_ridge(self):
        # 10-D Gaussian with standard deviations from 1e-3 to 1 along rotated
        # axes, where a diagonal metric takes over a hundred leapfrogs per
        # transition.
        rng = np.random.default_rng(21)
        rot, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        cov = (rot * np.logspace(-3, 0, 10) ** 2) @ rot.T
        base = mvn_target(cov).log_density_and_grad
        calls = [0]

        def counted(x):
            calls[0] += 1
            return base(x)

        cfg = SamplerConfig(chains=2, warmup_draws=300, kept_draws=600,
                            max_tree_depth=8, seed=4)
        sample(TargetDensity(10, counted), replace(cfg, kept_draws=100))
        short_calls, calls[0] = calls[0], 0
        s = sample(TargetDensity(10, counted), cfg)
        # Both runs share warmup and their first 100 kept draws, so the
        # difference is the leapfrogs of the last 500 kept transitions.
        assert (calls[0] - short_calls) / (cfg.chains * 500) < 32

        # Whitened by the true covariance, the draws have identity
        # covariance; entries agree within 4 Monte-Carlo SE.
        white = s.draws @ np.linalg.inv(np.linalg.cholesky(cov)).T
        emp = np.cov(white.reshape(-1, 10).T)
        ess = min(
            effective_sample_size((white[:, :, j] - white[:, :, j].mean()) ** 2)
            for j in range(10)
        )
        assert np.max(np.abs(emp - np.eye(10))) < 4 * np.sqrt(2.0 / ess)

    def test_divergences_flagged(self):
        # Lying gradient beyond a cliff makes trajectories blow past the
        # energy threshold.
        def cliff(x):
            lp = -0.5 * float(x @ x)
            if abs(x[0]) > 1.0:
                lp -= 1e8
            return lp, -x

        s = sample(
            TargetDensity(1, cliff),
            SamplerConfig(chains=2, warmup_draws=100, kept_draws=200, seed=3),
        )
        total = 2 * 200
        assert s.diagnostics.divergence_count > 0.1 * total
        assert any("divergent" in w for w in s.diagnostics.warnings)


def check_reversible_and_energy_bounded(inv_mass):
    cov = np.array([[1.0, 0.4], [0.4, 2.0]])
    target = mvn_target(cov)
    fn = target.log_density_and_grad
    rng = np.random.default_rng(0)
    q0 = rng.normal(size=2)
    p0 = rng.normal(size=2)
    logp0, grad0 = fn(q0)

    def energy(q, p, logp):
        return -logp + 0.5 * p @ inv_mass @ p

    q, p, grad, logp = q0, p0, grad0, logp0
    for _ in range(25):
        q, p, grad, logp = leapfrog(fn, q, p, grad, 0.05, inv_mass)
    fwd_err = energy(q, p, logp) - energy(q0, p0, logp0)
    assert abs(fwd_err) < 0.1

    # Flip momentum and integrate back: returns to the start, and the
    # energy error flips sign exactly.
    qb, pb, gradb, logpb = q, -p, grad, logp
    for _ in range(25):
        qb, pb, gradb, logpb = leapfrog(fn, qb, pb, gradb, 0.05, inv_mass)
    assert np.allclose(qb, q0, atol=1e-10)
    assert np.allclose(pb, -p0, atol=1e-10)
    back_err = energy(qb, pb, logpb) - energy(q, -p, logp)
    assert back_err == pytest.approx(-fwd_err, abs=1e-10)


class TestLeapfrog:
    def test_reversible_and_energy_bounded(self):
        check_reversible_and_energy_bounded(np.eye(2))

    def test_dense_metric_reversible_and_energy_bounded(self):
        check_reversible_and_energy_bounded(np.array([[0.9, 0.35], [0.35, 1.8]]))


class TestWindowMetric:
    WINDOW = np.random.default_rng(1).normal(size=(40, 2)) * [2.0, 0.5]

    def test_blends_window_variance_with_curvature_along_its_axes(self):
        # Curvature 1 along x[0] and none along x[1], which therefore takes
        # the window variance. The curvature's axes are the coordinate axes,
        # so the window's covariance between x[0] and x[1] is left out.
        def fn(x):
            return -x[0] ** 2 / 2.0, np.array([-x[0], 0.0])

        cov = np.cov(self.WINDOW.T)
        assert abs(cov[0, 1]) > 0.05
        a = 40 / (40 + 2)
        expected = np.diag([a * cov[0, 0] + (1 - a) * 1.0, cov[1, 1]])
        assert np.allclose(_window_metric(fn, self.WINDOW), expected, rtol=1e-6, atol=1e-12)

    def test_curvature_axes_rotate_with_the_target(self):
        # Curvature 1 and 4 along axes rotated by 30 degrees: the metric is
        # diagonal in those axes.
        c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
        axes = np.array([[c, -s], [s, c]])
        prec = (axes * [1.0, 4.0]) @ axes.T

        def fn(x):
            return -0.5 * float(x @ prec @ x), -prec @ x

        cov = np.cov(self.WINDOW.T)
        a = 40 / (40 + 2)
        window_var = np.einsum("ji,jk,ki->i", axes, cov, axes)
        var = a * window_var + (1 - a) * np.array([1.0, 0.25])
        expected = (axes * var) @ axes.T
        assert np.allclose(_window_metric(fn, self.WINDOW), expected, rtol=1e-6)

    def test_curvature_variance_capped_at_widest_window_direction(self):
        # Nearly flat along x[0]: 1 / curvature would be 1e4.
        def fn(x):
            return -1e-4 * x[0] ** 2 / 2.0, np.array([-1e-4 * x[0], 0.0])

        cov = np.cov(self.WINDOW.T)
        a = 40 / (40 + 2)
        widest = np.linalg.eigvalsh(cov)[-1]
        expected = np.diag([a * cov[0, 0] + (1 - a) * widest, cov[1, 1]])
        assert np.allclose(_window_metric(fn, self.WINDOW), expected, rtol=1e-6, atol=1e-12)

    def test_nonfinite_hessian_falls_back_to_window_covariance(self):
        def fn(x):
            return 0.0, np.full(2, np.nan)

        w = 40 / 45
        expected = w * np.cov(self.WINDOW.T) + (1 - w) * 1e-3 * np.eye(2)
        assert np.allclose(_window_metric(fn, self.WINDOW), expected)


class TestStableStep:
    def test_gaussian_bound_is_set_by_the_stiffest_direction(self):
        prec = np.diag([1.0, 100.0])

        def fn(x):
            return -0.5 * float(x @ prec @ x), -prec @ x

        visited = [(x, fn(x)[1]) for x in np.random.default_rng(2).normal(size=(20, 2))]
        assert _stable_step(fn, visited, np.eye(2)) == pytest.approx(1.2 / 10.0, rel=1e-4)
        # Whitened by the true covariance every direction has curvature 1.
        assert _stable_step(fn, visited, np.linalg.inv(prec)) == pytest.approx(1.2, rel=1e-4)

    def test_probes_where_the_whitened_gradient_is_largest(self):
        # Curvature 3 x^2 grows away from 0; the state at x = 3 has by far
        # the largest gradient and sets the bound.
        def fn(x):
            return -0.25 * float(x[0] ** 4), -x ** 3

        visited = [(np.array([x]), -np.array([x]) ** 3)
                   for x in (0.1, -0.5, 1.0, 0.3, 3.0, 0.2, -0.8)]
        assert _stable_step(fn, visited, np.eye(1)) == pytest.approx(
            1.2 / np.sqrt(27.0), rel=1e-4)


def constant_samples(value, k=120, chains=2, label="x"):
    draws = np.full((k, chains, 1), float(value))
    diag = Diagnostics(np.array([1.0]), np.array([float(k * chains)]), 0)
    return PosteriorSamples(draws, (label,), diag)


class TestSummaries:
    def test_constant_draws(self):
        s = posterior_summary(constant_samples(3.5), "x")
        assert s.mean == 3.5 and s.sd == 0.0

    def test_small_known_set(self):
        draws = np.array([1.0, 2.0, 3.0, 4.0] * 30).reshape(120, 1, 1)
        samples = PosteriorSamples(
            draws, ("x",), Diagnostics(np.array([1.0]), np.array([120.0]), 0)
        )
        assert posterior_summary(samples, "x").mean == 2.5

    def test_normal_quantile(self):
        rng = np.random.default_rng(2)
        draws = rng.standard_normal((5000, 2, 1))
        samples = PosteriorSamples(
            draws, ("x",), Diagnostics(np.array([1.0]), np.array([10_000.0]), 0)
        )
        assert posterior_summary(samples, "x").q97_5 == pytest.approx(1.96, abs=0.1)

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            posterior_summary(constant_samples(0.0), "nope")


class TestDiagnosticsFunctions:
    def test_split_r_hat_near_one_for_iid(self):
        rng = np.random.default_rng(3)
        assert abs(split_r_hat(rng.standard_normal((1000, 4))) - 1.0) < 0.01

    def test_split_r_hat_detects_disagreement(self):
        rng = np.random.default_rng(4)
        draws = rng.standard_normal((500, 2))
        draws[:, 1] += 5.0
        assert split_r_hat(draws) > 2.0

    def test_split_r_hat_constant(self):
        assert split_r_hat(np.ones((100, 4))) == 1.0

    def test_ess_iid_close_to_total(self):
        rng = np.random.default_rng(5)
        ess = effective_sample_size(rng.standard_normal((2000, 4)))
        assert 0.8 * 8000 < ess < 1.25 * 8000

    def test_ess_low_for_sticky_chain(self):
        rng = np.random.default_rng(6)
        n = 2000
        x = np.empty((n, 1))
        x[0] = 0.0
        for i in range(1, n):
            x[i] = 0.95 * x[i - 1] + rng.standard_normal() * np.sqrt(1 - 0.95**2)
        assert effective_sample_size(x) < n / 10


def test_dump_draws(tmp_path):
    s = constant_samples(1.25, k=100, chains=2)
    path = tmp_path / "draws.csv"
    dump_draws(s, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "chain,draw,parameter,value"
    assert len(lines) == 1 + 100 * 2
    assert lines[1] == "0,0,x,1.25"


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(kept_draws=50)
    with pytest.raises(ValueError):
        SamplerConfig(chains=0)
    with pytest.raises(ValueError):
        SamplerConfig(target_accept=1.5)
