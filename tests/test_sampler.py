import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from hbab.conjugate import ConjugateInstance, pooling_target, posterior
from hbab.sampler import (
    Diagnostics,
    PosteriorSamples,
    SamplerConfig,
    TargetDensity,
    effective_sample_size,
    fork_map,
    fork_processes,
    leapfrog,
    posterior_summary,
    sample,
    split_r_hat,
)
from hbab import sampler as sampler_module
from hbab.sampler import _adaptation_windows, _stable_step, _window_metric


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
        assert s.diagnostics.quantities == s.parameter_labels

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
        s = sample(
            broken_gradient_target(),
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
        target = mvn_target(cov)
        cfg = SamplerConfig(chains=2, warmup_draws=300, kept_draws=600,
                            max_tree_depth=8, seed=4)
        short = sample(target, replace(cfg, kept_draws=100))
        s = sample(target, cfg)
        # Both runs share warmup and their first 100 kept draws, so the
        # difference is the leapfrogs of the last 500 kept transitions.
        extra = sum(s.gradient_evaluations) - sum(short.gradient_evaluations)
        assert extra / (cfg.chains * 500) < 32

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


def half_space_target():
    """Standard normal on x[0] > 0: a chain that starts at x[0] < 0 has a
    non-finite initial density."""
    def fn(x):
        return (-0.5 * float(x @ x) if x[0] > 0 else -math.inf), -x

    return TargetDensity(2, fn)


def broken_gradient_target():
    # The density stays finite past |x[0]| = 1.5 but its gradient is NaN.
    def broken(x):
        grad = -x if abs(x[0]) < 1.5 else np.full(x.size, np.nan)
        return -0.5 * float(x @ x), grad

    return TargetDensity(2, broken)


def overflowing_target():
    # Past |x[0]| = 1.5 the gradient is about 1e308 per unit, so a leapfrog
    # there overflows the kinetic energy and ends as a divergence. Outside
    # ``sample``'s error state the overflow would warn, and warnings fail
    # the tests.
    def fn(x):
        scale = 1e308 if abs(x[0]) > 1.5 else 1.0
        return -0.5 * float(x @ x), -scale * x

    return TargetDensity(2, fn)


class TestParallelChains:
    """Chains in forked processes draw what they draw one after another."""

    @staticmethod
    def on_cpus(cpus, fit, *args):
        """``fit(*args)`` as if this process could use ``cpus`` CPUs."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampler_module, "available_cpus", lambda: cpus)
            return fit(*args)

    def check_same_run(self, serial, parallel):
        assert np.array_equal(serial.draws, parallel.draws)
        assert serial.gradient_evaluations == parallel.gradient_evaluations
        assert serial.diagnostics.divergence_count == parallel.diagnostics.divergence_count

    @pytest.mark.parametrize("case", ["cold", "warm", "broken", "overflow",
                                      "three_chains"])
    def test_same_draws_as_one_chain_after_another(self, case):
        cfg = SamplerConfig(chains=2, warmup_draws=150, kept_draws=100, seed=8)
        target, start = std_normal_target(3), None
        if case == "warm":
            start = start_from(sample(target, replace(cfg, seed=7)))
        elif case == "broken":
            target, cfg = broken_gradient_target(), replace(cfg, seed=3)
        elif case == "overflow":
            target, cfg = overflowing_target(), replace(cfg, seed=3)
        elif case == "three_chains":
            cfg = replace(cfg, chains=3)
        serial = self.on_cpus(1, sample, target, cfg, start)
        parallel = self.on_cpus(2, sample, target, cfg, start)
        self.check_same_run(serial, parallel)
        assert len(parallel.gradient_evaluations) == cfg.chains
        if case in ("broken", "overflow"):
            assert parallel.diagnostics.divergence_count > 0

    def test_desk_fit_posterior_same_draws(self):
        from hbab.design import build_design_matrix
        from hbab.glm import CountData, fit_posterior
        from hbab.sim import desk_scenario

        X = build_design_matrix(desk_scenario().spec, interaction_order=2)
        rng = np.random.default_rng(30)
        a = np.full(X.rows, 20)
        data = CountData(a, rng.binomial(a, rng.uniform(0.3, 0.7, X.rows)))
        cfg = SamplerConfig(chains=2, warmup_draws=100, kept_draws=100,
                            max_tree_depth=6, seed=11)
        self.check_same_run(*(self.on_cpus(cpus, fit_posterior, data, X, cfg)
                              for cpus in (1, 2)))

    def test_chains_run_in_forked_processes(self, tmp_path):
        seen = set()

        def fn(x):
            if os.getpid() not in seen:
                seen.add(os.getpid())
                (tmp_path / str(os.getpid())).touch()
            return -0.5 * float(x @ x), -x

        cfg = SamplerConfig(chains=2, warmup_draws=50, kept_draws=100, seed=1)
        self.on_cpus(2, sample, TargetDensity(1, fn), cfg)
        assert len(list(tmp_path.iterdir())) == 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("case", ["every_chain", "forked_chain"])
    def test_nonfinite_initial_density_raises_the_same_error(self, case):
        cfg = SamplerConfig(chains=2, warmup_draws=20, kept_draws=100, seed=6)
        if case == "every_chain":
            target = TargetDensity(1, lambda x: (float("-inf"), np.zeros(1)))
        else:
            # At seed 6 chain 0 starts at x[0] > 0 and runs; chain 1 starts
            # at x[0] < 0, and on two CPUs both run in forked processes.
            target = half_space_target()
            assert sample(target, replace(cfg, chains=1)).draws[:, :, 0].min() > 0
        errors = []
        for cpus in (1, 2):
            with pytest.raises(ValueError) as info:
                self.on_cpus(cpus, sample, target, cfg)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        assert "not finite at the initial point" in errors[0][1]
        assert multiprocessing.active_children() == []

    def test_threads_sampling_at_once_get_the_serial_draws(self):
        cfg = SamplerConfig(chains=2, warmup_draws=100, kept_draws=100, seed=4)
        targets = [std_normal_target(2), mvn_target(np.array([[1.0, 0.6], [0.6, 2.0]]))]
        serial = [self.on_cpus(1, sample, t, cfg) for t in targets]

        def in_threads():
            with ThreadPoolExecutor(2) as threads:
                return list(threads.map(lambda t: sample(t, cfg), targets))

        for a, b in zip(serial, self.on_cpus(2, in_threads)):
            self.check_same_run(a, b)
        assert not np.array_equal(serial[0].draws, serial[1].draws)
        assert multiprocessing.active_children() == []

    def test_chain_processes_follow_the_cpus(self, monkeypatch, chain_runs):
        # ``sample`` maps its chains with the CPUs as the limit.
        assert [fork_processes(c, 2) for c in (1, 2, 3)] == [1, 2, 2]
        assert fork_processes(4, 1) == 1
        cfg = SamplerConfig(chains=2, warmup_draws=20, kept_draws=100, seed=1)
        monkeypatch.setattr(sampler_module, "available_cpus", lambda: 1)
        sample(std_normal_target(), cfg)
        assert chain_runs.serial()
        assert chain_runs.callers() == {os.getpid()}

    def test_repetition_workers_run_their_chains_serially(self, monkeypatch, chain_runs):
        # With HBAB_WORKERS=2 and 2 repetitions every fit runs in a
        # repetition worker, a child of this process, and runs its chains
        # there, never in a worker's own child.
        from hbab.sim import desk_scenario, run_scenario

        monkeypatch.setattr(sampler_module, "available_cpus", lambda: 2)
        monkeypatch.setenv("HBAB_WORKERS", "2")
        cfg = replace(desk_scenario(), updates=1, repetitions=2, sampler=SamplerConfig(
            chains=2, warmup_draws=20, kept_draws=100, max_tree_depth=4))
        run_scenario(cfg, methods=("hierarchical",))
        assert chain_runs.serial()
        assert os.getpid() not in chain_runs.callers()
        parents = {parent for runs in chain_runs.fits().values() for _, parent in runs}
        assert parents == {os.getpid()}
        assert multiprocessing.active_children() == []

    def test_one_repetition_runs_here_and_forks_its_chains(self, monkeypatch, chain_runs):
        # HBAB_WORKERS=2 forks no repetition worker for 1 repetition.
        from hbab.sim import desk_scenario, run_scenario

        monkeypatch.setattr(sampler_module, "available_cpus", lambda: 2)
        monkeypatch.setenv("HBAB_WORKERS", "2")
        cfg = replace(desk_scenario(), updates=2, repetitions=1, sampler=SamplerConfig(
            chains=2, warmup_draws=20, kept_draws=100, max_tree_depth=4))
        run_scenario(cfg, methods=("hierarchical",))
        assert chain_runs.callers() == {os.getpid()}
        assert len(chain_runs.fits()) == 2
        assert chain_runs.forked(2)
        assert multiprocessing.active_children() == []


# One fit of the 256-cell paper design, large enough that OpenBLAS splits
# its products over threads: the SHA-256 of its draws and of its cells' rate
# means.
PAPER_FIT = """
import hashlib
from hbab.design import build_design_matrix
from hbab.estimate import hb_estimate
from hbab.glm import CountData, fit_posterior
from hbab.sampler import SamplerConfig
from hbab.sim import _rep_seed_sequences, generate_truth, paper_scenario, stream_updates

config = paper_scenario(seed=7)
truth_seed, stream_seed = _rep_seed_sequences(config, 0)
looks = stream_updates(generate_truth(config, truth_seed), config, stream_seed)[:10]
X = build_design_matrix(config.spec, interaction_order=2)
data = CountData(sum(u.assignments for u in looks), sum(u.responses for u in looks))
samples = fit_posterior(data, X, SamplerConfig(chains=2, warmup_draws=50, kept_draws=100,
                                               max_tree_depth=8, seed=3))
for values in (samples.draws, hb_estimate(samples, X).means):
    print(hashlib.sha256(values.tobytes()).hexdigest())
"""


class TestOneBlasThread:
    """Every fit runs at one BLAS thread, so its draws do not depend on the
    thread count, and leaves the caller's count as it found it."""

    @pytest.fixture
    def blas_threads(self):
        """The getter of this process's OpenBLAS thread count, set to 2
        for the test and put back after it."""
        controls = sampler_module._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS thread setter in this process")
        (setter, getter), = controls[:1]
        before = getter()
        setter(2)
        yield getter
        setter(before)

    @staticmethod
    def one_thread_target(blas_threads):
        """A standard normal whose density fails at any other thread count."""
        def fn(x):
            if blas_threads() != 1:
                raise RuntimeError(f"density evaluated at {blas_threads()} BLAS threads")
            return float(-0.5 * x @ x), -x

        return TargetDensity(2, fn)

    def test_paper_draws_do_not_depend_on_blas_threads(self):
        runs = {}
        for threads in (None, "1", "2"):
            env = {key: value for key, value in os.environ.items()
                   if key not in ("OPENBLAS_NUM_THREADS", "HBAB_WORKERS")}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run([sys.executable, "-c", PAPER_FIT], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            runs[threads] = proc.stdout.split()
        assert len(runs[None]) == 2
        assert runs[None] == runs["1"] == runs["2"]

    def test_paper_draws_do_not_depend_on_the_worker_count(self, monkeypatch, tmp_path):
        # With 2 workers each repetition fits in its own worker, chains one
        # after another; with 1 the fits fork their chains. Each fit leaves
        # a file named by its draws' SHA-256 in its worker count's folder.
        import hbab.sim
        from hbab.sim import paper_scenario, run_scenario

        hb_estimate = hbab.sim.hb_estimate

        def recorded(samples, X):
            digest = hashlib.sha256(samples.draws.tobytes()).hexdigest()
            (tmp_path / workers / digest).touch()
            return hb_estimate(samples, X)

        monkeypatch.setattr(hbab.sim, "hb_estimate", recorded)
        cfg = replace(paper_scenario(seed=2), updates=1, repetitions=2,
                      sampler=SamplerConfig(chains=2, warmup_draws=50, kept_draws=100,
                                            max_tree_depth=8))
        results = {}
        for workers in ("1", "2"):
            (tmp_path / workers).mkdir()
            monkeypatch.setenv("HBAB_WORKERS", workers)
            results[workers] = run_scenario(cfg, methods=("hierarchical",))
        draws = [{p.name for p in (tmp_path / w).iterdir()} for w in ("1", "2")]
        assert len(draws[0]) == 2 and draws[0] == draws[1]
        for a, b in zip(results["1"].repetitions, results["2"].repetitions):
            assert np.array_equal(a.estimate_mean["hierarchical"],
                                  b.estimate_mean["hierarchical"])
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_fit_runs_at_one_thread_and_restores_the_count(self, blas_threads, cpus):
        cfg = SamplerConfig(chains=2, warmup_draws=50, kept_draws=100, seed=1)
        TestParallelChains.on_cpus(cpus, sample, self.one_thread_target(blas_threads), cfg)
        assert blas_threads() == 2

    def test_threads_sampling_at_once_restore_the_count(self, blas_threads):
        # More threads than CPUs, switching often: a thread that restored
        # the count while another still samples fails that one's density.
        cfg = SamplerConfig(chains=1, warmup_draws=50, kept_draws=100)
        target = self.one_thread_target(blas_threads)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as threads:
                runs = list(threads.map(lambda seed: sample(target, replace(cfg, seed=seed)),
                                        range(8)))
        finally:
            sys.setswitchinterval(interval)
        assert len(runs) == 8
        assert blas_threads() == 2

    def test_without_a_setter_fits_run_at_the_process_count(self, monkeypatch):
        monkeypatch.setattr(sampler_module, "_openblas_thread_controls", lambda: ())
        assert sampler_module.fit_blas_threads() is None
        cfg = SamplerConfig(chains=2, warmup_draws=50, kept_draws=100, seed=1)
        assert sample(std_normal_target(2), cfg).draws.shape == (100, 2, 2)


class TestForkMap:
    def test_results_come_back_in_index_order(self):
        def fn(i):
            time.sleep(0.02 * (4 - i))  # later items finish first
            return i, os.getpid()

        results = fork_map(fn, 5, 2)
        assert [i for i, _ in results] == list(range(5))
        pids = {pid for _, pid in results}
        assert os.getpid() not in pids and len(pids) <= 2
        assert multiprocessing.active_children() == []

    def test_first_failure_in_index_order_is_raised(self):
        def fn(i):
            if i == 1:
                time.sleep(0.2)  # item 2 fails first
            if i in (1, 2):
                raise KeyError(f"item {i}")
            return i

        errors = []
        for limit in (1, 2):
            with pytest.raises(KeyError) as info:
                fork_map(fn, 4, limit)
            errors.append((type(info.value), str(info.value)))
            assert multiprocessing.active_children() == []
        assert errors[0] == errors[1] == (KeyError, "'item 1'")

    def test_runs_here_with_a_limit_of_one(self):
        assert fork_map(lambda i: os.getpid(), 3, 1) == [os.getpid()] * 3

    def test_runs_serially_inside_a_worker(self):
        def outer(i):
            return os.getpid(), fork_processes(2, 2), fork_map(lambda j: os.getpid(), 2, 2)

        for pid, processes, inner in fork_map(outer, 2, 2):
            assert pid != os.getpid()
            assert processes == 1
            assert inner == [pid, pid]


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


class TestWarmupSchedule:
    @pytest.mark.parametrize(
        "warmup, expected",
        [
            (0, (0, [])),
            (19, (19, [])),
            # 25-transition buffer, 25-draw first window, 50-transition tail.
            (100, (25, [50])),
            (150, (25, [50, 100])),
            (250, (25, [50, 100, 200])),
            # The last window stretches to the tail instead of leaving a
            # window too short to double.
            (400, (25, [50, 100, 350])),
        ],
    )
    def test_buffer_and_window_ends(self, warmup, expected):
        assert _adaptation_windows(warmup) == expected

    def test_short_identity_phase_on_a_rank_deficient_target(self):
        # On the identity metric nearly every transition runs to the depth
        # cap (255 leapfrogs), so the warmup cost is set by how long the
        # chain waits for its first dense metric. A 100-transition identity
        # phase costs over 23,000 density calls per chain here.
        counts, _ = chain_warmup_calls(rank_deficient_target(1e2)[0], seed=0)
        assert len(counts) == 2
        assert max(counts) < 16_000


def rank_deficient_target(scale):
    """Gaussian posterior of a linear model whose 12 coefficients see the
    data through 4 directions only; at ``scale`` 1e2 the curvature is 1.6e4
    to 9.4e4 there and 1 in the null space. Returns (target, covariance)."""
    rng = np.random.default_rng(3)
    design = rng.standard_normal((40, 4)) @ rng.standard_normal((4, 12))
    prec = scale * design.T @ design + np.eye(12)

    def fn(x):
        grad = -prec @ x
        return 0.5 * float(x @ grad), grad

    return TargetDensity(12, fn), np.linalg.inv(prec)


def start_from(samples):
    """A start at a run's last kept positions, its kept draws pooled."""
    draws = np.concatenate([samples.draws[-1], samples.flat()])
    return lambda rng: draws


def chain_warmup_calls(target, seed, start=None):
    """(density calls of each chain from its start to the step bound that
    follows its warmup, the run's samples). The chains run in this process,
    where the counters live."""
    calls = [0]
    fn = target.log_density_and_grad

    def counted(x):
        calls[0] += 1
        return fn(x)

    warmup_calls = []
    run_chain, stable_step = sampler_module._run_chain, sampler_module._stable_step

    def counted_chain(*args):
        calls[0] = 0
        return run_chain(*args)

    def at_warmup_end(*args):
        warmup_calls.append(calls[0])
        return stable_step(*args)

    cfg = SamplerConfig(chains=2, warmup_draws=250, kept_draws=300,
                        max_tree_depth=8, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler_module, "_run_chain", counted_chain)
        mp.setattr(sampler_module, "_stable_step", at_warmup_end)
        mp.setattr(sampler_module, "available_cpus", lambda: 1)
        samples = sample(replace(target, log_density_and_grad=counted), cfg, start)
    return warmup_calls, samples


class TestStart:
    CFG = SamplerConfig(chains=2, warmup_draws=150, kept_draws=100, seed=8)

    def cold(self, dim=3, chains=2):
        return sample(std_normal_target(dim), replace(self.CFG, chains=chains))

    def test_deterministic_given_seed(self):
        start = start_from(self.cold())
        a = sample(std_normal_target(3), replace(self.CFG, seed=9), start)
        b = sample(std_normal_target(3), replace(self.CFG, seed=9), start)
        assert np.array_equal(a.draws, b.draws)

    def test_start_draws_from_the_stream_after_the_chains(self):
        # The stream of the child that a spawn of one more than the chains
        # adds, so the chains' own streams are those of a cold run.
        seen = []

        def start(rng):
            seen.append(rng.random())
            return np.zeros((5, 3))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampler_module, "available_cpus", lambda: 1)
            sample(std_normal_target(3), replace(self.CFG, seed=9), start)
        stream = np.random.SeedSequence(9).spawn(3)[-1]
        assert seen == [np.random.Generator(np.random.Philox(stream)).random()]

    def test_chain_c_starts_at_draw_c(self, monkeypatch):
        draws = np.arange(15.0).reshape(5, 3) / 10.0
        starts, run_chain = [], sampler_module._run_chain

        def recorded(target, config, chain_seed, start):
            starts.append(start)
            return run_chain(target, config, chain_seed, start)

        monkeypatch.setattr(sampler_module, "_run_chain", recorded)
        monkeypatch.setattr(sampler_module, "available_cpus", lambda: 1)
        sample(std_normal_target(3), self.CFG, lambda rng: draws)
        assert len(starts) == 2
        for c, (position, _, pooled) in enumerate(starts):
            assert np.array_equal(position, draws[c])
            assert np.array_equal(pooled, draws[2:])

    @pytest.mark.parametrize("shape", [(5, 2), (2, 3), (5,)],
                             ids=["width", "no-pooled", "one-dimensional"])
    def test_start_draws_of_the_wrong_shape_raise(self, shape):
        with pytest.raises(ValueError, match=rf"shape \({shape[0]},"):
            sample(std_normal_target(3), self.CFG, lambda rng: np.zeros(shape))

    def test_skips_the_identity_phase_on_a_rank_deficient_target(self):
        # A cold fit, then a started fit of the same model with 20% more
        # data. The started chains begin near the bulk on a dense metric, so
        # their warmup, with the pooled draws weighed for the kept step,
        # costs a fraction of the cold chains' (about 12,000 each).
        _, cold = chain_warmup_calls(rank_deficient_target(1e2)[0], 0)
        target, cov = rank_deficient_target(1.2e2)
        counts, started = chain_warmup_calls(target, 1, start_from(cold))
        assert len(counts) == 2
        assert max(counts) < 4_000

        # Whitened by the true covariance, the started draws have identity
        # covariance; entries agree within 4 Monte-Carlo SE.
        white = started.draws @ np.linalg.inv(np.linalg.cholesky(cov)).T
        emp = np.cov(white.reshape(-1, 12).T)
        ess = min(
            effective_sample_size((white[:, :, j] - white[:, :, j].mean()) ** 2)
            for j in range(12)
        )
        assert np.max(np.abs(emp - np.eye(12))) < 4 * np.sqrt(2.0 / ess)

    def test_pooled_draws_join_the_kept_step_bound(self, monkeypatch):
        # A start's pooled draws are weighed beside each chain's warmup
        # states. On a quartic target, whose curvature 3 x^2 grows away from
        # 0, a pooled draw far out is the stiffest state, so it shortens the
        # kept step and each kept trajectory takes more leapfrogs.
        def quartic(x):
            return -0.25 * float(np.sum(x**4)), -x**3

        target = TargetDensity(2, quartic)
        base = start_from(sample(target, self.CFG))(None)
        far = np.array([[0.0, 6.0]])
        weighed = []

        def spy(fn, visited, inv_mass):
            weighed.append(np.array([q for q, _ in visited]))
            return _stable_step(fn, visited, inv_mass)

        monkeypatch.setattr(sampler_module, "_stable_step", spy)
        monkeypatch.setattr(sampler_module, "available_cpus", lambda: 1)
        plain = sample(target, self.CFG, lambda rng: base)
        probed = sample(target, self.CFG, lambda rng: np.concatenate([base, far]))
        assert len(weighed) == 4
        assert not any(np.isin(6.0, states) for states in weighed[:2])
        assert all(np.array_equal(states[-1:], far) for states in weighed[2:])
        assert sum(probed.gradient_evaluations) > 1.4 * sum(plain.gradient_evaluations)

    def test_cold_start_draws_are_unchanged(self):
        # Pinned from the sampler before warm starts were added: a run
        # without a warm start draws exactly as it did.
        cov = np.array([[2.0, 0.9, 0.6], [0.9, 1.5, 0.5], [0.6, 0.5, 1.0]])
        s = sample(mvn_target(cov),
                   SamplerConfig(chains=2, warmup_draws=150, kept_draws=100, seed=2024))
        np.testing.assert_allclose(
            s.draws[-1],
            [[2.7781219215171373, 0.23776252452304858, -0.4329910902364146],
             [-0.25913059339738587, 0.8854720333889984, 2.4857025745673953]],
            rtol=1e-12,
        )

    def test_hierarchical_cold_and_warm_draws_are_pinned(self):
        # Bit for bit: the SHA-256 of the draws of desk-scale fits at two
        # consecutive looks. Each look is its own fit, started from its own
        # nested Laplace mixture, whose pooled draws are also its kept step's
        # probes; the second look starts from nothing of the first. Fits run
        # at one BLAS thread, so draws at any scale do not depend on the
        # thread count; the desk scale keeps the pin quick.
        from hbab.design import build_design_matrix
        from hbab.glm import CountData, fit_posterior
        from hbab.sim import _rep_seed_sequences, desk_scenario, generate_truth, stream_updates

        config = desk_scenario(seed=7)
        truth_seed, stream_seed = _rep_seed_sequences(config, 0)
        looks = stream_updates(generate_truth(config, truth_seed), config, stream_seed)
        X = build_design_matrix(config.spec, interaction_order=2)

        def counts(n):
            return CountData(sum(u.assignments for u in looks[:n]),
                             sum(u.responses for u in looks[:n]))

        cfg = SamplerConfig(chains=2, warmup_draws=150, kept_draws=100, max_tree_depth=8,
                            seed=5)
        fits = [fit_posterior(counts(n), X, cfg) for n in (2, 3)]
        digest = hashlib.sha256(b"".join(s.draws.tobytes() for s in fits)).hexdigest()
        assert digest == "af5e39bc20019b21fc705eccc4524a11212206fca101f6c34f8272d5d2f3fb43"


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
    diag = Diagnostics((label,), np.array([1.0]), np.array([float(k * chains)]), 0)
    return PosteriorSamples(draws, (label,), diag)


class TestSummaries:
    def test_constant_draws(self):
        s = posterior_summary(constant_samples(3.5), "x")
        assert s.mean == 3.5 and s.sd == 0.0

    def test_small_known_set(self):
        draws = np.array([1.0, 2.0, 3.0, 4.0] * 30).reshape(120, 1, 1)
        samples = PosteriorSamples(
            draws, ("x",), Diagnostics(("x",), np.array([1.0]), np.array([120.0]), 0)
        )
        assert posterior_summary(samples, "x").mean == 2.5

    def test_normal_quantile(self):
        rng = np.random.default_rng(2)
        draws = rng.standard_normal((5000, 2, 1))
        samples = PosteriorSamples(
            draws, ("x",), Diagnostics(("x",), np.array([1.0]), np.array([10_000.0]), 0)
        )
        assert posterior_summary(samples, "x").q97_5 == pytest.approx(1.96, abs=0.1)

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            posterior_summary(constant_samples(0.0), "nope")


def reference_split_r_hat(draws):
    """Split R-hat of one column [n_draws, n_chains], computed directly."""
    n, m = draws.shape
    half = n // 2
    if half < 2:
        return np.nan
    split = np.concatenate([draws[:half], draws[half: 2 * half]], axis=1)
    w = split.var(axis=0, ddof=1).mean()
    b = half * split.mean(axis=0).var(ddof=1)
    var_plus = (half - 1) / half * w + b / half
    if var_plus <= 0 or w <= 1e-300 * max(1.0, abs(var_plus)):
        return 1.0
    return float(np.sqrt(var_plus / w))


def reference_autocovariance(x):
    n = x.size
    centered = x - x.mean()
    size = int(2 ** np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(centered, size)
    return np.fft.irfft(f * np.conj(f), size)[:n].real / n


def reference_effective_sample_size(draws):
    """ESS of one column [n_draws, n_chains], with Geyer's initial positive,
    monotone pair sums taken one pair at a time."""
    n, m = draws.shape
    if n < 4:
        return np.nan
    w = draws.var(axis=0, ddof=1).mean()
    var_plus = (n - 1) / n * w
    if m > 1:
        var_plus += draws.mean(axis=0).var(ddof=1)
    if var_plus <= 0 or w <= 1e-300:
        return float(n * m)
    acov = np.stack([reference_autocovariance(draws[:, c]) for c in range(m)]).mean(axis=0)
    rho = 1.0 - (w - acov) / var_plus
    rho[0] = 1.0
    tau, last = 0.0, np.inf
    for k in range((n - 1) // 2):
        pair = rho[2 * k] + rho[2 * k + 1]
        if pair < 0:
            break
        pair = min(pair, last)
        tau += pair
        last = pair
    tau = max(2 * tau - 1.0, 1.0 / (n * m))
    return float(n * m / tau)


def ar1_draws(rng, shape, phi):
    x = np.empty(shape)
    x[0] = rng.standard_normal(shape[1:])
    for i in range(1, shape[0]):
        x[i] = phi * x[i - 1] + rng.standard_normal(shape[1:]) * np.sqrt(1 - phi**2)
    return x


def diagnostic_inputs():
    rng = np.random.default_rng(12)
    mixed = rng.standard_normal((120, 3, 70)) * np.logspace(-8, 8, 70)
    mixed[:, :, ::7] = ar1_draws(rng, (120, 3, 10), 0.8) * 1e5
    return {
        "random": rng.standard_normal((150, 2, 256)),
        "ar1": ar1_draws(rng, (300, 4, 40), 0.95),
        "single_chain": ar1_draws(rng, (200, 1, 33), 0.5),
        "mixed_scale": mixed,
    }


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

    @pytest.mark.parametrize("name", sorted(diagnostic_inputs()))
    def test_columns_match_the_one_column_reference(self, name):
        draws = diagnostic_inputs()[name]
        k = draws.shape[2]
        for vectorised, reference in ((split_r_hat, reference_split_r_hat),
                                      (effective_sample_size,
                                       reference_effective_sample_size)):
            expected = np.array([reference(draws[:, :, j]) for j in range(k)])
            values = vectorised(draws)
            assert values.shape == (k,)
            np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0)
            # A [draws, chains] column still gives the scalar.
            assert vectorised(draws[:, :, 3]) == pytest.approx(expected[3], rel=1e-12)

    def test_columns_keep_their_shape(self):
        draws = ar1_draws(np.random.default_rng(13), (100, 2, 3, 4), 0.5)
        for fn in (split_r_hat, effective_sample_size):
            values = fn(draws)
            assert values.shape == (3, 4)
            np.testing.assert_array_equal(values, fn(draws.reshape(100, 2, 12)).reshape(3, 4))

    def test_constant_columns(self):
        draws = np.random.default_rng(14).standard_normal((100, 3, 5))
        draws[:, :, 1] = 2.5
        draws[:, :, 3] = 0.0
        rhat, ess = split_r_hat(draws), effective_sample_size(draws)
        assert rhat[1] == rhat[3] == 1.0
        assert ess[1] == ess[3] == 300.0
        assert np.isfinite(rhat).all() and np.isfinite(ess).all()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_too_short_is_nan(self, n):
        draws = np.random.default_rng(15).standard_normal((n, 2, 4))
        for fn in (split_r_hat, effective_sample_size):
            assert np.isnan(fn(draws)).all()
            assert np.isnan(fn(draws[:, :, 0]))

    def test_ess_memory_is_bounded_at_paper_scale(self):
        # A paper-scale fit reports 256 cell logits and more from 150 draws
        # of 2 chains; one FFT over all of them would hold about 6 MB.
        draws = np.random.default_rng(16).standard_normal((150, 2, 256))
        tracemalloc.start()
        try:
            effective_sample_size(draws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


class TestDiagnosticsRecord:
    def test_of_names_each_column(self):
        draws = np.random.default_rng(17).standard_normal((120, 2, 3))
        diag = Diagnostics.of(draws, ["a", "b", "c"], 4, ["w"])
        assert diag.quantities == ("a", "b", "c")
        assert diag.divergence_count == 4 and diag.warnings == ("w",)
        np.testing.assert_array_equal(diag.split_r_hat, split_r_hat(draws))
        np.testing.assert_array_equal(diag.effective_sample_size,
                                      effective_sample_size(draws))

    def test_of_rejects_a_name_count_mismatch(self):
        with pytest.raises(ValueError, match="quantities"):
            Diagnostics.of(np.zeros((120, 2, 3)), ("a", "b"), 0)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(kept_draws=50)
    with pytest.raises(ValueError):
        SamplerConfig(chains=0)
    for name in ("chains", "warmup_draws", "kept_draws", "max_tree_depth"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SamplerConfig(**{name: True})
