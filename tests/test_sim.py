import numpy as np
import pytest

from hbab.design import ExperimentSpec, Factor, enumerate_comparisons
from hbab.sampler import SamplerConfig
from hbab.seqtest import TauSpec
from hbab.sim import (
    GroundTruth,
    MetricsReport,
    RepetitionResult,
    ScenarioConfig,
    ScenarioResult,
    desk_scenario,
    generate_truth,
    naive_sequential_test_fpr,
    paper_scenario,
    run_repetition,
    score,
    stream_updates,
    tau_experiment,
)

TINY_SPEC = ExperimentSpec(
    content_factors=(Factor("msg", ("m0", "m1")),),
    context_factors=(Factor("ctx", ("c0", "c1")),),
)


def tiny_config(**overrides):
    defaults = dict(
        spec=TINY_SPEC,
        updates=2,
        assignments_per_update=40,
        repetitions=2,
        seed=99,
        interaction_effect_mean=0.5,
        interaction_effect_sd=0.3,
        sampler=SamplerConfig(
            chains=1, warmup_draws=100, kept_draws=100, max_tree_depth=6
        ),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestGenerateTruth:
    def test_separate_mode_is_all_null(self):
        cfg = tiny_config(h0_mode="separate")
        truth = generate_truth(cfg, 1)
        assert np.allclose(truth.rates, 0.5)
        assert not truth.pair_is_h1.any()

    def test_null_half_rates_are_half(self):
        cfg = desk_scenario("low", seed=5)
        truth = generate_truth(cfg, 2)
        contents = cfg.spec.content_combinations()
        contexts = cfg.spec.context_combinations()
        for i in range(len(contents)):
            for j in range(len(contexts)):
                rate = truth.rates[cfg.spec.cell_index(contents[i], contexts[j])]
                if i not in truth.h1_content:
                    assert rate == pytest.approx(0.5, abs=1e-12)

    def test_fixed_seed_rates_from_coefficients(self):
        # 2-content-factor design with no contexts: the only drawn columns
        # are the content-pair interactions tied to effect-half combos, so
        # each effect cell's rate is the sigmoid of exactly one coefficient.
        spec = ExperimentSpec(
            content_factors=(Factor("a", ("a0", "a1")), Factor("b", ("b0", "b1")))
        )
        cfg = tiny_config(spec=spec, assignments_per_update=40)
        truth = generate_truth(cfg, 7)
        nonzero = np.flatnonzero(truth.beta)
        assert len(nonzero) == 2  # interactions (a0,b0) and (a0,b1)
        assert truth.rates[0] == pytest.approx(
            float(1 / (1 + np.exp(-truth.beta[nonzero[0]])))
        )
        assert truth.rates[1] == pytest.approx(
            float(1 / (1 + np.exp(-truth.beta[nonzero[1]])))
        )
        assert truth.rates[2] == pytest.approx(0.5)
        assert truth.rates[3] == pytest.approx(0.5)

    def test_pair_labels_match_rate_differences(self):
        cfg = desk_scenario("low", seed=11)
        truth = generate_truth(cfg, 3)
        pairs = enumerate_comparisons(cfg.spec)
        for label, (ctx, a, b) in zip(truth.pair_is_h1, pairs):
            ra = truth.rates[cfg.spec.cell_index(a, ctx)]
            rb = truth.rates[cfg.spec.cell_index(b, ctx)]
            assert label == (abs(ra - rb) > 1e-12)


class TestStreamUpdates:
    def test_equal_allocation_paper_scale(self):
        cfg = paper_scenario("low", seed=1)
        truth = generate_truth(cfg, 1)
        counts = stream_updates(truth, cfg, 2)
        a = counts[0].assignments
        assert a.sum() == 2500
        assert set(np.unique(a)) <= {9, 10}

    def test_allocation_within_one(self):
        cfg = tiny_config(assignments_per_update=41)
        truth = generate_truth(cfg, 1)
        counts = stream_updates(truth, cfg, 2)
        a = counts[0].assignments
        assert a.max() - a.min() <= 1

    def test_zero_rate_gives_zero_responses(self):
        truth = GroundTruth(
            beta=np.zeros(1), rates=np.zeros(4), h1_content=(),
            pair_is_h1=np.zeros(2, dtype=bool),
        )
        cfg = tiny_config()
        counts = stream_updates(truth, cfg, 3)
        assert all(c.responses.sum() == 0 for c in counts)

    def test_cumulative_additivity(self):
        cfg = tiny_config(updates=4)
        truth = generate_truth(cfg, 1)
        counts = stream_updates(truth, cfg, 5)
        total = sum(c.assignments.sum() for c in counts)
        assert total == 4 * cfg.assignments_per_update

    def test_deterministic(self):
        cfg = tiny_config()
        truth = generate_truth(cfg, 1)
        a = stream_updates(truth, cfg, 9)
        b = stream_updates(truth, cfg, 9)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.responses, cb.responses)


class TestRunRepetition:
    def test_shapes_and_determinism(self):
        cfg = tiny_config()
        rep1 = run_repetition(cfg, 0)
        rep2 = run_repetition(cfg, 0)
        n_pairs = len(enumerate_comparisons(cfg.spec))
        for m in ("hierarchical", "mle"):
            assert rep1.estimate_mean[m].shape == (2, 4)
            assert rep1.p_min[m].shape == (2, n_pairs)
            assert np.array_equal(rep1.estimate_mean[m], rep2.estimate_mean[m])
            assert np.array_equal(rep1.p_min[m], rep2.p_min[m])

    def test_zero_updates_give_empty_trace(self):
        cfg = tiny_config(updates=0)
        rep = run_repetition(cfg, 0)
        assert rep.estimate_mean["mle"].shape == (0, 4)

    def test_mle_only_skips_sampler(self):
        cfg = tiny_config()
        rep = run_repetition(cfg, 0, methods=("mle",))
        assert set(rep.estimate_mean) == {"mle"}


def synthetic_result(p_min_h, p_min_m, labels, est_err=0.0):
    """ScenarioResult with hand-built traces for metric tests."""
    spec = TINY_SPEC
    cfg = ScenarioConfig(
        spec=spec, updates=p_min_h.shape[0], assignments_per_update=40,
        repetitions=1, seed=0,
        sampler=SamplerConfig(chains=1, warmup_draws=10, kept_draws=100),
    )
    rates = np.full(4, 0.5)
    truth = GroundTruth(np.zeros(1), rates, (0,), labels)
    n_u, n_p = p_min_h.shape
    est = np.full((n_u, 4), 0.5 + est_err)
    zeros = np.zeros((n_u, n_p))
    rep = RepetitionResult(
        0, truth,
        {"hierarchical": est, "mle": est},
        {"hierarchical": est * 0, "mle": est * 0},
        {"hierarchical": zeros, "mle": zeros},
        {"hierarchical": zeros + 1e-4, "mle": zeros + 1e-4},
        {"hierarchical": p_min_h, "mle": p_min_m},
        (),
    )
    return ScenarioResult(cfg, TauSpec.fixed(0.1), ("hierarchical", "mle"), [rep])


class TestScore:
    def test_perfect_estimates_zero_error(self):
        labels = np.array([True, False])
        result = synthetic_result(np.ones((3, 2)), np.ones((3, 2)), labels)
        report = score(result)
        assert np.allclose(report.rmse["hierarchical"], 0.0)

    def test_no_significance_means_fnr_one_fpr_zero(self):
        labels = np.array([True, False])
        result = synthetic_result(np.ones((3, 2)), np.ones((3, 2)), labels)
        report = score(result)
        assert np.allclose(report.fnr["hierarchical"], 1.0)
        assert np.allclose(report.fpr["hierarchical"], 0.0)
        assert np.allclose(report.fdr["hierarchical"], 0.0)

    def test_detections_counted_once_significant(self):
        labels = np.array([True, False])
        p_h = np.array([[1.0, 1.0], [0.01, 1.0], [0.01, 1.0]])
        result = synthetic_result(p_h, np.ones((3, 2)), labels)
        report = score(result)
        assert np.allclose(report.fnr["hierarchical"], [1.0, 0.0, 0.0])

    def test_fdr_pools_counts(self):
        labels = np.array([True, False])
        p_h = np.array([[0.01, 0.01]])
        result = synthetic_result(p_h, np.ones((1, 2)), labels)
        report = score(result)
        assert report.fdr["hierarchical"][0] == pytest.approx(0.5)

    def test_rows_long_format(self):
        labels = np.array([True, False])
        result = synthetic_result(np.ones((2, 2)), np.ones((2, 2)), labels)
        rows = list(score(result).rows())
        assert len(rows) == 4 * 2 * 2  # metrics x methods x updates
        assert rows[0][:4] == (1, "hierarchical", "fixed", "rmse")


class TestNaiveSequentialTest:
    def test_single_look_matches_nominal_level(self):
        fpr = naive_sequential_test_fpr(updates=1, repetitions=4000, seed=3)
        assert fpr[-1] == pytest.approx(0.05, abs=0.02)

    def test_peeking_inflates_false_positives(self):
        fpr = naive_sequential_test_fpr(updates=30, repetitions=1000, seed=4)
        assert np.all(np.diff(fpr) >= 0)
        assert 0.23 <= fpr[-1] <= 0.33

    def test_deterministic(self):
        a = naive_sequential_test_fpr(updates=5, repetitions=100, seed=5)
        b = naive_sequential_test_fpr(updates=5, repetitions=100, seed=5)
        assert np.array_equal(a, b)


def test_tau_experiment_replays_traces():
    rng = np.random.default_rng(12)
    labels = np.array([True, False])
    n_u = 4
    d = rng.normal(0, 0.05, (n_u, 2))
    v = rng.uniform(1e-5, 1e-4, (n_u, 2))
    spec = TINY_SPEC
    cfg = ScenarioConfig(
        spec=spec, updates=n_u, assignments_per_update=40, repetitions=2, seed=0,
        sampler=SamplerConfig(chains=1, warmup_draws=10, kept_draws=100),
    )
    truth = GroundTruth(np.zeros(1), np.full(4, 0.5), (0,), labels)
    reps = []
    for i in range(2):
        est = np.full((n_u, 4), 0.5)
        reps.append(
            RepetitionResult(
                i, truth,
                {"hierarchical": est}, {"hierarchical": est * 0},
                {"hierarchical": d + 0.01 * i}, {"hierarchical": v},
                {"hierarchical": np.ones((n_u, 2))}, (),
            )
        )
    result = ScenarioResult(cfg, TauSpec.fixed(0.1), ("hierarchical",), reps)
    comparison = tau_experiment(
        result, tau_config=SamplerConfig(chains=1, warmup_draws=200, kept_draws=300)
    )
    assert set(comparison.metrics) == {"fixed", "dynamic", "learnt"}
    assert comparison.train_reps == (0,) and comparison.test_reps == (1,)
    assert comparison.learnt_tau > 0
    with pytest.raises(ValueError, match="was not run"):
        tau_experiment(result, method="mle")


def test_config_validation():
    with pytest.raises(ValueError, match="assignment"):
        tiny_config(assignments_per_update=2)
    with pytest.raises(ValueError, match="h0_mode"):
        tiny_config(h0_mode="bogus")
