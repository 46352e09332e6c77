import json
import multiprocessing
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli import (
    BAD_SCENARIO_VALUES,
    CONFIGS_BEYOND_THE_SCENARIO,
    MALFORMED_CONFIGS,
    NON_INTEGER_SAMPLER_COUNTS,
    TINY_SCENARIO,
)

import hbab.sim
from hbab.design import ExperimentSpec, Factor, enumerate_comparisons, spec_to_dict
from hbab.metaprior import effects_from_differences, learn_tau
from hbab.sampler import SamplerConfig
from hbab.seqtest import TauSpec, sequential_trace
from hbab.sim import (
    ANALYZE_SAMPLER,
    METHODS,
    SIMULATE_SAMPLER,
    GroundTruth,
    MetricsReport,
    RepetitionResult,
    ScenarioConfig,
    ScenarioResult,
    check_tau_experiment,
    desk_scenario,
    generate_truth,
    naive_sequential_test_fpr,
    paper_scenario,
    run_repetition,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    score,
    stream_updates,
    tau_experiment,
)

TINY_SPEC = ExperimentSpec(
    content_factors=(Factor("msg", ("m0", "m1")),),
    context_factors=(Factor("ctx", ("c0", "c1")),),
)


def p_min(rep, method, tau=TauSpec.fixed(0.1)):
    """The running p-values of a repetition's stored differences."""
    return sequential_trace(rep.diff_mean[method], rep.diff_var[method], tau).p_min


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
        # The separate null scenario is h1_fraction 0: no content
        # combination in the effect half, every pair null.
        cfg = tiny_config(h1_fraction=0)
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
            assert rep1.diff_mean[m].shape == rep1.diff_var[m].shape == (2, n_pairs)
            assert p_min(rep1, m).shape == (2, n_pairs)
            assert np.array_equal(rep1.estimate_mean[m], rep2.estimate_mean[m])
            assert np.array_equal(p_min(rep1, m), p_min(rep2, m))

    def test_zero_updates_give_empty_trace(self):
        cfg = tiny_config(updates=0)
        rep = run_repetition(cfg, 0)
        assert rep.estimate_mean["mle"].shape == (0, 4)

    def test_mle_only_skips_sampler(self):
        cfg = tiny_config()
        rep = run_repetition(cfg, 0, methods=("mle",))
        assert set(rep.estimate_mean) == {"mle"}

    def test_each_look_is_a_standalone_fit(self):
        # Look u's hierarchical estimates are a nested Laplace fit of its
        # cumulative counts under its own seed alone: nothing of earlier
        # looks but their counts reaches it.
        from hbab.design import build_design_matrix
        from hbab.estimate import hb_estimate
        from hbab.glm import CountData, fit_laplace
        from hbab.sim import _fit_seed, _rep_seed_sequences

        cfg = tiny_config(updates=3)
        rep = run_repetition(cfg, 1, methods=("hierarchical",))
        looks = stream_updates(rep.truth, cfg, _rep_seed_sequences(cfg, 1)[1])
        X = build_design_matrix(cfg.spec, interaction_order=2)
        assert len(rep.fits) == 3
        for u in (1, 2):
            data = CountData(sum(inc.assignments for inc in looks[:u + 1]),
                             sum(inc.responses for inc in looks[:u + 1]))
            fit = fit_laplace(data, X, _fit_seed(cfg, 1, u))
            assert fit.record == rep.fits[u] and fit.record.trusted
            assert np.array_equal(rep.estimate_mean["hierarchical"][u],
                                  hb_estimate(fit.samples, X).means)

    def test_an_untrusted_look_is_fitted_by_nuts_under_its_seed(self, nuts_fallback):
        from dataclasses import replace

        from hbab.design import build_design_matrix
        from hbab.estimate import hb_estimate
        from hbab.glm import CountData, fit_posterior
        from hbab.sim import _fit_seed, _rep_seed_sequences

        cfg = tiny_config(updates=2)
        rep = run_repetition(cfg, 0, methods=("hierarchical",))
        looks = stream_updates(rep.truth, cfg, _rep_seed_sequences(cfg, 0)[1])
        X = build_design_matrix(cfg.spec, interaction_order=2)
        data = CountData(looks[0].assignments, looks[0].responses)
        fit = fit_posterior(data, X, replace(cfg.sampler, seed=_fit_seed(cfg, 0, 0)))
        assert np.array_equal(rep.estimate_mean["hierarchical"][0], hb_estimate(fit, X).means)
        assert [r.trusted for r in rep.fits] == [False, False]
        assert rep.warnings[0].startswith(
            "rep 0 update 1 (hierarchical): nested Laplace fit not trusted (k-hat 0.90")


def test_sampler_defaults_of_the_two_commands():
    settings = [(s.chains, s.warmup_draws, s.kept_draws, s.max_tree_depth)
                for s in (SIMULATE_SAMPLER, ANALYZE_SAMPLER)]
    assert settings == [(2, 250, 150, 8), (2, 250, 200, 8)]
    assert desk_scenario().sampler == paper_scenario().sampler == SIMULATE_SAMPLER


@pytest.mark.parametrize("workers", ["1", "2", "5"])
def test_run_scenario_ignores_the_worker_count(monkeypatch, tmp_path, workers):
    # Every hierarchical fit depends only on its repetition's counts and its
    # own seed, never on the process or the fits before it.
    import hbab.sim

    cfg = tiny_config(repetitions=3, updates=3, sampler=SamplerConfig(
        chains=1, warmup_draws=150, kept_draws=100, max_tree_depth=4))
    methods = ("mle", "hierarchical")
    monkeypatch.delenv("HBAB_WORKERS", raising=False)
    serial = run_scenario(cfg, methods=methods)

    # Each repetition leaves a file named by its index and process.
    def marked_repetition(config, rep, *args):
        (tmp_path / f"{rep}-{os.getpid()}").touch()
        return run_repetition(config, rep, *args)

    monkeypatch.setattr(hbab.sim, "run_repetition", marked_repetition)
    monkeypatch.setenv("HBAB_WORKERS", workers)
    pooled = run_scenario(cfg, methods=methods)
    ran = {int(rep): int(pid) for rep, pid in (p.name.split("-") for p in tmp_path.iterdir())}
    assert sorted(ran) == [0, 1, 2]
    if workers == "1":
        assert set(ran.values()) == {os.getpid()}
    else:  # in forked repetition workers
        assert os.getpid() not in ran.values()
        assert len(set(ran.values())) <= min(int(workers), 3)
    assert multiprocessing.active_children() == []
    assert [r.rep for r in pooled.repetitions] == [0, 1, 2]
    for a, b in zip(serial.repetitions, pooled.repetitions):
        assert np.array_equal(a.truth.rates, b.truth.rates)
        assert a.warnings == b.warnings
        for method in methods:
            for field in ("estimate_mean", "diff_mean", "diff_var"):
                assert np.array_equal(getattr(a, field)[method],
                                      getattr(b, field)[method], equal_nan=True)
            assert np.array_equal(p_min(a, method), p_min(b, method))


def test_worker_count_must_be_an_integer(monkeypatch):
    monkeypatch.setenv("HBAB_WORKERS", "abc")
    with pytest.raises(ValueError, match="HBAB_WORKERS must be an integer, got 'abc'"):
        run_scenario(tiny_config(), methods=("mle",))


def synthetic_result(significant_h, significant_m, labels, est_err=0.0):
    """ScenarioResult whose stored differences give the wanted tests at the
    fixed tau 0.1: a difference of 1 at variance 1e-4 is significant at
    once, one of 0 never is. The grids are [updates, pairs] booleans, and a
    pair stays significant once it is."""
    spec = TINY_SPEC
    cfg = ScenarioConfig(
        spec=spec, updates=significant_h.shape[0], assignments_per_update=40,
        repetitions=1, seed=0,
        sampler=SamplerConfig(chains=1, warmup_draws=10, kept_draws=100),
    )
    rates = np.full(4, 0.5)
    truth = GroundTruth(np.zeros(1), rates, (0,), labels)
    n_u, n_p = significant_h.shape
    est = np.full((n_u, 4), 0.5 + est_err)
    variances = np.full((n_u, n_p), 1e-4)
    diffs = {"hierarchical": np.where(significant_h, 1.0, 0.0),
             "mle": np.where(significant_m, 1.0, 0.0)}
    rep = RepetitionResult(
        0, truth,
        {"hierarchical": est, "mle": est},
        diffs,
        {"hierarchical": variances, "mle": variances},
        (),
    )
    for m, significant in (("hierarchical", significant_h), ("mle", significant_m)):
        assert np.array_equal(p_min(rep, m) < cfg.alpha, significant)
    return ScenarioResult(cfg, ("hierarchical", "mle"), [rep])


NEVER = np.zeros((3, 2), dtype=bool)


class TestScore:
    def test_perfect_estimates_zero_error(self):
        labels = np.array([True, False])
        result = synthetic_result(NEVER, NEVER, labels)
        report = score(result, TauSpec.fixed(0.1))
        assert np.allclose(report.rmse["hierarchical"], 0.0)

    def test_no_significance_means_fnr_one_fpr_zero(self):
        labels = np.array([True, False])
        result = synthetic_result(NEVER, NEVER, labels)
        report = score(result, TauSpec.fixed(0.1))
        assert np.allclose(report.fnr["hierarchical"], 1.0)
        assert np.allclose(report.fpr["hierarchical"], 0.0)
        assert np.allclose(report.fdr["hierarchical"], 0.0)

    def test_detections_counted_once_significant(self):
        labels = np.array([True, False])
        sig_h = np.array([[False, False], [True, False], [True, False]])
        result = synthetic_result(sig_h, NEVER, labels)
        report = score(result, TauSpec.fixed(0.1))
        assert np.allclose(report.fnr["hierarchical"], [1.0, 0.0, 0.0])

    def test_fdr_pools_counts(self):
        labels = np.array([True, False])
        sig_h = np.array([[True, True]])
        result = synthetic_result(sig_h, NEVER[:1], labels)
        report = score(result, TauSpec.fixed(0.1))
        assert report.fdr["hierarchical"][0] == pytest.approx(0.5)

    def test_rows_long_format(self):
        labels = np.array([True, False])
        result = synthetic_result(NEVER[:2], NEVER[:2], labels)
        rows = list(score(result, TauSpec.fixed(0.1)).rows())
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
    v[-1, 1] = 0.0  # degenerate at the last update: the test keeps update 3's
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
                {"hierarchical": est},
                {"hierarchical": d + 0.01 * i}, {"hierarchical": v}, (),
            )
        )
    result = ScenarioResult(cfg, ("hierarchical",), reps)
    comparison = tau_experiment(result)
    assert set(comparison.metrics) == {"fixed", "dynamic", "learnt"}
    assert comparison.train_reps == (0,) and comparison.test_reps == (1,)
    assert comparison.learnt.posterior_mean > 0
    # The corpus is the training rep's final differences as its tests carry
    # them, through the one metaprior path.
    assert comparison.learnt == learn_tau(*effects_from_differences(
        [d[-1, 0], d[-2, 1]], [v[-1, 0], v[-2, 1]]))


def test_config_validation():
    with pytest.raises(ValueError, match="assignment"):
        tiny_config(assignments_per_update=2)
    with pytest.raises(TypeError, match="h0_mode"):
        tiny_config(h0_mode="separate")
    with pytest.raises(ValueError, match="repetition"):
        tiny_config(repetitions=0)
    with pytest.raises(ValueError, match="alpha"):
        tiny_config(alpha=1.5)
    for sd in (-0.2, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="interaction_effect_sd"):
            tiny_config(interaction_effect_sd=sd)
    for mean in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="interaction_effect_mean"):
            tiny_config(interaction_effect_mean=mean)
    for name, value in (("assignments_per_update", 100.5), ("updates", 2.0),
                        ("repetitions", 2.5), ("repetitions", True), ("updates", False)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            tiny_config(**{name: value})
    for name, value in (("h1_fraction", True), ("interaction_effect_mean", True),
                        ("interaction_effect_sd", False), ("alpha", True),
                        ("alpha", "0.1")):
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            tiny_config(**{name: value})
    assert tiny_config(updates=np.int64(2), interaction_effect_sd=0.0).updates == 2
    assert tiny_config(h1_fraction=1, alpha=np.float32(0.1)).h1_fraction == 1


def test_cumulative_assignments_stay_within_2_53():
    # Counts are floats in the fit, exact only up to 2**53; int64 sums of
    # larger ones wrap.
    for apu, updates in ((2**52, 3), (2**70, 0), (np.int64(2**62), np.int64(30))):
        with pytest.raises(ValueError, match=re.escape("must not exceed 2**53")):
            tiny_config(assignments_per_update=apu, updates=updates)
    assert tiny_config(assignments_per_update=2**52, updates=2).updates == 2


@pytest.mark.parametrize("preset", [desk_scenario, paper_scenario])
def test_presets_take_only_low_or_high_power(preset):
    for power in ("medium", "HIGH", None):
        with pytest.raises(ValueError, match="power must be 'low' or 'high'"):
            preset(power)
    low, high = preset("low"), preset("high")
    assert high.assignments_per_update > low.assignments_per_update
    assert high.interaction_effect_mean > low.interaction_effect_mean
    with pytest.raises(TypeError):
        preset("low", 0, updates=1)


def test_tau_experiment_needs_an_update():
    cfg = tiny_config(updates=0)
    reps = [run_repetition(cfg, i, methods=("mle",)) for i in range(2)]
    result = ScenarioResult(cfg, ("mle",), reps)
    with pytest.raises(ValueError, match="at least 1 update"):
        tau_experiment(result)
    # The check that simulate --tau-experiment runs before any work.
    with pytest.raises(ValueError, match="at least 1 update"):
        check_tau_experiment(cfg)
    with pytest.raises(ValueError, match="at least 2 repetitions"):
        check_tau_experiment(tiny_config(repetitions=1))
    check_tau_experiment(tiny_config())


@pytest.mark.parametrize("methods, message", [
    (("bayes",), "methods must be a non-empty list"),
    ((), "methods must be a non-empty list"),
    (("mle", "mle"), "methods repeat"),
], ids=["unknown", "empty", "repeated"])
def test_bad_methods_raise_before_any_work(monkeypatch, methods, message):
    monkeypatch.setattr(hbab.sim, "fork_map", lambda *args: pytest.fail("forked"))
    cfg = tiny_config()
    for call in (lambda: run_scenario(cfg, methods),
                 lambda: run_repetition(cfg, 0, methods),
                 lambda: scenario_from_dict({"methods": list(methods)}, cfg)):
        with pytest.raises(ValueError, match=message):
            call()


class TestScenarioFromDict:
    """The scenario mapping that ``simulate --config`` reads. The rejected
    cases are the ones the command exits 2 for."""

    def parse(self, override):
        return scenario_from_dict({**TINY_SCENARIO, "methods": ["mle"], **override},
                                  desk_scenario("low", seed=1))

    @pytest.mark.parametrize("preset", [desk_scenario, paper_scenario])
    @pytest.mark.parametrize("power", ["low", "high"])
    def test_round_trip_of_the_presets(self, preset, power):
        base = preset(power, seed=3)
        assert scenario_from_dict({}, base) == (base, TauSpec.fixed(0.1), METHODS)
        for tau, methods in ((TauSpec.fixed(0.1), METHODS),
                             (TauSpec.dynamic(), ("mle",)),
                             (TauSpec.learnt(0.02), ("mle", "hierarchical"))):
            mapping = scenario_to_dict(base, tau, methods)
            assert scenario_from_dict(mapping, base) == (base, tau, methods)
            # What a JSON file of the mapping reads back as.
            assert scenario_from_dict(json.loads(json.dumps(mapping)), base) == (
                base, tau, methods)

    def test_round_trip_of_a_config_file(self):
        base = desk_scenario("low", seed=1)
        parsed = scenario_from_dict(TINY_SCENARIO, base)
        config = parsed[0]
        assert (config.spec.n_cells, config.updates, config.seed) == (4, 2, 1)
        assert config.sampler == SamplerConfig(chains=1, warmup_draws=100,
                                               kept_draws=100, max_tree_depth=6)
        assert scenario_from_dict(scenario_to_dict(*parsed), base) == parsed

    @pytest.mark.parametrize("field, value", NON_INTEGER_SAMPLER_COUNTS)
    def test_non_integer_sampler_count(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            self.parse({"sampler": {field: value}})

    @pytest.mark.parametrize("override", BAD_SCENARIO_VALUES)
    def test_bad_value(self, override):
        with pytest.raises(ValueError):
            self.parse(override)

    @pytest.mark.parametrize("override, message",
                             CONFIGS_BEYOND_THE_SCENARIO + MALFORMED_CONFIGS)
    def test_message(self, override, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            self.parse(override)

    def test_config_that_is_not_an_object(self):
        for mapping in ([], "mle", None, 3):
            with pytest.raises(ValueError, match="the config must be a JSON object"):
                scenario_from_dict(mapping, desk_scenario())


# JSON values, and scenario mappings: some valid keys, of which up to two
# then hold a value of about the right type or any JSON value, so that most
# mappings get past the key checks into the config's own.
_JSON_WORDS = st.sampled_from(["mle", "hierarchical", "fixed", "dynamic", "learnt",
                               "content", "context", "a", "b"])
_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | _JSON_WORDS
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=3) | _JSON_WORDS, children,
                                        max_size=4)),
    max_leaves=12,
)
_SAMPLER_COUNTS = ("chains", "warmup_draws", "kept_draws", "max_tree_depth")
# key: (valid values, values of about the right type)
_SCENARIO_KEYS = {
    "updates": (st.integers(0, 40), st.integers()),
    "assignments_per_update": (st.integers(16, 10**6), st.integers()),
    "repetitions": (st.integers(1, 100), st.integers()),
    "interaction_effect_mean": (st.floats(-1, 1), _JSON_SCALARS),
    "interaction_effect_sd": (st.floats(0, 1), _JSON_SCALARS),
    "h1_fraction": (st.floats(0, 1), _JSON_SCALARS),
    "alpha": (st.floats(0.01, 0.5), _JSON_SCALARS),
    "spec": (st.just(TINY_SCENARIO["spec"]), st.fixed_dictionaries({
        "factors": st.lists(st.fixed_dictionaries({
            "name": st.text(max_size=2), "role": _JSON_WORDS,
            "values": st.lists(st.text(max_size=2), max_size=3)}), max_size=3)})),
    "sampler": (st.fixed_dictionaries({}, optional=dict.fromkeys(
                    _SAMPLER_COUNTS, st.integers(100, 500))),
                st.dictionaries(st.sampled_from([*_SAMPLER_COUNTS, "seed"]),
                                st.integers(100, 500) | _JSON_SCALARS)),
    "tau": (st.one_of(st.just({"kind": "dynamic"}), st.fixed_dictionaries({
                "kind": st.sampled_from(["fixed", "learnt"]), "value": st.floats(1e-3, 1)})),
            st.fixed_dictionaries({}, optional={"kind": _JSON_SCALARS,
                                                "value": _JSON_SCALARS})),
    "methods": (st.lists(st.sampled_from(METHODS), min_size=1, max_size=2, unique=True),
                st.lists(_JSON_SCALARS, max_size=3)),
}


@st.composite
def _scenario_mappings(draw):
    mapping = draw(st.fixed_dictionaries(
        {}, optional={key: valid for key, (valid, _) in _SCENARIO_KEYS.items()}))
    for key in draw(st.lists(st.sampled_from(sorted(_SCENARIO_KEYS)), max_size=2)):
        mapping[key] = draw(_SCENARIO_KEYS[key][1] | _JSON_VALUES)
    return mapping


@settings(max_examples=400, deadline=None)
@given(mapping=st.one_of(_scenario_mappings(), _scenario_mappings(), _JSON_VALUES))
# Mappings that raised TypeError before TauSpec and ScenarioConfig checked types.
@example({"tau": {"value": 0.1}})
@example({"tau": {"kind": "fixed", "value": "0.1"}})
@example({"interaction_effect_mean": 10**400})
@example({"interaction_effect_sd": 2**64})
# Labels that ran to a runtime failure when decisions.csv was encoded.
@example({"spec": {"factors": [
    {"name": "msg", "role": "content", "values": ["\ud800", "m1"]},
    {"name": "ctx", "role": "context", "values": ["c0", "c1"]}]}})
@example({"spec": {"factors": [
    {"name": "m\udfff", "role": "content", "values": ["m0", "m1"]},
    {"name": "ctx", "role": "context", "values": ["c0", "c1"]}]}})
def test_any_json_mapping_parses_or_raises_value_error(mapping):
    try:
        config, tau, methods = scenario_from_dict(mapping, desk_scenario())
    except ValueError:
        return
    assert isinstance(config, ScenarioConfig) and isinstance(tau, TauSpec)
    assert methods and set(methods) <= set(METHODS)
    # Every name and label can be written to the UTF-8 outputs.
    json.dumps(spec_to_dict(config.spec), ensure_ascii=False).encode("utf-8")
