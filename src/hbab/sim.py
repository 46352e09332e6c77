"""Simulation harness: ground truth, sequential data, estimators, scoring.

Builds factorial experiments with known cell rates, streams binomial
counts over sequential updates, runs the hierarchical and plain estimators
on the accumulating data, and scores estimation error plus sequential
decision accuracy (false negative / false positive / false discovery
rates). ``look_estimates`` is the per-look fit loop that both
``run_repetition`` and ``hbab analyze`` run on their count streams (nested
Laplace, with NUTS where it is not trusted), ``fit_telemetry`` sums its
fit records for the manifests, and ``SIMULATE_SAMPLER`` and
``ANALYZE_SAMPLER`` are the two commands' settings of the NUTS fallback.
Content combinations are split into an "effect" half, whose
interaction coefficients are drawn from a Normal(effect mean, sd^2), and a
null half whose coefficients stay zero, so true-difference and
no-difference pairs coexist in one simulated experiment and both error
rates are measured from the same runs; ``h1_fraction`` 0 leaves only the
null half. A repetition records the estimators' pair differences at every
update; ``score``, ``tau_experiment`` and the CLI's ``decisions.csv``
derive the sequential tests from them with ``seqtest.sequential_trace``.
``tau_experiment`` learns tau on half the repetitions, from each pair's
final difference (``seqtest.last_informative``), and keeps the
``metaprior.LearntTau`` that ``learn_tau`` returns; ``check_tau_experiment``
is its precondition, which ``hbab simulate --tau-experiment`` checks
before the run.

A scenario is a preset, ``desk_scenario`` or ``paper_scenario`` (each
takes only ``power`` and ``seed``), changed by a scenario mapping: the
JSON object that ``hbab simulate --config`` reads. ``scenario_from_dict``
is its one parser and ``scenario_to_dict`` its inverse.
"""

from __future__ import annotations

import itertools
import numbers
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields, replace

import numpy as np

from .design import (
    DesignMatrix,
    ExperimentSpec,
    Factor,
    build_design_matrix,
    comparison_cells,
    spec_from_dict,
    spec_to_dict,
)
from .estimate import CellEstimates, hb_estimate, mle_estimates
from .glm import MAX_ASSIGNMENTS, CountData, LaplaceRecord, fit_laplace, fit_posterior
from .metaprior import LearntTau, effects_from_differences, learn_tau
from .sampler import SamplerConfig, fork_map
from .seqtest import TauSpec, cell_differences, last_informative, sequential_trace

__all__ = [
    "ScenarioConfig",
    "GroundTruth",
    "RepetitionResult",
    "ScenarioResult",
    "MetricsReport",
    "TauComparison",
    "paper_scenario",
    "desk_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "generate_truth",
    "stream_updates",
    "look_estimates",
    "fit_telemetry",
    "run_repetition",
    "run_scenario",
    "score",
    "check_tau_experiment",
    "tau_experiment",
    "naive_sequential_test_fpr",
    "default_workers",
]

METHODS = ("hierarchical", "mle")

# The NUTS fallback of each look's hierarchical fit: ``simulate``'s
# default, and ``analyze``'s, which keeps more draws for its one stream.
SIMULATE_SAMPLER = SamplerConfig(chains=2, warmup_draws=250, kept_draws=150,
                                 max_tree_depth=8)
ANALYZE_SAMPLER = replace(SIMULATE_SAMPLER, kept_draws=200)


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulated-experiment setting. ``h1_fraction`` 0 makes every pair
    null."""

    spec: ExperimentSpec
    updates: int = 30
    assignments_per_update: int = 2500
    repetitions: int = 80
    seed: int = 0
    interaction_effect_mean: float = 0.2
    interaction_effect_sd: float = 0.2
    h1_fraction: float = 0.5
    alpha: float = 0.05
    sampler: SamplerConfig = SIMULATE_SAMPLER

    def __post_init__(self):
        for name in ("updates", "assignments_per_update", "repetitions"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        for name in ("interaction_effect_mean", "interaction_effect_sd", "h1_fraction",
                     "alpha"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number")
        if self.updates < 0 or self.repetitions < 1:
            raise ValueError("need updates >= 0 and at least one repetition")
        if int(self.assignments_per_update) * max(int(self.updates), 1) > MAX_ASSIGNMENTS:
            raise ValueError("assignments_per_update × updates must not exceed 2**53, "
                             "the most assignments a float holds exactly")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if len(self.spec.factors) < 2:
            raise ValueError("need at least 2 factors: the truth is drawn on "
                             "interaction coefficients")
        if self.assignments_per_update < self.spec.n_cells:
            raise ValueError("need at least one assignment per cell per update")
        if not 0.0 <= self.h1_fraction <= 1.0:
            raise ValueError("h1_fraction must lie in [0, 1]")
        # Bounds rather than isfinite: a JSON integer may exceed any float.
        if not (abs(self.interaction_effect_mean) <= sys.float_info.max
                and 0 <= self.interaction_effect_sd <= sys.float_info.max):
            raise ValueError("need a finite interaction_effect_mean and a finite interaction_effect_sd >= 0")


def _preset(values_per_factor: int, updates: int, traffic: tuple[int, int],
            repetitions: int, power: str, seed: int) -> ScenarioConfig:
    """Two content and two context factors of ``values_per_factor`` values
    each. ``power`` picks the low or high ``traffic`` (assignments per
    update) and interaction effects of mean and sd 0.2 or 0.5."""
    if power not in ("low", "high"):
        raise ValueError(f"power must be 'low' or 'high', got {power!r}")
    high = power == "high"

    def factor(name, prefix):
        return Factor(name, tuple(f"{prefix}{i}" for i in range(values_per_factor)))

    spec = ExperimentSpec((factor("title", "t"), factor("image", "i")),
                          (factor("country", "co"), factor("device", "d")))
    effect = 0.5 if high else 0.2
    return ScenarioConfig(spec, updates=updates, assignments_per_update=traffic[high],
                          repetitions=repetitions, seed=seed,
                          interaction_effect_mean=effect, interaction_effect_sd=effect)


def paper_scenario(power: str = "low", seed: int = 0) -> ScenarioConfig:
    """Full-scale setting: 4-value factors (256 cells), 30 updates, 80 reps.
    ``power`` picks the preset traffic and interaction effects."""
    return _preset(4, 30, (2500, 100_000), 80, power, seed)


def desk_scenario(power: str = "low", seed: int = 0) -> ScenarioConfig:
    """Down-scaled setting for fast runs: 2-value factors (16 cells), 10
    updates, 8 repetitions, traffic scaled to keep per-cell counts in the
    same regime as the full-scale scenarios."""
    return _preset(2, 10, (160, 6400), 8, power, seed)


# Scenario fields a mapping sets as plain values; ``spec`` and ``sampler``
# are parsed, and the seeds are the base config's.
_SCENARIO_VALUES = tuple(f.name for f in fields(ScenarioConfig)
                         if f.name not in ("spec", "sampler", "seed"))
_SAMPLER_VALUES = tuple(f.name for f in fields(SamplerConfig) if f.name != "seed")
# Keys a mapping might be expected to hold, and why it does not.
_NOT_SETTABLE = {
    "seed": "fit seeds come from --seed",
    "sampler.seed": "fit seeds come from --seed",
    "power": "pick the preset with --power",
}


def _check_keys(mapping, known, prefix: str = "") -> None:
    """Reject a mapping that is not a JSON object or that holds a key
    outside ``known``."""
    if not isinstance(mapping, dict):
        raise ValueError(f"{prefix[:-1] or 'the config'} must be a JSON object")
    for key in mapping:
        name = f"{prefix}{key}"
        if name in _NOT_SETTABLE:
            raise ValueError(f"{name} is not settable; {_NOT_SETTABLE[name]}")
        if key not in known:
            raise ValueError(f"unknown key {name!r}")


def _check_methods(methods) -> tuple[str, ...]:
    """``methods`` as a tuple; ``ValueError`` unless it is a non-empty list
    or tuple of distinct names from ``METHODS``."""
    if not (isinstance(methods, (list, tuple)) and methods
            and all(m in METHODS for m in methods)):
        raise ValueError(f"methods must be a non-empty list drawn from {METHODS}")
    if len(set(methods)) < len(methods):
        raise ValueError(f"methods repeat in {list(methods)}")
    return tuple(methods)


def scenario_from_dict(
    mapping, base: ScenarioConfig
) -> tuple[ScenarioConfig, TauSpec, tuple[str, ...]]:
    """The scenario, tau and methods of a scenario mapping, the JSON object
    that ``hbab simulate --config`` reads (see the README).

    ``base``, ``desk_scenario(power, seed)`` or ``paper_scenario(power,
    seed)``, keeps every value the mapping does not set; tau defaults to
    fixed 0.1 and methods to ``METHODS``. Raises ``ValueError`` for a
    mapping that is not an object, an unknown key, a seed or ``power`` (both
    come from ``base``) and any value that a config rejects.
    """
    _check_keys(mapping, (*_SCENARIO_VALUES, "spec", "sampler", "tau", "methods"))
    values = {key: mapping[key] for key in _SCENARIO_VALUES if key in mapping}
    if "spec" in mapping:
        values["spec"] = spec_from_dict(mapping["spec"])
    if "sampler" in mapping:
        _check_keys(mapping["sampler"], _SAMPLER_VALUES, "sampler.")
        values["sampler"] = replace(base.sampler, **mapping["sampler"])
    config = replace(base, **values)
    tau = mapping.get("tau", {"kind": "fixed", "value": 0.1})
    _check_keys(tau, ("kind", "value"), "tau.")
    if "kind" not in tau:
        raise ValueError("tau needs a kind: 'fixed', 'dynamic' or 'learnt'")
    return config, TauSpec(**tau), _check_methods(mapping.get("methods", list(METHODS)))


def scenario_to_dict(config: ScenarioConfig, tau: TauSpec, methods) -> dict:
    """The scenario mapping of ``(config, tau, methods)``, every key set:
    ``scenario_from_dict`` reads it back on a base with ``config``'s seeds."""
    return {
        "spec": spec_to_dict(config.spec),
        **{key: getattr(config, key) for key in _SCENARIO_VALUES},
        "sampler": {key: getattr(config.sampler, key) for key in _SAMPLER_VALUES},
        "tau": {"kind": tau.kind, "value": tau.value},
        "methods": list(methods),
    }


@dataclass(frozen=True)
class GroundTruth:
    """True coefficients and rates, plus which pairs truly differ."""

    beta: np.ndarray
    rates: np.ndarray
    h1_content: tuple[int, ...]
    pair_is_h1: np.ndarray


def _drawable_interaction_columns(X: DesignMatrix, n_contents: int, n_h1: int) -> np.ndarray:
    """Interaction columns that switch on cells of the effect half (the
    first ``n_h1`` content combinations) only, so drawing them cannot touch
    any null cell. Context-by-context columns switch on cells of every
    content combination and are never drawn.

    Rows are content-major (``enumerate_cells``), so ``active[m, j]`` says
    whether column ``j`` switches on some cell of content combination ``m``.
    """
    active = X.matrix.reshape(n_contents, -1, X.cols).any(axis=1)
    interaction = np.array([label.kind == "interaction" for label in X.column_labels])
    return np.flatnonzero(interaction & ~active.all(0) & ~active[n_h1:].any(0))


def generate_truth(config: ScenarioConfig, rep_seed) -> GroundTruth:
    """Ground truth for one repetition.

    Intercept and first-order coefficients are zero. The interaction
    coefficients tied exclusively to the first ``h1_fraction`` of content
    combinations are sampled; everything else stays zero, which pins every
    null-half cell at rate one half.
    """
    spec = config.spec
    X = build_design_matrix(spec, interaction_order=2)
    n_contents = len(spec.content_combinations())
    n_h1 = round(config.h1_fraction * n_contents)

    beta = np.zeros(X.cols)
    if n_h1:
        cols = _drawable_interaction_columns(X, n_contents, n_h1)
        rng = np.random.Generator(np.random.Philox(rep_seed))
        beta[cols] = rng.normal(
            config.interaction_effect_mean, config.interaction_effect_sd, len(cols)
        )

    eta = X.matrix @ beta
    rates = 1.0 / (1.0 + np.exp(-eta))

    a_idx, b_idx = comparison_cells(spec)
    labels = np.abs(rates[a_idx] - rates[b_idx]) > 1e-12
    return GroundTruth(beta, rates, tuple(range(n_h1)), labels)


def stream_updates(
    truth: GroundTruth, config: ScenarioConfig, rep_seed
) -> list[CountData]:
    """Per-update binomial counts under equal allocation.

    Assignments are split evenly across cells; any remainder goes to the
    earliest cells in enumeration order, so per-update totals differ by at
    most one across cells.
    """
    n_cells = truth.rates.size
    base, rem = divmod(config.assignments_per_update, n_cells)
    a = np.full(n_cells, base, dtype=np.int64)
    a[:rem] += 1
    rng = np.random.Generator(np.random.Philox(rep_seed))
    return [
        CountData(a, rng.binomial(a, truth.rates)) for _ in range(config.updates)
    ]


@dataclass(frozen=True)
class RepetitionResult:
    """Everything recorded for one repetition.

    Arrays are indexed [update, cell] or [update, pair]; methods are keys
    of the dicts. ``diff_mean`` and ``diff_var`` are every pair's
    difference summary as ``cell_differences`` computed it from the
    estimates at each update, zero variances included. The sequential
    tests are not stored: ``sequential_trace`` derives them from these
    differences under any tau, without refitting. ``fits`` holds the
    record of each update's hierarchical fit (``look_estimates``).
    """

    rep: int
    truth: GroundTruth
    estimate_mean: dict[str, np.ndarray]
    diff_mean: dict[str, np.ndarray]
    diff_var: dict[str, np.ndarray]
    warnings: tuple[str, ...]
    fits: tuple[LaplaceRecord, ...] = ()


def _rep_seed_sequences(config: ScenarioConfig, rep: int):
    truth_seed = np.random.SeedSequence(config.seed, spawn_key=(rep, 0))
    stream_seed = np.random.SeedSequence(config.seed, spawn_key=(rep, 1))
    return truth_seed, stream_seed


def _fit_seed(config: ScenarioConfig, rep: int, update: int) -> int:
    words = np.random.SeedSequence(
        config.seed, spawn_key=(rep, 2, update)
    ).generate_state(2)
    return int(words[0]) << 32 | int(words[1])


def look_estimates(
    increments: Iterable[CountData],
    X: DesignMatrix,
    methods: tuple[str, ...],
    sampler: SamplerConfig,
    seeds: Iterable[int],
) -> Iterator[tuple[CountData, dict[str, CellEstimates], tuple[str, ...],
                    LaplaceRecord | None]]:
    """Fit every look of a count stream.

    ``increments`` are the per-look counts and ``seeds`` the hierarchical
    fit's seed at each look. For each look, yields the cumulative counts,
    one ``CellEstimates`` per method of ``methods`` (drawn from
    ``METHODS``), the warnings of the hierarchical fit and the record of
    its ``glm.fit_laplace`` (None without the hierarchical method).

    The hierarchical fit is ``fit_laplace`` under the look's seed. Where
    its record is not ``trusted`` (k-hat above ``glm.MAX_K_HAT``, or the
    weights' ESS under ``glm.MIN_WEIGHT_ESS`` after its last block), the
    look is fitted again by ``fit_posterior`` (NUTS) under ``sampler`` and
    the same seed, and a warning names its k-hat; NUTS's own warnings
    follow. Each look's fit is independent: only the cumulative counts
    pass from one look to the next, so a look's estimates depend on its
    counts and its seed alone.
    """
    cum_a = cum_r = 0  # new sums each look: a yielded CountData never changes
    for inc, seed in zip(increments, seeds):
        cum_a = cum_a + inc.assignments
        cum_r = cum_r + inc.responses
        data = CountData(cum_a, cum_r)
        estimates, warnings, record = {}, (), None
        if "hierarchical" in methods:
            fit = fit_laplace(data, X, seed)
            samples, record = fit.samples, fit.record
            if not record.trusted:
                samples = fit_posterior(data, X, replace(sampler, seed=seed))
                warnings = (f"nested Laplace fit not trusted (k-hat {record.k_hat:.2f}, "
                            f"weight ESS {record.weight_ess:.0f}); fitted by NUTS",
                            *samples.diagnostics.warnings)
            estimates["hierarchical"] = hb_estimate(samples, X)
        if "mle" in methods:
            estimates["mle"] = mle_estimates(data)
        yield data, estimates, warnings, record


def fit_telemetry(records: Iterable[LaplaceRecord]) -> dict:
    """A manifest's summary of the hierarchical fits whose ``look_estimates``
    records are ``records``: looks fitted by nested Laplace and by the NUTS
    fallback, the largest k-hat, the smallest ESS of the weights, and the
    nodes and Newton steps summed over fits. A statistic over no fits, or
    one that is not finite, reads None."""
    records = list(records)

    def finite(value):
        return value if np.isfinite(value) else None

    return {
        "laplace_fits": sum(r.trusted for r in records),
        "nuts_fallbacks": sum(not r.trusted for r in records),
        "max_k_hat": finite(max((r.k_hat for r in records), default=np.nan)),
        "min_weight_ess": finite(min((r.weight_ess for r in records), default=np.nan)),
        "nodes": sum(r.nodes for r in records),
        "newton_iterations": sum(r.newton_iterations for r in records),
    }


def run_repetition(
    config: ScenarioConfig,
    rep: int,
    methods: tuple[str, ...] = METHODS,
) -> RepetitionResult:
    """Simulate one repetition end to end.

    At every update each estimator of ``methods`` is fitted to the
    cumulative counts (``look_estimates``) and every pair's difference
    summary is recorded. Fully deterministic given the scenario seed and
    repetition index.
    """
    methods = _check_methods(methods)
    spec = config.spec
    X = build_design_matrix(spec, interaction_order=2)
    truth_seed, stream_seed = _rep_seed_sequences(config, rep)
    truth = generate_truth(config, truth_seed)
    updates = stream_updates(truth, config, stream_seed)

    n_u, n_c, n_p = config.updates, spec.n_cells, comparison_cells(spec)[0].size
    est_mean = {m: np.full((n_u, n_c), np.nan) for m in methods}
    diff_mean = {m: np.full((n_u, n_p), np.nan) for m in methods}
    diff_var = {m: np.full((n_u, n_p), np.nan) for m in methods}
    warnings, fits = [], []

    seeds = (_fit_seed(config, rep, u) for u in itertools.count())
    looks = look_estimates(updates, X, methods, config.sampler, seeds)
    for u, (_, estimates, fit_warnings, record) in enumerate(looks):
        warnings += [f"rep {rep} update {u + 1} (hierarchical): {w}" for w in fit_warnings]
        if record is not None:
            fits.append(record)
        for m, ests in estimates.items():
            est_mean[m][u] = ests.means
            diff_mean[m][u], diff_var[m][u] = cell_differences(spec, ests)
    return RepetitionResult(rep, truth, est_mean, diff_mean, diff_var, tuple(warnings),
                            tuple(fits))


@dataclass(frozen=True)
class ScenarioResult:
    config: ScenarioConfig
    methods: tuple[str, ...]
    repetitions: list[RepetitionResult]

    @property
    def warnings(self) -> tuple[str, ...]:
        return tuple(itertools.chain.from_iterable(r.warnings for r in self.repetitions))


def default_workers() -> int:
    """The repetition processes that ``HBAB_WORKERS`` asks for: 1 when it
    is unset, and at least 1."""
    value = os.environ.get("HBAB_WORKERS", "1")
    try:
        return max(1, int(value))
    except ValueError:
        raise ValueError(f"HBAB_WORKERS must be an integer, got {value!r}") from None


def run_scenario(
    config: ScenarioConfig, methods: tuple[str, ...] = METHODS
) -> ScenarioResult:
    """All repetitions of a scenario, mapped by ``sampler.fork_map`` over
    up to ``default_workers()`` processes (``HBAB_WORKERS``), and never
    more processes than repetitions. ``methods`` are checked before any
    process is forked.

    Repetitions are independent jobs with their own seed substreams, so
    the result does not depend on the worker count; they come back in
    repetition order. A fit inside a repetition worker runs its chains one
    after another; with one repetition process the fits fork their chains.
    """
    methods = _check_methods(methods)
    results = fork_map(lambda rep: run_repetition(config, rep, methods),
                       config.repetitions, default_workers())
    return ScenarioResult(config, methods, results)


@dataclass(frozen=True)
class MetricsReport:
    """Per-update accuracy metrics averaged over repetitions.

    rmse is the mean absolute estimation error per cell; fnr is measured
    on truly-different pairs, fpr on truly-null pairs, and fdr pools
    declared positives across repetitions (0/0 counts as 0).
    """

    tau_kind: str
    methods: tuple[str, ...]
    rmse: dict[str, np.ndarray]
    fnr: dict[str, np.ndarray]
    fpr: dict[str, np.ndarray]
    fdr: dict[str, np.ndarray]

    @classmethod
    def of(cls, result: ScenarioResult, reps, tau_kind: str, significant) -> "MetricsReport":
        """Metrics of ``reps``, repetitions of ``result``, whose tests under
        a tau of kind ``tau_kind`` declared ``significant[method]``, the
        stacked ``significant`` of their sequential traces [len(reps),
        updates, pairs]."""
        rmse, fnr, fpr, fdr = {}, {}, {}, {}
        for m in result.methods:
            errors = np.stack(
                [np.abs(r.estimate_mean[m] - r.truth.rates[None, :]) for r in reps]
            )
            rmse[m] = errors.mean(axis=(0, 2))
            labels = np.stack([r.truth.pair_is_h1 for r in reps])
            fnr[m], fpr[m], fdr[m] = _decision_metrics(significant[m], labels)
        return cls(tau_kind, result.methods, rmse, fnr, fpr, fdr)

    def rows(self):
        """Long-format (update, method, tau_kind, metric, value) tuples."""
        for metric in ("rmse", "fnr", "fpr", "fdr"):
            table = getattr(self, metric)
            for method in self.methods:
                for u, value in enumerate(table[method], start=1):
                    yield u, method, self.tau_kind, metric, float(value)


def _decision_metrics(significant, labels):
    """FNR/FPR/FDR curves from stacked significance traces.

    significant: [reps, updates, pairs] booleans; labels: [reps, pairs] booleans.
    """
    n_reps, n_u, _ = significant.shape
    fnr = np.full(n_u, np.nan)
    fpr = np.full(n_u, np.nan)
    fdr = np.zeros(n_u)
    h1 = labels
    h0 = ~labels
    for u in range(n_u):
        sig = significant[:, u, :]
        if h1.any():
            per_rep = [
                1.0 - sig[i, h1[i]].mean() for i in range(n_reps) if h1[i].any()
            ]
            fnr[u] = float(np.mean(per_rep))
        if h0.any():
            per_rep = [sig[i, h0[i]].mean() for i in range(n_reps) if h0[i].any()]
            fpr[u] = float(np.mean(per_rep))
        fp = int(sig[h0].sum())
        tp = int(sig[h1].sum())
        fdr[u] = fp / (fp + tp) if fp + tp > 0 else 0.0
    return fnr, fpr, fdr


def score(
    result: ScenarioResult,
    tau_spec: TauSpec,
    repetitions: list[int] | None = None,
) -> MetricsReport:
    """Metrics for a finished scenario under ``tau_spec``, optionally
    restricted to a subset of repetitions (as used by the train/test
    splits). The tests are ``sequential_trace`` of the stored differences."""
    reps = result.repetitions
    if repetitions is not None:
        reps = [reps[i] for i in repetitions]
    significant = {
        m: np.stack([sequential_trace(r.diff_mean[m], r.diff_var[m], tau_spec,
                                      result.config.alpha).significant for r in reps])
        for m in result.methods
    }
    return MetricsReport.of(result, reps, tau_spec.kind, significant)


@dataclass(frozen=True)
class TauComparison:
    """Train/test evaluation of tau strategies on one scenario: tau
    ``learnt`` from ``train_reps``, and each strategy's ``metrics`` on
    ``test_reps``."""

    learnt: LearntTau
    train_reps: tuple[int, ...]
    test_reps: tuple[int, ...]
    metrics: dict[str, MetricsReport]


_TAU_EXPERIMENT_FIXED_TAU = 0.1  # the fixed strategy's tau
_TAU_EXPERIMENT_TRAIN_FRACTION = 0.5


def check_tau_experiment(config: ScenarioConfig) -> None:
    """``ValueError`` unless ``config`` gives ``tau_experiment`` a
    repetition on each side of its split and an update to learn tau from."""
    if config.repetitions < 2:
        raise ValueError("the tau experiment needs at least 2 repetitions")
    if config.updates < 1:
        raise ValueError("the tau experiment needs at least 1 update to learn tau from")


def tau_experiment(result: ScenarioResult) -> TauComparison:
    """Compare fixed, dynamic, and learnt tau settings.

    The repetitions are split in half: the dispersion parameter is learnt
    from every pair's final difference in the first half and all three
    strategies are scored on the second half only (the fixed one at tau
    0.1). Effects come from the hierarchical estimates if the run has them
    and from its first method otherwise. Raises ``ValueError`` where
    ``check_tau_experiment`` does.
    """
    check_tau_experiment(result.config)
    method = "hierarchical" if "hierarchical" in result.methods else result.methods[0]
    n = len(result.repetitions)
    # At least one repetition on each side for any n >= 2.
    n_train = int(round(_TAU_EXPERIMENT_TRAIN_FRACTION * n))
    train = list(range(n_train))
    test = list(range(n_train, n))

    # Each pair's final difference as the tests carry it.
    d, v = zip(*(last_informative(result.repetitions[i].diff_mean[method],
                                  result.repetitions[i].diff_var[method]) for i in train))
    learnt = learn_tau(*effects_from_differences(np.concatenate(d), np.concatenate(v)))

    specs = {
        "fixed": TauSpec.fixed(_TAU_EXPERIMENT_FIXED_TAU),
        "dynamic": TauSpec.dynamic(),
        "learnt": TauSpec.learnt(learnt.point_value_for_testing),
    }
    metrics = {
        kind: score(result, tau_spec=spec, repetitions=test)
        for kind, spec in specs.items()
    }
    return TauComparison(learnt, tuple(train), tuple(test), metrics)


def naive_sequential_test_fpr(
    updates: int = 30,
    repetitions: int = 1000,
    alpha: float = 0.05,
    n_per_update: int = 1000,
    rate: float = 0.5,
    seed: int = 0,
) -> np.ndarray:
    """Cumulative false-positive rate of a fixed-horizon test under peeking.

    Two identical arms are compared with a two-proportion z-test at every
    sequential update; a repetition counts as a false positive once the
    test rejects at any update so far. The repeated evaluation inflates
    the error rate far beyond the nominal level.
    """
    from statistics import NormalDist  # it imports decimal: only when called

    rng = np.random.Generator(np.random.Philox(seed))
    z_crit = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    rejected = np.zeros(repetitions, dtype=bool)
    cum_a = np.zeros(repetitions)
    cum_b = np.zeros(repetitions)
    out = np.empty(updates)
    for u in range(1, updates + 1):
        cum_a += rng.binomial(n_per_update, rate, repetitions)
        cum_b += rng.binomial(n_per_update, rate, repetitions)
        n = u * n_per_update
        pa, pb = cum_a / n, cum_b / n
        pooled = (cum_a + cum_b) / (2 * n)
        se = np.sqrt(pooled * (1 - pooled) * 2 / n)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(se > 0, (pa - pb) / se, 0.0)
        rejected |= np.abs(z) > z_crit
        out[u - 1] = rejected.mean()
    return out
