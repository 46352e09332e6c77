"""Simulation harness: ground truth, sequential data, estimators, scoring.

Builds factorial experiments with known cell rates, streams binomial
counts over sequential updates, runs the hierarchical and plain estimators
on the accumulating data, and scores estimation error plus sequential
decision accuracy (false negative / false positive / false discovery
rates). Content combinations are split into an "effect" half, whose
interaction coefficients are drawn from a Normal(effect mean, sd^2), and a
null half whose coefficients stay zero, so true-difference and
no-difference pairs coexist in one simulated experiment and both error
rates are measured from the same runs.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .design import (
    DesignMatrix,
    ExperimentSpec,
    Factor,
    build_design_matrix,
    enumerate_comparisons,
)
from .estimate import hb_estimate, mle_estimates
from .glm import CountData, fit_posterior
from .sampler import SamplerConfig
from .seqtest import TauSpec, replay_trace, run_all_comparisons

__all__ = [
    "ScenarioConfig",
    "GroundTruth",
    "RepetitionResult",
    "ScenarioResult",
    "MetricsReport",
    "TauComparison",
    "paper_scenario",
    "desk_scenario",
    "generate_truth",
    "stream_updates",
    "run_repetition",
    "run_scenario",
    "score",
    "tau_experiment",
    "naive_sequential_test_fpr",
    "default_workers",
]

METHODS = ("hierarchical", "mle")


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulated-experiment setting.

    ``power`` is a descriptive tag; the operative fields are the traffic
    per update and the interaction-effect distribution. ``h0_mode``
    selects whether the null half lives inside the same truth as the
    effect half ("combined", default) or the whole truth is null
    ("separate").
    """

    spec: ExperimentSpec
    updates: int = 30
    assignments_per_update: int = 2500
    repetitions: int = 80
    seed: int = 0
    interaction_effect_mean: float = 0.2
    interaction_effect_sd: float = 0.2
    h1_fraction: float = 0.5
    h0_mode: str = "combined"
    power: str = "low"
    alpha: float = 0.05
    sampler: SamplerConfig = field(
        default_factory=lambda: SamplerConfig(
            chains=2, warmup_draws=250, kept_draws=150, max_tree_depth=8
        )
    )

    def __post_init__(self):
        if self.assignments_per_update < self.spec.n_cells:
            raise ValueError("need at least one assignment per cell per update")
        if self.h0_mode not in ("combined", "separate"):
            raise ValueError("h0_mode must be 'combined' or 'separate'")
        if not 0.0 <= self.h1_fraction <= 1.0:
            raise ValueError("h1_fraction must lie in [0, 1]")


def _factorial_spec(values_per_factor: int) -> ExperimentSpec:
    def values(prefix):
        return tuple(f"{prefix}{i}" for i in range(values_per_factor))

    return ExperimentSpec(
        content_factors=(
            Factor("title", values("t")),
            Factor("image", values("i")),
        ),
        context_factors=(
            Factor("country", values("co")),
            Factor("device", values("d")),
        ),
    )


def paper_scenario(power: str = "low", seed: int = 0, **overrides) -> ScenarioConfig:
    """Full-scale setting: 4-value factors (256 cells), 30 updates, 80 reps."""
    high = power == "high"
    cfg = ScenarioConfig(
        spec=_factorial_spec(4),
        updates=30,
        assignments_per_update=100_000 if high else 2500,
        repetitions=80,
        seed=seed,
        interaction_effect_mean=0.5 if high else 0.2,
        interaction_effect_sd=0.5 if high else 0.2,
        power=power,
    )
    return replace(cfg, **overrides) if overrides else cfg


def desk_scenario(power: str = "low", seed: int = 0, **overrides) -> ScenarioConfig:
    """Down-scaled setting for fast runs: 2-value factors (16 cells), 10
    updates, 8 repetitions, traffic scaled to keep per-cell counts in the
    same regime as the full-scale scenarios."""
    high = power == "high"
    cfg = ScenarioConfig(
        spec=_factorial_spec(2),
        updates=10,
        assignments_per_update=6400 if high else 160,
        repetitions=8,
        seed=seed,
        interaction_effect_mean=0.5 if high else 0.2,
        interaction_effect_sd=0.5 if high else 0.2,
        power=power,
    )
    return replace(cfg, **overrides) if overrides else cfg


@dataclass(frozen=True)
class GroundTruth:
    """True coefficients and rates, plus which pairs truly differ."""

    beta: np.ndarray
    rates: np.ndarray
    h1_content: tuple[int, ...]
    pair_is_h1: np.ndarray

    @property
    def n_h1_pairs(self) -> int:
        return int(self.pair_is_h1.sum())


def _drawable_interaction_columns(spec: ExperimentSpec, X: DesignMatrix, h1_content):
    """Interaction columns whose activating content combinations all lie in
    the effect half (so drawing them cannot touch any null cell)."""
    contents = spec.content_combinations()
    h1_set = {contents[i] for i in h1_content}
    n_content = len(spec.content_factors)
    factor_index = {f.name: i for i, f in enumerate(spec.factors)}
    value_index = {
        (f.name, v): j for f in spec.factors for j, v in enumerate(f.values)
    }

    cols = []
    for j, lab in enumerate(X.column_labels):
        if lab.kind != "interaction":
            continue
        ia, ib = factor_index[lab.factor_a], factor_index[lab.factor_b]
        if ia >= n_content and ib >= n_content:
            continue  # context-context: shared by every content combo
        va, vb = value_index[(lab.factor_a, lab.value_a)], value_index[
            (lab.factor_b, lab.value_b)
        ]
        activating = [
            m
            for m in contents
            if (ia >= n_content or m[ia] == va) and (ib >= n_content or m[ib] == vb)
        ]
        if activating and all(m in h1_set for m in activating):
            cols.append(j)
    return cols


def generate_truth(config: ScenarioConfig, rep_seed) -> GroundTruth:
    """Ground truth for one repetition.

    Intercept and first-order coefficients are zero. In "combined" mode
    the interaction coefficients tied exclusively to the first
    ``h1_fraction`` of content combinations are sampled; everything else
    stays zero, which pins every null-half cell at rate one half. In
    "separate" mode no coefficient is sampled and all pairs are null.
    """
    spec = config.spec
    X = build_design_matrix(spec, interaction_order=2)
    contents = spec.content_combinations()
    n_h1 = round(config.h1_fraction * len(contents))
    h1_content = tuple(range(n_h1)) if config.h0_mode == "combined" else ()

    beta = np.zeros(X.cols)
    if h1_content:
        cols = _drawable_interaction_columns(spec, X, h1_content)
        rng = np.random.Generator(np.random.Philox(rep_seed))
        beta[cols] = rng.normal(
            config.interaction_effect_mean, config.interaction_effect_sd, len(cols)
        )

    eta = X.matrix @ beta
    rates = 1.0 / (1.0 + np.exp(-eta))

    pairs = enumerate_comparisons(spec)
    labels = np.empty(len(pairs), dtype=bool)
    for i, (ctx, a, b) in enumerate(pairs):
        ra = rates[spec.cell_index(a, ctx)]
        rb = rates[spec.cell_index(b, ctx)]
        labels[i] = abs(ra - rb) > 1e-12
    return GroundTruth(beta, rates, h1_content, labels)


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
    of the dicts. Difference traces are stored so alternative tau settings
    can be re-scored without re-fitting.
    """

    rep: int
    truth: GroundTruth
    estimate_mean: dict[str, np.ndarray]
    estimate_var: dict[str, np.ndarray]
    diff_mean: dict[str, np.ndarray]
    diff_var: dict[str, np.ndarray]
    p_min: dict[str, np.ndarray]
    warnings: tuple[str, ...]


def _rep_seed_sequences(config: ScenarioConfig, rep: int):
    truth_seed = np.random.SeedSequence(config.seed, spawn_key=(rep, 0))
    stream_seed = np.random.SeedSequence(config.seed, spawn_key=(rep, 1))
    return truth_seed, stream_seed


def _fit_seed(config: ScenarioConfig, rep: int, update: int) -> int:
    words = np.random.SeedSequence(
        config.seed, spawn_key=(rep, 2, update)
    ).generate_state(2)
    return int(words[0]) << 32 | int(words[1])


def run_repetition(
    config: ScenarioConfig,
    rep: int,
    tau_spec: TauSpec = TauSpec.fixed(0.1),
    methods: tuple[str, ...] = METHODS,
) -> RepetitionResult:
    """Simulate one repetition end to end.

    At every update both estimators are fitted to the cumulative counts
    and all pairwise comparisons advance one step. Fully deterministic
    given the scenario seed and repetition index.
    """
    spec = config.spec
    X = build_design_matrix(spec, interaction_order=2)
    truth_seed, stream_seed = _rep_seed_sequences(config, rep)
    truth = generate_truth(config, truth_seed)
    updates = stream_updates(truth, config, stream_seed)
    pairs = enumerate_comparisons(spec)

    n_u, n_c, n_p = config.updates, spec.n_cells, len(pairs)
    est_mean = {m: np.full((n_u, n_c), np.nan) for m in methods}
    est_var = {m: np.full((n_u, n_c), np.nan) for m in methods}
    diff_mean = {m: np.full((n_u, n_p), np.nan) for m in methods}
    diff_var = {m: np.full((n_u, n_p), np.nan) for m in methods}
    states = {m: None for m in methods}
    p_min = {m: np.ones((n_u, n_p)) for m in methods}
    warnings = []

    cum_a = np.zeros(n_c, dtype=np.int64)
    cum_r = np.zeros(n_c, dtype=np.int64)
    for u in range(n_u):
        cum_a += updates[u].assignments
        cum_r += updates[u].responses
        data = CountData(cum_a.copy(), cum_r.copy())

        per_method_estimates = {}
        if "hierarchical" in methods:
            cfg = replace(config.sampler, seed=_fit_seed(config, rep, u))
            samples = fit_posterior(data, X, cfg)
            for w in samples.diagnostics.warnings:
                warnings.append(f"rep {rep} update {u + 1} (hierarchical): {w}")
            per_method_estimates["hierarchical"] = hb_estimate(samples, X)
        if "mle" in methods:
            per_method_estimates["mle"] = mle_estimates(data)

        for m, ests in per_method_estimates.items():
            est_mean[m][u] = [e.mean for e in ests]
            est_var[m][u] = [e.variance for e in ests]
            states[m] = run_all_comparisons(
                ests, spec, tau_spec, config.alpha, prior=states[m]
            )
            diff_mean[m][u] = [r.diff_mean for r in states[m]]
            diff_var[m][u] = [r.diff_var for r in states[m]]
            p_min[m][u] = [r.p_min for r in states[m]]

    return RepetitionResult(
        rep, truth, est_mean, est_var, diff_mean, diff_var, p_min, tuple(warnings)
    )


@dataclass(frozen=True)
class ScenarioResult:
    config: ScenarioConfig
    tau_spec: TauSpec
    methods: tuple[str, ...]
    repetitions: list[RepetitionResult]

    @property
    def warnings(self) -> tuple[str, ...]:
        return tuple(itertools.chain.from_iterable(r.warnings for r in self.repetitions))


def default_workers() -> int:
    return max(1, int(os.environ.get("HBAB_WORKERS", "1")))


def run_scenario(
    config: ScenarioConfig,
    tau_spec: TauSpec = TauSpec.fixed(0.1),
    methods: tuple[str, ...] = METHODS,
    workers: int | None = None,
) -> ScenarioResult:
    """All repetitions of a scenario, optionally in parallel.

    Repetitions are independent jobs with their own seed substreams, so
    the result does not depend on the worker count; they are merged by
    repetition index.
    """
    workers = default_workers() if workers is None else workers
    reps = range(config.repetitions)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(run_repetition, itertools.repeat(config), reps,
                         itertools.repeat(tau_spec), itertools.repeat(methods))
            )
    else:
        results = [run_repetition(config, rep, tau_spec, methods) for rep in reps]
    return ScenarioResult(config, tau_spec, tuple(methods), results)


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

    def rows(self):
        """Long-format (update, method, tau_kind, metric, value) tuples."""
        for metric in ("rmse", "fnr", "fpr", "fdr"):
            table = getattr(self, metric)
            for method in self.methods:
                for u, value in enumerate(table[method], start=1):
                    yield u, method, self.tau_kind, metric, float(value)


def _decision_metrics(p_min_traces, labels, alpha):
    """FNR/FPR/FDR curves from stacked p_min traces.

    p_min_traces: [reps, updates, pairs]; labels: [reps, pairs] booleans.
    """
    significant = p_min_traces < alpha
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
    tau_spec: TauSpec | None = None,
    repetitions: list[int] | None = None,
) -> MetricsReport:
    """Metrics for a finished scenario, optionally re-scored under a
    different tau or restricted to a subset of repetitions (as used by the
    train/test splits)."""
    config = result.config
    reps = result.repetitions
    if repetitions is not None:
        reps = [reps[i] for i in repetitions]
    replay = tau_spec is not None and tau_spec != result.tau_spec
    tau = tau_spec or result.tau_spec

    rmse, fnr, fpr, fdr = {}, {}, {}, {}
    for m in result.methods:
        errors = np.stack(
            [np.abs(r.estimate_mean[m] - r.truth.rates[None, :]) for r in reps]
        )
        rmse[m] = errors.mean(axis=(0, 2))

        if replay:
            traces = np.stack(
                [
                    np.stack(
                        [
                            replay_trace(r.diff_mean[m][:, p], r.diff_var[m][:, p],
                                         tau, config.alpha)
                            for p in range(r.diff_mean[m].shape[1])
                        ],
                        axis=1,
                    )
                    for r in reps
                ]
            )
        else:
            traces = np.stack([r.p_min[m] for r in reps])
        labels = np.stack([r.truth.pair_is_h1 for r in reps])
        fnr[m], fpr[m], fdr[m] = _decision_metrics(traces, labels, config.alpha)

    return MetricsReport(tau.kind, result.methods, rmse, fnr, fpr, fdr)


@dataclass(frozen=True)
class TauComparison:
    """Train/test evaluation of tau strategies on one scenario."""

    learnt_tau: float
    learnt_q2_5: float
    learnt_q97_5: float
    train_reps: tuple[int, ...]
    test_reps: tuple[int, ...]
    metrics: dict[str, MetricsReport]


def tau_experiment(
    result: ScenarioResult,
    fixed_value: float = 0.1,
    method: str | None = None,
    train_fraction: float = 0.5,
    tau_config: SamplerConfig | None = None,
) -> TauComparison:
    """Compare fixed, dynamic, and learnt tau settings.

    The repetitions are split in half: the dispersion parameter is learnt
    from every pair's final difference in the first half and all three
    strategies are scored on the second half only. Effects come from
    ``method``, by default the hierarchical estimates if the run has them
    and its first method otherwise.
    """
    from .metaprior import EffectObservation, learn_tau

    if method is None:
        method = "hierarchical" if "hierarchical" in result.methods else result.methods[0]
    if method not in result.methods:
        raise ValueError(f"method {method!r} was not run; have {result.methods}")
    n = len(result.repetitions)
    if n < 2:
        raise ValueError("tau_experiment needs at least 2 repetitions")
    n_train = max(1, int(round(train_fraction * n)))
    train = list(range(n_train))
    test = list(range(n_train, n))
    if not test:
        raise ValueError("train fraction leaves no test repetitions")

    effects = []
    for i in train:
        rep = result.repetitions[i]
        d = rep.diff_mean[method][-1]
        v = rep.diff_var[method][-1]
        for dm, dv in zip(d, v):
            if np.isfinite(dm) and dv > 0:
                effects.append(EffectObservation(float(dm), float(np.sqrt(dv))))
    learnt = learn_tau(effects, tau_config) if tau_config else learn_tau(effects)

    specs = {
        "fixed": TauSpec.fixed(fixed_value),
        "dynamic": TauSpec.dynamic(),
        "learnt": TauSpec.learnt(learnt.point_value_for_testing),
    }
    metrics = {
        kind: score(result, tau_spec=spec, repetitions=test)
        for kind, spec in specs.items()
    }
    return TauComparison(
        learnt.posterior_mean,
        learnt.q2_5,
        learnt.q97_5,
        tuple(train),
        tuple(test),
        metrics,
    )


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
    from scipy.stats import norm

    rng = np.random.Generator(np.random.Philox(seed))
    z_crit = norm.ppf(1.0 - alpha / 2.0)
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
