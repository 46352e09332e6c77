"""Command-line entry points.

Four batch commands: ``simulate`` runs the scenario harness and writes
metric and decision-trace CSVs; ``analyze`` runs the estimation and
sequential-testing pipeline on an externally supplied count stream;
``learn-tau`` fits the effect-size dispersion from a corpus of observed
effects; ``oracle-check`` runs the closed-form verification battery.

Every command writes a JSON run manifest listing its inputs, seed, config
hash, and every artifact produced. Tabular outputs are CSV with floats
serialized to 17 significant digits, so reruns with the same seed
reproduce files byte for byte; all files are written atomically.

Exit codes: 0 success, 1 verification-check failure, 2 input error,
3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import conjugate
from .design import (
    ExperimentSpec,
    build_design_matrix,
    enumerate_cells,
    enumerate_comparisons,
    load_experiment_spec,
    spec_from_dict,
    spec_to_dict,
)
from .estimate import hb_estimate, marginalize, mle_estimates
from .glm import CountData, fit_posterior
from .metaprior import EffectObservation, learn_tau
from .sampler import SamplerConfig, effective_sample_size, sample
from .seqtest import TauSpec, log_bayes_factor, resolve_tau, run_all_comparisons
from .sim import (
    ScenarioConfig,
    desk_scenario,
    paper_scenario,
    run_scenario,
    score,
    tau_experiment,
)

__all__ = ["main"]


class InputError(Exception):
    """Bad user input: config, CSV schema, or argument values (exit 2)."""


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def _config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _Manifest:
    def __init__(self, command: str, config_payload: dict, seed=None):
        self.data = {
            "command": command,
            "config_hash": _config_hash(config_payload),
            "master_seed": seed,
            "started": datetime.now(timezone.utc).isoformat(),
            "finished": None,
            "outputs": [],
            "warnings": [],
        }

    def add_output(self, path: str) -> str:
        self.data["outputs"].append(os.path.abspath(path))
        return path

    def warn(self, message: str) -> None:
        self.data["warnings"].append(message)
        print(f"warning: {message}", file=sys.stderr)

    def write(self, out_dir: str) -> None:
        self.data["finished"] = datetime.now(timezone.utc).isoformat()
        path = os.path.join(out_dir, "manifest.json")
        self.data["outputs"].append(os.path.abspath(path))
        _atomic_write(path, json.dumps(self.data, indent=2) + "\n")


def _parse_tau(text: str) -> TauSpec:
    if text == "dynamic":
        return TauSpec.dynamic()
    kind, sep, rest = text.partition(":")
    if kind == "fixed" and sep:
        try:
            return TauSpec.fixed(float(rest))
        except ValueError as exc:
            raise InputError(f"bad fixed tau value {rest!r}") from exc
    if kind == "learnt" and sep:
        try:
            with open(rest, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            return TauSpec.learnt(float(payload["point_value_for_testing"]))
        except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read learnt tau from {rest!r}: {exc}") from exc
    raise InputError(
        f"bad --tau {text!r}: expected fixed:VALUE, dynamic, or learnt:FILE"
    )


def _combo_label(spec: ExperimentSpec, factors, combo) -> str:
    return "|".join(f.values[i] for f, i in zip(factors, combo))


# ---------------------------------------------------------------- simulate


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config {path!r}: {exc}") from exc


def _resolve_scenario(args) -> tuple[ScenarioConfig, TauSpec, tuple[str, ...], dict]:
    overrides = _load_json(args.config) if args.config else {}
    power = overrides.get("power", args.power)
    base = desk_scenario(power) if args.scale == "desk" else paper_scenario(power)

    kwargs = {"seed": args.seed}
    for key in (
        "updates",
        "assignments_per_update",
        "repetitions",
        "interaction_effect_mean",
        "interaction_effect_sd",
        "h1_fraction",
        "h0_mode",
        "alpha",
    ):
        if key in overrides:
            kwargs[key] = overrides[key]
    if "spec" in overrides:
        kwargs["spec"] = spec_from_dict(overrides["spec"])
    if "sampler" in overrides:
        kwargs["sampler"] = replace(base.sampler, **overrides["sampler"])
    try:
        config = replace(base, power=power, **kwargs)
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid scenario config: {exc}") from exc

    tau = overrides.get("tau")
    tau_spec = (
        TauSpec(tau["kind"], tau.get("value"), tau.get("epsilon_floor", 1e-8))
        if tau
        else TauSpec.fixed(0.1)
    )
    methods = tuple(overrides.get("methods", ("hierarchical", "mle")))

    payload = {
        "scale": args.scale,
        "power": power,
        "seed": args.seed,
        "spec": spec_to_dict(config.spec),
        "updates": config.updates,
        "assignments_per_update": config.assignments_per_update,
        "repetitions": config.repetitions,
        "interaction_effect_mean": config.interaction_effect_mean,
        "interaction_effect_sd": config.interaction_effect_sd,
        "h1_fraction": config.h1_fraction,
        "h0_mode": config.h0_mode,
        "alpha": config.alpha,
        "sampler": {
            "chains": config.sampler.chains,
            "warmup_draws": config.sampler.warmup_draws,
            "kept_draws": config.sampler.kept_draws,
            "target_accept": config.sampler.target_accept,
            "max_tree_depth": config.sampler.max_tree_depth,
        },
        "tau": {"kind": tau_spec.kind, "value": tau_spec.value},
        "methods": list(methods),
    }
    return config, tau_spec, methods, payload


def _decision_rows(result, tau_spec):
    spec = result.config.spec
    pairs = enumerate_comparisons(spec)
    ctx_factors = spec.context_factors
    cnt_factors = spec.content_factors
    for rep in result.repetitions:
        for m in result.methods:
            for p, (ctx, a, b) in enumerate(pairs):
                p_run = 1.0
                for u in range(result.config.updates):
                    d = rep.diff_mean[m][u, p]
                    v = rep.diff_var[m][u, p]
                    if v > 0 and np.isfinite(d):
                        log_k = log_bayes_factor(d, v, resolve_tau(tau_spec, d))
                        p_inst = math.exp(-max(log_k, 0.0))
                        k = math.exp(min(log_k, 709.0))
                        p_run = min(p_run, p_inst)
                    else:
                        k, p_inst = math.nan, math.nan
                    yield (
                        rep.rep,
                        u + 1,
                        m,
                        tau_spec.kind,
                        _combo_label(spec, ctx_factors, ctx),
                        _combo_label(spec, cnt_factors, a),
                        _combo_label(spec, cnt_factors, b),
                        "h1" if rep.truth.pair_is_h1[p] else "h0",
                        _fmt(d),
                        _fmt(v),
                        _fmt(k),
                        _fmt(p_inst),
                        _fmt(p_run),
                        int(p_run < result.config.alpha),
                    )


def cmd_simulate(args) -> int:
    config, tau_spec, methods, payload = _resolve_scenario(args)
    os.makedirs(args.out, exist_ok=True)
    manifest = _Manifest("simulate", payload, seed=args.seed)

    result = run_scenario(config, tau_spec, methods)
    for w in result.warnings:
        manifest.warn(w)

    metrics = score(result)
    _write_csv(
        manifest.add_output(os.path.join(args.out, "metrics.csv")),
        ["update", "method", "tau_kind", "metric", "value"],
        ((u, m, t, metric, _fmt(v)) for u, m, t, metric, v in metrics.rows()),
    )
    _write_csv(
        manifest.add_output(os.path.join(args.out, "decisions.csv")),
        ["rep", "update", "method", "tau_kind", "context", "content_a", "content_b",
         "truth", "diff_mean", "diff_var", "bayes_factor", "p_instant", "p_min",
         "significant"],
        _decision_rows(result, tau_spec),
    )

    if args.tau_experiment:
        comparison = tau_experiment(result)
        rows = []
        for kind, report in comparison.metrics.items():
            rows.extend(
                (u, m, kind, metric, _fmt(v)) for u, m, kind_, metric, v in report.rows()
            )
        _write_csv(
            manifest.add_output(os.path.join(args.out, "tau_metrics.csv")),
            ["update", "method", "tau_kind", "metric", "value"],
            rows,
        )
        _atomic_write(
            manifest.add_output(os.path.join(args.out, "learnt_tau.json")),
            json.dumps(
                {
                    "posterior_mean": comparison.learnt_tau,
                    "quantiles": {
                        "2.5": comparison.learnt_q2_5,
                        "97.5": comparison.learnt_q97_5,
                    },
                    "train_repetitions": list(comparison.train_reps),
                    "test_repetitions": list(comparison.test_reps),
                },
                indent=2,
            )
            + "\n",
        )

    manifest.write(args.out)
    return 0


# ----------------------------------------------------------------- analyze


def _read_counts(path: str, spec: ExperimentSpec):
    """Parse and validate the counts CSV.

    Expected header: update,<factor names in spec order...>,assignments,
    responses. Returns per-update CountData increments.
    """
    factors = spec.factors
    expected = ["update"] + [f.name for f in factors] + ["assignments", "responses"]
    value_index = {
        (f.name, v): j for f in factors for j, v in enumerate(f.values)
    }
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise InputError(f"cannot read counts file: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise InputError(
                f"malformed counts header: expected {','.join(expected)!r}, "
                f"got {','.join(header or [])!r}"
            )
        per_update: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        n_cells = spec.n_cells
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise InputError(f"row {line_no}: expected {len(expected)} columns")
            try:
                update = int(row[0])
                a = int(row[-2])
                r = int(row[-1])
            except ValueError as exc:
                raise InputError(f"row {line_no}: {exc}") from exc
            combo = []
            for f, label in zip(factors, row[1:-2]):
                try:
                    combo.append(value_index[(f.name, label)])
                except KeyError:
                    raise InputError(
                        f"row {line_no}: unknown value {label!r} for factor {f.name!r}"
                    ) from None
            if r > a or a < 0 or r < 0:
                raise InputError(
                    f"row {line_no}: need 0 <= responses <= assignments, got {r} > {a}"
                )
            n_content = len(spec.content_factors)
            idx = spec.cell_index(tuple(combo[:n_content]), tuple(combo[n_content:]))
            if update not in per_update:
                per_update[update] = (
                    np.zeros(n_cells, dtype=np.int64),
                    np.zeros(n_cells, dtype=np.int64),
                )
            per_update[update][0][idx] += a
            per_update[update][1][idx] += r

    if not per_update:
        raise InputError("counts file holds no data rows")
    updates = sorted(per_update)
    if updates[0] != 1 or updates != list(range(1, len(updates) + 1)):
        raise InputError("updates must be contiguous from 1")
    return [CountData(per_update[u][0], per_update[u][1]) for u in updates]


def cmd_analyze(args) -> int:
    try:
        spec = load_experiment_spec(args.design)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot load design spec: {exc}") from exc
    tau_spec = _parse_tau(args.tau)
    increments = _read_counts(args.counts, spec)

    payload = {
        "design": spec_to_dict(spec),
        "counts": os.path.abspath(args.counts),
        "tau": args.tau,
        "alpha": args.alpha,
        "method": args.method,
        "seed": args.seed,
    }
    os.makedirs(args.out, exist_ok=True)
    manifest = _Manifest("analyze", payload, seed=args.seed)

    X = build_design_matrix(spec, 2 if len(spec.factors) >= 2 else 1)
    contexts = spec.context_combinations()
    contents = spec.content_combinations()
    content_pairs = [
        (a, b) for i, a in enumerate(contents) for b in contents[i + 1:]
    ]

    est_rows, marg_rows, cmp_rows = [], [], []
    states = None
    marg_states = {pair: (1.0, 0) for pair in content_pairs}  # p_min, n_updates
    cum_a = np.zeros(spec.n_cells, dtype=np.int64)
    cum_r = np.zeros(spec.n_cells, dtype=np.int64)
    for u, inc in enumerate(increments, start=1):
        cum_a += inc.assignments
        cum_r += inc.responses
        data = CountData(cum_a.copy(), cum_r.copy())
        if args.method == "hb":
            cfg = SamplerConfig(
                chains=2, warmup_draws=250, kept_draws=200, max_tree_depth=8,
                seed=args.seed + u,
            )
            samples = fit_posterior(data, X, cfg)
            for w in samples.diagnostics.warnings:
                manifest.warn(f"update {u}: {w}")
            ests = hb_estimate(samples, X)
        else:
            ests = mle_estimates(data)

        cells = [c.value_indices for c in enumerate_cells(spec)]
        for k, est in enumerate(ests):
            est_rows.append(
                (u, *(f.values[i] for f, i in zip(spec.factors, cells[k])),
                 args.method, _fmt(est.mean), _fmt(est.variance))
            )

        states = run_all_comparisons(ests, spec, tau_spec, args.alpha, prior=states)
        for res in states:
            cmp_rows.append(
                (u,
                 _combo_label(spec, spec.context_factors, res.context),
                 _combo_label(spec, spec.content_factors, res.content_a),
                 _combo_label(spec, spec.content_factors, res.content_b),
                 _fmt(res.diff_mean), _fmt(res.diff_var), _fmt(res.bayes_factor),
                 _fmt(res.p_instant), _fmt(res.p_min), int(res.significant))
            )

        # Context-pooled comparisons per content pair.
        traffic = np.array(
            [cum_a[[spec.cell_index(m, ctx) for m in contents]].sum()
             for ctx in contexts], dtype=float,
        )
        marginals = marginalize(ests, spec, traffic)
        for i, m in enumerate(contents):
            marg_rows.append(
                (u, *(f.values[v] for f, v in zip(spec.content_factors, m)),
                 args.method, _fmt(marginals[i].mean), _fmt(marginals[i].variance))
            )
        for a_combo, b_combo in content_pairs:
            ea = marginals[contents.index(a_combo)]
            eb = marginals[contents.index(b_combo)]
            if ea.draws is not None and eb.draws is not None:
                diffs = ea.draws - eb.draws
                d, v = float(diffs.mean()), float(diffs.var(ddof=1))
            else:
                d, v = ea.mean - eb.mean, ea.variance + eb.variance
            p_min, n_upd = marg_states[(a_combo, b_combo)]
            if v > 0:
                log_k = log_bayes_factor(d, v, resolve_tau(tau_spec, d))
                p_inst = math.exp(-max(log_k, 0.0))
                p_min = min(p_min, p_inst)
                k = math.exp(min(log_k, 709.0))
                marg_states[(a_combo, b_combo)] = (p_min, n_upd + 1)
            else:
                k, p_inst = math.nan, math.nan
            cmp_rows.append(
                (u, "marginal",
                 _combo_label(spec, spec.content_factors, a_combo),
                 _combo_label(spec, spec.content_factors, b_combo),
                 _fmt(d), _fmt(v), _fmt(k), _fmt(p_inst), _fmt(p_min),
                 int(p_min < args.alpha))
            )

    factor_names = [f.name for f in spec.factors]
    _write_csv(
        manifest.add_output(os.path.join(args.out, "estimates.csv")),
        ["update", *factor_names, "method", "mean", "variance"],
        est_rows,
    )
    _write_csv(
        manifest.add_output(os.path.join(args.out, "marginal_estimates.csv")),
        ["update", *(f.name for f in spec.content_factors), "method", "mean",
         "variance"],
        marg_rows,
    )
    _write_csv(
        manifest.add_output(os.path.join(args.out, "comparisons.csv")),
        ["update", "context", "content_a", "content_b", "diff_mean", "diff_var",
         "bayes_factor", "p_instant", "p_min", "significant"],
        cmp_rows,
    )
    manifest.write(args.out)
    return 0


# --------------------------------------------------------------- learn-tau


def _effects_from_csv(path: str) -> list[EffectObservation]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["delta", "noise_sd"]:
            raise InputError(
                f"malformed effects header: expected 'delta,noise_sd', "
                f"got {','.join(header or [])!r}"
            )
        out = []
        for line_no, row in enumerate(reader, start=2):
            try:
                delta, sd = float(row[0]), float(row[1])
            except (ValueError, IndexError) as exc:
                raise InputError(f"row {line_no}: {exc}") from exc
            if sd <= 0:
                raise InputError(f"row {line_no}: noise_sd must be positive")
            out.append(EffectObservation(delta, sd))
    return out


def _effects_from_results_dir(path: str, method: str) -> list[EffectObservation]:
    """Scan comparison/decision CSVs for final-update effects per pair."""
    effects = []
    for root, _, files in os.walk(path):
        for name in sorted(files):
            if not name.endswith(".csv"):
                continue
            full = os.path.join(root, name)
            with open(full, "r", encoding="utf-8", newline="") as fh:
                reader = csv.DictReader(fh)
                fields = reader.fieldnames or []
                needed = {"update", "context", "content_a", "content_b",
                          "diff_mean", "diff_var"}
                if not needed.issubset(fields):
                    continue
                finals = {}
                for row in reader:
                    if "method" in fields and row["method"] != method:
                        continue
                    key = (row.get("rep", ""), row["context"], row["content_a"],
                           row["content_b"])
                    prev = finals.get(key)
                    if prev is None or int(row["update"]) > int(prev["update"]):
                        finals[key] = row
            for row in finals.values():
                d, v = float(row["diff_mean"]), float(row["diff_var"])
                if math.isfinite(d) and v > 0:
                    effects.append(EffectObservation(d, math.sqrt(v)))
    return effects


def cmd_learn_tau(args) -> int:
    if os.path.isdir(args.effects):
        effects = _effects_from_results_dir(args.effects, args.method)
    else:
        effects = _effects_from_csv(args.effects)
    if len(effects) < 2:
        raise InputError(
            f"need at least 2 effect observations, found {len(effects)}"
        )

    payload = {
        "effects": os.path.abspath(args.effects),
        "n_effects": len(effects),
        "seed": args.seed,
        "method": args.method,
    }
    os.makedirs(args.out, exist_ok=True)
    manifest = _Manifest("learn-tau", payload, seed=args.seed)

    config = SamplerConfig(chains=2, warmup_draws=400, kept_draws=600, seed=args.seed)
    learnt = learn_tau(effects, config)
    if learnt.point_value_for_testing <= 1e-8:
        manifest.warn(
            "corpus shows no excess dispersion; point value floored at 1e-8"
        )

    _atomic_write(
        manifest.add_output(os.path.join(args.out, "learnt_tau.json")),
        json.dumps(
            {
                "n_effects": len(effects),
                "posterior_mean": learnt.posterior_mean,
                "quantiles": {
                    "2.5": learnt.q2_5,
                    "50": learnt.median,
                    "97.5": learnt.q97_5,
                },
                "point_value_for_testing": learnt.point_value_for_testing,
            },
            indent=2,
        )
        + "\n",
    )
    manifest.write(args.out)
    return 0


# ------------------------------------------------------------ oracle-check


def _oracle_checks(corrupt: bool, seed: int):
    """Yield (name, tolerance_description, observed, passed) tuples."""
    rng = np.random.default_rng(seed)
    fudge = 1.001 if corrupt else 1.0

    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 6))
        inst = conjugate.ConjugateInstance(
            rng.uniform(-2, 2, n), rng.uniform(0.05, 2.0, n),
            float(rng.uniform(0.1, 4.0)), float(rng.uniform(0.1, 4.0)),
        )
        post = conjugate.posterior(inst)
        q_mean, q_var = conjugate.quadrature_posterior(inst)
        worst = max(
            worst,
            float(np.max(np.abs(post.beta_hat * fudge - q_mean))),
            float(np.max(np.abs(post.sigma_hat_sq - q_var))),
        )
    yield ("closed_form_vs_quadrature", "abs error < 1e-6 (50 instances)",
           worst, worst < 1e-6)

    worst_z = 0.0
    for i in range(5):
        n = int(rng.integers(2, 6))
        inst = conjugate.ConjugateInstance(
            rng.uniform(-2, 2, n), rng.uniform(0.05, 1.0, n),
            float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0)),
        )
        post = conjugate.posterior(inst)
        samples = sample(
            conjugate.pooling_target(inst),
            SamplerConfig(chains=2, warmup_draws=250, kept_draws=400, seed=seed + i),
        )
        flat = samples.flat()
        for j in range(n):
            ess = samples.diagnostics.effective_sample_size[j]
            m, v = flat[:, j].mean(), flat[:, j].var(ddof=1)
            # The sample variance is a mean of squared centred draws, so its
            # Monte-Carlo error follows their ESS, not the ESS of the draws.
            ess_sq = effective_sample_size((samples.draws[:, :, j] - m) ** 2)
            worst_z = max(
                worst_z,
                abs(m - post.beta_hat[j] * fudge) / math.sqrt(v / ess),
                abs(v - post.sigma_hat_sq[j]) / (v * math.sqrt(2.0 / ess_sq)),
            )
    yield ("sampler_vs_closed_form", "max |z| < 3 Monte-Carlo SE (5 instances)",
           worst_z, worst_z < 3.0)

    inst = conjugate.ConjugateInstance(
        rng.uniform(-1, 1, 4), rng.uniform(0.05, 1.0, 4), 0.8, 1.2
    )
    beta = rng.uniform(-1, 1, 4)
    mc_mean, mc_var, se = conjugate.simulate_estimator_moments(
        beta, inst, n_reps=100_000, seed=seed
    )
    z = float(np.max(np.abs(conjugate.estimator_mean(beta, inst) * fudge - mc_mean) / se))
    yield ("estimator_mean_vs_monte_carlo", "max |z| < 3 (1e5 replications)", z, z < 3.0)

    excess = float(np.max(mc_var / conjugate.variance_upper_bound(inst)))
    yield ("variance_bound_vs_monte_carlo", "Var ratio <= 1", excess, excess <= 1.0)

    h, c = 10.0, 1.0
    coeffs = conjugate.shrinkage_coefficients(h, c)
    yield ("shrinkage_c1_below_one", "c1(10, 1) < 1", coeffs.c1, coeffs.c1 < 1.0)

    sb2 = 1.0
    s_sq = np.concatenate([[h * sb2], rng.uniform(0.01, 1.0 / h, 3)])
    inst_gap = conjugate.ConjugateInstance(np.zeros(4), s_sq, sb2, 0.5)
    beta = rng.uniform(-1, 1, 4)
    _, mc_var, _ = conjugate.simulate_estimator_moments(
        beta, inst_gap, n_reps=100_000, seed=seed + 1
    )
    ratio = float(mc_var[0] / (coeffs.c1 * s_sq[0]))
    yield ("shrinkage_bound_vs_monte_carlo", "Var(pooled)/(c1*s_f^2) <= 1",
           ratio, ratio <= 1.0)

    scaled = max(
        conjugate.shrinkage_coefficients(hh, 1.0).c1 * hh for hh in (1e2, 1e3, 1e4)
    )
    yield ("c1_decays_like_1_over_h", "c1(h)*h < 3 for h up to 1e4",
           scaled, scaled < 3.0)

    c2_tail = conjugate.shrinkage_coefficients(1e4, 1.0).c2
    yield ("c2_stays_order_one", "|c2(1e4) - 1| < 0.01", c2_tail,
           abs(c2_tail - 1.0) < 0.01)


def cmd_oracle_check(args) -> int:
    payload = {"seed": args.seed, "corrupt": bool(args.corrupt)}
    os.makedirs(args.out, exist_ok=True)
    manifest = _Manifest("oracle-check", payload, seed=args.seed)

    results = list(_oracle_checks(args.corrupt, args.seed))
    lines = []
    for name, tolerance, observed, passed in results:
        status = "PASS" if passed else "FAIL"
        line = f"{status} {name}: observed {observed:.6g} ({tolerance})"
        lines.append(line)
        print(line)
    report = {
        "checks": [
            {"name": n, "tolerance": t, "observed": float(o), "passed": bool(p)}
            for n, t, o, p in results
        ],
        "all_passed": all(p for _, _, _, p in results),
    }
    _atomic_write(
        manifest.add_output(os.path.join(args.out, "oracle_report.json")),
        json.dumps(report, indent=2) + "\n",
    )
    _atomic_write(
        manifest.add_output(os.path.join(args.out, "oracle_report.txt")),
        "\n".join(lines) + "\n",
    )
    manifest.write(args.out)
    return 0 if report["all_passed"] else 1


# -------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbab",
        description="Hierarchical Bayesian estimation and sequential testing "
        "for multivariate AB tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the simulation harness")
    p_sim.add_argument("--config", help="JSON scenario overrides")
    p_sim.add_argument("--scale", choices=("paper", "desk"), default="desk")
    p_sim.add_argument("--power", choices=("low", "high"), default="low")
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument(
        "--tau-experiment", action="store_true",
        help="also run the fixed/dynamic/learnt tau comparison on a "
        "train/test split of the repetitions",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="analyze an external count stream")
    p_an.add_argument("--design", required=True, help="experiment spec JSON")
    p_an.add_argument("--counts", required=True, help="counts CSV")
    p_an.add_argument("--tau", default="fixed:0.1",
                      help="fixed:VALUE | dynamic | learnt:FILE")
    p_an.add_argument("--alpha", type=float, default=0.05)
    p_an.add_argument("--method", choices=("hb", "mle"), default="hb")
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--out", required=True)
    p_an.set_defaults(func=cmd_analyze)

    p_lt = sub.add_parser("learn-tau", help="learn the effect-size dispersion")
    p_lt.add_argument("effects", help="effects CSV (delta,noise_sd) or a "
                      "results directory holding comparison CSVs")
    p_lt.add_argument("--method", default="hierarchical",
                      help="method filter when scanning a results directory")
    p_lt.add_argument("--seed", type=int, default=0)
    p_lt.add_argument("--out", required=True)
    p_lt.set_defaults(func=cmd_learn_tau)

    p_oc = sub.add_parser("oracle-check", help="run the closed-form "
                          "verification battery")
    p_oc.add_argument("--seed", type=int, default=20240501)
    p_oc.add_argument("--out", required=True)
    p_oc.add_argument("--corrupt", action="store_true",
                      help="negative control: perturb the closed form and "
                      "confirm the checks fail")
    p_oc.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # sampler or other runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
