"""Hooks for the traced run, and the per-layer metrics computed from them.

Each hook replaces a public callable of the program where its callers look
it up (a module attribute or a class attribute) with a wrapper that records
a span, a folded span or a counter, and puts the original back afterwards.
A hook whose target no longer exists is skipped; every metric that needs it
is then reported as absent (``None``). The end-to-end run installs nothing.
"""

from __future__ import annotations

import dataclasses
import importlib
import statistics
from dataclasses import dataclass

import numpy as np

from checks import cell_rates, ess, split_rhat


@dataclass(frozen=True)
class Hook:
    name: str
    kind: str
    sites: tuple[str, ...]


HOOKS = (
    Hook("glm.fit_posterior", "fit", ("hbab:fit_posterior", "hbab.glm:fit_posterior",
                                      "hbab.cli:fit_posterior", "hbab.sim:fit_posterior")),
    Hook("glm.density", "density", ("hbab.glm:make_target",)),
    Hook("sampler.sample", "sample", ("hbab.glm:sample",)),
    Hook("sampler.leapfrog", "leapfrog", ("hbab.sampler:leapfrog",)),
    Hook("sampler.split_r_hat", "diagnostic", ("hbab.sampler:split_r_hat",)),
    Hook("sampler.effective_sample_size", "diagnostic",
         ("hbab.sampler:effective_sample_size",)),
    Hook("estimate.hb_estimate", "span", ("hbab:hb_estimate", "hbab.estimate:hb_estimate",
                                          "hbab.cli:hb_estimate", "hbab.sim:hb_estimate")),
    Hook("estimate.marginalize", "span", ("hbab:marginalize", "hbab.estimate:marginalize",
                                          "hbab.cli:marginalize")),
    Hook("estimate.mle_estimates", "span", ("hbab.estimate:mle_estimates",
                                            "hbab.cli:mle_estimates", "hbab.sim:mle_estimates")),
    Hook("seqtest.run_all_comparisons", "compare",
         ("hbab:run_all_comparisons", "hbab.seqtest:run_all_comparisons",
          "hbab.cli:run_all_comparisons", "hbab.sim:run_all_comparisons")),
    Hook("seqtest.log_bayes_factor", "count", ("hbab.seqtest:log_bayes_factor",
                                               "hbab.cli:log_bayes_factor")),
    Hook("design.cell_index", "fold", ("hbab.design:ExperimentSpec.cell_index",)),
    Hook("sim.run_scenario", "span", ("hbab:run_scenario", "hbab.sim:run_scenario",
                                      "hbab.cli:run_scenario")),
    Hook("sim.run_repetition", "span", ("hbab:run_repetition", "hbab.sim:run_repetition")),
    Hook("sim.score", "span", ("hbab:score", "hbab.sim:score", "hbab.cli:score")),
    Hook("metaprior.learn_tau", "learn", ("hbab:learn_tau", "hbab.metaprior:learn_tau",
                                          "hbab.cli:learn_tau")),
    Hook("metaprior.density", "density", ("hbab.metaprior:tau_target",)),
)


@dataclass
class FitRecord:
    """What a traced ``fit_posterior`` call leaves for the sampler metrics."""

    draws: np.ndarray
    labels: tuple
    X: np.ndarray
    density_calls: int
    divergences: float | None


class Tracing:
    """Installed hooks plus what they recorded beyond spans."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.fits: list[FitRecord] = []
        self.present: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> "Tracing":
        for hook in HOOKS:
            for site in hook.sites:
                module_name, _, path = site.partition(":")
                try:
                    owner = importlib.import_module(module_name)
                    *parents, attr = path.split(".")
                    for part in parents:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    continue
                if not callable(original):
                    continue
                setattr(owner, attr, self._wrap(hook, original))
                self._restore.append((owner, attr, original))
                self.present.add(hook.name)
        return self

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- wrappers

    def _wrap(self, hook: Hook, original):
        tracer = self.tracer
        name = hook.name

        def timed(*args, **kwargs):
            frame = tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(frame)

        def folded(*args, **kwargs):
            frame = tracer.open(name, keep=False)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(frame)

        if hook.kind == "span":
            return timed
        if hook.kind == "fold":
            return folded
        if hook.kind == "count":
            def counted(*args, **kwargs):
                tracer.count(name)
                return original(*args, **kwargs)
            return counted
        if hook.kind == "leapfrog":
            def leapfrog(*args, **kwargs):
                if tracer.inside("sampler.sample"):
                    tracer.count(name)
                return original(*args, **kwargs)
            return leapfrog
        if hook.kind == "diagnostic":
            def diagnostic(*args, **kwargs):
                if tracer.inside("glm.fit_posterior") or tracer.inside("sampler.sample"):
                    return folded(*args, **kwargs)
                return original(*args, **kwargs)
            return diagnostic
        if hook.kind == "density":
            return self._wrap_target_factory(name, original)
        if hook.kind == "sample":
            def sample(*args, **kwargs):
                config = args[1] if len(args) > 1 else kwargs.get("config")
                try:
                    tracer.count("sampler.transitions", config.chains
                                 * (config.warmup_draws + config.kept_draws))
                except AttributeError:
                    tracer.count("sampler.transitions_unknown")
                return timed(*args, **kwargs)
            return sample
        if hook.kind == "compare":
            def compare(*args, **kwargs):
                result = timed(*args, **kwargs)
                tracer.count("seqtest.pair_updates", len(result))
                return result
            return compare
        if hook.kind == "learn":
            def learn(*args, **kwargs):
                effects = args[0] if args else kwargs.get("effects", ())
                tracer.count("metaprior.effects", len(effects))
                return timed(*args, **kwargs)
            return learn
        if hook.kind == "fit":
            return self._wrap_fit(original, timed)
        raise ValueError(f"unknown hook kind {hook.kind!r}")

    def _wrap_target_factory(self, name, factory):
        """Wrap the density of every target the factory builds."""
        tracer = self.tracer

        def make(*args, **kwargs):
            target = factory(*args, **kwargs)
            density = target.log_density_and_grad

            def traced(z):
                frame = tracer.open(name, keep=False)
                try:
                    return density(z)
                finally:
                    tracer.close(frame)

            try:
                return dataclasses.replace(target, log_density_and_grad=traced)
            except TypeError:
                tracer.count(f"{name}.unwrapped")
                return target

        return make

    def _wrap_fit(self, original, timed):
        tracer = self.tracer
        fits = self.fits

        def fit_posterior(*args, **kwargs):
            before = density_calls(tracer)
            samples = timed(*args, **kwargs)
            try:
                X = args[1] if len(args) > 1 else kwargs["X"]
                divergences = getattr(getattr(samples, "diagnostics", None),
                                      "divergence_count", None)
                fits.append(FitRecord(np.asarray(samples.draws),
                                      tuple(samples.parameter_labels),
                                      np.asarray(X.matrix),
                                      density_calls(tracer) - before, divergences))
            except (AttributeError, IndexError, KeyError):
                tracer.count("glm.fit_posterior.unreadable")
            return samples

        return fit_posterior


def density_calls(tracer) -> int:
    agg = tracer.aggregates.get("glm.density")
    return agg.calls if agg else 0


# ------------------------------------------------------------------ metrics

# (name, unit, better, hooks it needs). The units and directions are the
# ones BENCHMARK.json lists under per_layer.
LAYER_METRICS = (
    ("glm.density_calls", "count", "lower", ("glm.density", "glm.fit_posterior")),
    ("glm.density_us", "us", "lower", ("glm.density",)),
    ("glm.density_share", "ratio", "lower", ("glm.density", "sampler.sample")),
    ("sampler.fit_s", "s", "lower", ("glm.fit_posterior",)),
    ("sampler.leapfrogs_per_transition", "count", "lower",
     ("sampler.leapfrog", "sampler.sample")),
    ("sampler.overhead_us_per_leapfrog", "us", "lower",
     ("sampler.leapfrog", "sampler.sample", "glm.density")),
    ("sampler.diagnostics_s", "s", "lower",
     ("sampler.split_r_hat", "sampler.effective_sample_size", "glm.fit_posterior")),
    ("sampler.divergences", "count", "lower", ("glm.fit_posterior",)),
    ("sampler.cell_ess_min", "count", "higher", ("glm.fit_posterior",)),
    ("sampler.cell_rhat_max", "ratio", "lower", ("glm.fit_posterior",)),
    ("sampler.grads_per_cell_ess", "count", "lower", ("glm.fit_posterior", "glm.density")),
    ("estimate.hb_estimate_s", "s", "lower", ("estimate.hb_estimate",)),
    ("estimate.marginalize_s", "s", "lower", ("estimate.marginalize",)),
    ("seqtest.compare_s", "s", "lower", ("seqtest.run_all_comparisons",)),
    ("seqtest.pair_updates_per_s", "1/s", "higher", ("seqtest.run_all_comparisons",)),
    ("seqtest.bf_evals", "count", "lower", ("seqtest.log_bayes_factor",)),
    ("design.cell_index_calls", "count", "lower", ("design.cell_index",)),
    ("design.cell_index_s", "s", "lower", ("design.cell_index",)),
    ("sim.repetition_s", "s", "lower", ("sim.run_repetition",)),
    ("sim.self_s", "s", "lower", ("sim.run_repetition", "sim.run_scenario")),
    ("sim.score_s", "s", "lower", ("sim.score",)),
    ("metaprior.learn_tau_s", "s", "lower", ("metaprior.learn_tau",)),
    ("metaprior.effects", "count", "lower", ("metaprior.learn_tau",)),
    ("metaprior.density_calls", "count", "lower",
     ("metaprior.density", "metaprior.learn_tau")),
    ("cli.self_s", "s", "lower", ()),
    ("cli.output_bytes", "bytes", "lower", ()),
    ("trace.overhead_share", "ratio", "lower", ()),
)


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 where the layer did no work in this workload."""
    return num / den if den else 0.0


def _fit_statistics(fits: list[FitRecord]) -> dict:
    if not fits:
        return {"ess": 0.0, "rhat": 0.0, "grads": 0.0, "div": 0.0}
    ess_min, rhat_max, grads = [], [], []
    for fit in fits:
        rates = cell_rates(fit.draws, fit.labels, fit.X)
        cell_ess = float(ess(rates).min())
        ess_min.append(cell_ess)
        rhat_max.append(float(split_rhat(rates).max()))
        grads.append(_ratio(fit.density_calls, cell_ess))
    divergences = [f.divergences for f in fits if f.divergences is not None]
    return {
        "ess": statistics.median(ess_min),
        "rhat": max(rhat_max),
        "grads": statistics.median(grads),
        "div": statistics.mean(divergences) if divergences else None,
    }


def layer_metrics(tracing: Tracing, work: dict) -> dict:
    """Per-layer metrics of the traced units.

    ``work`` holds what the traced units completed: looks, commands,
    output_bytes, and the traced and untraced seconds of the
    same units. Counts and totals are per look, per fit, per command or
    per repetition as NOTES.md lists; timings ending in ``_s`` are per
    call of the named function.
    """
    tracer = tracing.tracer
    t = tracer.totals()
    c = tracer.counters

    def calls(name):
        return t[name].calls if name in t else 0

    def total(name):
        return t[name].total if name in t else 0.0

    def self_time(name):
        return t[name].self_time if name in t else 0.0

    fits = len(tracing.fits)
    leapfrogs = c.get("sampler.leapfrog", 0)
    fit_stats = _fit_statistics(tracing.fits)
    diagnostics = total("sampler.split_r_hat") + total("sampler.effective_sample_size")
    values = {
        "glm.density_calls": _ratio(calls("glm.density"), calls("sampler.sample")),
        "glm.density_us": 1e6 * _ratio(self_time("glm.density"), calls("glm.density")),
        "glm.density_share": _ratio(total("glm.density"), total("sampler.sample")),
        "sampler.fit_s": _ratio(total("glm.fit_posterior"), fits),
        "sampler.leapfrogs_per_transition": _ratio(leapfrogs, c.get("sampler.transitions", 0)),
        "sampler.overhead_us_per_leapfrog": 1e6 * _ratio(self_time("sampler.sample"), leapfrogs),
        "sampler.diagnostics_s": _ratio(diagnostics, fits),
        "sampler.divergences": fit_stats["div"],
        "sampler.cell_ess_min": fit_stats["ess"],
        "sampler.cell_rhat_max": fit_stats["rhat"],
        "sampler.grads_per_cell_ess": fit_stats["grads"],
        "estimate.hb_estimate_s": _ratio(total("estimate.hb_estimate"), calls("estimate.hb_estimate")),
        "estimate.marginalize_s": _ratio(total("estimate.marginalize"), calls("estimate.marginalize")),
        "seqtest.compare_s": _ratio(total("seqtest.run_all_comparisons"),
                                    calls("seqtest.run_all_comparisons")),
        "seqtest.pair_updates_per_s": _ratio(c.get("seqtest.pair_updates", 0),
                                             total("seqtest.run_all_comparisons")),
        "seqtest.bf_evals": _ratio(c.get("seqtest.log_bayes_factor", 0), work["looks"]),
        "design.cell_index_calls": _ratio(calls("design.cell_index"), work["looks"]),
        "design.cell_index_s": _ratio(total("design.cell_index"), work["looks"]),
        "sim.repetition_s": _ratio(total("sim.run_repetition"), calls("sim.run_repetition")),
        "sim.self_s": _ratio(self_time("sim.run_repetition") + self_time("sim.run_scenario"),
                             calls("sim.run_repetition")),
        "sim.score_s": _ratio(total("sim.score"), calls("sim.score")),
        "metaprior.learn_tau_s": _ratio(total("metaprior.learn_tau"), calls("metaprior.learn_tau")),
        "metaprior.effects": _ratio(c.get("metaprior.effects", 0), calls("metaprior.learn_tau")),
        "metaprior.density_calls": _ratio(calls("metaprior.density"), calls("metaprior.learn_tau")),
        "cli.self_s": _ratio(self_time("cli.main"), work["commands"]),
        "cli.output_bytes": _ratio(work["output_bytes"], work["commands"]),
        "trace.overhead_share": _ratio(work["traced_s"] - work["untraced_s"], work["untraced_s"]),
    }
    return {
        name: {"value": None if any(h not in tracing.present for h in needs)
               else values[name], "unit": unit}
        for name, unit, _, needs in LAYER_METRICS
    }
