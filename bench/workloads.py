"""The benchmark's workloads: seeded inputs, one timed unit, output checks.

Every input is generated here from the workload seed with numpy alone; no
program code (in particular not ``hbab.sim``) takes part, so a change to
the program cannot change another workload's inputs. The data of a run is
one of ``VARIANTS`` datasets, chosen by ``seed % VARIANTS``, because the
correctness references are committed per dataset; each dataset draws its
own true rates, as each repetition of the program's scenarios does, and its
own counts. Sampler seeds use the whole seed.

A unit is the smallest piece of work a run repeats: one ``hbab analyze``
command, one fitted look, or one ``simulate`` plus ``learn-tau`` pair. Only
the program calls inside a unit are timed; checks run outside the timing.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import shutil
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import cell_rates, mc_z, split_rhat, z_summary
from spans import span

BASE_SEED = 230714628
VARIANTS = 4
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Agreement gates in Monte-Carlo standard errors: the largest |z| of any
# cell here, and the root-mean-square z over the cells of one look per fit
# workload (``z_rms``); then the cell-rate split R-hat gate. NOTES.md records
# how they were calibrated.
Z_MAX = 8.0
Z_RMS_DESK = 5.0
Z_RMS_PAPER = 3.0
RHAT_GATE = 1.15

FACTORS = (
    ("title", "t", "content"),
    ("image", "i", "content"),
    ("country", "co", "context"),
    ("device", "d", "context"),
)
TAU = "fixed:0.1"
# Low-power interaction effects on the logit scale, as in the program's
# paper_scenario and desk_scenario (interaction_effect_mean and _sd).
EFFECT_MEAN = 0.2
EFFECT_SD = 0.2


def derived_seed(seed: int, *keys: int) -> int:
    """A 31-bit seed for a program call, unique per (seed, keys)."""
    state = np.random.SeedSequence(BASE_SEED, spawn_key=(seed, *keys))
    return int(state.generate_state(1)[0] >> 1)


def design_dict(levels: int) -> dict:
    return {"factors": [
        {"name": name, "role": role, "values": [f"{prefix}{j}" for j in range(levels)]}
        for name, prefix, role in FACTORS
    ]}


def cell_labels(levels: int) -> list[tuple[str, ...]]:
    """Cell labels in the program's enumeration order (last factor fastest)."""
    return [
        tuple(f"{prefix}{j}" for (_, prefix, _), j in zip(FACTORS, combo))
        for combo in itertools.product(range(levels), repeat=len(FACTORS))
    ]


def truth_rates(levels: int, workload_index: int, variant: int) -> np.ndarray:
    """True cell rates of one dataset, drawn the way the program's low-power
    scenarios draw one repetition's truth (``hbab.sim.generate_truth`` with
    ``paper_scenario``/``desk_scenario`` defaults), written here with numpy.

    Intercept and main effects are zero. The first half of the content
    combinations (the titles of index below ``levels // 2``) holds the effects:
    every title x image, title x country and title x device interaction of
    such a title gets a N(0.2, 0.2) logit coefficient. No other interaction
    touches only that half, so every other cell stays at rate one half.
    """
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(BASE_SEED, spawn_key=(workload_index, 0, variant))))
    h1 = levels // 2
    logit = np.zeros((levels,) * len(FACTORS))
    for axis in range(1, len(FACTORS)):  # the title's partner factor
        shape = [h1] + [1] * (len(FACTORS) - 1)
        shape[axis] = levels
        effects = rng.normal(EFFECT_MEAN, EFFECT_SD, (h1, levels))
        logit[:h1] += effects.reshape(shape)
    return 1.0 / (1.0 + np.exp(-logit.ravel()))


def count_stream(levels, looks, per_look, workload_index, variant):
    """Equal allocation per look (remainder to the first cells) and the
    binomial responses [looks, cells] of one dataset."""
    rates = truth_rates(levels, workload_index, variant)
    base, rem = divmod(per_look, rates.size)
    a = np.full(rates.size, base, dtype=np.int64)
    a[:rem] += 1
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(BASE_SEED, spawn_key=(workload_index, 1, variant))))
    return a, rng.binomial(a, rates, size=(looks, rates.size)).astype(np.int64)


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def numeric_block(rows, cols, path) -> np.ndarray:
    values = np.array([[float(r[c]) for c in cols] for r in rows])
    if not np.isfinite(values).all():
        raise CheckFailed(f"{path.name}: non-finite values")
    return values


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class CheckFailed(Exception):
    """A program output that is missing, malformed or wrong."""


def check_agreement(z, z_rms: float) -> str:
    """Cell-rate means of one look against the reference, in MC-SE."""
    worst, rms = z_summary(z)
    if not (worst <= Z_MAX and rms <= z_rms):
        raise CheckFailed(f"cell-rate means off the reference: max |z| {worst:.2f} "
                          f"(gate {Z_MAX}), rms z {rms:.2f} (gate {z_rms})")
    return f"max |z| {worst:.2f}, rms z {rms:.2f}"


@dataclass
class UnitResult:
    """What one unit did: operations attempted and failed, looks completed
    by successful operations, and the program's own time."""

    attempted: int = 0
    failed: int = 0
    looks: int = 0
    seconds: float = 0.0
    commands: int = 0
    output_bytes: int = 0
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def op(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(error)


def call_cli(argv, tracer=None):
    """Run one ``hbab`` command in this process; returns (exit code, seconds).

    The program's stdout goes to stderr, so this process's stdout carries
    only the benchmark's report. A raised exception is reported as its
    message in place of an exit code.
    """
    import hbab.cli

    with span(tracer, "cli.main"), redirect_stdout(sys.stderr):
        t0 = time.perf_counter()
        try:
            rc = hbab.cli.main([str(a) for a in argv])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the unit must record the failure and go on
            rc = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return rc, seconds


# ------------------------------------------------------------ desk-analyze-hb


class DeskAnalyze:
    """``hbab analyze --method hb`` on a 16-cell counts CSV of several looks."""

    name = "desk-analyze-hb"
    index = 0
    levels = 2
    looks = 3
    per_look = 160  # desk low-power traffic
    z_rms = Z_RMS_DESK

    def inputs(self, seed: int) -> dict[str, bytes]:
        a, r = count_stream(self.levels, self.looks, self.per_look, self.index,
                            seed % VARIANTS)
        design = json.dumps(design_dict(self.levels), indent=2, sort_keys=True) + "\n"
        lines = ["update," + ",".join(n for n, _, _ in FACTORS) + ",assignments,responses"]
        for u in range(self.looks):
            for k, labels in enumerate(cell_labels(self.levels)):
                lines.append(f"{u + 1},{','.join(labels)},{a[k]},{r[u, k]}")
        return {"design.json": design.encode(), "counts.csv": ("\n".join(lines) + "\n").encode()}

    def prepare(self, seed: int, workdir: Path) -> dict:
        import hbab.cli  # noqa: F401  (import cost belongs to set-up)

        for name, data in self.inputs(seed).items():
            (workdir / name).write_bytes(data)
        return {"seed": seed, "variant": seed % VARIANTS, "workdir": workdir}

    def analyze(self, state, seed: int, out: Path, tracer=None):
        w = state["workdir"]
        return call_cli(["analyze", "--design", w / "design.json", "--counts",
                         w / "counts.csv", "--method", "hb", "--tau", TAU,
                         "--seed", seed, "--out", out], tracer)

    def read_estimates(self, out: Path):
        """Cell-rate posterior means and sds [looks, cells] from estimates.csv."""
        path = out / "estimates.csv"
        header, rows = read_csv(path)
        names = [n for n, _, _ in FACTORS]
        if header != ["update", *names, "method", "mean", "variance"]:
            raise CheckFailed(f"estimates.csv: unexpected header {header}")
        cells = cell_labels(self.levels)
        expected = [(str(u + 1), *c) for u in range(self.looks) for c in cells]
        if [tuple(r[:5]) for r in rows] != expected:
            raise CheckFailed("estimates.csv: wrong rows or row order")
        values = numeric_block(rows, (6, 7), path)
        shape = (self.looks, len(cells))
        return values[:, 0].reshape(shape), np.sqrt(values[:, 1]).reshape(shape)

    def check(self, state, out: Path) -> list[str]:
        means, _ = self.read_estimates(out)
        contents = self.levels ** 2
        pairs = contents * (contents - 1) // 2
        for name, rows_per_look, cols in (
            ("marginal_estimates.csv", contents, (4, 5)),
            ("comparisons.csv", (contents + 1) * pairs, (4, 5, 6, 7, 8)),
        ):
            _, rows = read_csv(out / name)
            if len(rows) != self.looks * rows_per_look:
                raise CheckFailed(f"{name}: {len(rows)} rows, expected "
                                  f"{self.looks * rows_per_look}")
            numeric_block(rows, cols, out / name)
        ref = load_reference(self.name)
        entry = ref["variants"][str(state["variant"])]
        z = mc_z(means, entry["mean"], entry["sd"], entry["mc_scale"], ref["runs"])
        return [f"look {u + 1}: {check_agreement(look_z, self.z_rms)}"
                for u, look_z in enumerate(z)]

    def run_unit(self, state, index: int, tracer=None) -> UnitResult:
        res = UnitResult(commands=1)
        out = state["workdir"] / f"analyze-{index}"
        rc, res.seconds = self.analyze(state, derived_seed(state["seed"], 0, index),
                                       out, tracer)
        error = None if rc == 0 else f"analyze exited {rc}"
        if error is None:
            try:
                res.notes += self.check(state, out)
            except (CheckFailed, OSError, ValueError) as exc:
                error = f"analyze: {exc}"
        res.op(error)
        if out.exists():
            res.output_bytes = tree_bytes(out)
            shutil.rmtree(out)
        if error is None:
            res.looks = self.looks
        return res


# --------------------------------------------------------------- paper-fit-hb


class PaperFit:
    """The library path at paper scale: ``fit_posterior`` -> ``hb_estimate``
    -> ``run_all_comparisons(prior=...)`` over the last looks of a stream."""

    name = "paper-fit-hb"
    index = 1
    levels = 4
    looks = 30
    per_look = 2500
    fit_looks = (28, 29, 30)
    sampler = {"chains": 2, "warmup_draws": 250, "kept_draws": 150, "max_tree_depth": 8}
    z_rms = Z_RMS_PAPER

    def inputs(self, seed: int) -> dict[str, bytes]:
        a, r = count_stream(self.levels, self.looks, self.per_look, self.index,
                            seed % VARIANTS)
        return {"assignments.int64": a.tobytes(), "responses.int64": r.tobytes()}

    def prepare(self, seed: int, workdir: Path) -> dict:
        import hbab
        from hbab.design import spec_from_dict

        raw = self.inputs(seed)
        a = np.frombuffer(raw["assignments.int64"], dtype=np.int64)
        r = np.frombuffer(raw["responses.int64"], dtype=np.int64).reshape(self.looks, -1)
        spec = spec_from_dict(design_dict(self.levels))
        return {
            "seed": seed,
            "variant": seed % VARIANTS,
            "spec": spec,
            "X": hbab.build_design_matrix(spec, interaction_order=2),
            "tau": hbab.TauSpec.fixed(0.1),
            "cum_a": np.outer(np.arange(1, self.looks + 1), a),
            "cum_r": np.cumsum(r, axis=0),
            "states": {},
        }

    def fit_look(self, state, look: int, seed: int, prior=None):
        import hbab

        data = hbab.CountData(state["cum_a"][look - 1], state["cum_r"][look - 1])
        config = hbab.SamplerConfig(**self.sampler, seed=seed)
        samples = hbab.fit_posterior(data, state["X"], config)
        estimates = hbab.hb_estimate(samples, state["X"])
        states = hbab.run_all_comparisons(estimates, state["spec"], state["tau"],
                                          prior=prior)
        return samples, estimates, states

    def check(self, state, look: int, samples, estimates, states) -> str:
        draws = np.asarray(samples.draws)
        if not np.isfinite(draws).all():
            raise CheckFailed("non-finite draws")
        n_cells = state["spec"].n_cells
        if len(estimates) != n_cells:
            raise CheckFailed(f"{len(estimates)} estimates for {n_cells} cells")
        contents = self.levels ** 2
        n_pairs = (n_cells // contents) * contents * (contents - 1) // 2
        p_min = np.array([s.p_min for s in states], dtype=float)
        if len(states) != n_pairs or not np.all((p_min >= 0) & (p_min <= 1)):
            raise CheckFailed("comparison states missing or p_min outside [0, 1]")
        rhat = float(split_rhat(cell_rates(draws, samples.parameter_labels,
                                           state["X"].matrix)).max())
        if not rhat <= RHAT_GATE:
            raise CheckFailed(f"cell-rate split R-hat {rhat:.3f} > {RHAT_GATE}")
        ref = load_reference(self.name)
        entry = ref["variants"][str(state["variant"])]
        i = self.fit_looks.index(look)
        agreement = check_agreement(mc_z([e.mean for e in estimates], entry["mean"][i],
                                         entry["sd"][i], entry["mc_scale"], ref["runs"]),
                                    self.z_rms)
        return f"look {look}: {agreement}, cell-rate R-hat {rhat:.3f}"

    def run_unit(self, state, index: int, tracer=None) -> UnitResult:
        res = UnitResult()
        look = self.fit_looks[index % len(self.fit_looks)]
        prior = state["states"].get(look - 1)
        t0 = time.perf_counter()
        try:
            with span(tracer, "bench.look"):
                out = self.fit_look(state, look, derived_seed(state["seed"], 1, index), prior)
        except Exception as exc:  # a failed look is counted, the run goes on
            res.seconds = time.perf_counter() - t0
            res.op(f"look {look} raised {type(exc).__name__}: {exc}")
            return res
        res.seconds = time.perf_counter() - t0
        try:
            res.notes.append(self.check(state, look, *out))
            error = None
        except (CheckFailed, ValueError, AttributeError, TypeError) as exc:
            error = f"look {look}: {exc}"
        res.op(error)
        if error is None:
            res.looks = 1
            state["states"][look] = out[2]
        return res


# --------------------------------------------------------- paper-simulate-mle


class PaperSimulateMle:
    """``hbab simulate --scale paper`` with the MLE estimator only, then
    ``hbab learn-tau`` on its output."""

    name = "paper-simulate-mle"
    index = 2
    repetitions = 4
    updates = 30  # paper scale

    def inputs(self, seed: int) -> dict[str, bytes]:
        config = {"methods": ["mle"], "repetitions": self.repetitions}
        return {"config.json": (json.dumps(config, sort_keys=True) + "\n").encode()}

    def sim_seed(self, variant: int) -> int:
        return derived_seed(variant, 2)

    def prepare(self, seed: int, workdir: Path) -> dict:
        import hbab.cli  # noqa: F401  (import cost belongs to set-up)

        for name, data in self.inputs(seed).items():
            (workdir / name).write_bytes(data)
        variant = seed % VARIANTS
        return {"seed": seed, "variant": variant, "workdir": workdir,
                "sim_seed": self.sim_seed(variant)}

    def simulate(self, state, out: Path, tracer=None):
        return call_cli(["simulate", "--scale", "paper", "--power", "low",
                         "--seed", state["sim_seed"], "--config",
                         state["workdir"] / "config.json", "--out", out], tracer)

    def learn(self, sim_out: Path, seed: int, out: Path, tracer=None):
        return call_cli(["learn-tau", sim_out, "--method", "mle", "--seed", seed,
                         "--out", out], tracer)

    @staticmethod
    def read_learnt(out: Path) -> dict:
        with open(out / "learnt_tau.json", encoding="utf-8") as fh:
            payload = json.load(fh)
        return {"n_effects": payload["n_effects"],
                "posterior_mean": payload["posterior_mean"],
                "median": payload["quantiles"]["50"]}

    def check_simulate(self, entry, out: Path) -> None:
        for name in ("metrics.csv", "decisions.csv"):
            if file_sha256(out / name) != entry[name]:
                raise CheckFailed(f"{name} differs from the reference")

    def check_learnt(self, ref, entry, out: Path) -> str:
        got = self.read_learnt(out)
        if got["n_effects"] != entry["n_effects"]:
            raise CheckFailed(f"learn-tau read {got['n_effects']} effects, "
                              f"expected {entry['n_effects']}")
        notes = []
        for key in ("posterior_mean", "median"):
            z, _ = z_summary(mc_z([got[key]], [entry[key]["mean"]], [entry[key]["sd"]],
                                  1.0, ref["learn_runs"]))
            if not math.isfinite(got[key]) or z > Z_MAX:
                raise CheckFailed(f"learnt tau {key} {got[key]:.6g} is {z:.2f} "
                                  "MC-SE from the reference")
            notes.append(f"{key} |z| {z:.2f}")
        return "learnt tau " + ", ".join(notes)

    def run_unit(self, state, index: int, tracer=None) -> UnitResult:
        res = UnitResult(commands=2)
        ref = load_reference(self.name)
        entry = ref["variants"][str(state["variant"])]
        sim_out = state["workdir"] / f"simulate-{index}"
        tau_out = state["workdir"] / f"learn-tau-{index}"
        rc, res.seconds = self.simulate(state, sim_out, tracer)
        error = None if rc == 0 else f"simulate exited {rc}"
        if error is None:
            try:
                self.check_simulate(entry, sim_out)
            except (CheckFailed, OSError) as exc:
                error = f"simulate: {exc}"
        res.op(error)
        if rc == 0:
            rc, seconds = self.learn(sim_out, derived_seed(state["seed"], 2, index),
                                     tau_out, tracer)
            res.seconds += seconds
            error = None if rc == 0 else f"learn-tau exited {rc}"
            if error is None:
                try:
                    res.notes.append(self.check_learnt(ref, entry, tau_out))
                except (CheckFailed, OSError, KeyError, ValueError) as exc:
                    error = f"learn-tau: {exc}"
            res.op(error)
        else:
            res.op("learn-tau not run: simulate failed")
        for out in (sim_out, tau_out):
            if out.exists():
                res.output_bytes += tree_bytes(out)
                shutil.rmtree(out)
        if res.failed == 0:
            res.looks = self.repetitions * self.updates
        return res


WORKLOADS = {w.name: w for w in (DeskAnalyze(), PaperFit(), PaperSimulateMle())}
