#!/usr/bin/env python3
"""Build the correctness references under bench/reference/ from the program.

    python3 bench/make_reference.py

For every workload and every one of the ``VARIANTS`` datasets this runs the
workload's program calls ``RUNS`` times with independent sampler seeds, in
``WORKERS`` processes:

* fits (desk-analyze-hb, paper-fit-hb): the mean over runs of each cell's
  posterior mean, the posterior sd, and the Monte-Carlo scale measured
  between runs; also the leave-one-out |z| that calibrates ``Z_MAX`` and each
  workload's ``z_rms`` and, for paper-fit-hb, quantiles over fits of the
  largest cell-rate split R-hat (``RHAT_GATE``);
* paper-simulate-mle: the SHA-256 of ``metrics.csv`` and ``decisions.csv``
  (which must match exactly) and the mean and sd of the learnt tau over
  ``learn-tau`` runs with independent seeds.

The references define "correct" for later changes, so rebuild them only
on purpose and say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from checks import cell_rates, leave_one_out_z, split_rhat, summarise_runs  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_DIR, VARIANTS, WORKLOADS, derived_seed, file_sha256)

WORK_DIR = BENCH_DIR / "_work"
REFERENCE_SEED = 900_000  # reference runs use seeds no benchmark run derives
RUNS = 8
WORKERS = 2


def _desk_job(args):
    variant, run = args
    wl = WORKLOADS["desk-analyze-hb"]
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        state = wl.prepare(variant, Path(tmp))
        rc, _ = wl.analyze(state, derived_seed(REFERENCE_SEED + run, 0, variant),
                           Path(tmp) / "out")
        if rc != 0:
            raise RuntimeError(f"analyze exited {rc}")
        return wl.read_estimates(Path(tmp) / "out")


def _paper_job(args):
    variant, run = args
    wl = WORKLOADS["paper-fit-hb"]
    state = wl.prepare(variant, WORK_DIR)  # writes no files
    means, sds, rhats, prior = [], [], [], None
    for look in wl.fit_looks:
        samples, estimates, prior = wl.fit_look(
            state, look, derived_seed(REFERENCE_SEED + run, 1, variant, look), prior)
        means.append([e.mean for e in estimates])
        sds.append([e.variance ** 0.5 for e in estimates])
        rates = cell_rates(samples.draws, samples.parameter_labels, state["X"].matrix)
        rhats.append(float(split_rhat(rates).max()))
    return np.array(means), np.array(sds), rhats


def _simulate_job(args):
    variant, runs = args
    wl = WORKLOADS["paper-simulate-mle"]
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        tmp = Path(tmp)
        state = wl.prepare(variant, tmp)
        rc, _ = wl.simulate(state, tmp / "sim")
        if rc != 0:
            raise RuntimeError(f"simulate exited {rc}")
        entry = {name: file_sha256(tmp / "sim" / name)
                 for name in ("metrics.csv", "decisions.csv")}
        learnt = []
        for run in range(runs):
            out = tmp / f"tau-{run}"
            rc, _ = wl.learn(tmp / "sim", derived_seed(REFERENCE_SEED + run, 2, variant), out)
            if rc != 0:
                raise RuntimeError(f"learn-tau exited {rc}")
            learnt.append(wl.read_learnt(out))
    entry["n_effects"] = learnt[0]["n_effects"]
    for key in ("posterior_mean", "median"):
        values = np.array([x[key] for x in learnt])
        entry[key] = {"mean": float(values.mean()), "sd": float(values.std(ddof=1))}
    return entry


def build(name: str, runs: int, pool) -> dict:
    ref = {"workload": name, "runs": runs, "variants": {}}
    if name == "paper-simulate-mle":
        ref = {"workload": name, "learn_runs": runs, "variants": {}}
        for v, entry in enumerate(pool.map(_simulate_job, [(v, runs) for v in range(VARIANTS)])):
            ref["variants"][str(v)] = entry
        return ref

    job = _desk_job if name == "desk-analyze-hb" else _paper_job
    results = pool.map(job, [(v, r) for v in range(VARIANTS) for r in range(runs)])
    loo, loo_rms, rhats = 0.0, 0.0, []
    for v in range(VARIANTS):
        chunk = results[v * runs: (v + 1) * runs]
        means = np.array([c[0] for c in chunk])
        sds = np.array([c[1] for c in chunk])
        ref["variants"][str(v)] = summarise_runs(means, sds)
        top, rms = leave_one_out_z(means, sds)
        loo, loo_rms = max(loo, top), max(loo_rms, rms)
        if name == "paper-fit-hb":
            rhats += [r for c in chunk for r in c[2]]
    ref["leave_one_out_max_z"] = loo
    ref["leave_one_out_max_rms_z"] = loo_rms
    if name == "paper-fit-hb":
        q = np.quantile(rhats, [0.5, 0.9, 0.99, 1.0])
        ref["cell_rhat_max_per_fit"] = dict(zip(("median", "q90", "q99", "max"), q.tolist()))
    return ref


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    WORK_DIR.mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    with multiprocessing.get_context("spawn").Pool(WORKERS) as pool:
        for name in WORKLOADS:
            ref = build(name, RUNS, pool)
            path = REFERENCE_DIR / f"{name}.json"
            path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
            summary = {k: v for k, v in ref.items() if k != "variants"}
            print(f"{path.name}: {summary}", flush=True)
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass  # a benchmark run is still using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
