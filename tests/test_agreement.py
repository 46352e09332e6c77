"""Agreement gate of the nested Laplace fit against NUTS, on the benchmark's
datasets (slow: ``pytest -m slow``).

The benchmark's references in ``bench/reference`` pool 8 NUTS runs per
dataset: cell-rate posterior means and sds, and the Monte-Carlo scale of
one run's mean (``mc_scale``, its standard error over the posterior sd).
Each dataset look is fitted here by ``glm.fit_laplace`` and compared with
them, z in the benchmark's own units (``checks.mc_z``): its gates are a
largest |z| of ``Z_MAX`` (8) and a root-mean-square z of ``Z_RMS_DESK`` (5)
at desk and ``Z_RMS_PAPER`` (3) at paper scale. Means are compared against
the mean's error, sds against an sd's (the mean's over sqrt 2). The
references hold no pair differences, so the variance of every within-context
pair difference is compared with the mean of ``NUTS_RUNS`` NUTS fits of the
same look, against a variance's error (sqrt 2 times the mean's, relative).
The separation input, one cell at 100 of 100 beside one at 0 of 100, must
either agree with a long NUTS fit or be sent to NUTS by its k-hat.
The files under ``bench`` are read, never written.
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH_DIR))

from checks import mc_z, z_summary  # noqa: E402
from workloads import (  # noqa: E402
    VARIANTS, WORKLOADS, Z_MAX, Z_RMS_DESK, Z_RMS_PAPER, count_stream, design_dict,
    load_reference)

from hbab.design import build_design_matrix, spec_from_dict  # noqa: E402
from hbab.estimate import hb_estimate  # noqa: E402
from hbab.glm import CountData, fit_laplace, fit_posterior  # noqa: E402
from hbab.seqtest import cell_differences  # noqa: E402
from hbab.sim import ANALYZE_SAMPLER  # noqa: E402
from tests.test_design import make_spec  # noqa: E402

NUTS_RUNS = 4


def z_row(label, z):
    worst, rms = z_summary(z)
    return f"{label} max|z| {worst:5.2f} rms {rms:5.2f}", worst, rms


def compare(name, z_rms_gate, looks, capsys):
    """Fit each (dataset, look, counts) of ``looks`` and gate it against the
    reference entry of the workload ``name``."""
    wl = WORKLOADS[name]
    ref = load_reference(name)
    spec = spec_from_dict(design_dict(wl.levels))
    X = build_design_matrix(spec, interaction_order=2)
    failures, lines = [], []
    for variant, i, look, counts in looks:
        entry = ref["variants"][str(variant)]
        fit = fit_laplace(counts, X, 1000 * variant + look)
        est = hb_estimate(fit.samples, X)
        sd = np.sqrt(est.variances)
        ref_mean, ref_sd = np.array(entry["mean"][i]), np.array(entry["sd"][i])
        scale = entry["mc_scale"]
        diff_var = cell_differences(spec, est)[1]
        nuts = [cell_differences(spec, hb_estimate(fit_posterior(
            counts, X, replace(ANALYZE_SAMPLER, seed=seed)), X))[1]
            for seed in range(NUTS_RUNS)]
        nuts_var = np.mean(nuts, axis=0)
        error = math.sqrt(1.0 + 1.0 / NUTS_RUNS) * math.sqrt(2.0) * scale
        rows = [
            z_row("mean", mc_z(est.means, ref_mean, ref_sd, scale, ref["runs"])),
            z_row("sd", math.sqrt(2.0) * mc_z(sd, ref_sd, ref_sd, scale, ref["runs"])),
            z_row("pair var", (diff_var - nuts_var) / (nuts_var * error)),
        ]
        r = fit.record
        lines.append(f"{name} dataset {variant} look {look}: k-hat {r.k_hat:.2f}, ESS "
                     f"{r.weight_ess:.0f}, nodes {r.nodes}; " + "; ".join(t for t, _, _ in rows))
        if not r.trusted or any(w > Z_MAX or rms > z_rms_gate for _, w, rms in rows):
            failures.append(lines[-1])
    with capsys.disabled():
        print("\n" + "\n".join(lines))
    assert not failures


@pytest.mark.slow
def test_desk_looks_agree_with_the_reference(capsys):
    wl = WORKLOADS["desk-analyze-hb"]
    looks = []
    for variant in range(VARIANTS):
        a, r = count_stream(wl.levels, wl.looks, wl.per_look, wl.index, variant)
        for i in range(wl.looks):
            looks.append((variant, i, i + 1, CountData(a * (i + 1), r[:i + 1].sum(axis=0))))
    compare(wl.name, Z_RMS_DESK, looks, capsys)


@pytest.mark.slow
def test_paper_looks_agree_with_the_reference(capsys):
    wl = WORKLOADS["paper-fit-hb"]
    looks = []
    for variant in range(VARIANTS):
        a, r = count_stream(wl.levels, wl.looks, wl.per_look, wl.index, variant)
        for i, look in enumerate(wl.fit_looks):
            looks.append((variant, i, look, CountData(a * look, r[:look].sum(axis=0))))
    compare(wl.name, Z_RMS_PAPER, looks, capsys)


@pytest.mark.slow
def test_separation_is_sent_to_nuts_or_agrees(capsys):
    X = build_design_matrix(make_spec([2], [2]))
    counts = CountData([100] * 4, [100, 0, 50, 50])
    fit = fit_laplace(counts, X, 1)
    laplace = hb_estimate(fit.samples, X)
    nuts = fit_posterior(counts, X, replace(ANALYZE_SAMPLER, chains=4, kept_draws=2000, seed=1))
    reference = hb_estimate(nuts, X)
    sd = np.sqrt(reference.variances)
    ess = nuts.diagnostics.effective_sample_size[:X.rows]
    z = (laplace.means - reference.means) / np.sqrt(sd**2 / ess + laplace.variances / 400)
    text, worst, rms = z_row("mean", z)
    with capsys.disabled():
        print(f"\nseparation: k-hat {fit.record.k_hat:.2f}, ESS {fit.record.weight_ess:.0f}, "
              f"trusted {fit.record.trusted}; against 4 x 2000 NUTS draws (min cell ESS "
              f"{ess.min():.0f}): {text}")
    assert not fit.record.trusted or (worst <= Z_MAX and rms <= Z_RMS_DESK)
