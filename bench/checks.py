"""Statistics the benchmark computes itself: cell rates from draws, split
R-hat, effective sample size, and Monte-Carlo agreement with a reference.

They are written here rather than taken from ``hbab.sampler`` so that a
change to the program's diagnostics cannot move the benchmark's gates.
"""

from __future__ import annotations

import math

import numpy as np


def cell_rates(draws: np.ndarray, labels, X: np.ndarray) -> np.ndarray:
    """Cell response rates [draws, chains, cells] from natural-scale draws
    labelled beta[j] ... epsilon, as ``fit_posterior`` returns them."""
    labels = list(labels)
    beta = [j for j, lab in enumerate(labels) if lab.startswith("beta[")]
    eps = draws[..., labels.index("epsilon")]
    eta = draws[..., beta] @ X.T + eps[..., None]
    return 1.0 / (1.0 + np.exp(-eta))


def split_rhat(x: np.ndarray) -> np.ndarray:
    """Split R-hat per column of x [draws, chains, k]."""
    n = x.shape[0]
    half = n // 2
    split = np.concatenate([x[:half], x[half: 2 * half]], axis=1)
    w = split.var(axis=0, ddof=1).mean(axis=0)
    b = half * split.mean(axis=0).var(axis=0, ddof=1)
    var_plus = (half - 1) / half * w + b / half
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(w > 0, np.sqrt(var_plus / w), 1.0)


def ess(x: np.ndarray) -> np.ndarray:
    """Effective sample size per column of x [draws, chains, k]: multi-chain
    autocorrelation with Geyer's initial positive, monotone pair sums."""
    n, m, _ = x.shape
    chain_mean = x.mean(axis=0)
    w = x.var(axis=0, ddof=1).mean(axis=0)
    var_plus = (n - 1) / n * w
    if m > 1:
        var_plus = var_plus + chain_mean.var(axis=0, ddof=1)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x - chain_mean, size, axis=0)
    acov = np.fft.irfft(f * np.conj(f), size, axis=0)[:n].mean(axis=1) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = 1.0 - (w - acov) / var_plus
    rho[0] = 1.0
    pairs = (n - 1) // 2
    sums = rho[0: 2 * pairs: 2] + rho[1: 2 * pairs: 2]
    positive = np.cumprod(sums >= 0, axis=0).astype(bool)
    sums = np.minimum.accumulate(np.where(positive, sums, 0.0), axis=0)
    tau = np.maximum(2.0 * sums.sum(axis=0) - 1.0, 1.0 / (n * m))
    return np.where(var_plus > 0, n * m / tau, float(n * m))


def mc_z(means, ref_mean, ref_sd, mc_scale: float, runs: int) -> np.ndarray:
    """z-scores of observed means against a reference.

    The Monte-Carlo standard error of one run's mean is the posterior sd
    times ``mc_scale``, measured from independent reference runs; the
    reference mean of ``runs`` such runs adds its own error.
    """
    se = np.asarray(ref_sd) * mc_scale * math.sqrt(1.0 + 1.0 / runs)
    return (np.asarray(means, dtype=float) - np.asarray(ref_mean)) / se


def z_summary(z) -> tuple[float, float]:
    """Largest |z| and root-mean-square z."""
    z = np.asarray(z, dtype=float)
    return float(np.max(np.abs(z))), float(np.sqrt(np.mean(z**2)))


def summarise_runs(means: np.ndarray, sds: np.ndarray) -> dict:
    """Reference entry from independent runs: means and sds [runs, ...].

    ``mc_scale`` pools, over every entry, the ratio of the between-run
    variance of the mean to the posterior variance."""
    ref_sd = sds.mean(axis=0)
    ratio = means.var(axis=0, ddof=1) / ref_sd**2
    return {
        "mean": means.mean(axis=0).tolist(),
        "sd": ref_sd.tolist(),
        "mc_scale": float(math.sqrt(ratio.mean())),
    }


def leave_one_out_z(means: np.ndarray, sds: np.ndarray) -> tuple[float, float]:
    """Largest |z| and largest rms z that any reference run gets against the
    other runs' reference, one look at a time; calibrates the gates."""
    worst, worst_rms = 0.0, 0.0
    for j in range(means.shape[0]):
        keep = np.arange(means.shape[0]) != j
        ref = summarise_runs(means[keep], sds[keep])
        z = mc_z(means[j], ref["mean"], ref["sd"], ref["mc_scale"], int(keep.sum()))
        for look_z in z.reshape(-1, z.shape[-1]):
            top, rms = z_summary(look_z)
            worst, worst_rms = max(worst, top), max(worst_rms, rms)
    return worst, worst_rms
