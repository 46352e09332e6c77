"""Simulation-based calibration of the nested Laplace fit (Talts, Betancourt,
Simpson, Vehtari & Gelman, arXiv 1804.06788, 2018).

Each fit draws the parameters from the model's priors and the counts from
its likelihood at the desk design (16 cells), then fits them with
``glm.fit_laplace``. Where the fit is calibrated, the rank of each true
quantity among its posterior draws is uniform. The ranks of the 16 cell
logits and of log sigma go in 10 bins, and each quantity's bins are tested
with a chi-square at 9 df against its 99% point, 21.7.

The priors are ``glm``'s prior constants, which the generator and the fit
both read. The tighter test prior (mu ~ N(0, 0.1^2), sigma ~
HalfCauchy(0.2)) keeps the cells in the regime of the scenarios; under the
model's own priors most draws saturate every desk cell.

What the tier-1 run (100 fits at each traffic level) can miss: for one
quantity, a chi-square at 9 df over 100 ranks detects only half the time a
posterior sd 25% too narrow or 40% too wide, or a posterior mean shifted by
0.37 posterior sd, and nearly never errors of 10-20% in the sd or 0.2 sd in
the mean; 400 fits detect 20-30% in the sd and 0.3 sd in the mean half the
time or more (normal-theory power of the test). It sees each quantity's
marginal calibration only, so an error in the correlation of two cells,
which sets a pair difference's variance, goes unseen, and it averages over
the prior, so a miscalibration confined to rare data (separated cells) can
hide in the average. With 17 quantities, each at 1%, a calibrated fit fails
some quantity in about one run of six by chance.
"""

import math

import numpy as np
import pytest

from hbab import glm as glm_module
from hbab.design import build_design_matrix
from hbab.glm import CountData, fit_laplace
from hbab.sim import desk_scenario

CHI2_99_9DF = 21.67
BINS = 10
DESK_X = build_design_matrix(desk_scenario().spec, interaction_order=2)


def sbc(fits: int, per_cell: int, seed: int):
    """Ranks [fits, 17] of the true cell logits and log sigma among each
    fit's draws, the draws per fit, and the fits' records."""
    X, P = DESK_X, DESK_X.cols
    rng = np.random.default_rng(seed)
    ranks, records = [], []
    for i in range(fits):
        mu = rng.normal(glm_module._MU_PRIOR_MEAN, glm_module._MU_PRIOR_SD)
        sigma = glm_module._SIGMA_SCALE * abs(rng.standard_cauchy())
        logits = X.matrix @ (mu + sigma * rng.standard_normal(P)) + rng.standard_normal()
        assignments = np.full(X.rows, per_cell)
        _, rates = glm_module._softplus_and_sigmoid(logits)
        counts = CountData(assignments, rng.binomial(assignments, rates))
        fit = fit_laplace(counts, X, seed * 1000 + i)
        draws = fit.samples.flat()
        fitted = np.c_[draws[:, :P] @ X.matrix.T + draws[:, -1:], np.log(draws[:, P + 1])]
        ranks.append((fitted < np.r_[logits, math.log(sigma)]).sum(axis=0))
        records.append(fit.record)
    return np.array(ranks), draws.shape[0], records


def chi_square(ranks: np.ndarray, draws: int) -> np.ndarray:
    """Chi-square of each column of ranks in 0..draws over ``BINS`` bins."""
    counts = np.array([np.bincount(column * BINS // (draws + 1), minlength=BINS)
                       for column in ranks.T])
    expected = ranks.shape[0] / BINS
    return ((counts - expected) ** 2 / expected).sum(axis=1)


@pytest.fixture
def test_prior(monkeypatch):
    monkeypatch.setattr(glm_module, "_MU_PRIOR_SD", 0.1)
    monkeypatch.setattr(glm_module, "_SIGMA_SCALE", 0.2)


@pytest.mark.parametrize("per_cell", [10, 30])
def test_ranks_are_uniform_under_the_test_prior(test_prior, per_cell):
    ranks, draws, _ = sbc(100, per_cell, seed=per_cell)
    chi2 = chi_square(ranks, draws)
    assert chi2.max() < CHI2_99_9DF, np.round(chi2, 1)


@pytest.mark.slow
@pytest.mark.parametrize("per_cell", [10, 30])
def test_400_fits_under_the_test_prior(test_prior, per_cell, capsys):
    ranks, draws, records = sbc(400, per_cell, seed=100 + per_cell)
    chi2 = chi_square(ranks, draws)
    with capsys.disabled():
        print(f"\n{per_cell} a cell: untrusted {sum(not r.trusted for r in records)} of 400, "
              f"chi-square {np.round(chi2, 1).tolist()}")
    assert chi2.max() < CHI2_99_9DF, np.round(chi2, 1)


# Under the model's own priors the Laplace fits as a whole may be
# miscalibrated; k-hat must then send at least this share to NUTS, which
# leaves fewer fits kept than the 50 whose calibration is tested.
MIN_FALLBACK_SHARE = 0.9


@pytest.mark.slow
@pytest.mark.parametrize("per_cell", [10, 30])
def test_fits_kept_under_the_models_priors(per_cell, capsys):
    # Most prior draws saturate every desk cell. Where the ranks of every
    # fit fail the chi-square, k-hat must flag nearly all of them; where at
    # least 50 fits are kept, those must be calibrated.
    ranks, draws, records = sbc(400, per_cell, seed=200 + per_cell)
    kept = np.array([r.trusted for r in records])
    everything = chi_square(ranks, draws)
    with capsys.disabled():
        print(f"\n{per_cell} a cell: fallback share {1 - kept.mean():.3f}, chi-square of "
              f"every fit {np.round(everything, 1).tolist()}")
    if everything.max() >= CHI2_99_9DF:
        assert 1 - kept.mean() >= MIN_FALLBACK_SHARE, np.round(everything, 1)
    if kept.sum() >= 50:
        assert chi_square(ranks[kept], draws).max() < CHI2_99_9DF
