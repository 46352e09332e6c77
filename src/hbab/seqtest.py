"""Sequential hypothesis testing on pairwise estimate differences.

Each content pair within a context is tested by a Bayes factor comparing
two accounts of the observed difference: a null in which the true
difference is zero and the observation is pure sampling noise, and an
alternative in which the true difference is itself Normal(0, tau). Both
are Gaussian in the observation, so the factor is a ratio of two normal
densities evaluated at the observed difference. Inverting the factor gives
an always-valid sequential p-value; the running minimum over updates is
the reported evidence and needs no post hoc multiple-comparison
correction, because shrinkage in the estimator already damps spurious
differences.

The kernel works on whole arrays: ``cell_differences`` turns one
``CellEstimates`` record (per-cell means and variances, and the ``[cells,
draws]`` matrix of draw-based estimates) into the difference summary of
every pair, and ``sequential_trace`` folds ``[updates, pairs]`` summaries
into Bayes factors and running p-values; re-scoring stored traces under
another tau is one more ``sequential_trace`` call. ``last_informative``
gives each pair's final difference as the tests carry it, without tracing
them. ``run_all_comparisons`` is a per-pair list view of the kernel. The
tests fold ``log_bayes_factor`` over one pair at a time as the reference
the kernel must match bit for bit, so the kernel applies log, exp and
squaring element by element through the same libm calls: numpy's
vectorised forms can differ from them in the last bit.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .design import (
    ExperimentSpec,
    comparison_cells,
    enumerate_cells,
    enumerate_comparisons,
)
from .estimate import CellEstimates

__all__ = [
    "TauSpec",
    "ComparisonResult",
    "SequentialTrace",
    "bayes_factor",
    "log_bayes_factor",
    "cell_differences",
    "sequential_trace",
    "last_informative",
    "run_all_comparisons",
]

_MAX_LOG_K = 709.0  # exp saturates just below the double-precision ceiling
_DYNAMIC_TAU_FLOOR = 1e-8  # keeps a dynamic alternative distinct from the null
_DRAW_BLOCK = 1 << 13  # draw differences held at once (64 KB)
_LIBM_BLOCK = 1 << 12  # elements held as Python floats at once


@dataclass(frozen=True)
class TauSpec:
    """How the alternative's effect-size variance tau is chosen.

    fixed: a constant; dynamic: the squared observed difference, floored at
    1e-8 so the hypotheses never coincide exactly; learnt: a value taken
    from a meta-analysis of past experiments.
    """

    kind: str
    value: float | None = None

    def __post_init__(self):
        if self.kind not in ("fixed", "dynamic", "learnt"):
            raise ValueError(f"unknown tau kind {self.kind!r}")
        if self.kind in ("fixed", "learnt") and (
                isinstance(self.value, bool) or not isinstance(self.value, numbers.Real)
                or not 0 < self.value <= sys.float_info.max):
            raise ValueError(f"{self.kind} tau requires a finite positive number, "
                             f"got {self.value!r}")
        if self.kind == "dynamic" and self.value is not None:
            raise ValueError("dynamic tau takes no value; it follows each observed difference")

    @classmethod
    def fixed(cls, value: float) -> "TauSpec":
        return cls("fixed", value)

    @classmethod
    def dynamic(cls) -> "TauSpec":
        return cls("dynamic")

    @classmethod
    def learnt(cls, value: float) -> "TauSpec":
        return cls("learnt", value)


@dataclass(frozen=True, slots=True)
class ComparisonResult:
    """Running state of one pairwise test.

    p_min is the smallest sequential p-value seen so far and never
    increases; significance is judged against it.
    """

    context: tuple[int, ...]
    content_a: tuple[int, ...]
    content_b: tuple[int, ...]
    diff_mean: float = math.nan
    diff_var: float = math.nan
    bayes_factor: float = math.nan
    p_instant: float = 1.0
    p_min: float = 1.0
    significant: bool = False
    updates: int = 0


def log_bayes_factor(diff_mean: float, diff_var: float, tau: float) -> float:
    """log of Normal(d; 0, var+tau) / Normal(d; 0, var)."""
    if diff_var <= 0:
        raise ValueError("diff_var must be positive (degenerate estimate)")
    if tau <= 0:
        raise ValueError("tau must be positive")
    v, t, d2 = diff_var, tau, diff_mean**2
    return 0.5 * math.log(v / (v + t)) + d2 * t / (2.0 * v * (v + t))


def bayes_factor(diff_mean: float, diff_var: float, tau: float) -> float:
    """Evidence ratio for a real difference vs. none.

    Values near 1 mean no evidence either way; large values favor a
    difference. Saturates at exp(709) to stay finite; p-values are always
    derived from the exact log value.
    """
    return math.exp(min(log_bayes_factor(diff_mean, diff_var, tau), _MAX_LOG_K))


def cell_differences(
    spec: ExperimentSpec, estimates: CellEstimates
) -> tuple[np.ndarray, np.ndarray]:
    """Difference mean and variance of every pair of ``enumerate_comparisons``.

    With draws, each pair is differenced draw-wise (capturing the
    correlation of its two estimates); otherwise means are subtracted and
    variances added. Raises ``ValueError`` naming the first cell, in pair
    order, that a pair needs and that has no estimate (NaN mean).
    """
    a_idx, b_idx = comparison_cells(spec)
    means, variances, draws = estimates.means, estimates.variances, estimates.draws
    undefined = np.isnan(means)
    missing = undefined[a_idx] | undefined[b_idx]
    if missing.any():
        i = int(np.argmax(missing))
        cell = a_idx[i] if undefined[a_idx[i]] else b_idx[i]
        raise ValueError(
            f"no estimate for cell ({spec.describe_cell(enumerate_cells(spec)[cell])})"
        )
    if draws is None:
        return means[a_idx] - means[b_idx], variances[a_idx] + variances[b_idx]
    d = np.empty(a_idx.size)
    v = np.empty(a_idx.size)
    # Blocks of pairs keep the [pairs, draws] temporaries small.
    step = max(1, _DRAW_BLOCK // draws.shape[1])
    for s in range(0, a_idx.size, step):
        diffs = draws[a_idx[s:s + step]]
        diffs -= draws[b_idx[s:s + step]]
        d[s:s + step] = diffs.mean(axis=1)
        v[s:s + step] = diffs.var(axis=1, ddof=1)
    return d, v


def _libm(fn, x: np.ndarray, *args) -> np.ndarray:
    """``fn(element, *args)`` for every element of ``x`` as a Python float,
    ``_LIBM_BLOCK`` elements at a time: a whole trace's floats as Python
    objects took 32 bytes an element."""
    flat = x.ravel()
    out = np.empty(flat.size)
    for s in range(0, flat.size, _LIBM_BLOCK):
        block = flat[s:s + _LIBM_BLOCK].tolist()
        out[s:s + len(block)] = np.fromiter(
            map(fn, block, *(itertools.repeat(a) for a in args)), float, len(block))
    return out.reshape(x.shape)


def _square_or_inf(x: float) -> float:
    try:
        return pow(x, 2)
    except OverflowError:
        return math.inf


def _square(d: np.ndarray) -> np.ndarray:
    """pow(x, 2) for every element x, also where a finite x past about
    1.34e154 overflows it: there it is inf."""
    try:
        return _libm(pow, d, 2)
    except OverflowError:  # rare, so only then is each element guarded
        return _libm(_square_or_inf, d)


def _log_ratio(v: np.ndarray, vt: np.ndarray) -> np.ndarray:
    """log(v / vt), also where a tau past about 1e292 times v underflows the
    ratio to 0: there it is log(v) - log(vt)."""
    ratio = v / vt
    under = ratio == 0
    ratio[under] = 1.0
    log_ratio = _libm(math.log, ratio)
    log_ratio[under] = _libm(math.log, v[under]) - _libm(math.log, vt[under])
    return log_ratio


@dataclass(frozen=True)
class SequentialTrace:
    """Sequential tests over ``[updates, ...]`` arrays, one row per update.

    A pair whose difference variance is not positive at an update
    (``informative`` false) keeps its previous difference summary, so its
    factor and p_instant repeat and its p_min stays; before its first
    informative update all of these read NaN and p_min keeps its prior.
    """

    diff_mean: np.ndarray
    diff_var: np.ndarray
    informative: np.ndarray
    log_k: np.ndarray
    bayes_factor: np.ndarray
    p_instant: np.ndarray
    p_min: np.ndarray
    significant: np.ndarray


def sequential_trace(
    diff_mean: np.ndarray,
    diff_var: np.ndarray,
    tau_spec: TauSpec,
    alpha: float = 0.05,
    prior_p_min: np.ndarray | float = 1.0,
) -> SequentialTrace:
    """Fold per-update difference summaries into running tests.

    ``diff_mean`` and ``diff_var`` are indexed ``[update, ...]``; every
    entry is one update of one pair. ``prior_p_min`` is each pair's running
    minimum before the first row (1.0 for a fresh test).
    """
    raw_d = np.asarray(diff_mean, dtype=float)
    raw_v = np.asarray(diff_var, dtype=float)
    informative = raw_v > 0
    rows = np.arange(raw_v.shape[0]).reshape((-1,) + (1,) * (raw_v.ndim - 1))
    last = np.maximum.accumulate(np.where(informative, rows, -1), axis=0)
    seen = last >= 0
    d = np.where(seen, np.take_along_axis(raw_d, last.clip(0), axis=0), math.nan)
    v = np.where(seen, np.take_along_axis(raw_v, last.clip(0), axis=0), math.nan)

    d2 = _square(d)
    if tau_spec.kind == "dynamic":
        tau = np.maximum(d2, _DYNAMIC_TAU_FLOOR)
    else:
        tau = float(tau_spec.value)
    with np.errstate(over="ignore"):  # float arithmetic overflows to inf
        vt = v + tau
        log_k = 0.5 * _log_ratio(v, vt) + d2 * tau / (2.0 * v * vt)
    p_instant = _libm(math.exp, -np.maximum(log_k, 0.0))
    bf = _libm(math.exp, np.minimum(log_k, _MAX_LOG_K))

    start = np.broadcast_to(np.asarray(prior_p_min, dtype=float), raw_v.shape[1:])
    # fmin skips the NaN p_instant of pairs not yet informative.
    p_min = np.fmin.accumulate(np.concatenate([start[None], p_instant]), axis=0)[1:]
    return SequentialTrace(d, v, informative, log_k, bf, p_instant, p_min,
                           p_min < alpha)


def last_informative(
    diff_mean: np.ndarray, diff_var: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each pair's last difference mean and variance with a positive
    variance over the update axis 0 of ``[updates, ...]`` arrays, NaN for a
    pair that never had one: the final row of ``sequential_trace``'s
    ``diff_mean`` and ``diff_var``, which does not depend on tau."""
    diff_mean = np.asarray(diff_mean, dtype=float)
    diff_var = np.asarray(diff_var, dtype=float)
    informative = diff_var > 0
    if not informative.shape[0]:
        return np.full(diff_var.shape[1:], math.nan), np.full(diff_var.shape[1:], math.nan)
    # argmax finds each pair's first True in the reversed mask, a view.
    last = informative.shape[0] - 1 - np.argmax(informative[::-1], axis=0)
    seen = informative.any(axis=0)
    d = np.take_along_axis(diff_mean, last[None], axis=0)[0]
    v = np.take_along_axis(diff_var, last[None], axis=0)[0]
    return np.where(seen, d, math.nan), np.where(seen, v, math.nan)


def run_all_comparisons(
    estimates: CellEstimates,
    spec: ExperimentSpec,
    tau_spec: TauSpec,
    alpha: float = 0.05,
    prior: list[ComparisonResult] | None = None,
) -> list[ComparisonResult]:
    """Advance every pairwise test by one update.

    One result per pair from ``enumerate_comparisons``, in that order;
    pass the returned list back as ``prior`` on the next update. Draw-based
    estimates are differenced draw-wise (capturing their correlation);
    plain estimates use the difference of means and the sum of variances.
    A pair whose difference variance is exactly zero (degenerate counts) is
    carried forward unchanged for that update. A list view of
    ``cell_differences`` and ``sequential_trace``.
    """
    pairs = enumerate_comparisons(spec)
    if prior is not None and len(prior) != len(pairs):
        raise ValueError("prior state does not match the comparison enumeration")
    if len(estimates) != spec.n_cells:
        raise ValueError("need one estimate per cell")

    d, v = cell_differences(spec, estimates)
    if prior is None:
        prior = [ComparisonResult(ctx, a, b) for ctx, a, b in pairs]
    t = sequential_trace(d[None], v[None], tau_spec, alpha,
                         np.array([s.p_min for s in prior]))
    out = []
    for state, informative, dm, dv, k, p_inst, p_min, significant in zip(
        prior, *(a[0].tolist() for a in (t.informative, t.diff_mean, t.diff_var,
                                         t.bayes_factor, t.p_instant, t.p_min,
                                         t.significant)),
    ):
        if informative:
            state = ComparisonResult(state.context, state.content_a, state.content_b,
                                     dm, dv, k, p_inst, p_min, significant,
                                     state.updates + 1)
        out.append(state)
    return out

