"""Gradient-based MCMC engine: No-U-Turn sampling with adaptation.

Self-contained numpy implementation of dynamic Hamiltonian Monte Carlo:
multinomial sampling over a doubling trajectory with a U-turn stopping
rule, dual-averaging step-size adaptation toward a target acceptance
statistic, and a dense metric set at the end of each warmup window.
Chains draw from counter-based random substreams spawned off the master
seed, so results are bit-reproducible for a given seed and config and one
chain's stream never depends on how many chains run.

Warmup follows Stan's scheme of a step-only initial buffer, metric windows
that double in length and a step-only tail, with a short buffer: 25
transitions, a first window of 25 draws and a 50-transition tail, so 250
warmup draws set metrics after transitions 50, 100 and 200. A run without a
start begins at a random point on the identity metric. There a
rank-deficient hierarchical fit needs a tiny step and runs nearly every
trajectory to the depth cap; the buffer only has to bring the chain near
the posterior bulk, since the curvature supplies most of the first metric.
A curvature metric at a random starting point does not work: there many
cell logits are saturated and the stiff directions are missed. So the
hierarchical model never samples that way: ``glm.fit_posterior`` starts
every fit from draws of a nested Laplace approximation (below).

The metric (inverse mass matrix) starts as the identity. At each window
end it is rebuilt from the window's ``n`` draws and the curvature of the
log density at their mean: the negative Hessian, from central differences
of the target's own gradient (``2 * dim`` density calls). The metric's axes
are the curvature's eigenvectors, and along each the variance is
``a * s + (1 - a) / c`` with ``a = n / (n + dim)``, where ``s`` is the
window variance along the axis and ``c`` the curvature. Axes of
non-positive curvature take the window variance alone, no axis gets more
from the curvature than the window's widest direction, and where the
Hessian is not finite the metric is the window covariance, shrunk slightly
toward the identity. The curvature's axes follow the long, thin, correlated
ridges of rank-deficient designs that a diagonal metric cannot. The window
supplies the spread along them that the curvature at one point misses
where the posterior is not Gaussian, as in the funnel of a sparse
hierarchical fit. The window's covariance across the axes is left out: a
window of 100 draws cannot estimate it in 100+ dimensions, and in a funnel
it holds only where the window happened to be.

A good metric allows long steps in the bulk of the posterior, and dual
averaging tunes the step there. Where the posterior narrows, as in the
high-sigma neck of a non-centred hierarchical fit, such a step makes the
integrator unstable, and a chain that wanders in rejects nearly every
trajectory until it finds its way out. So the kept step is also bounded by
the curvature at the stiffest warmup states: a few, picked by their
whitened gradients, each probed with a Hessian (``2 * dim`` density calls).
A chain started in the bulk visits few states outside it during warmup, so
a started run also picks from the pooled draws of its start.

A run's ``start`` is a function of a random generator that returns draws
[n, dim] in the sampler's own coordinates, with ``n`` above the chain count.
Chain ``c`` starts at draw ``c``, on a first metric built by the window
rule above from the remaining draws, pooled, and the target's curvature at
their mean. It drops the first window end, so 250 warmup draws set metrics
after transitions 100 and 200; the buffer, the tail, the step search and
the step bound are a cold run's. What this skips is the identity-metric
phase, which costs a cold run about 40% of its density calls. The
generator draws from the seed's stream after the chains': the child of a
spawn of one more than the chains, so each chain's stream is the same with
or without a start. The hierarchical model's start is ``chains`` plus 300
independent draws of its nested Laplace approximation, so its chains start
dispersed, and their split R-hat checks that they have forgotten where
they started. A sequential test fits every look this way, independently.
``sample`` runs ``start``, and the first metric, in the processes that run
the chains, once in each, so the calling process holds none of their
working memory.

Chains share no state, so a fit runs them at the same time with
``fork_map``: over one forked process per chain, up to the CPUs the
process may use. The children inherit the target (often a closure, which
cannot be pickled), and the draws, the diagnostics and any exception are
those of running the chains one after another. ``fork_map`` also runs
``sim.run_scenario``'s repetitions over ``HBAB_WORKERS`` processes. A map
inside a worker process runs serially, so a fit in a repetition worker
runs its chains one after another: the repetitions already fill the CPUs.
A fork copies only the calling thread, so a lock that another thread of
the caller holds at that moment stays held in the workers; the mapped
function must not need one.

Every fit runs at one BLAS thread: ``sample`` sets OpenBLAS to one thread
for its whole run, on the serial and the forked path alike (forked workers
inherit the setting), and puts the process's count back when it returns.
The thread count changes how OpenBLAS splits a matrix product and so the
rounding of its sums, and at paper scale the draws; at one thread a seed
draws the same at any CPU count or ``OPENBLAS_NUM_THREADS`` on the same BLAS
build, and chain processes do not oversubscribe the CPUs with ``nproc``
BLAS threads each. The setting is process-wide, so calls in several
threads share one scope: the first to enter sets one thread and the last
to leave restores the count. Where no OpenBLAS thread setter is found,
fits run at the process's count, as ``fit_blas_threads`` reports.

Split R-hat and effective sample size are vectorised over columns of
draws [n_draws, n_chains, *k], a block of columns at a time.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache, wraps
from typing import Callable

import numpy as np

__all__ = [
    "TargetDensity",
    "SamplerConfig",
    "Diagnostics",
    "PosteriorSamples",
    "Summary",
    "sample",
    "posterior_summary",
    "split_r_hat",
    "effective_sample_size",
    "leapfrog",
    "available_cpus",
    "fork_processes",
    "fork_map",
    "fit_blas_threads",
]

_DIVERGENCE_THRESHOLD = 1000.0
_MASS_FLOOR = 1e-10
_FD_STEP = 1e-4  # central-difference step, in posterior standard deviations
_PROBES = 4  # warmup states whose curvature bounds the kept step
_STABLE_STEP = 1.2  # bound on step * sqrt(stiffest whitened curvature)
# Mean acceptance statistic that warmup tunes the step size to. Above the
# usual 0.8: the dense metric's longer steps otherwise stall more often in
# the narrow high-sigma neck of sparse hierarchical fits.
TARGET_ACCEPT = 0.9
# Columns per diagnostic pass. An FFT over every column of a paper-scale fit
# at once holds about 6 MB of transforms, 16 columns about 0.4 MB; 32 still
# raised a desk-scale run's peak RSS by about 1 MB.
_COLUMN_BLOCK = 16
# Diverging trajectories and trial steps can throw a state far enough to
# overflow the density or the kinetic energy. A non-finite energy rejects
# the step or ends the trajectory as a divergence, so there the overflow
# is expected, not an error.
_EXPECTED_OVERFLOW = {"over": "ignore", "invalid": "ignore"}


@dataclass(frozen=True)
class TargetDensity:
    """An unnormalized log density on R^dim with gradient.

    ``log_density_and_grad(x)`` returns ``(logp, grad)``; both must be
    finite wherever the sampler is expected to travel, and each call must
    return a fresh gradient array (the engine holds references).
    """

    dim: int
    log_density_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]]
    labels: tuple[str, ...] | None = None


@dataclass(frozen=True)
class SamplerConfig:
    chains: int = 4
    warmup_draws: int = 500
    kept_draws: int = 500
    max_tree_depth: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("chains", "warmup_draws", "kept_draws", "max_tree_depth"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        if self.chains < 1:
            raise ValueError("need at least one chain")
        if self.kept_draws < 100:
            raise ValueError("kept_draws must be >= 100 for diagnostic validity")
        if self.warmup_draws < 0 or self.max_tree_depth < 1:
            raise ValueError("invalid warmup_draws or max_tree_depth")


@dataclass(frozen=True)
class Diagnostics:
    """Split R-hat and effective sample size of each quantity named in
    ``quantities``, in that order, plus divergent kept transitions and
    warnings. ``sample`` reports its own coordinates; a model can report
    the quantities its estimates are built from instead."""

    quantities: tuple[str, ...]
    split_r_hat: np.ndarray
    effective_sample_size: np.ndarray
    divergence_count: int
    warnings: tuple[str, ...] = ()

    @classmethod
    def of(cls, values, quantities, divergences, warnings=()) -> "Diagnostics":
        """Diagnostics of ``values`` [draws, chains, len(quantities)]."""
        if values.shape[2:] != (len(quantities),):
            raise ValueError(
                f"values of shape {values.shape} do not hold {len(quantities)} quantities"
            )
        return cls(tuple(quantities), split_r_hat(values), effective_sample_size(values),
                   divergences, tuple(warnings))


@dataclass(frozen=True)
class PosteriorSamples:
    """Kept draws with shape [kept_draws, chains, dim] plus diagnostics.

    ``gradient_evaluations`` counts each chain's density-and-gradient
    calls, wherever the chain ran, those at a start's pooled draws for the
    kept step's bound among them; the calls that build a start and its
    first metric are the run's, not a chain's, and are not counted.
    """

    draws: np.ndarray
    parameter_labels: tuple[str, ...]
    diagnostics: Diagnostics
    gradient_evaluations: tuple[int, ...] = ()

    def flat(self) -> np.ndarray:
        """All chains pooled: [kept_draws * chains, dim]."""
        k, c, d = self.draws.shape
        return self.draws.reshape(k * c, d)

    def parameter_index(self, label: str) -> int:
        try:
            return self.parameter_labels.index(label)
        except ValueError:
            raise ValueError(f"unknown parameter {label!r}") from None

    def parameter_draws(self, label: str) -> np.ndarray:
        return self.flat()[:, self.parameter_index(label)]


@dataclass(frozen=True)
class Summary:
    mean: float
    sd: float
    q2_5: float
    median: float
    q97_5: float


def leapfrog(fn, q, p, grad, step, inv_mass):
    """One leapfrog step of Hamiltonian dynamics.

    ``inv_mass`` is the metric, a dense [dim, dim] inverse mass matrix.
    Returns (q, p, grad, logp) after the step; symplectic and reversible up
    to floating-point rounding, which the integrator tests rely on.
    """
    p_half = p + 0.5 * step * grad
    q_new = q + step * (inv_mass @ p_half)
    logp_new, grad_new = fn(q_new)
    p_new = p_half + 0.5 * step * grad_new
    return q_new, p_new, grad_new, logp_new


def _kinetic(p, inv_mass):
    """Kinetic energy and velocity ``inv_mass @ p`` of momentum ``p``."""
    velocity = inv_mass @ p
    return 0.5 * float(p @ velocity), velocity


def _logaddexp(a, b):
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def _find_reasonable_step(fn, q, logp, grad, inv_mass, mass_factor, rng):
    """Coarse step-size search: double/halve until one leapfrog step has
    acceptance probability near 1/2."""
    step = 1.0
    p = mass_factor @ rng.standard_normal(q.size)
    h0 = -logp + _kinetic(p, inv_mass)[0]
    _, p1, _, logp1 = leapfrog(fn, q, p, grad, step, inv_mass)
    h1 = -logp1 + _kinetic(p1, inv_mass)[0]
    delta = h0 - h1 if math.isfinite(h1) else -math.inf
    direction = 1.0 if delta > math.log(0.5) else -1.0
    for _ in range(100):
        if direction * delta <= -direction * math.log(2.0):
            break
        step *= 2.0**direction
        _, p1, _, logp1 = leapfrog(fn, q, p, grad, step, inv_mass)
        h1 = -logp1 + _kinetic(p1, inv_mass)[0]
        delta = h0 - h1 if math.isfinite(h1) else -math.inf
    return step


class _DualAveraging:
    """Nesterov dual averaging of log step size toward a target acceptance."""

    def __init__(self, initial_step, target_accept, gamma=0.05, t0=10.0, kappa=0.75):
        self.mu = math.log(10.0 * initial_step)
        self.target = target_accept
        self.gamma, self.t0, self.kappa = gamma, t0, kappa
        self.log_step = math.log(initial_step)
        self.log_step_bar = 0.0
        self.h_bar = 0.0
        self.count = 0

    def update(self, accept_stat):
        self.count += 1
        frac = 1.0 / (self.count + self.t0)
        self.h_bar = (1 - frac) * self.h_bar + frac * (self.target - accept_stat)
        raw = self.mu - math.sqrt(self.count) / self.gamma * self.h_bar
        self.log_step = min(max(raw, -708.0), 708.0)
        eta = self.count**-self.kappa
        self.log_step_bar = eta * self.log_step + (1 - eta) * self.log_step_bar

    @property
    def step(self):
        return math.exp(self.log_step)

    @property
    def adapted_step(self):
        return math.exp(self.log_step_bar)


@dataclass(slots=True)
class _Tree:
    # ends[0] is the backward end and ends[1] the forward end, each
    # (q, p, v, grad) with the velocity v = M^-1 p for the U-turn check.
    ends: list
    q_prop: np.ndarray
    grad_prop: np.ndarray
    logp_prop: float
    log_sum_w: float
    sum_alpha: float
    n_alpha: int
    turning: bool
    diverged: bool


def _is_turning(ends):
    (q_minus, _, v_minus, _), (q_plus, _, v_plus, _) = ends
    dq = q_plus - q_minus
    return float(dq @ v_minus) < 0 or float(dq @ v_plus) < 0


def _build_tree(fn, depth, end, side, step, inv_mass, h0, rng):
    """Grow ``2**depth`` leapfrog steps from ``end``, the tree's end on
    ``side``: forward in time from ``ends[1]``, backward from ``ends[0]``."""
    if depth == 0:
        q, p, _, grad = end
        q1, p1, grad1, logp1 = leapfrog(fn, q, p, grad, (2 * side - 1) * step, inv_mass)
        kinetic, v1 = _kinetic(p1, inv_mass)
        h1 = -logp1 + kinetic
        # A non-finite density or gradient (the latter through p1) leaves h1
        # non-finite, which ends the trajectory as a divergence.
        delta_h = h1 - h0 if math.isfinite(h1) else math.inf
        diverged = delta_h > _DIVERGENCE_THRESHOLD
        log_w = -math.inf if diverged else -delta_h
        alpha = 0.0 if diverged else (1.0 if delta_h <= 0 else math.exp(-delta_h))
        leaf = (q1, p1, v1, grad1)
        return _Tree([leaf, leaf], q1, grad1, logp1, log_w, alpha, 1, False, diverged)

    inner = _build_tree(fn, depth - 1, end, side, step, inv_mass, h0, rng)
    if inner.diverged or inner.turning:
        return inner
    outer = _build_tree(fn, depth - 1, inner.ends[side], side, step, inv_mass, h0, rng)
    inner.ends[side] = outer.ends[side]

    inner.sum_alpha += outer.sum_alpha
    inner.n_alpha += outer.n_alpha
    inner.diverged = outer.diverged
    if not outer.diverged:
        total = _logaddexp(inner.log_sum_w, outer.log_sum_w)
        # Multinomial draw among the subtree's valid states.
        if math.log(rng.uniform()) < outer.log_sum_w - total:
            inner.q_prop, inner.grad_prop, inner.logp_prop = (
                outer.q_prop, outer.grad_prop, outer.logp_prop)
        inner.log_sum_w = total
        inner.turning = outer.turning or _is_turning(inner.ends)
    return inner


def _nuts_transition(fn, q, logp, grad, step, inv_mass, mass_factor, max_depth, rng):
    p0 = mass_factor @ rng.standard_normal(q.size)
    kinetic, v0 = _kinetic(p0, inv_mass)
    h0 = -logp + kinetic

    ends = [(q, p0, v0, grad)] * 2
    q_prop, grad_prop, logp_prop = q, grad, logp
    log_sum_w = 0.0
    sum_alpha, n_alpha = 0.0, 0
    diverged = False

    for depth in range(max_depth):
        side = int(rng.uniform() < 0.5)
        tree = _build_tree(fn, depth, ends[side], side, step, inv_mass, h0, rng)
        ends[side] = tree.ends[side]

        sum_alpha += tree.sum_alpha
        n_alpha += tree.n_alpha
        if tree.diverged:
            diverged = True
            break
        if tree.turning:
            break
        # Biased progressive sampling: favor the fresh half of the trajectory.
        if math.log(rng.uniform()) < tree.log_sum_w - log_sum_w:
            q_prop, grad_prop, logp_prop = tree.q_prop, tree.grad_prop, tree.logp_prop
        log_sum_w = _logaddexp(log_sum_w, tree.log_sum_w)
        if _is_turning(ends):
            break

    accept_stat = sum_alpha / n_alpha if n_alpha > 0 else 0.0
    return q_prop, logp_prop, grad_prop, accept_stat, diverged


def _adaptation_windows(warmup):
    """(step-only head, list of metric-window end indices).

    A 25-transition head, windows doubling from 25 draws (the last one
    stretched to the tail) and a 50-transition step-only tail, all scaled
    down when warmup is shorter than their sum.
    """
    if warmup < 20:
        return warmup, []
    init_buffer, term_buffer, base_window = 25, 50, 25
    if warmup < init_buffer + term_buffer + base_window:
        scale = warmup / (init_buffer + term_buffer + base_window)
        init_buffer = max(1, int(init_buffer * scale))
        term_buffer = max(1, int(term_buffer * scale))
        base_window = warmup - init_buffer - term_buffer
    ends = []
    start, size = init_buffer, base_window
    while start + size <= warmup - term_buffer:
        if start + 3 * size > warmup - term_buffer:
            size = warmup - term_buffer - start
        ends.append(start + size)
        start += size
        size *= 2
    return init_buffer, ends


def _neg_hessian(fn, x, h):
    """Negative Hessian of the log density at ``x`` from central differences
    of the gradient, step ``h[j]`` along coordinate ``j``; None if it is not
    finite there."""
    dim = x.size
    hess = np.empty((dim, dim))
    for j in range(dim):
        shift = np.zeros(dim)
        shift[j] = h[j]
        logp_hi, grad_hi = fn(x + shift)
        logp_lo, grad_lo = fn(x - shift)
        if not (math.isfinite(logp_hi) and math.isfinite(logp_lo)):
            return None
        hess[j] = (grad_hi - grad_lo) / (2.0 * h[j])
    if not np.isfinite(hess).all():
        return None
    return -0.5 * (hess + hess.T)


def _fd_steps(cov):
    """Central-difference steps of ``_FD_STEP`` standard deviations."""
    sd = np.sqrt(np.diag(cov))
    return _FD_STEP * np.where(sd > 0, sd, 1.0)


def _window_metric(fn, window):
    """Dense inverse mass matrix from one adaptation window's draws.

    Its axes are the curvature's at the window mean. Along each axis the
    variance blends the window's with the inverse curvature, weighted by
    the window's ``n`` draws against ``dim``; the window's covariance across
    axes is left out.
    """
    n, dim = window.shape
    mean = window.mean(axis=0)
    centered = window - mean
    cov = centered.T @ centered / max(n - 1, 1)
    neg_hess = _neg_hessian(fn, mean, _fd_steps(cov))
    if neg_hess is None:
        # Sample covariance alone, shrunk toward a small multiple of the
        # identity so that a short window still gives a positive definite metric.
        w = n / (n + 5.0)
        return w * cov + (1 - w) * 1e-3 * np.eye(dim)
    curvature, axes = np.linalg.eigh(neg_hess)
    window_var = np.einsum("ji,jk,ki->i", axes, cov, axes)
    # Axes of non-positive curvature take the window variance alone. A nearly
    # flat spot at the mean would claim more spread than the whole window
    # shows, and a step small enough for it stalls the chain, so no axis gets
    # more from the curvature than the window's widest direction.
    curved_var = window_var.copy()
    positive = curvature > 0
    curved_var[positive] = np.minimum(1.0 / curvature[positive], np.linalg.eigvalsh(cov)[-1])
    a = n / (n + dim)
    var = np.maximum(a * window_var + (1 - a) * curved_var, _MASS_FLOOR)
    return (axes * var) @ axes.T


def _stable_step(fn, visited, inv_mass):
    """Largest step that keeps leapfrog well inside its stability limit at
    the stiffest of the ``visited`` warmup states (q, grad), or inf.

    The whitened squared gradient ``g @ inv_mass @ g`` of a state has the
    trace of the whitened curvature there as its expectation, so the states
    where it is largest are where the posterior is narrowest for the metric,
    such as the neck of a funnel. At the ``_PROBES`` largest, the stiffest
    whitened curvature ``c`` bounds the step by ``_STABLE_STEP / sqrt(c)``.
    A step adapted to the bulk alone is too long there, and a chain that
    wanders in rejects nearly every trajectory until it finds its way out.
    """
    chol = np.linalg.cholesky(inv_mass)
    grads = np.array([g for _, g in visited])
    stiffness = np.einsum("ij,jk,ik->i", grads, inv_mass, grads)
    h = _fd_steps(inv_mass)
    stiffest = 0.0
    for k in np.argsort(stiffness)[-_PROBES:]:
        neg_hess = _neg_hessian(fn, visited[k][0], h)
        if neg_hess is not None:
            stiffest = max(stiffest, np.linalg.eigvalsh(chol.T @ neg_hess @ chol)[-1])
    return _STABLE_STEP / math.sqrt(stiffest) if stiffest > 0 else math.inf


def _momentum_factor(inv_mass):
    """K with K @ K.T = inv(inv_mass): K @ z is a momentum draw."""
    return np.linalg.inv(np.linalg.cholesky(inv_mass)).T


def _run_chain(target, config, chain_seed, start=None):
    """(kept draws, divergent kept transitions, density calls) of one chain.

    A cold chain (``start`` None) starts at a uniform draw from [-1, 1]^dim
    on the identity metric. A started chain starts at ``start = (position,
    metric, pooled)`` and drops the first window end, whose only job is to
    leave the identity metric; its first window runs on to the second end.
    The kept step's bound also weighs the ``pooled`` states.
    """
    calls = 0

    def fn(x):
        nonlocal calls
        calls += 1
        return target.log_density_and_grad(x)

    dim = target.dim
    rng = np.random.Generator(np.random.Philox(chain_seed))
    init_buffer, window_ends = _adaptation_windows(config.warmup_draws)
    pooled = ()
    if start is None:
        q = rng.uniform(-1.0, 1.0, dim)
        inv_mass = mass_factor = np.eye(dim)
    else:
        q, inv_mass, pooled = start
        mass_factor = _momentum_factor(inv_mass)
        window_ends = window_ends[1:]

    logp, grad = fn(q)
    if not (math.isfinite(logp) and np.isfinite(grad).all()):
        raise ValueError("target density or gradient is not finite at the initial point")

    step = _find_reasonable_step(fn, q, logp, grad, inv_mass, mass_factor, rng)
    averager = _DualAveraging(step, TARGET_ACCEPT)
    visited = []  # (q, grad) of each warmup state after the initial buffer
    window_start = 0

    for it in range(config.warmup_draws):
        q, logp, grad, accept_stat, _ = _nuts_transition(
            fn, q, logp, grad, averager.step, inv_mass, mass_factor,
            config.max_tree_depth, rng)
        averager.update(accept_stat)
        if it < init_buffer:
            continue
        visited.append((q, grad))
        if window_ends and it + 1 == window_ends[0]:
            window = np.array([x for x, _ in visited[window_start:]])
            inv_mass = _window_metric(fn, window)
            mass_factor = _momentum_factor(inv_mass)
            window_start = len(visited)
            window_ends.pop(0)
            step = _find_reasonable_step(fn, q, logp, grad, inv_mass, mass_factor, rng)
            averager = _DualAveraging(step, TARGET_ACCEPT)

    step = averager.adapted_step if config.warmup_draws > 0 else averager.step
    visited += [(x, fn(x)[1]) for x in pooled]
    if visited:
        step = min(step, _stable_step(fn, visited, inv_mass))
    draws = np.empty((config.kept_draws, dim))
    divergences = 0
    for it in range(config.kept_draws):
        q, logp, grad, _, diverged = _nuts_transition(
            fn, q, logp, grad, step, inv_mass, mass_factor,
            config.max_tree_depth, rng)
        divergences += int(diverged)
        draws[it] = q
    return draws, divergences, calls


def available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def fork_processes(n: int, limit: int) -> int:
    """How many processes ``fork_map(fn, n, limit)`` runs over when called
    from this process: ``min(n, limit)``, and at most 1 where ``fork`` is
    not available or inside a worker process, whose caller already fills
    the CPUs."""
    if (multiprocessing.parent_process() is not None
            or "fork" not in multiprocessing.get_all_start_methods()):
        limit = 1
    return min(n, limit)


# In a fork_map worker only: the function it maps. The pool's initializer
# sets it in each worker, so maps in two threads do not share it.
_mapped = None


def _set_mapped(fn):
    global _mapped
    _mapped = fn


def _call_mapped(i):
    return _mapped(i)


def fork_map(fn: Callable, n: int, limit: int) -> list:
    """``[fn(i) for i in range(n)]`` over ``fork_processes(n, limit)``
    processes.

    Forked workers inherit ``fn``, so it need not pickle; its results must.
    Results come back in index order, the first item in index order to
    raise ends the call with its exception, as on the serial path, and no
    worker outlives the call.
    """
    processes = fork_processes(n, limit)
    if processes <= 1:
        return [fn(i) for i in range(n)]
    with ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("fork"),
                             initializer=_set_mapped, initargs=(fn,)) as pool:
        return list(pool.map(_call_mapped, range(n)))


# Thread-count setter and getter of an OpenBLAS library, tried in this
# order; numpy's wheel renames them with a prefix and a suffix.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@cache
def _openblas_thread_controls() -> tuple:
    """(setter, getter) of the thread count of every OpenBLAS library mapped
    into this process; empty without ``/proc`` or an OpenBLAS that exports
    them. Looked up at the first fit, not at import."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "blas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            setter, getter = getattr(lib, set_name, None), getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return tuple(controls)


def fit_blas_threads() -> int | None:
    """The BLAS thread count every fit runs at: 1, or None where no OpenBLAS
    thread setter was found and fits run at the process's count."""
    return 1 if _openblas_thread_controls() else None


class _OneBlasThread:
    """Context in which every OpenBLAS library runs one thread.

    The count is process-wide, so entries from several threads share one
    scope: the first entry saves each library's count and sets 1, and the
    last exit restores them.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = ()
        # A forked child holds a copy of the lock, which another thread of
        # the parent may have held at the fork.
        os.register_at_fork(after_in_child=self._new_lock)

    def _new_lock(self):
        self._lock = threading.Lock()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = tuple((setter, getter())
                                    for setter, getter in _openblas_thread_controls())
                for setter, _ in self._saved:
                    setter(1)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for setter, count in self._saved:
                    setter(count)


_one_blas_thread = _OneBlasThread()


def sample(
    target: TargetDensity,
    config: SamplerConfig = SamplerConfig(),
    start: Callable[[np.random.Generator], np.ndarray] | None = None,
) -> PosteriorSamples:
    """Draw from the target with per-chain adaptation, then freeze the step.

    Deterministic for a fixed (seed, config, target, start): every chain
    owns a counter-based substream spawned from the master seed by chain
    index, and ``fork_map`` runs the chains over up to ``available_cpus()``
    processes with the same draws as one after another. More than 10%
    divergent kept transitions is flagged in the diagnostics warnings
    rather than raised, since the draws may still be usable.

    ``start(rng)``, if given, returns draws [n, target.dim] with ``n`` above
    ``config.chains``: chain ``c`` starts at draw ``c``, and the rest are
    pooled for the first metric and weighed in the kept step's bound.
    ``rng`` draws from the child of ``SeedSequence(config.seed)`` that a
    spawn of ``config.chains + 1`` adds after the chains'. ``start`` and the
    first metric run where the chains do, once in each process that runs
    chains.
    """
    *chain_seeds, start_seed = np.random.SeedSequence(config.seed).spawn(config.chains + 1)

    @cache
    def started():
        draws = start(np.random.Generator(np.random.Philox(start_seed)))
        if draws.ndim != 2 or draws.shape[0] <= config.chains or draws.shape[1] != target.dim:
            raise ValueError(
                f"start draws of shape {draws.shape} do not hold more than "
                f"{config.chains} draws in {target.dim} dimensions"
            )
        with np.errstate(**_EXPECTED_OVERFLOW):
            return draws, _window_metric(target.log_density_and_grad, draws[config.chains:])

    with _one_blas_thread:
        def run(c):
            chain_start = None
            if start is not None:
                draws, inv_mass = started()
                chain_start = (draws[c], inv_mass, draws[config.chains:])
            with np.errstate(**_EXPECTED_OVERFLOW):
                return _run_chain(target, config, chain_seeds[c], chain_start)

        chains = fork_map(run, config.chains, available_cpus())
        all_draws = np.stack([chain_draws for chain_draws, _, _ in chains], axis=1)
        divergences = sum(chain_div for _, chain_div, _ in chains)

        if np.any(~np.isfinite(all_draws)):
            raise RuntimeError("sampler produced non-finite draws")

        labels = target.labels or tuple(f"x[{j}]" for j in range(target.dim))
        warnings = []
        total = config.kept_draws * config.chains
        if divergences > 0.1 * total:
            warnings.append(
                f"{divergences}/{total} divergent transitions; "
                "posterior geometry is likely pathological"
            )
        diag = Diagnostics.of(all_draws, labels, divergences, warnings)
        return PosteriorSamples(all_draws, tuple(labels), diag,
                                tuple(calls for _, _, calls in chains))


def _by_column_block(statistic):
    """``statistic`` of [n_draws, n_chains, columns] as a function of draws
    [n_draws, n_chains, *k], taken ``_COLUMN_BLOCK`` columns at a time: an
    array of shape k, or a float for [n_draws, n_chains]. NaN throughout
    with fewer than 4 draws per chain."""

    @wraps(statistic)
    def by_column(draws):
        n, m = draws.shape[:2]
        columns = draws.reshape(n, m, math.prod(draws.shape[2:]))
        out = np.full(columns.shape[2], np.nan)
        if n >= 4:
            for start in range(0, out.size, _COLUMN_BLOCK):
                block = slice(start, start + _COLUMN_BLOCK)
                out[block] = statistic(columns[:, :, block])
        out = out.reshape(draws.shape[2:])
        return float(out) if out.ndim == 0 else out

    return by_column


@_by_column_block
def split_r_hat(x):
    """Potential scale reduction with each chain split in half, per column of
    draws [n_draws, n_chains, *k]. Returns 1.0 for (near-)constant columns,
    where the usual ratio is 0/0 but the chains trivially agree.
    """
    half = x.shape[0] // 2
    split = np.concatenate([x[:half], x[half: 2 * half]], axis=1)
    w = split.var(axis=0, ddof=1).mean(axis=0)
    b = half * split.mean(axis=0).var(axis=0, ddof=1)
    var_plus = (half - 1) / half * w + b / half
    constant = (var_plus <= 0) | (w <= 1e-300 * np.maximum(1.0, np.abs(var_plus)))
    return np.where(constant, 1.0, np.sqrt(var_plus / np.where(constant, 1.0, w)))


@_by_column_block
def effective_sample_size(x):
    """Effective sample size across chains from pairwise autocorrelation
    sums, per column of draws [n_draws, n_chains, *k].

    Correlation estimates combine within- and between-chain variance; the
    pair-sum truncation keeps the estimate positive and monotone. Constant
    columns get n_draws * n_chains.
    """
    n, m, _ = x.shape
    chain_mean = x.mean(axis=0)
    w = x.var(axis=0, ddof=1).mean(axis=0)
    var_plus = (n - 1) / n * w
    if m > 1:
        var_plus = var_plus + chain_mean.var(axis=0, ddof=1)
    constant = (var_plus <= 0) | (w <= 1e-300)

    # Autocovariance of every chain by FFT, zero-padded against wrap-around.
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x - chain_mean, size, axis=0)
    acov = np.fft.irfft(f * np.conj(f), size, axis=0)[:n].mean(axis=1) / n
    rho = 1.0 - (w - acov) / np.where(constant, 1.0, var_plus)
    rho[0] = 1.0

    # Geyer initial positive + monotone sequence over lag pairs: the sum
    # stops before the first negative pair, and each pair is capped by the
    # one before.
    pairs = (n - 1) // 2
    sums = rho[0: 2 * pairs: 2] + rho[1: 2 * pairs: 2]
    positive = np.logical_and.accumulate(sums >= 0, axis=0)
    tau = np.minimum.accumulate(np.where(positive, sums, 0.0), axis=0).sum(axis=0)
    tau = np.maximum(2 * tau - 1.0, 1.0 / (n * m))
    return np.where(constant, float(n * m), n * m / tau)


def posterior_summary(samples: PosteriorSamples, parameter: str) -> Summary:
    """Mean, sd, and central quantiles of one parameter over all chains."""
    x = samples.parameter_draws(parameter)
    q = np.quantile(x, [0.025, 0.5, 0.975])
    return Summary(float(x.mean()), float(x.std(ddof=0)), *map(float, q))
