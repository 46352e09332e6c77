"""Gradient-based MCMC engine: No-U-Turn sampling with adaptation.

Self-contained numpy implementation of dynamic Hamiltonian Monte Carlo:
multinomial sampling over a doubling trajectory with a U-turn stopping
rule, dual-averaging step-size adaptation toward a target acceptance
statistic, and a dense metric set at the end of each warmup window.
Chains draw from counter-based random substreams spawned off the master
seed, so results are bit-reproducible for a given seed and config and one
chain's stream never depends on how many chains run.

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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
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
    "dump_draws",
]

_DIVERGENCE_THRESHOLD = 1000.0
_MASS_FLOOR = 1e-10
_FD_STEP = 1e-4  # central-difference step, in posterior standard deviations
_PROBES = 4  # warmup states whose curvature bounds the kept step
_STABLE_STEP = 1.2  # bound on step * sqrt(stiffest whitened curvature)


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
    # Above the usual 0.8: the dense metric's longer steps otherwise stall
    # more often in the narrow high-sigma neck of sparse hierarchical fits.
    target_accept: float = 0.9
    max_tree_depth: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.chains < 1:
            raise ValueError("need at least one chain")
        if self.kept_draws < 100:
            raise ValueError("kept_draws must be >= 100 for diagnostic validity")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target_accept must lie in (0, 1)")
        if self.warmup_draws < 0 or self.max_tree_depth < 1:
            raise ValueError("invalid warmup_draws or max_tree_depth")


@dataclass(frozen=True)
class Diagnostics:
    split_r_hat: np.ndarray
    effective_sample_size: np.ndarray
    divergence_count: int
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class PosteriorSamples:
    """Kept draws with shape [kept_draws, chains, dim] plus diagnostics."""

    draws: np.ndarray
    parameter_labels: tuple[str, ...]
    diagnostics: Diagnostics

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

    def relabeled(self, draws: np.ndarray, labels: tuple[str, ...]) -> "PosteriorSamples":
        """Same sampler run reported in transformed coordinates; convergence
        diagnostics are recomputed on the new scale."""
        if draws.shape != self.draws.shape:
            raise ValueError("transformed draws must keep the original shape")
        diag = replace(
            self.diagnostics,
            split_r_hat=np.array(
                [split_r_hat(draws[:, :, j]) for j in range(draws.shape[2])]
            ),
            effective_sample_size=np.array(
                [effective_sample_size(draws[:, :, j]) for j in range(draws.shape[2])]
            ),
        )
        return PosteriorSamples(draws, tuple(labels), diag)


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
    q_minus: np.ndarray
    p_minus: np.ndarray
    v_minus: np.ndarray  # velocity M^-1 p at each end, for the U-turn check
    grad_minus: np.ndarray
    q_plus: np.ndarray
    p_plus: np.ndarray
    v_plus: np.ndarray
    grad_plus: np.ndarray
    q_prop: np.ndarray
    grad_prop: np.ndarray
    logp_prop: float
    log_sum_w: float
    sum_alpha: float
    n_alpha: int
    turning: bool
    diverged: bool


def _is_turning(q_minus, v_minus, q_plus, v_plus):
    dq = q_plus - q_minus
    return float(dq @ v_minus) < 0 or float(dq @ v_plus) < 0


def _build_tree(fn, depth, q, p, grad, direction, step, inv_mass, h0, rng):
    if depth == 0:
        q1, p1, grad1, logp1 = leapfrog(fn, q, p, grad, direction * step, inv_mass)
        kinetic, v1 = _kinetic(p1, inv_mass)
        h1 = -logp1 + kinetic
        # A non-finite density or gradient (the latter through p1) leaves h1
        # non-finite, which ends the trajectory as a divergence.
        delta_h = h1 - h0 if math.isfinite(h1) else math.inf
        diverged = delta_h > _DIVERGENCE_THRESHOLD
        log_w = -math.inf if diverged else -delta_h
        alpha = 0.0 if diverged else (1.0 if delta_h <= 0 else math.exp(-delta_h))
        return _Tree(q1, p1, v1, grad1, q1, p1, v1, grad1, q1, grad1, logp1,
                     log_w, alpha, 1, False, diverged)

    inner = _build_tree(fn, depth - 1, q, p, grad, direction, step, inv_mass, h0, rng)
    if inner.diverged or inner.turning:
        return inner
    if direction == 1:
        outer = _build_tree(fn, depth - 1, inner.q_plus, inner.p_plus,
                            inner.grad_plus, direction, step, inv_mass, h0, rng)
        inner.q_plus, inner.p_plus, inner.v_plus, inner.grad_plus = (
            outer.q_plus, outer.p_plus, outer.v_plus, outer.grad_plus)
    else:
        outer = _build_tree(fn, depth - 1, inner.q_minus, inner.p_minus,
                            inner.grad_minus, direction, step, inv_mass, h0, rng)
        inner.q_minus, inner.p_minus, inner.v_minus, inner.grad_minus = (
            outer.q_minus, outer.p_minus, outer.v_minus, outer.grad_minus)

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
        inner.turning = outer.turning or _is_turning(
            inner.q_minus, inner.v_minus, inner.q_plus, inner.v_plus)
    return inner


def _nuts_transition(fn, q, logp, grad, step, inv_mass, mass_factor, max_depth, rng):
    p0 = mass_factor @ rng.standard_normal(q.size)
    kinetic, v0 = _kinetic(p0, inv_mass)
    h0 = -logp + kinetic

    q_minus = q_plus = q
    p_minus = p_plus = p0
    v_minus = v_plus = v0
    grad_minus = grad_plus = grad
    q_prop, grad_prop, logp_prop = q, grad, logp
    log_sum_w = 0.0
    sum_alpha, n_alpha = 0.0, 0
    diverged = False

    for depth in range(max_depth):
        direction = 1 if rng.uniform() < 0.5 else -1
        if direction == 1:
            tree = _build_tree(fn, depth, q_plus, p_plus, grad_plus,
                               1, step, inv_mass, h0, rng)
            q_plus, p_plus, v_plus, grad_plus = (
                tree.q_plus, tree.p_plus, tree.v_plus, tree.grad_plus)
        else:
            tree = _build_tree(fn, depth, q_minus, p_minus, grad_minus,
                               -1, step, inv_mass, h0, rng)
            q_minus, p_minus, v_minus, grad_minus = (
                tree.q_minus, tree.p_minus, tree.v_minus, tree.grad_minus)

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
        if _is_turning(q_minus, v_minus, q_plus, v_plus):
            break

    accept_stat = sum_alpha / n_alpha if n_alpha > 0 else 0.0
    return q_prop, logp_prop, grad_prop, accept_stat, diverged


def _adaptation_windows(warmup):
    """(step-only head, list of mass-window end indices)."""
    if warmup < 20:
        return warmup, []
    init_buffer, term_buffer, base_window = 75, 50, 25
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


def _run_chain(target, config, chain_seed):
    fn = target.log_density_and_grad
    dim = target.dim
    rng = np.random.Generator(np.random.Philox(chain_seed))

    q = rng.uniform(-1.0, 1.0, dim)
    logp, grad = fn(q)
    if not (math.isfinite(logp) and np.isfinite(grad).all()):
        raise ValueError("target density or gradient is not finite at the initial point")

    inv_mass = np.eye(dim)
    mass_factor = np.eye(dim)
    step = _find_reasonable_step(fn, q, logp, grad, inv_mass, mass_factor, rng)
    averager = _DualAveraging(step, config.target_accept)
    init_buffer, window_ends = _adaptation_windows(config.warmup_draws)
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
            # K with K @ K.T = inv(inv_mass): K @ z is a momentum draw.
            mass_factor = np.linalg.inv(np.linalg.cholesky(inv_mass)).T
            window_start = len(visited)
            window_ends.pop(0)
            step = _find_reasonable_step(fn, q, logp, grad, inv_mass, mass_factor, rng)
            averager = _DualAveraging(step, config.target_accept)

    step = averager.adapted_step if config.warmup_draws > 0 else averager.step
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
    return draws, divergences


def sample(target: TargetDensity, config: SamplerConfig = SamplerConfig()) -> PosteriorSamples:
    """Draw from the target with per-chain adaptation, then freeze the step.

    Deterministic for a fixed (seed, config, target): every chain owns a
    counter-based substream spawned from the master seed by chain index.
    More than 10% divergent kept transitions is flagged in the diagnostics
    warnings rather than raised, since the draws may still be usable.
    """
    seeds = np.random.SeedSequence(config.seed).spawn(config.chains)
    all_draws = np.empty((config.kept_draws, config.chains, target.dim))
    divergences = 0
    # Diverging trajectories and trial steps can throw a state far enough to
    # overflow the density or the kinetic energy. A non-finite energy rejects
    # the step or ends the trajectory as a divergence, so there the overflow
    # is expected, not an error.
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(config.chains):
            chain_draws, chain_div = _run_chain(target, config, seeds[c])
            all_draws[:, c, :] = chain_draws
            divergences += chain_div

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
    diag = Diagnostics(
        split_r_hat=np.array(
            [split_r_hat(all_draws[:, :, j]) for j in range(target.dim)]
        ),
        effective_sample_size=np.array(
            [effective_sample_size(all_draws[:, :, j]) for j in range(target.dim)]
        ),
        divergence_count=divergences,
        warnings=tuple(warnings),
    )
    return PosteriorSamples(all_draws, tuple(labels), diag)


def split_r_hat(draws: np.ndarray) -> float:
    """Potential scale reduction with each chain split in half.

    draws: [n_draws, n_chains]. Returns 1.0 for (near-)constant draws,
    where the usual ratio is 0/0 but the chains trivially agree.
    """
    n, m = draws.shape
    half = n // 2
    if half < 2:
        return np.nan
    split = np.concatenate([draws[:half], draws[half: 2 * half]], axis=1)
    w = split.var(axis=0, ddof=1).mean()
    b = half * split.mean(axis=0).var(ddof=1)
    var_plus = (half - 1) / half * w + b / half
    if var_plus <= 0 or w <= 1e-300 * max(1.0, abs(var_plus)):
        return 1.0
    return float(np.sqrt(var_plus / w))


def _autocovariance(x):
    n = x.size
    centered = x - x.mean()
    size = int(2 ** np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(centered, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n].real
    return acov / n


def effective_sample_size(draws: np.ndarray) -> float:
    """Effective sample size across chains from pairwise autocorrelation sums.

    draws: [n_draws, n_chains]. Correlation estimates combine within- and
    between-chain variance; the pair-sum truncation keeps the estimate
    positive and monotone.
    """
    n, m = draws.shape
    if n < 4:
        return np.nan
    chain_var = draws.var(axis=0, ddof=1)
    w = chain_var.mean()
    var_plus = (n - 1) / n * w
    if m > 1:
        var_plus += draws.mean(axis=0).var(ddof=1)
    if var_plus <= 0 or w <= 1e-300:
        return float(n * m)

    acov = np.stack([_autocovariance(draws[:, c]) for c in range(m)]).mean(axis=0)
    rho = 1.0 - (w - acov) / var_plus
    rho[0] = 1.0

    # Geyer initial positive + monotone sequence over lag pairs.
    max_pairs = (n - 1) // 2
    tau = 0.0
    last = np.inf
    for k in range(max_pairs):
        pair = rho[2 * k] + rho[2 * k + 1]
        if pair < 0:
            break
        pair = min(pair, last)
        tau += pair
        last = pair
    tau = max(2 * tau - 1.0, 1.0 / (n * m))
    return float(n * m / tau)


def posterior_summary(samples: PosteriorSamples, parameter: str) -> Summary:
    """Mean, sd, and central quantiles of one parameter over all chains."""
    x = samples.parameter_draws(parameter)
    q = np.quantile(x, [0.025, 0.5, 0.975])
    return Summary(float(x.mean()), float(x.std(ddof=0)), *map(float, q))


def dump_draws(samples: PosteriorSamples, path) -> None:
    """Write every draw as CSV rows (chain, draw, parameter, value)."""
    k, c, d = samples.draws.shape
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["chain", "draw", "parameter", "value"])
        for chain in range(c):
            for draw in range(k):
                for j, label in enumerate(samples.parameter_labels):
                    writer.writerow(
                        [chain, draw, label,
                         format(samples.draws[draw, chain, j], ".17g")]
                    )
