import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hbab.design import comparison_cells, enumerate_comparisons
from hbab.estimate import CellEstimates
from hbab.seqtest import (
    ComparisonResult,
    TauSpec,
    bayes_factor,
    cell_differences,
    last_informative,
    log_bayes_factor,
    run_all_comparisons,
    sequential_trace,
)
from tests.test_design import make_spec


def resolve_tau(spec, diff_mean):
    """Concrete tau for one update: a dynamic tau is the squared difference,
    floored at 1e-8; a fixed or learnt tau is its value."""
    if spec.kind == "dynamic":
        return max(diff_mean**2, 1e-8)
    return float(spec.value)


def update_comparison(state, diff_mean, diff_var, tau_spec, alpha=0.05):
    """The scalar reference of ``sequential_trace``: one update of one
    pair's running test, through the public ``log_bayes_factor``."""
    log_k = log_bayes_factor(diff_mean, diff_var, resolve_tau(tau_spec, diff_mean))
    p_instant = math.exp(-max(log_k, 0.0))
    p_min = min(state.p_min, p_instant)
    return replace(state, diff_mean=diff_mean, diff_var=diff_var,
                   bayes_factor=math.exp(min(log_k, 709.0)), p_instant=p_instant,
                   p_min=p_min, significant=p_min < alpha, updates=state.updates + 1)


def kernel_log_k(tau_spec, diff_mean, diff_var=1e-3):
    """The kernel's log factor for one update of one pair."""
    return float(sequential_trace(np.array([diff_mean]), np.array([diff_var]),
                                  tau_spec).log_k[0])


class TestResolveTau:
    """The tau the kernel tests each update against."""

    def test_fixed(self):
        assert kernel_log_k(TauSpec.fixed(0.1), 0.5) == log_bayes_factor(0.5, 1e-3, 0.1)

    def test_dynamic_squares_difference(self):
        assert kernel_log_k(TauSpec.dynamic(), 0.05) == pytest.approx(
            log_bayes_factor(0.05, 1e-3, 0.0025))

    def test_dynamic_floored_at_zero_difference(self):
        assert kernel_log_k(TauSpec.dynamic(), 0.0) == log_bayes_factor(0.0, 1e-3, 1e-8)

    def test_learnt(self):
        assert kernel_log_k(TauSpec.learnt(0.007), 0.1) == log_bayes_factor(0.1, 1e-3, 0.007)

    def test_validation(self):
        with pytest.raises(ValueError):
            TauSpec.fixed(0.0)
        with pytest.raises(ValueError):
            TauSpec("bogus", 1.0)
        with pytest.raises(ValueError, match="dynamic tau takes no value"):
            TauSpec("dynamic", 0.3)
        for kind in ("fixed", "learnt"):
            with pytest.raises(ValueError, match="finite positive number, got True"):
                TauSpec(kind, True)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, value):
        with pytest.raises(ValueError, match="finite positive"):
            TauSpec.fixed(value)
        with pytest.raises(ValueError, match="finite positive"):
            TauSpec.learnt(value)


class TestBayesFactor:
    def test_zero_difference_favors_null(self):
        v, tau = 1e-4, 0.1
        k = bayes_factor(0.0, v, tau)
        assert k == pytest.approx(math.sqrt(v / (v + tau)))
        assert k < 1.0

    def test_vanishing_tau_gives_unit_factor(self):
        assert bayes_factor(0.05, 1e-4, 1e-15) == pytest.approx(1.0, abs=1e-6)

    def test_matches_density_ratio(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = float(rng.uniform(-0.3, 0.3))
            v = float(rng.uniform(1e-5, 1e-2))
            tau = float(rng.uniform(1e-4, 0.5))
            oracle = stats.norm.pdf(d, 0, math.sqrt(v + tau)) / stats.norm.pdf(
                d, 0, math.sqrt(v)
            )
            if oracle < 1e300:
                assert bayes_factor(d, v, tau) == pytest.approx(oracle, rel=1e-9)

    def test_strong_effect_is_significant(self):
        k = bayes_factor(0.05, 1e-4, 0.1)
        assert 1.0 / k < 0.05

    def test_increasing_in_absolute_difference(self):
        ks = [bayes_factor(d, 1e-3, 0.05) for d in (0.01, 0.05, 0.1, 0.2)]
        assert all(a < b for a, b in zip(ks, ks[1:]))

    def test_symmetric_in_sign(self):
        assert bayes_factor(0.07, 1e-3, 0.05) == bayes_factor(-0.07, 1e-3, 0.05)

    def test_degenerate_variance_errors(self):
        with pytest.raises(ValueError, match="degenerate"):
            bayes_factor(0.1, 0.0, 0.1)

    def test_saturates_instead_of_overflowing(self):
        k = bayes_factor(0.5, 1e-9, 0.1)
        assert math.isfinite(k)


def d_for_factor(k, v=1.0, tau=1.0):
    """Difference giving exactly Bayes factor k at unit variance and tau."""
    return math.sqrt((math.log(k) - 0.5 * math.log(v / (v + tau))) * 2 * v * (v + tau) / tau)


class TestUpdateComparison:
    """One pair's running test, folded by the kernel."""

    @staticmethod
    def trace(diffs, alpha=0.05):
        return sequential_trace(np.array(diffs), np.ones(len(diffs)), TauSpec.fixed(1.0),
                                alpha)

    def test_factor_forty_gives_p_025(self):
        t = self.trace([d_for_factor(40.0)], alpha=0.05)
        assert t.bayes_factor[0] == pytest.approx(40.0)
        assert t.p_instant[0] == pytest.approx(0.025)
        assert t.significant[0]

    def test_subunit_factor_clamps_to_one(self):
        t = self.trace([0.0])
        assert t.bayes_factor[0] < 1.0
        assert t.p_instant[0] == 1.0

    def test_running_minimum_is_sticky(self):
        t = self.trace([d_for_factor(k) for k in (2.0, 25.0, 10.0)])
        assert t.p_min[-1] == pytest.approx(0.04)
        assert t.informative.sum() == 3


@given(st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(1e-6, 1e-2)),
                min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_p_min_monotone_non_increasing(updates_seq):
    d, v = np.array(updates_seq).T
    last = 1.0
    for p_min in sequential_trace(d, v, TauSpec.fixed(0.1)).p_min.tolist():
        assert p_min <= last + 1e-15
        last = p_min


class TestRunAllComparisons:
    def test_paper_scale_result_count(self):
        spec = make_spec([4, 4], [4, 4])
        rng = np.random.default_rng(1)
        ests = CellEstimates(rng.uniform(0.3, 0.7, 256), np.full(256, 1e-4))
        results = run_all_comparisons(ests, spec, TauSpec.fixed(0.1))
        assert len(results) == 1920

    def test_identical_estimates_never_significant(self):
        spec = make_spec([2, 2], [2])
        ests = CellEstimates(np.full(spec.n_cells, 0.5), np.full(spec.n_cells, 1e-4))
        results = None
        for _ in range(5):
            results = run_all_comparisons(ests, spec, TauSpec.fixed(0.1), prior=results)
        assert all(not r.significant and r.p_min == 1.0 for r in results)

    def test_matches_hand_computed_factors(self):
        spec = make_spec([3], [])
        means = [0.50, 0.55, 0.40]
        var = 2e-4
        ests = CellEstimates(means, np.full(3, var))
        results = run_all_comparisons(ests, spec, TauSpec.fixed(0.1))
        pairs = enumerate_comparisons(spec)
        assert len(results) == 3
        for res, (ctx, a, b) in zip(results, pairs):
            d = means[a[0]] - means[b[0]]
            v = 2 * var
            oracle = stats.norm.pdf(d, 0, math.sqrt(v + 0.1)) / stats.norm.pdf(
                d, 0, math.sqrt(v)
            )
            assert res.bayes_factor == pytest.approx(float(oracle), rel=1e-9)

    def test_draw_based_difference_uses_draw_variance(self):
        spec = make_spec([2], [])
        rng = np.random.default_rng(2)
        base = rng.normal(0.5, 0.01, 400)
        ests = CellEstimates(
            [float(base.mean()), 0.5],
            [float(base.var(ddof=1)), 1e-4],
            np.stack([base, base + rng.normal(0.02, 0.005, 400)]),
        )
        (res,) = run_all_comparisons(ests, spec, TauSpec.fixed(0.1))
        diffs = ests[0].draws - ests[1].draws
        assert res.diff_mean == pytest.approx(float(diffs.mean()))
        assert res.diff_var == pytest.approx(float(diffs.var(ddof=1)))

    def test_missing_estimate_names_cell(self):
        spec = make_spec([2], [2])
        ests = CellEstimates([0.5, 0.5, math.nan, 0.5], [1e-4, 1e-4, math.nan, 1e-4])
        with pytest.raises(ValueError, match="m0=m0v1, c0=c0v0"):
            run_all_comparisons(ests, spec, TauSpec.fixed(0.1))

    def test_zero_variance_pair_carried_forward(self):
        spec = make_spec([2], [])
        ests = CellEstimates(np.zeros(2), np.zeros(2))
        (res,) = run_all_comparisons(ests, spec, TauSpec.fixed(0.1))
        assert res.updates == 0 and res.p_min == 1.0


def test_replay_matches_live_updates():
    rng = np.random.default_rng(3)
    d = rng.normal(0.0, 0.05, 20)
    v = rng.uniform(1e-5, 1e-3, 20)
    spec = TauSpec.dynamic()
    trace = sequential_trace(d, v, spec).p_min
    state = ComparisonResult((0,), (0,), (1,))
    for i in range(20):
        state = update_comparison(state, d[i], v[i], spec)
        assert trace[i] == pytest.approx(state.p_min)


def scalar_states(d, v, tau_spec, alpha=0.05):
    """The scalar reference: every pair folded update by update through
    ``update_comparison``, zero-variance updates skipped. Returns the
    state of every pair after every update, indexed [update][pair]."""
    states = [ComparisonResult((0,), (0,), (1,)) for _ in range(d.shape[1])]
    out = []
    for u in range(d.shape[0]):
        for p in range(d.shape[1]):
            if v[u, p] > 0:
                states[p] = update_comparison(states[p], float(d[u, p]),
                                              float(v[u, p]), tau_spec, alpha)
        out.append(list(states))
    return out


def random_traces(seed, updates=30, pairs=400):
    """Difference traces over several scales, with zero-variance and NaN
    entries, as a stored trace may hold them."""
    rng = np.random.default_rng(seed)
    d = rng.normal(0.0, 0.05, (updates, pairs)) * rng.choice([1e-3, 1.0, 10.0],
                                                             (updates, pairs))
    v = np.exp(rng.uniform(math.log(1e-7), math.log(1e-1), (updates, pairs)))
    v[rng.random((updates, pairs)) < 0.05] = 0.0
    v[:3, :20] = 0.0  # pairs not informative at their first updates
    missing = rng.random((updates, pairs)) < 0.02
    d[missing] = np.nan
    v[missing] = np.nan
    return d, v


def test_kernel_is_bit_identical_to_the_scalar_reference():
    d, v = random_traces(20261018)
    naive_differs = {"square": 0, "log": 0, "exp": 0}
    for tau_spec in (TauSpec.fixed(0.1), TauSpec.dynamic(), TauSpec.learnt(0.007)):
        trace = sequential_trace(d, v, tau_spec, alpha=0.05)
        ref = scalar_states(d, v, tau_spec)
        for name in ("diff_mean", "diff_var", "bayes_factor", "p_min", "significant"):
            expected = np.array([[getattr(s, name) for s in row] for row in ref])
            assert np.array_equal(getattr(trace, name), expected, equal_nan=True), name
        seen = np.array([[s.updates > 0 for s in row] for row in ref])
        p_inst = np.array([[s.p_instant for s in row] for row in ref])
        assert np.array_equal(trace.p_instant, np.where(seen, p_inst, np.nan),
                              equal_nan=True)
        log_k = [[log_bayes_factor(s.diff_mean, s.diff_var,
                                   resolve_tau(tau_spec, s.diff_mean))
                  if s.updates else math.nan for s in row] for row in ref]
        assert np.array_equal(trace.log_k, np.array(log_k), equal_nan=True)
        assert np.array_equal(trace.informative, v > 0)

        for p in range(0, d.shape[1], 37):
            assert np.array_equal(sequential_trace(d[:, p], v[:, p], tau_spec).p_min,
                                  trace.p_min[:, p])
        assert np.array_equal(sequential_trace(d, v, tau_spec).p_min, trace.p_min)

        # Where numpy's vectorised forms would differ from the scalar path.
        for x, y in zip(trace.diff_mean[seen].tolist(), trace.diff_var[seen].tolist()):
            tau = resolve_tau(tau_spec, x)
            lk = log_bayes_factor(x, y, tau)
            naive_differs["square"] += x * x != x**2
            naive_differs["log"] += float(np.log(y / (y + tau))) != math.log(y / (y + tau))
            naive_differs["exp"] += (
                float(np.exp(-max(lk, 0.0))) != math.exp(-max(lk, 0.0))
                or float(np.exp(min(lk, 709.0))) != math.exp(min(lk, 709.0))
            )
    assert all(naive_differs.values()), naive_differs


@st.composite
def difference_streams(draw):
    """``[updates, pairs]`` difference traces, updates possibly 0, whose
    variances are often zero or NaN: some pairs are never informative."""
    updates, pairs = draw(st.integers(0, 6)), draw(st.integers(1, 5))
    # Every finite double: past about 1.34e154 a mean's square overflows to inf.
    values = (st.floats(allow_nan=False, allow_infinity=False)
              | st.sampled_from([math.nan, math.inf, -math.inf, 1.5e154, -1.7e308]))
    variances = st.sampled_from([0.0, 0.0, math.nan, -1.0, 5e-324, 1e-4, math.inf])
    d = draw(st.lists(values, min_size=updates * pairs, max_size=updates * pairs))
    v = draw(st.lists(variances | values, min_size=updates * pairs,
                      max_size=updates * pairs))
    return (np.array(d, dtype=float).reshape(updates, pairs),
            np.array(v, dtype=float).reshape(updates, pairs))


@given(difference_streams())
@settings(max_examples=200, deadline=None)
def test_last_informative_is_the_traces_final_row(stream):
    d, v = stream
    last_d, last_v = last_informative(d, v)
    if d.shape[0]:
        with np.errstate(all="ignore"):
            trace = sequential_trace(d, v, TauSpec.fixed(0.1))
        expected_d, expected_v = trace.diff_mean[-1], trace.diff_var[-1]
    else:
        expected_d = expected_v = np.full(d.shape[1], np.nan)
    # Bit for bit, NaN where NaN.
    assert last_d.tobytes() == expected_d.tobytes()
    assert last_v.tobytes() == expected_v.tobytes()


@pytest.mark.parametrize("tau_spec", [TauSpec.fixed(0.1), TauSpec.dynamic()])
def test_a_difference_whose_square_overflows_reads_inf(tau_spec):
    # pow(1.5e154, 2) raises OverflowError; the kernel takes it as inf.
    with np.errstate(invalid="ignore"):
        t = sequential_trace(np.array([[1.5e154, 0.5]]), np.array([[1.0, 1.0]]), tau_spec)
    assert t.diff_mean[0, 0] == 1.5e154
    reference = sequential_trace(np.array([[0.5]]), np.array([[1.0]]), tau_spec)
    assert t.log_k[0, 1] == reference.log_k[0, 0]  # the libm square elsewhere
    if tau_spec.kind == "fixed":
        assert t.log_k[0, 0] == math.inf and t.p_instant[0, 0] == 0.0
        assert t.significant[0, 0]


def test_kernel_continues_from_a_prior_running_minimum():
    d, v = random_traces(5, updates=6, pairs=50)
    whole = sequential_trace(d, v, TauSpec.fixed(0.1))
    head = sequential_trace(d[:2], v[:2], TauSpec.fixed(0.1))
    tail = sequential_trace(d[2:], v[2:], TauSpec.fixed(0.1), prior_p_min=head.p_min[-1])
    assert np.array_equal(tail.p_min, whole.p_min[2:])


def test_draw_based_differences_equal_per_pair_moments():
    spec = make_spec([3, 2], [2])
    rng = np.random.default_rng(4)
    draws = rng.beta(20, 30, (spec.n_cells, 30_000))  # pairs go in several blocks
    means, variances = draws.mean(axis=1), draws.var(axis=1, ddof=1)
    d, v = cell_differences(spec, CellEstimates(means, variances, draws))
    a_idx, b_idx = comparison_cells(spec)
    for i, (a, b) in enumerate(zip(a_idx, b_idx)):
        diffs = draws[a] - draws[b]
        assert d[i] == diffs.mean() and v[i] == diffs.var(ddof=1)
    plain_d, plain_v = cell_differences(spec, CellEstimates(means, variances))
    for i, (a, b) in enumerate(zip(a_idx.tolist(), b_idx.tolist())):
        assert plain_d[i] == float(means[a]) - float(means[b])
        assert plain_v[i] == float(variances[a]) + float(variances[b])


def test_list_view_matches_scalar_updates_over_looks():
    spec = make_spec([2, 2], [2])
    rng = np.random.default_rng(6)
    results, scalar = None, None
    for look in range(4):
        variances = np.full(spec.n_cells, 1e-4)
        if look == 0:
            variances[:4] = 0.0
        ests = CellEstimates(rng.uniform(0.3, 0.7, spec.n_cells), variances)
        results = run_all_comparisons(ests, spec, TauSpec.dynamic(), prior=results)
        pairs = enumerate_comparisons(spec)
        if scalar is None:
            scalar = [ComparisonResult(ctx, a, b) for ctx, a, b in pairs]
        for i, (ctx, a, b) in enumerate(pairs):
            e_a = ests[spec.cell_index(a, ctx)]
            e_b = ests[spec.cell_index(b, ctx)]
            if e_a.variance + e_b.variance > 0:
                scalar[i] = update_comparison(scalar[i], e_a.mean - e_b.mean,
                                              e_a.variance + e_b.variance,
                                              TauSpec.dynamic())
        assert results == scalar
