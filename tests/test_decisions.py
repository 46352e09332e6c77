"""``decisions.csv``'s writer against the row-at-a-time writer it replaced.

``reference_decision_lines`` is that writer as it was: one ``%`` call per
row. The block writer must give the same bytes on any input, and fill the
same significance stack, without holding more memory than the sequential
trace it replays.
"""

import collections
import csv
import io
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hbab import cli
from hbab.design import (
    ExperimentSpec,
    Factor,
    enumerate_comparisons,
    spec_from_dict,
    spec_to_dict,
)
from hbab.seqtest import TauSpec, sequential_trace
from hbab.sim import ScenarioResult, paper_scenario, run_repetition

# rep, update, "method,tau_kind", "context,content_a,content_b", truth,
# diff_mean, diff_var, bayes_factor, p_instant, p_min, significant
_DECISION_ROW = "%d,%d,%s,%s,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n"


def reference_decision_lines(result, tau_spec, significant):
    """``decisions.csv`` body, one string per (repetition, method, pair)."""
    labels = [cli._csv_fields(label) for label in cli._pair_labels(result.config.spec)]
    updates = range(1, result.config.updates + 1)
    for i, rep in enumerate(result.repetitions):
        truth = ["h1" if h1 else "h0" for h1 in rep.truth.pair_is_h1]
        for m in result.methods:
            head = cli._csv_fields([m, tau_spec.kind])
            t = sequential_trace(rep.diff_mean[m], rep.diff_var[m], tau_spec,
                                 result.config.alpha)
            significant[m][i] = t.significant
            columns = [np.ascontiguousarray(a.T) for a in (
                t.diff_mean, t.diff_var, t.bayes_factor, t.p_instant, t.p_min,
                t.significant)]
            for p, label in enumerate(labels):
                yield "".join(
                    _DECISION_ROW % (rep.rep, u, head, label, truth[p], *values)
                    for u, *values in zip(updates, *(c[p].tolist() for c in columns))
                )
            del t, columns


def both_writers(result, tau_spec):
    """The bytes and significance stacks of the block writer and of the
    reference."""
    shape = (len(result.repetitions), result.config.updates,
             len(enumerate_comparisons(result.config.spec)))
    out = []
    for write, encode in ((cli._decision_blocks, b"".join),
                          (reference_decision_lines, lambda s: "".join(s).encode("utf-8"))):
        significant = {m: np.empty(shape, bool) for m in result.methods}
        # Differences near the float limits overflow the kernel's arithmetic.
        with np.errstate(all="ignore"):
            out.append((encode(write(result, tau_spec, significant)), significant))
    return out


# Labels that CSV quoting, UTF-8 or NUL padding could get wrong; the
# readers reject the lone "\r".
_TRICKY = [",", '"', "\n", "\r", "\0", "é", "日"]
_LABEL = st.sampled_from(["a\0", "a,b", '"q"', "", *_TRICKY]) | st.text(
    st.characters(exclude_categories=("Cs",)) | st.sampled_from(_TRICKY), max_size=4)


@st.composite
def specs(draw):
    def factor(name):
        return Factor(name, draw(st.lists(_LABEL, min_size=2, max_size=3, unique=True)))
    content = [factor(f"c{i}") for i in range(draw(st.integers(1, 2)))]
    context = [factor(f"x{i}") for i in range(draw(st.integers(0, 1)))]
    return ExperimentSpec(tuple(content), tuple(context))


_NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
             0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF]
_SPECIAL = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
            1.7976931348623157e308, -1e308, 1.5e154, 0.5, 0.25, 1.0]
_VALUES = (st.sampled_from(_SPECIAL)
           | st.sampled_from(_NAN_BITS).map(
               lambda bits: float(np.array(bits, np.uint64).view(np.float64)))
           | st.floats(-1.0, 1.0) | st.floats())
_VARIANCES = st.sampled_from([0.0, -0.0, -1.0, 1e-4, 0.01]) | _VALUES


@st.composite
def results(draw):
    """A scenario result as the writer reads it: the spec, updates and
    alpha of the config, the methods, and each repetition's number, truth
    and differences. Values come from small pools, so they repeat."""
    spec = draw(specs())
    pairs = len(enumerate_comparisons(spec))
    updates = draw(st.sampled_from([0, 1, 2, 7, 31]))
    methods = draw(st.sampled_from([("mle",), ("mle", "hierarchical")]))
    # Both zeros in one column print apart only if keyed apart.
    pool = (draw(st.lists(_VALUES, min_size=1, max_size=6))
            + draw(st.sampled_from([[], [0.0, -0.0]])))
    var_pool = draw(st.lists(_VARIANCES, min_size=1, max_size=6))

    def stream(values):
        index = draw(st.lists(st.integers(0, len(values) - 1),
                              min_size=updates * pairs, max_size=updates * pairs))
        return np.array([values[i] for i in index], float).reshape(updates, pairs)

    repetitions = [
        SimpleNamespace(
            rep=rep,
            truth=SimpleNamespace(pair_is_h1=np.array(
                draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs)), bool)),
            diff_mean={m: stream(pool) for m in methods},
            diff_var={m: stream(var_pool) for m in methods},
        )
        for rep in draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=3))
    ]
    config = SimpleNamespace(spec=spec, updates=updates,
                             alpha=draw(st.sampled_from([0.05, 0.5])))
    return SimpleNamespace(config=config, methods=methods, repetitions=repetitions)


_TWO_PAIRS = SimpleNamespace(
    config=SimpleNamespace(spec=ExperimentSpec((Factor("t", ("a\0", "\0")),),
                                               (Factor("x", ("é\r", 'q"\n')),)),
                           updates=4, alpha=0.05),
    methods=("mle",),
    repetitions=[SimpleNamespace(
        rep=4, truth=SimpleNamespace(pair_is_h1=np.array([True, False])),
        diff_mean={"mle": np.array([[-0.0, 0.0], [np.nan, 1e308], [5e-324, -5e-324],
                                    [np.nan, 1.5e154]])},
        diff_var={"mle": np.array([[1e-4, 1e-4], [0.0, -1.0], [1e-4, 1e-4],
                                   [1e-4, 0.0]])})],
)


@settings(max_examples=150, deadline=None)
@given(result=results(),
       tau_spec=st.sampled_from([TauSpec.fixed(0.1), TauSpec.fixed(1e300),
                                 TauSpec.dynamic(), TauSpec.learnt(0.02)]),
       row_block=st.sampled_from([1, 5, 2048]), format_block=st.sampled_from([1, 3, 4096]))
@example(result=_TWO_PAIRS, tau_spec=TauSpec.dynamic(), row_block=2, format_block=1)
def test_block_writer_gives_the_reference_bytes(result, tau_spec, row_block, format_block):
    with mock.patch.object(cli, "_ROW_BLOCK", row_block), \
            mock.patch.object(cli, "_FORMAT_BLOCK", format_block):
        (blocks, significant), (reference, expected) = both_writers(result, tau_spec)
    assert blocks == reference
    for m in result.methods:
        assert np.array_equal(significant[m], expected[m])


@settings(max_examples=100, deadline=None)
@given(result=results())
def test_rows_of_a_spec_the_reader_takes_read_back_whole(result):
    spec = result.config.spec
    try:
        spec_from_dict(spec_to_dict(spec))
    except ValueError:
        assert any(c in label for f in (*spec.content_factors, *spec.context_factors)
                   for label in f.values for c in "\r|")
        return
    significant = {m: np.empty((len(result.repetitions), result.config.updates,
                                len(enumerate_comparisons(spec))), bool)
                   for m in result.methods}
    with np.errstate(all="ignore"):
        text = b"".join(cli._decision_blocks(result, TauSpec.dynamic(), significant))
    rows = list(csv.reader(io.StringIO(text.decode("utf-8"), newline="")))
    labels = [list(label) for label in cli._pair_labels(spec)]
    assert len(rows) == len(result.repetitions) * len(result.methods) * len(labels) * (
        result.config.updates)
    assert all(len(row) == 14 and row[4:7] in labels for row in rows)


def test_writer_holds_no_more_than_the_trace_it_replays():
    # One paper-scale MLE repetition: 30 updates of 1,920 pairs.
    config = replace(paper_scenario(seed=3), repetitions=1)
    rep = run_repetition(config, 0, methods=("mle",))
    result = ScenarioResult(config, ("mle",), [rep])
    tau_spec = TauSpec.fixed(0.1)
    tracemalloc.start()
    try:
        sequential_trace(rep.diff_mean["mle"], rep.diff_var["mle"], tau_spec, config.alpha)
        trace_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        significant = {"mle": np.empty((1, *rep.diff_mean["mle"].shape), bool)}
        # Each block is dropped once taken, as a file's writelines does.
        collections.deque(cli._decision_blocks(result, tau_spec, significant), maxlen=0)
        writer_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert writer_peak <= trace_peak + 0.5e6, (writer_peak, trace_peak)


def test_a_column_with_more_distinct_values_than_uint16_holds():
    values = np.linspace(-1.0, 1.0, 70_000).reshape(7, 10_000)
    values[0, :5] = [0.0, -0.0, math.nan, math.inf, 5e-324]
    table, rows = cli._float_table(values)
    assert rows.dtype == np.int32 and rows.shape == values.shape
    assert table[rows].tobytes().translate(None, cli._PAD) == "".join(
        "%.17g," % x for x in values.ravel().tolist()).encode("ascii")
