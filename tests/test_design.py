import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbab.design import (
    ExperimentSpec,
    Factor,
    build_design_matrix,
    enumerate_cells,
    comparison_cells,
    enumerate_comparisons,
    spec_from_dict,
    spec_to_dict,
)


def make_spec(content_sizes, context_sizes):
    content = tuple(
        Factor(f"m{i}", tuple(f"m{i}v{j}" for j in range(n)))
        for i, n in enumerate(content_sizes)
    )
    context = tuple(
        Factor(f"c{i}", tuple(f"c{i}v{j}" for j in range(n)))
        for i, n in enumerate(context_sizes)
    )
    return ExperimentSpec(content, context)


PAPER_SPEC = make_spec([4, 4], [4, 4])


class TestEnumerateCells:
    def test_paper_scale_cell_count(self):
        assert len(enumerate_cells(PAPER_SPEC)) == 256

    def test_single_factor(self):
        assert len(enumerate_cells(make_spec([2], []))) == 2

    def test_mixed_sizes(self):
        assert len(enumerate_cells(make_spec([2, 3], []))) == 6

    def test_lexicographic_order(self):
        cells = enumerate_cells(make_spec([2, 3], []))
        assert cells.dtype.kind == "i"
        assert cells.tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]]

    def test_cell_index_matches_enumeration(self):
        spec = make_spec([2, 2], [3])
        cells = enumerate_cells(spec)
        for ci, content in enumerate(spec.content_combinations()):
            for xi, context in enumerate(spec.context_combinations()):
                k = spec.cell_index(content, context)
                assert tuple(cells[k].tolist()) == content + context


class TestBuildDesignMatrix:
    def test_paper_scale_shape(self):
        X = build_design_matrix(PAPER_SPEC, interaction_order=2)
        assert (X.rows, X.cols) == (256, 113)

    def test_main_effects_only_shape(self):
        X = build_design_matrix(make_spec([2], []), interaction_order=1)
        assert (X.rows, X.cols) == (2, 3)

    def test_two_factor_order2_shape(self):
        X = build_design_matrix(make_spec([2, 3], []), interaction_order=2)
        assert (X.rows, X.cols) == (6, 12)

    def test_row_sums(self):
        X = build_design_matrix(PAPER_SPEC, interaction_order=2)
        expected = 1 + 4 + math.comb(4, 2)
        assert np.all(X.matrix.sum(axis=1) == expected)

    def test_interactions_need_two_factors(self):
        with pytest.raises(ValueError, match="interactions require"):
            build_design_matrix(make_spec([3], []), interaction_order=2)

    def test_column_labels_unique(self):
        X = build_design_matrix(PAPER_SPEC, interaction_order=2)
        assert len(set(X.column_labels)) == X.cols

    def test_every_factor_value_has_one_main_column(self):
        spec = make_spec([2, 3], [2])
        X = build_design_matrix(spec, interaction_order=2)
        mains = [(l.factor_a, l.value_a) for l in X.column_labels if l.kind == "main"]
        expected = [(f.name, v) for f in spec.factors for v in f.values]
        assert sorted(mains) == sorted(expected)

    def test_paper_scale_matrix_is_pinned(self):
        # SHA-256 of the matrix bytes and of the labels' reprs, so a change
        # of column order, coding or labelling shows here.
        X = build_design_matrix(PAPER_SPEC, interaction_order=2)
        labels = "\n".join(map(repr, X.column_labels)).encode()
        assert X.matrix.dtype == np.float64
        assert hashlib.sha256(X.matrix.tobytes()).hexdigest() == (
            "b063d3962cc54cddf3a5ed852cfa53ca19bcee0fa592c6cdb55b39ba26c8b7de")
        assert hashlib.sha256(labels).hexdigest() == (
            "865049a557005e3348567491986faabb3cb48dd5a29bfe258d84e9040fe6763a")

    def test_rows_recover_cells(self):
        spec = make_spec([2, 3], [2])
        X = build_design_matrix(spec, interaction_order=2)
        cells = enumerate_cells(spec)
        for k, cell in enumerate(cells):
            active = [X.column_labels[j] for j in np.flatnonzero(X.matrix[k])]
            mains = {(l.factor_a, l.value_a) for l in active if l.kind == "main"}
            expected = {
                (f.name, f.values[i]) for f, i in zip(spec.factors, cell)
            }
            assert mains == expected


class TestEnumerateComparisons:
    def test_small_multivariate_count(self):
        # 2x2 content (4 combos -> 6 pairs), 4x4 context (16 combos).
        spec = make_spec([2, 2], [4, 4])
        assert len(enumerate_comparisons(spec)) == 96

    def test_paper_scale_count(self):
        assert len(enumerate_comparisons(PAPER_SPEC)) == 1920

    def test_minimal_pair(self):
        assert len(enumerate_comparisons(make_spec([2], []))) == 1

    def test_pairs_are_unordered_and_context_major(self):
        spec = make_spec([2], [2])
        comps = enumerate_comparisons(spec)
        assert comps == [((0,), (0,), (1,)), ((1,), (0,), (1,))]

    def test_comparison_cells_index_both_sides_once_per_spec(self):
        spec = make_spec([2, 3], [2])
        a_idx, b_idx = comparison_cells(spec)
        pairs = enumerate_comparisons(spec)
        assert a_idx.tolist() == [spec.cell_index(a, ctx) for ctx, a, _ in pairs]
        assert b_idx.tolist() == [spec.cell_index(b, ctx) for ctx, _, b in pairs]
        assert comparison_cells(make_spec([2, 3], [2]))[0] is a_idx
        with pytest.raises(ValueError):
            a_idx[0] = 1


@st.composite
def small_specs(draw):
    n_content = draw(st.integers(1, 3))
    n_context = draw(st.integers(0, 2))
    sizes = draw(
        st.lists(st.integers(2, 4), min_size=n_content + n_context,
                 max_size=n_content + n_context)
    )
    return make_spec(sizes[:n_content], sizes[n_content:])


@given(small_specs())
@settings(max_examples=40, deadline=None)
def test_design_invariants(spec):
    order = 2 if len(spec.factors) >= 2 else 1
    X = build_design_matrix(spec, interaction_order=order)
    F = len(spec.factors)
    assert X.rows == spec.n_cells
    n_values = sum(len(f.values) for f in spec.factors)
    n_inter = sum(
        len(a.values) * len(b.values)
        for a, b in itertools.combinations(spec.factors, 2)
    )
    assert X.cols == 1 + n_values + (n_inter if order == 2 else 0)
    row_ones = 1 + F + (math.comb(F, 2) if order == 2 else 0)
    assert np.all(X.matrix.sum(axis=1) == row_ones)
    n_content = len(spec.content_combinations())
    n_context = len(spec.context_combinations())
    if n_content >= 2:
        assert len(enumerate_comparisons(spec)) == n_context * math.comb(n_content, 2)


def test_spec_dict_round_trip():
    spec = make_spec([2, 3], [2])
    assert spec_from_dict(spec_to_dict(spec)) == spec


MSG = {"name": "msg", "role": "content", "values": ["m0", "m1"]}


@pytest.mark.parametrize("config, message", [
    ([MSG], "top-level 'factors' list"),
    ({"factors": MSG}, "top-level 'factors' list"),
    ({"factors": ["msg"]}, "is not an object"),
    ({"factors": [{**MSG, "values": [1, 2]}]}, "values must be a list of strings"),
    ({"factors": [{**MSG, "values": "AB"}]}, "values must be a list of strings"),
    ({"factors": [{**MSG, "name": 3}]}, "is not a string"),
    ({"factors": [{"name": "msg", "role": "content"}]}, "missing key 'values'"),
    ({"factors": [{**MSG, "role": "both"}]}, "role must be"),
    ({"factors": [{**MSG, "values": ["m0", "a|b"]}]}, "must not contain '|'"),
])
def test_malformed_spec_config_raises_value_error(config, message):
    with pytest.raises(ValueError, match=message):
        spec_from_dict(config)


def test_spec_validation():
    with pytest.raises(ValueError):
        Factor("f", ("only",))
    with pytest.raises(ValueError):
        Factor("f", ("a", "a"))
    with pytest.raises(ValueError):
        ExperimentSpec((), (Factor("c", ("a", "b")),))
    with pytest.raises(ValueError):
        ExperimentSpec((Factor("x", ("a", "b")), Factor("x", ("c", "d"))))
