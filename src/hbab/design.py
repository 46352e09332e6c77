"""Experiment specification, cell enumeration, and one-hot design matrices.

An experiment is described by categorical *content* factors (what is shown:
title, image, ...) and categorical *context* factors (where it is shown:
country, device, ...). Every unique assignment of one value per factor is a
*cell*; response rates are estimated per cell. The design matrix maps a
coefficient vector (intercept, per-value main effects, optional pairwise
interaction effects) onto those cells.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Factor",
    "ExperimentSpec",
    "ColumnLabel",
    "DesignMatrix",
    "enumerate_cells",
    "build_design_matrix",
    "enumerate_comparisons",
    "comparison_cells",
    "load_experiment_spec",
    "spec_from_dict",
    "spec_to_dict",
]


@dataclass(frozen=True)
class Factor:
    """A categorical factor with a fixed, ordered set of value labels."""

    name: str
    values: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) < 2:
            raise ValueError(f"factor {self.name!r} needs >= 2 values")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"factor {self.name!r} has duplicate value labels")


@dataclass(frozen=True)
class ExperimentSpec:
    """Content and context factors of one multivariate experiment.

    Content factors come first in every enumeration; both lists keep their
    given order so that all derived orderings are deterministic.
    """

    content_factors: tuple[Factor, ...]
    context_factors: tuple[Factor, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "content_factors", tuple(self.content_factors))
        object.__setattr__(self, "context_factors", tuple(self.context_factors))
        if len(self.content_factors) < 1:
            raise ValueError("need at least one content factor")
        names = [f.name for f in self.factors]
        if len(set(names)) != len(names):
            raise ValueError("factor names must be unique")

    @property
    def factors(self) -> tuple[Factor, ...]:
        return self.content_factors + self.context_factors

    @property
    def n_cells(self) -> int:
        return int(np.prod([len(f.values) for f in self.factors]))

    def content_combinations(self) -> list[tuple[int, ...]]:
        """All content-value index combinations, lexicographic order."""
        return list(
            itertools.product(*(range(len(f.values)) for f in self.content_factors))
        )

    def context_combinations(self) -> list[tuple[int, ...]]:
        """All context-value index combinations; [()] when there are none."""
        return list(
            itertools.product(*(range(len(f.values)) for f in self.context_factors))
        )

    def cell_index(self, content: tuple[int, ...], context: tuple[int, ...]) -> int:
        """Row index in ``enumerate_cells`` order of a (content, context) pair.

        Content factors are the leading digits of the enumeration, so cells
        sharing a content combination are contiguous.
        """
        idx = 0
        for fac, val in zip(self.factors, content + context):
            if not 0 <= val < len(fac.values):
                raise ValueError(f"value index {val} out of range for {fac.name!r}")
            idx = idx * len(fac.values) + val
        return idx

    def describe_cell(self, cell) -> str:
        """``name=value`` of each factor of ``cell``, one row of
        ``enumerate_cells`` (or any sequence of value indices)."""
        return ", ".join(
            f"{fac.name}={fac.values[i]}" for fac, i in zip(self.factors, cell)
        )


@dataclass(frozen=True)
class ColumnLabel:
    """Identity of one design-matrix column.

    kind is one of "intercept", "main", "interaction". Main-effect columns
    carry (factor, value); interaction columns carry both endpoints.
    """

    kind: str
    factor_a: str = ""
    value_a: str = ""
    factor_b: str = ""
    value_b: str = ""

    def __str__(self) -> str:
        if self.kind == "intercept":
            return "intercept"
        if self.kind == "main":
            return f"{self.factor_a}={self.value_a}"
        return f"{self.factor_a}={self.value_a}*{self.factor_b}={self.value_b}"


@dataclass(frozen=True)
class DesignMatrix:
    """Dense binary matrix mapping coefficient columns to cells."""

    matrix: np.ndarray
    column_labels: tuple[ColumnLabel, ...] = field(repr=False)

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]


def enumerate_cells(spec: ExperimentSpec) -> np.ndarray:
    """All cells in lexicographic order, content factors as leading digits:
    the ``[cells, factors]`` integer array of each cell's value index of
    each factor.

    The last factor varies fastest; the ordering is the deterministic basis
    for design-matrix rows, count-vector layouts, and seeding.
    """
    sizes = [len(f.values) for f in spec.factors]
    return np.indices(sizes).reshape(len(sizes), -1).T


def build_design_matrix(spec: ExperimentSpec, interaction_order: int = 2) -> DesignMatrix:
    """One-hot design matrix over all cells.

    Columns, in this order: one intercept, one main-effect column per
    factor value (full one-hot, no reference level dropped; identifiability
    comes from the hierarchical prior, not the coding), and, with
    ``interaction_order=2``, one column per pair of values of each pair of
    distinct factors, the first factor's value major.

    Every row therefore has exactly ``1 + F`` ones at order 1 and
    ``1 + F + C(F, 2)`` ones at order 2, with F the number of factors.
    """
    if interaction_order not in (1, 2):
        raise ValueError("interaction_order must be 1 or 2")
    factors = spec.factors
    if interaction_order == 2 and len(factors) < 2:
        raise ValueError("interactions require >= 2 factors")

    values = enumerate_cells(spec)
    labels: list[ColumnLabel] = [ColumnLabel("intercept")]
    blocks = [np.ones((len(values), 1))]
    for i, fac in enumerate(factors):
        labels.extend(ColumnLabel("main", fac.name, v) for v in fac.values)
        blocks.append(np.eye(len(fac.values))[values[:, i]])
    if interaction_order == 2:
        for (a, fa), (b, fb) in itertools.combinations(enumerate(factors), 2):
            labels.extend(ColumnLabel("interaction", fa.name, va, fb.name, vb)
                          for va in fa.values for vb in fb.values)
            n_b = len(fb.values)
            blocks.append(np.eye(len(fa.values) * n_b)[values[:, a] * n_b + values[:, b]])
    return DesignMatrix(np.hstack(blocks), tuple(labels))


def enumerate_comparisons(
    spec: ExperimentSpec,
) -> list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """All pairwise content comparisons within each context combination.

    Returns (context_combo, content_combo_A, content_combo_B) triples of
    value-index tuples, context-major, with A before B in enumeration order.
    Count = (number of context combinations) x C(number of content combos, 2).
    """
    contents = spec.content_combinations()
    if len(contents) < 2:
        raise ValueError("need >= 2 content combinations to compare")
    pairs = list(itertools.combinations(contents, 2))
    return [(ctx, a, b) for ctx in spec.context_combinations() for a, b in pairs]


@functools.lru_cache(maxsize=16)
def comparison_cells(spec: ExperimentSpec) -> tuple[np.ndarray, np.ndarray]:
    """Cell indices of both sides of every pair, in ``enumerate_comparisons``
    order, as read-only ``(a, b)`` arrays.

    Built once per spec (specs are frozen and hashable), so per-update
    callers index arrays instead of calling ``cell_index`` per pair.
    """
    pairs = enumerate_comparisons(spec)
    a_idx = np.array([spec.cell_index(a, ctx) for ctx, a, _ in pairs], dtype=np.intp)
    b_idx = np.array([spec.cell_index(b, ctx) for ctx, _, b in pairs], dtype=np.intp)
    a_idx.flags.writeable = b_idx.flags.writeable = False
    return a_idx, b_idx


def spec_from_dict(d: dict) -> ExperimentSpec:
    """Build a spec from the documented config mapping (see
    ``load_experiment_spec``); raises ``ValueError`` on any other shape."""
    if not isinstance(d, dict) or not isinstance(d.get("factors"), list):
        raise ValueError("experiment spec config needs a top-level 'factors' list")
    content, context = [], []
    for entry in d["factors"]:
        if not isinstance(entry, dict):
            raise ValueError(f"factor entry {entry!r} is not an object")
        try:
            name, values, role = entry["name"], entry["values"], entry["role"]
        except KeyError as exc:
            raise ValueError(f"factor entry missing key {exc}")
        if not isinstance(name, str):
            raise ValueError(f"factor name {name!r} is not a string")
        if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
            raise ValueError(f"factor {name!r}: values must be a list of strings")
        # Output files join a combination's value labels with "|", so a label
        # holding one could make two combinations read the same.
        if any("|" in v for v in values):
            raise ValueError(f"factor {name!r}: value labels must not contain '|'")
        # Output CSV rows leave a carriage return unquoted, and a reader ends
        # the row there. Output files are UTF-8; a lone surrogate has no
        # encoding there.
        for text in (name, *values):
            if "\r" in text:
                raise ValueError(f"factor {name!r}: name and value labels must not "
                                 "contain a carriage return")
            try:
                text.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"factor {name!r}: name and value labels must be "
                                 f"UTF-8 text, got {text!r}") from None
        fac = Factor(name, tuple(values))
        if role == "content":
            content.append(fac)
        elif role == "context":
            context.append(fac)
        else:
            raise ValueError(f"factor {fac.name!r}: role must be 'content' or 'context'")
    return ExperimentSpec(tuple(content), tuple(context))


def spec_to_dict(spec: ExperimentSpec) -> dict:
    return {
        "factors": [
            {"name": f.name, "role": role, "values": list(f.values)}
            for role, facs in (
                ("content", spec.content_factors),
                ("context", spec.context_factors),
            )
            for f in facs
        ]
    }


def load_experiment_spec(path) -> ExperimentSpec:
    """Load an experiment spec from a JSON config file.

    Schema::

        {"factors": [{"name": "title", "role": "content",
                      "values": ["control", "variant"]},
                     {"name": "country", "role": "context",
                      "values": ["US", "CA"]}]}

    Factor order in the file is preserved within each role; content factors
    always precede context factors in derived enumerations.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))
