"""Factorial experiment specs, cells, and one-hot design matrices.

A multivariate AB test is declared as content factors (what we control)
and context factors (where it lands). Every unique value assignment is a
cell; the design matrix maps an intercept, per-value main effects, and
pairwise interaction effects onto those cells.
"""

import numpy as np

from hbab import ExperimentSpec, Factor, build_design_matrix, enumerate_cells
from hbab.design import enumerate_comparisons

# A message test: 2 titles x 2 images, shown across 2 countries x 2 devices.
spec = ExperimentSpec(
    content_factors=(
        Factor("title", ("short", "long")),
        Factor("image", ("photo", "art")),
    ),
    context_factors=(
        Factor("country", ("US", "CA")),
        Factor("device", ("phone", "tablet")),
    ),
)

# One row of value indices per cell, one column per factor.
cells = enumerate_cells(spec)
print(f"{len(cells)} cells; the first few:")
for cell in cells[:4]:
    print("  ", cell.tolist(), spec.describe_cell(cell))

X = build_design_matrix(spec, interaction_order=2)
print(f"\ndesign matrix: {X.rows} rows x {X.cols} columns")
print("column kinds:", {k: sum(1 for l in X.column_labels if l.kind == k)
                        for k in ("intercept", "main", "interaction")})
print("every row activates intercept + 4 mains + 6 interactions:",
      set(X.matrix.sum(axis=1)))

pairs = enumerate_comparisons(spec)
print(f"\npairwise content comparisons per update: {len(pairs)}"
      f" (= {len(spec.context_combinations())} contexts"
      f" x C({len(spec.content_combinations())}, 2))")

# Scaling up: four values per factor reproduces the large-design counts.
big = ExperimentSpec(
    content_factors=(
        Factor("title", tuple("t" + str(i) for i in range(4))),
        Factor("image", tuple("i" + str(i) for i in range(4))),
    ),
    context_factors=(
        Factor("country", tuple("c" + str(i) for i in range(4))),
        Factor("device", tuple("d" + str(i) for i in range(4))),
    ),
)
Xb = build_design_matrix(big, interaction_order=2)
print(f"\n4-value version: {Xb.rows} cells, {Xb.cols} columns, "
      f"{len(enumerate_comparisons(big))} comparisons")

# Rows are one-hot: reading the active main-effect columns back recovers
# the cell.
row = np.flatnonzero(X.matrix[5])
print("\nrow 5 active columns:", [str(X.column_labels[j]) for j in row])
