"""
Reproducible experiment sweeps
==============================

A sweep runs the whole pipeline over a grid of (n, m, seed) cells and emits
one CSV row per cell: the exact counts, the float bound, the ratios between
them, and pass flags for every internal cross-check. Rows are sorted and
formatted deterministically, so two runs of the same spec are byte-identical.
"""

from ddlab import CSV_COLUMNS, SweepSpec, compute_row, rows_to_csv, run_sweep

# Nine cells: three sizes, three seeds, the default random generator.
spec = SweepSpec(n_list=(8, 16, 32), m_list=(16,), seeds=(0, 1, 2))
rows = run_sweep(spec)
print(rows_to_csv(rows))

# Every column, in order.
print("columns:", ", ".join(CSV_COLUMNS))

# A single cell can be computed directly.
row = compute_row(spec, n=16, m=16, seed=0)
print("\none cell: x =", row.x, " Q =", row.Q, " I =", row.I,
      " ratio x/bound =", row.ratio_x_over_bound)

# The extremal generators slot into the same harness; incidence counting is
# skipped there because those configurations are deliberately clash-heavy.
cyl = run_sweep(SweepSpec(n_list=(16,), m_list=(16,), seeds=(0,), generator="cylinder"))
print("\ncylinder row: x =", cyl[0].x, " I =", cyl[0].I)

# Determinism: a second run writes the same bytes.
print("\nrepeat run identical:", rows_to_csv(run_sweep(spec)) == rows_to_csv(rows))
