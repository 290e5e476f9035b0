"""
From repeated distances to curve-grid incidences
================================================

Every cross-column repeat pairs two axis positions (s, t) with two points
(p, q) such that sq_dist(s, p) = sq_dist(t, q). For a fixed ordered pair
(p, q) the solutions (s, t) sweep out one hyperbola, so Q1 equals the number
of incidences between the n^2 grid of axis pairs and m(m-1) curves.
"""

from ddlab import (
    Config,
    ParamGrid,
    build_family,
    energy_report,
    incidences,
    intersection_count,
    oracle_incidences,
    verify_bijection,
)

cfg = Config.of(k=2, c=1, p1_params=[0, 2], p2_points=[(0, 1), (1, 2)])

# One curve per ordered point pair, in the three-number form
# (x + alpha)^2 - (y + beta)^2 + gamma = 0, gamma never zero.
fam = build_family(cfg)
print("curves (alpha, beta, gamma):")
for h in fam.curves:
    print(f"  pair {h.src}: ({h.alpha}, {h.beta}, {h.gamma})")
positive = sum(1 for h in fam.curves if h.gamma > 0)
print("positive gammas:", positive, " negative:", len(fam) - positive)

# Count grid points on curves by the grouped join, and check every curve's
# count against the oracle, which evaluates each curve at each grid point.
grid = ParamGrid.from_config(cfg)
rep = incidences(grid, fam)
print("\nincidences:", rep.total, " per curve:", rep.per_curve)
assert rep.per_curve == oracle_incidences(grid, fam)

# The count is exactly Q1, and the audit pairs every quadruple with its
# witnessing grid point and curve.
print("Q1 =", energy_report(cfg).energy_cross)
audit = verify_bijection(cfg, audit=True)
for entry in audit.audit:
    s, t = entry.point
    print(f"  quadruple {entry.quadruple} -> grid point ({s}, {t}) on curve {entry.curve_src}")

# Any two distinct curves meet in at most two points, certified by the sign
# of an exact discriminant along the radical line.
a, b = fam.curves[0], fam.curves[1]
result = intersection_count(a, b)
crossings = [f"({x}, {y})" for x, y in result.points]
print("\ncurves", a.src, "and", b.src, "meet in", result.count, "points:", crossings)
