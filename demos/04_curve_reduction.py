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
    build_family,
    distance_classes,
    energy_report,
    incidences,
    intersection_count,
    oracle_incidences,
)

cfg = Config.of(k=2, c=1, p1_params=[0, 2], p2_points=[(0, 1), (1, 2)])

# One curve per ordered point pair, in the three-number form
# (x + alpha)^2 - (y + beta)^2 + gamma = 0, gamma never zero.
fam = build_family(cfg)
print("curves (alpha, beta, gamma):")
for h in fam.iter_curves():
    print(f"  pair {h.src}: ({h.alpha}, {h.beta}, {h.gamma})")
positive = sum(1 for h in fam.iter_curves() if h.gamma > 0)
print("positive gammas:", positive, " negative:", len(fam) - positive)

# Count grid points on curves by the grouped join, on the config's int view
# (the grid and the family at one scale), and check every curve's count
# against the oracle, which evaluates each curve at each grid point on the
# config's own rationals, without the family.
rep = incidences(cfg.view, fam)
print("\nincidences:", rep.total, " per curve:", rep.per_curve)
assert rep.per_curve == oracle_incidences(cfg.p1_params, cfg)

# The count is exactly Q1: a cross quadruple (i, j, k, l), two pairs of one
# distance class with j != l, is the grid point (a_i, a_k) on curve (j, l).
# `ddlab verify` checks this map point by point on desk-scale inputs.
print("Q1 =", energy_report(cfg).energy_cross)
a = cfg.p1_params
for pairs in distance_classes(cfg).classes.values():
    for i, j in pairs:
        for k, l in pairs:
            if j != l:
                assert fam.curve(j, l).contains(a[i], a[k])
                print(f"  quadruple {(i, j, k, l)} -> grid point ({a[i]}, {a[k]}) on curve {(j, l)}")

# Any two distinct curves meet in at most two points, certified by the sign
# of an exact discriminant along the radical line.
a, b = fam.curve(0, 1), fam.curve(1, 0)
result = intersection_count(a, b)
crossings = [f"({x}, {y})" for x, y in result.points]
print("\ncurves", a.src, "and", b.src, "meet in", result.count, "points:", crossings)
