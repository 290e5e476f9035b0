"""
Distance energy: counting repeated distances exactly
====================================================

The number of distinct distances x between the axis set and the point set is
tied to the energy Q, the number of ordered quadruple repeats. Few distinct
distances force many repeats, so a lower bound on x falls out of an upper
bound on Q by Cauchy-Schwarz. All counts here are exact.
"""

from ddlab import (
    Config,
    check_chain,
    distance_classes,
    energy_report,
    gen_random,
    oracle_quadruples,
)
from ddlab.energy import energy

# Two axis positions against two planar points, small enough to eyeball.
cfg = Config.of(k=2, c=1, p1_params=[0, 2], p2_points=[(0, 1), (1, 2)])

# Group the n*m pairs by their exact squared distance.
classes = distance_classes(cfg)
print("distinct squared distances x =", classes.distinct_count)
for d, pairs in sorted(classes.classes.items()):
    print(f"  d = {d}: pairs {pairs}")

# Q counts ordered pairs of pairs with equal distance; Q0 is the part that
# reuses a point column, Q1 the rest. The report stores only Q0 and the
# class-size histogram: x, Q and Q1 are read off those two. energy counts
# them straight from the exact squared distances, column by column, without
# the pair lists above.
rep = energy(cfg)
print("\nQ  =", rep.energy)
print("Q0 =", rep.energy_same_point, " (<= n*m =", rep.n * rep.m, ")")
print("Q1 =", rep.energy_cross)
print("class histogram (size, count):", rep.class_histogram)

# The streaming route, on the config scaled into ints, gives the identical
# report, and the quadruple oracle re-counts everything by brute force.
assert energy_report(cfg) == rep
assert oracle_quadruples(cfg) == (rep.energy, rep.energy_same_point, rep.energy_cross)
print("streaming route and brute-force oracle agree")

# x * Q >= (nm - x)^2 always; with x <= nm/2 it rearranges to 4xQ >= (nm)^2.
# check_chain reads n, m, x and Q off the report and derives every verdict.
chain = check_chain(rep)
print("\nx*Q - (nm - x)^2 =", chain.slack)
print("chain holds:", chain.ok)

# The same accounting on a bigger random configuration.
big = gen_random(n=40, m=60, k=3, seed=9, coord_range=500)
rep = energy_report(big)
print("\nrandom n=40, m=60:")
print("  x =", rep.distinct_count, " Q =", rep.energy,
      " Q0 =", rep.energy_same_point, " Q1 =", rep.energy_cross)
print("  chain slack =", check_chain(rep).slack)
