"""The one source strategy of the identity properties.

sources() draws a Config (configs()) or a SqDistMatrix (matrices()) from
the input space that the energy kernels, the oracles, the reduction and
verify accept, in the slices where their bugs hide:
- k = 2..4, each coordinate over its own denominator from a few of
  DENOMINATORS; the axis coordinates may all be ints, so that the scale
  comes from rho_sq alone;
- narrow ranges, where squared distances collide; mirror parameters,
  which give one point the same value at two grid values; and a shift
  along the axis off the integers;
- any multiplicity: at c = 1 the points are distinct by axis coordinate
  and by rho_sq by construction; above it a draw plants repeated axis
  coordinates, repeated rho_sq (transverse coordinates permuted and
  negated) and identical points, past the declared c too;
- matrices of any rationals, drawn from a small pool so that values
  repeat, with n = 0 among them.
Each value is one draw from a finite set, and every draw is small (n <= 16,
m <= 10): scaled values stay far below 2^15, as tests/test_energy.py's
near_limit needs.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from ddlab import Config, SqDistMatrix

DENOMINATORS = (1, 2, 3, 5, 7, 12)
SHIFTS = (0, Fraction(1, 5), Fraction(-3, 7))


def _values(values):
    """One draw per value from a finite set, shrinking towards 0."""
    return st.sampled_from(sorted(set(values), key=lambda v: (abs(v), v)))


def _rho(point) -> Fraction:
    return sum(v * v for v in point[1:])


@st.composite
def configs(draw) -> Config:
    k = draw(st.integers(2, 4))
    bound = draw(st.sampled_from((2, 5, 12)))
    dens = draw(st.lists(st.sampled_from(DENOMINATORS), min_size=1, max_size=3, unique=True))
    value = _values(Fraction(a, d) for a in range(-bound, bound + 1) for d in dens)
    axis = _values(map(Fraction, range(-bound, bound + 1))) if draw(st.booleans()) else value
    point = st.tuples(axis, *[value] * (k - 1))
    c = draw(st.sampled_from((1, 1, 2, 3)))
    if c == 1:
        points = draw(st.lists(point, min_size=2, max_size=7, unique_by=(lambda p: p[0], _rho)))
    else:
        points = draw(st.lists(point, min_size=2, max_size=7))
        for _ in range(draw(st.integers(0, 3))):  # an earlier point's axis coordinate, rho_sq, or all
            old, new = draw(st.sampled_from(points)), draw(point)
            transverse = [v if draw(st.booleans()) else -v for v in draw(st.permutations(old[1:]))]
            points.append(draw(st.sampled_from(((old[0], *new[1:]), (new[0], *transverse), old))))
    params = set(draw(st.lists(axis, min_size=2, max_size=8)))
    if draw(st.booleans()):  # mirror the parameters about one point's axis coordinate
        x = draw(st.sampled_from(points))[0]
        params |= {2 * x - a for a in params}
    shift = draw(st.sampled_from(SHIFTS))
    return Config.of(
        k=k,
        c=c,
        p1_params=[a + shift for a in params],
        p2_points=[(p[0] + shift, *p[1:]) for p in points],
    )


@st.composite
def matrices(draw) -> SqDistMatrix:
    n, m = draw(st.integers(0, 9)), draw(st.integers(1, 9))
    value = _values(Fraction(a, d) for a in range(9) for d in (1, 2, 3, 4, 6, 7))
    if draw(st.booleans()):  # a small pool, so that values repeat often
        value = st.sampled_from(draw(st.lists(value, min_size=1, max_size=8)))
    row = st.lists(value, min_size=m, max_size=m).map(tuple)
    return SqDistMatrix.of(n=n, m=m, entries=draw(st.lists(row, min_size=n, max_size=n)))


def sources():
    """A config or a matrix: every source the identity properties check."""
    return st.one_of(configs(), matrices())
