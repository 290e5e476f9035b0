"""intersection_count against an independent sympy solve of the two curves.

The oracle hands both curve equations to sympy.solve over the rationals and
counts the distinct real solutions and the rational ones. The property runs
over arbitrary Hyperbola pairs with small rational coefficients, not only
pairs drawn from one config's family; pairs that share alpha, beta or a
diagonal offset are drawn on purpose, since they reach the degenerate
branches (horizontal, vertical or asymptote-parallel radical lines,
disjoint translates).
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlab import Hyperbola, intersection_count

sympy = pytest.importorskip("sympy")

X, Y = sympy.symbols("x y")


def _sym(value: Fraction):
    return sympy.Rational(value.numerator, value.denominator)


def _frac(value) -> Fraction:
    return Fraction(int(value.p), int(value.q))


def sympy_intersections(h1: Hyperbola, h2: Hyperbola) -> tuple[int, tuple]:
    """(number of distinct real common points, sorted rational common points)."""
    equations = [
        (X + _sym(h.alpha)) ** 2 - (Y + _sym(h.beta)) ** 2 + _sym(h.gamma) for h in (h1, h2)
    ]
    real = set()
    for sol in sympy.solve(equations, [X, Y], dict=True):
        x, y = sol[X], sol[Y]
        assert x.is_real is not None and y.is_real is not None, sol
        if x.is_real and y.is_real:
            real.add((x, y))
    rational = sorted((_frac(x), _frac(y)) for x, y in real if x.is_rational and y.is_rational)
    return len(real), tuple(rational)


def _regime(h1: Hyperbola, h2: Hyperbola) -> str:
    """Which case of the radical-line analysis a pair reaches, on rationals."""
    la = 2 * (h1.alpha - h2.alpha)
    lb = -2 * (h1.beta - h2.beta)
    lc = h1.alpha ** 2 - h2.alpha ** 2 - h1.beta ** 2 + h2.beta ** 2 + h1.gamma - h2.gamma
    if la == lb == 0:
        return "translates"
    if lb == 0:
        return "vertical"
    slope, w = -la / lb, -lc / lb + h1.beta
    qa, qb = 1 - slope * slope, 2 * (h1.alpha - slope * w)
    qc = h1.alpha ** 2 - w * w + h1.gamma
    if qa == 0:
        return "asymptote-miss" if qb == 0 else "linear"
    disc = qb * qb - 4 * qa * qc
    return "tangent" if disc == 0 else ("two" if disc > 0 else "none")


def _curve(alpha, beta, gamma) -> Hyperbola:
    return Hyperbola(Fraction(alpha), Fraction(beta), Fraction(gamma), src=(0, 1))


# (name, h1, h2): one pair per branch of intersection_count; names start with the regime
CASES = (
    ("translates", _curve(1, 2, 5), _curve(1, 2, -4)),
    ("vertical-rational", _curve(0, 0, 3), _curve(-2, 0, 3)),
    ("vertical-irrational", _curve(0, 0, 1), _curve(-1, 0, 1)),
    ("vertical-tangent", _curve(0, 0, -1), _curve(-2, 0, -1)),
    ("vertical-none", _curve(0, 0, -9), _curve(-1, 0, -9)),
    ("linear", _curve(0, -1, -3), _curve(-1, 0, 3)),
    ("asymptote-miss", _curve(0, -1, -24), _curve(-1, -2, -24)),
    ("tangent", _curve(0, 0, 1), _curve(0, -3, 4)),
    ("two-rational", _curve(0, 0, -4), _curve(-3, -2, 3)),
    ("two-horizontal", _curve(0, 0, -3), _curve(0, -2, -3)),
    ("two-irrational", _curve(Fraction(1, 2), Fraction(2, 3), Fraction(5, 7)),
     _curve(Fraction(-1, 3), Fraction(1, 5), Fraction(-3, 2))),
    ("none", _curve(0, 0, -4), _curve(-3, -2, -4)),
)


def test_cases_reach_every_branch():
    regimes = {name: _regime(h1, h2) for name, h1, h2 in CASES}
    assert set(regimes.values()) == {
        "translates", "vertical", "linear", "asymptote-miss", "tangent", "two", "none",
    }
    for name, regime in regimes.items():
        assert name.startswith(regime), (name, regime)
    points = {name: sympy_intersections(h1, h2) for name, h1, h2 in CASES}
    assert points["vertical-rational"][1] and points["two-rational"][1]
    # a horizontal radical line (same alpha) crossing twice, and one touching
    assert points["two-horizontal"] == (2, ((-2, 1), (2, 1)))
    assert [name for name, h1, h2 in CASES if h1.alpha == h2.alpha and h1.beta != h2.beta] == [
        "tangent", "two-horizontal",
    ]
    assert points["vertical-irrational"] == (2, ()) and points["two-irrational"] == (2, ())
    assert points["vertical-tangent"][0] == points["tangent"][0] == 1


@st.composite
def curve_pairs(draw) -> tuple[Hyperbola, Hyperbola]:
    small = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3)))
    nonzero = small.filter(bool)
    a1, b1, g1, a2, b2, g2 = draw(st.tuples(small, small, nonzero, small, small, nonzero))
    shape = draw(st.sampled_from(("free", "same-alpha", "same-beta", "same-axes", "diagonal", "antidiagonal")))
    if shape in ("same-beta", "same-axes"):
        b2 = b1
    if shape in ("same-alpha", "same-axes"):
        a2 = a1
    if shape == "diagonal":
        b2 = b1 + (a2 - a1)
    if shape == "antidiagonal":
        b2 = b1 - (a2 - a1)
    return _curve(a1, b1, g1), _curve(a2, b2, g2)


@settings(max_examples=100, deadline=None)
@given(curve_pairs())
def test_matches_sympy_on_arbitrary_pairs(pair):
    h1, h2 = pair
    if (h1.alpha, h1.beta, h1.gamma) == (h2.alpha, h2.beta, h2.gamma):
        return
    res = intersection_count(h1, h2)
    assert (res.count, res.points) == sympy_intersections(h1, h2)


@pytest.mark.parametrize("name, h1, h2", CASES, ids=[c[0] for c in CASES])
def test_named_cases_match_sympy(name, h1, h2):
    res = intersection_count(h1, h2)
    assert (res.count, res.points) == sympy_intersections(h1, h2)
