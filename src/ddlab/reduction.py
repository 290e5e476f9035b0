"""Curve-family reduction: cross-column energy as point-curve incidences.

Each ordered pair (p, q) of distinct P2 points defines the curve

    (x + alpha)^2 - (y + beta)^2 + gamma = 0,

with alpha = -p1, beta = -q1 and gamma = rho_sq(p) - rho_sq(q). A grid
point (s, t) built from two axis parameters lies on the curve exactly when
sq_dist(s, p) = sq_dist(t, q), so the cross-column quadruples of the energy
module and the incidences between the n^2 grid and the m(m-1) curves are
two counts of the same set. On a config valid at c = 1 no gamma vanishes
(which would make the curve a line pair), and two pairs can share a curve
only by sharing both axis coordinates, so the m(m-1) curves are distinct by
construction. The mirror (i, j) -> (j, i) negates gamma: half have each sign.

Curve building and incidence counting run on the config scaled into ints
(Config.view), which scales (alpha, beta, gamma) by (L, L, L^2) and each
curve equation by L^2, keeping every incidence. Counting reads the reduction
backwards: it groups the n m scaled values sq_dist(s, p) and pairs equal
values of distinct points, in O(n m + I) for I incidences. Hyperbola values,
with their rational coefficients, are built only for callers that ask.

Subtracting two curve equations cancels the quadratic part, leaving the
radical line, so two distinct curves of the family meet in at most two
points: the family behaves like pseudo-parabolas. Intersection counting
walks that line from its foot: on the line, the first curve's equation is
one integer quadratic in the walk parameter, whatever the line's direction,
so a single case analysis (no line, a line parallel to an asymptote, or the
sign of a discriminant) gives the count. Points are materialized, as
Fractions, only when their coordinates are rational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from typing import Iterator

from .errors import (
    DegenerateHyperbolaError,
    DuplicateCurveError,
    IdenticalCurvesError,
    IntersectionCheckError,
)
from .exact import Config, IntView, Rational, _frac, validate_constraints
from .records import frozen_record


@frozen_record
class Hyperbola:
    """One curve (x + alpha)^2 - (y + beta)^2 + gamma = 0 with its source pair."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    src: tuple[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _frac(self.alpha))
        object.__setattr__(self, "beta", _frac(self.beta))
        object.__setattr__(self, "gamma", _frac(self.gamma))
        if self.gamma == 0:
            raise DegenerateHyperbolaError(*self.src)

    def evaluate(self, s: Rational | str, t: Rational | str) -> Fraction:
        u = _frac(s) + self.alpha
        v = _frac(t) + self.beta
        return u * u - v * v + self.gamma

    def contains(self, s: Rational | str, t: Rational | str) -> bool:
        return self.evaluate(s, t) == 0

    @cached_property
    def _ints(self) -> tuple[int, int, int, int]:
        """(L, L alpha, L beta, L^2 gamma), L the lcm of the three denominators."""
        a, b, g = self.alpha, self.beta, self.gamma
        scale = math.lcm(a.denominator, b.denominator, g.denominator)
        return (scale, a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator),
                g.numerator * (scale * scale // g.denominator))


def _ordered_pairs(m: int) -> Iterator[tuple[int, int]]:
    """Source pairs (i, j) with i != j, i-major: the curve order of a family."""
    return ((i, j) for i in range(m) for j in range(m) if i != j)


@frozen_record
class HyperbolaFamily:
    """All m(m-1) ordered-pair curves of a config, in (p, q) index order.

    Stored only as the config's scaled int columns (Config.view): with L =
    scale, curve (i, j) has alpha = -firsts[i] / L, beta = -firsts[j] / L and
    gamma = (rhos[i] - rhos[j]) / L^2. Counting reads only the columns; curve
    builds one pair's Hyperbola, iter_curves each pair's in turn, and curves
    (kept for the benchmark tracer alone) all of them at once.
    """

    scale: int
    firsts: tuple[int, ...]
    rhos: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.firsts)

    def __len__(self) -> int:
        return self.m * (self.m - 1)

    def curve(self, i: int, j: int) -> Hyperbola:
        """The Hyperbola of source pair (i, j), built from the int columns."""
        f, r, scale = self.firsts, self.rhos, self.scale
        alpha, beta = Fraction(-f[i], scale), Fraction(-f[j], scale)
        return Hyperbola(alpha, beta, Fraction(r[i] - r[j], scale * scale), (i, j))

    def iter_curves(self) -> Iterator[Hyperbola]:
        """The Hyperbola of each pair in (i, j) order, built when it is reached."""
        return (self.curve(i, j) for i, j in _ordered_pairs(self.m))

    @cached_property
    def curves(self) -> tuple[Hyperbola, ...]:  # read only by perfbench/tracer.py
        return tuple(self.iter_curves())


def _scan_pairs(firsts: tuple[int, ...], rhos: tuple[int, ...]) -> None:
    """Raise for the first degenerate or repeated curve, scanning pairs i-major."""
    seen: dict[tuple[int, int, int], tuple[int, int]] = {}
    for i, j in _ordered_pairs(len(firsts)):
        gamma = rhos[i] - rhos[j]
        if gamma == 0:
            raise DegenerateHyperbolaError(i, j)
        triple = (firsts[i], firsts[j], gamma)
        if triple in seen:
            raise DuplicateCurveError(f"pair ({i}, {j}) repeats the curve of pair {seen[triple]}")
        seen[triple] = (i, j)


def build_family(cfg: Config) -> HyperbolaFamily:
    """Build every ordered-pair curve of a coordinate config, m >= 2.

    A config valid at c = 1 needs no check. Any other has its pairs scanned
    on the int columns: the first pair with a repeated rho_sq or a repeated
    curve raises, and a config with neither still yields its family.
    """
    if not isinstance(cfg, Config):
        raise TypeError("curve building needs a coordinate Config, not a matrix")
    if cfg.m < 2:
        raise ValueError("need at least two P2 points")
    view = cfg.view
    if not validate_constraints(cfg, c=1).ok:
        _scan_pairs(view.firsts, view.rhos)
    return HyperbolaFamily(scale=view.scale, firsts=view.firsts, rhos=view.rhos)


@frozen_record
class IncidenceReport:
    per_curve: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.per_curve)

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "per_sign": {"pos": self.total // 2, "neg": self.total // 2},
            "per_curve": list(self.per_curve),
        }


def incidences(grid: IntView, family: HyperbolaFamily) -> IncidenceReport:
    """Count grid points on each curve, exactly, on plain ints.

    grid is an IntView, of which only scale and params are read: the
    config's own Config.view, or any other scaled grid. Grid and family are
    lifted to one L, the lcm of their two scales, so a config's own view
    is read as it is. (s, t) is on curve (i, j) exactly when
    (s + shift_i)^2 + rho_i = (t + shift_j)^2 + rho_j, so the join keys each
    (point i, grid value s) once by (s + shift_i)^2 + rho_i, and a value
    taken c_i times by point i and c_j times by point j != i puts c_i c_j
    grid points on curve (i, j). That is O(n m + I) work for I incidences.

    Each shared value counts for (i, j) and for (j, i), so per_curve is
    mirror-symmetric and half of the total lies on each sign of gamma.
    """
    scale = math.lcm(family.scale, grid.scale)
    lift, factor = scale // grid.scale, scale // family.scale
    params = [s * lift for s in grid.params]
    shifts = [-x * factor for x in family.firsts]  # alpha of curves (i, .), beta of (., i)
    rhos = [r * factor * factor for r in family.rhos]
    m = family.m
    first: dict[int, int] = {}  # value -> the first point taking it
    shared: dict[int, list[int]] = {}  # recurring value -> its point per grid value
    for i, (shift, rho) in enumerate(zip(shifts, rhos)):
        for v in [(s + shift) * (s + shift) + rho for s in params]:
            if v not in first:
                first[v] = i
            else:
                shared.setdefault(v, [first[v]]).append(i)
    per_curve = [0] * len(family)
    for points in shared.values():  # entries of points i != j: one grid point on (i, j)
        for i, j in permutations(points, 2):
            if i != j:
                per_curve[i * (m - 1) + j - (j > i)] += 1
    return IncidenceReport(per_curve=tuple(per_curve))


@frozen_record
class IntersectionResult:
    """Real intersection count (0, 1 or 2) plus the rational points, if any.

    points lists only intersections with rational coordinates; a count of 2
    with empty points means both crossings have irrational coordinates.
    """

    count: int
    points: tuple[tuple[Fraction, Fraction], ...]


def intersection_count(h1: Hyperbola, h2: Hyperbola) -> IntersectionResult:
    """Exact number of common points of two distinct family curves.

    The difference of the two equations is the radical line la X + lb Y +
    lc = 0; curves with the same (alpha, beta) differ only in gamma, have no
    line and never meet. Otherwise the walk X = (-lc la + u lb) / d, Y =
    (-lc lb - u la) / d with d = la^2 + lb^2 runs along the line from its
    foot, and d^2 times the first curve reads qa u^2 + qb u + qc = 0: one
    quadratic in u, whatever the line's direction, so at most two crossings.

    Runs on ints: each curve carries its int form (L, a, b, g) with a = L
    alpha, b = L beta and g = L^2 gamma, computed once per curve. The two
    forms are lifted to the lcm L of their scales, so X = L x and Y = L y,
    and each quantity is the rational one times a positive square, which
    keeps every sign and every perfect square.
    """
    (l1, a1, b1, g1), (l2, a2, b2, g2) = h1._ints, h2._ints
    scale = math.lcm(l1, l2)
    f1, f2 = scale // l1, scale // l2
    a1, b1, g1, a2, b2, g2 = a1 * f1, b1 * f1, g1 * f1 * f1, a2 * f2, b2 * f2, g2 * f2 * f2
    if (a1, b1, g1) == (a2, b2, g2):
        raise IdenticalCurvesError("needs two distinct curves")
    la = 2 * (a1 - a2)
    lb = -2 * (b1 - b2)
    lc = a1 * a1 - a2 * a2 - b1 * b1 + b2 * b2 + g1 - g2
    d = la * la + lb * lb
    if d == 0:  # translates: the "line" is the contradiction 0 = lc != 0
        return IntersectionResult(0, ())
    p = a1 * d - lc * la  # d (X + a1) = p + u lb and d (Y + b1) = q - u la
    q = b1 * d - lc * lb
    qa = lb * lb - la * la
    qb = 2 * (p * lb + q * la)
    qc = p * p - q * q + g1 * d * d
    if qa == 0:
        # the line is parallel to an asymptote: it crosses the curve once, or
        # misses it when qb = 0, since qc = 0 would put the line on the curve
        roots = {Fraction(-qc, qb)} if qb else set()
        count = len(roots)
    else:
        disc = qb * qb - 4 * qa * qc
        count = 0 if disc < 0 else 1 if disc == 0 else 2
        root = math.isqrt(max(disc, 0))
        rational = root * root == disc  # never for disc < 0
        roots = {Fraction(-qb + sign * root, 2 * qa) for sign in (-1, 1)} if rational else set()
    points = [((u * lb - lc * la) / (d * scale), (-u * la - lc * lb) / (d * scale)) for u in roots]
    for pt in points:
        if not (h1.contains(*pt) and h2.contains(*pt)):
            raise IntersectionCheckError(f"computed point {pt} fails the curve equations")
    return IntersectionResult(count, tuple(sorted(points)))
