"""Exact rational primitives for collinear-vs-arbitrary distance experiments.

The reference line is always the x1-axis. A configuration keeps the
collinear set as bare axis parameters (their x1 coordinates) and the other
set as k-dimensional points, with every coordinate a reduced Fraction, so
all predicates downstream are exact. Distances are only ever handled
squared: two distances are equal iff their squares are, and squares stay
rational, so no square root is ever taken.

SqDistMatrix holds a table of squared distances in one form, its canonical
int form: a scale and an int table over it, so its producers (the file
reader, from_config and the orthogonal generator), the energy kernels and
the reference paths (energy, distance_classes and the oracles, through
sq_dist_rows) never walk a Fraction per entry. It holds values only, so ==
is value equality: a matrix equals itself after a save and a load. Source,
a Config or a SqDistMatrix, is what the energy kernels, the oracles and the
file loader accept.

Rational literals in files and on the command line are written ``n`` or
``n/d`` with ASCII decimal digits, a positive denominator, and an optional
leading minus sign.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar, Union

from .errors import FormatError, excerpt
from .records import frozen_record

Rational = Union[int, Fraction]

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")

_Item = TypeVar("_Item", bound=Hashable)


def parse_rational(text: str) -> Fraction:
    """Parse ``n`` or ``n/d`` (d > 0) into a reduced Fraction.

    The whole text must be the literal (no trailing newline), and a part
    longer than Python's integer digit limit is a FormatError too.
    """
    if not _RATIONAL_RE.fullmatch(text):
        raise FormatError(f"bad rational literal: {excerpt(text)}")
    try:
        num, _, den = text.partition("/")
        value = Fraction(int(num), int(den)) if den else Fraction(int(num))
    except ZeroDivisionError:
        raise FormatError(f"zero denominator: {excerpt(text)}") from None
    except ValueError as exc:  # int() refuses more digits than sys.get_int_max_str_digits()
        raise FormatError(f"rational literal too long ({len(text)} characters)") from exc
    return value


def format_ratio(num: int, den: int) -> str:
    """The literal ``n`` or ``n/d`` of num / den (den > 0), reduced with one gcd."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def format_rational(value: Rational | str) -> str:
    """Format a rational as ``n`` or ``n/d`` with d > 0, round-tripping parse_rational."""
    f = _frac(value)
    return format_ratio(f.numerator, f.denominator)


def _frac(value: Rational | str) -> Fraction:
    """value as a Fraction: a Fraction is returned as it is, a str is parsed."""
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


@frozen_record
class Point:
    """A point of the second set, k >= 2 rational coordinates.

    The first coordinate is the position along the reference axis; the
    remaining coordinates are transverse.
    """

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coords) < 2:
            raise ValueError("a point needs at least 2 coordinates")
        object.__setattr__(self, "coords", tuple(map(_frac, self.coords)))

    @classmethod
    def of(cls, *coords: Rational | str) -> "Point":
        return cls(coords)

    @property
    def k(self) -> int:
        return len(self.coords)

    @property
    def axis_coord(self) -> Fraction:
        return self.coords[0]


def rho_sq(p: Point) -> Fraction:
    """Squared distance from p to the reference axis: sum of squares of coords 2..k."""
    return sum((v * v for v in p.coords[1:]), Fraction(0))


def sq_dist(a_param: Rational | str, p: Point) -> Fraction:
    """Exact squared distance between axis point (a, 0, ..., 0) and p."""
    a = _frac(a_param)
    d = a - p.coords[0]
    return d * d + rho_sq(p)


def sq_dist_rows(src: Source) -> Iterator[list[tuple[int, int]]]:
    """Each row of a source's squared distances, as reduced (numerator, denominator) pairs.

    Equal pairs iff equal values, at one gcd per value instead of a chain of
    Fraction operators. A matrix's canonical int v at scale L gives
    (v / g, L / g), g = gcd(v, L). A config's row i holds sq_dist(a, p) for
    its i-th axis parameter a (src.p1_params[i]) and each P2 point p, in
    order. With a = an/ad, f = fn/fd p's first coordinate and r = rho_sq =
    rn/rd, a - f = tn/td for tn = an fd - fn ad and td = ad fd, so
    (a - f)^2 + r = (tn^2 rd + rn td^2) / (td^2 rd).
    """
    if isinstance(src, SqDistMatrix):
        scale = src.scale
        for row in src.scaled:
            yield [(v // (g := math.gcd(v, scale)), scale // g) for v in row]
        return
    cols = []
    for p in src.p2_points:
        f, r = p.coords[0], rho_sq(p)
        cols.append((f.numerator, f.denominator, r.numerator, r.denominator))
    for a in src.p1_params:
        an, ad = a.numerator, a.denominator
        row = []
        for fn, fd, rn, rd in cols:
            tn = an * fd - fn * ad
            td2 = ad * fd * ad * fd
            num = tn * tn * rd + rn * td2
            den = td2 * rd
            g = math.gcd(num, den)
            row.append((num // g, den // g))
        yield row


@frozen_record
class Config:
    """An experiment input: n collinear points against m arbitrary points.

    p1_params are the axis coordinates of the collinear set, strictly
    increasing. c is the declared multiplicity budget: the config is meant
    to put at most c points of the second set on any hyperplane orthogonal
    to the axis and at most c on any cylinder around it (checked by
    validate_constraints, not by the constructor).
    """

    k: int
    c: int
    p1_params: tuple[Fraction, ...]
    p2_points: tuple[Point, ...]

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.c < 1:
            raise ValueError("c must be at least 1")
        params = tuple(map(_frac, self.p1_params))
        for prev, nxt in zip(params, params[1:]):
            if not prev < nxt:
                raise ValueError("p1_params must be strictly increasing")
        object.__setattr__(self, "p1_params", params)
        pts = tuple(self.p2_points)
        for p in pts:
            if p.k != self.k:
                raise ValueError(f"point {p} does not have k={self.k} coordinates")
        object.__setattr__(self, "p2_points", pts)

    @classmethod
    def of(
        cls,
        k: int,
        c: int,
        p1_params: Iterable[Rational | str],
        p2_points: Iterable[Sequence[Rational | str]],
    ) -> "Config":
        """Build a Config from plain ints / literals; sorts the axis parameters."""
        params = tuple(sorted(map(_frac, p1_params)))
        pts = tuple(Point(tuple(row)) for row in p2_points)
        return cls(k=k, c=c, p1_params=params, p2_points=pts)

    @property
    def n(self) -> int:
        return len(self.p1_params)

    @property
    def m(self) -> int:
        return len(self.p2_points)

    @cached_property
    def view(self) -> IntView:
        """The config scaled by the common denominator of all its coordinates,
        built on first use and shared by every int kernel that reads it."""
        scale = common_denominator(chain(self.p1_params, *(p.coords for p in self.p2_points)))
        return IntView(
            scale=scale,
            params=tuple(scaled_ints(self.p1_params, scale)),
            firsts=tuple(scaled_ints((p.coords[0] for p in self.p2_points), scale)),
            rhos=tuple(sum(v * v for v in scaled_ints(p.coords[1:], scale)) for p in self.p2_points),
        )


def common_denominator(values: Iterable[Fraction]) -> int:
    """The least L > 0 that makes v * L an integer for every value v (1 if none)."""
    return math.lcm(*{v.denominator for v in values})


def scaled_ints(values: Iterable[Fraction], scale: int) -> list[int]:
    """Each value times scale, as ints; scale must be a multiple of every denominator."""
    return [v.numerator * (scale // v.denominator) for v in values]


def parse_distinct(items: Iterable[_Item], parse: Callable[[_Item], Fraction]) -> dict[_Item, Fraction]:
    """parse of each distinct item once, in order of first appearance, so the first bad item raises."""
    return {item: parse(item) for item in dict.fromkeys(items)}


def scale_table(
    rows: Sequence[Sequence[_Item]], parse: Callable[[_Item], Fraction]
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """A table of rationals (or their literals) as (L, each entry times L).

    L is the common denominator of the parsed entries. The items go through
    parse_distinct row by row, so the first bad item of the table is the one
    that raises; every row then maps to ints through one dict, so no
    Fraction is made per entry.
    """
    values = parse_distinct(chain.from_iterable(rows), parse)
    scale = common_denominator(values.values())
    to_int = dict(zip(values, scaled_ints(values.values(), scale)))
    return scale, tuple(tuple(map(to_int.__getitem__, row)) for row in rows)


@frozen_record
class IntView:
    """A config scaled into ints (Config.view) by L = scale, the lcm of all coordinate denominators.

    params holds a * L, firsts the P2 axis coordinates x * L and rhos
    rho_sq * L^2 (an int, as transverse coordinates count towards L). Every
    squared distance becomes exactly L^2 times itself, so every equality
    between squared distances, and with it every count, is kept.
    """

    scale: int
    params: tuple[int, ...]
    firsts: tuple[int, ...]
    rhos: tuple[int, ...]


@frozen_record
class SqDistMatrix:
    """An n x m table of exact squared distances.

    The table is kept in canonical int form: entry (i, j) is
    scaled[i][j] / scale, with scale > 0 and no common factor left between
    scale and every entry, so equal values give equal ints and == compares
    values. This is the matrix's only form: readers, generators, the
    energy kernels and sq_dist_rows all work on the ints.
    """

    n: int
    m: int
    scale: int
    scaled: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.scaled))
        if len(rows) != self.n:
            raise ValueError("row count does not match n")
        if any(len(row) != self.m for row in rows):
            raise ValueError("column count does not match m")
        if self.scale < 1:
            raise ValueError("scale must be positive")
        if self.n and self.m and min(map(min, rows)) < 0:
            raise ValueError("squared distances cannot be negative")
        g = self.scale
        for row in rows:
            if g == 1:
                break
            g = math.gcd(g, *row)
        if g > 1:
            rows = tuple(tuple(v // g for v in row) for row in rows)
        object.__setattr__(self, "scale", self.scale // g)
        object.__setattr__(self, "scaled", rows)

    @classmethod
    def of(cls, n: int, m: int, entries: Iterable[Iterable[Rational | str]]) -> "SqDistMatrix":
        """Build the canonical table from rational entries (ints, Fractions or literals)."""
        scale, scaled = scale_table([tuple(row) for row in entries], _frac)
        return cls(n=n, m=m, scale=scale, scaled=scaled)

    @classmethod
    def from_config(cls, cfg: Config) -> "SqDistMatrix":
        """The table of sq_dist(a, p), computed on the config's scaled view.

        Each entry is its scaled squared distance over L^2, with no Fraction
        arithmetic.
        """
        view = cfg.view
        cols = tuple(zip(view.firsts, view.rhos))
        rows = tuple(tuple((a - x) * (a - x) + r for x, r in cols) for a in view.params)
        return cls(n=cfg.n, m=cfg.m, scale=view.scale**2, scaled=rows)


Source = Union[Config, SqDistMatrix]


@frozen_record
class Violation:
    """One multiplicity overflow: which condition, at which value, which points."""

    condition: str  # "p1" or "rho_sq"
    value: Fraction
    indices: tuple[int, ...]


@frozen_record
class ValidationReport:
    c: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_constraints(cfg: Config, c: int | None = None) -> ValidationReport:
    """Check the two multiplicity conditions on the second set.

    Condition 1: no axis value t is shared by more than c points (p1 = t).
    Condition 2: no squared axis distance t is shared by more than c points
    (rho_sq = t); cylinders around the axis are keyed by rho_sq since rho is
    nonnegative. c defaults to the config's own declared budget. Points are
    grouped by the columns of cfg.view, which keep every equality.
    """
    bound = cfg.c if c is None else c
    view = cfg.view
    by_axis: dict[int, list[int]] = {}
    by_rho: dict[int, list[int]] = {}
    for idx, (x, r) in enumerate(zip(view.firsts, view.rhos)):
        by_axis.setdefault(x, []).append(idx)
        by_rho.setdefault(r, []).append(idx)
    violations = tuple(
        Violation(condition, Fraction(value, unit), tuple(idxs))
        for condition, groups, unit in (("p1", by_axis, view.scale), ("rho_sq", by_rho, view.scale**2))
        for value, idxs in groups.items()
        if len(idxs) > bound
    )
    return ValidationReport(c=bound, violations=violations)
