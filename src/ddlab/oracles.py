"""Brute-force oracles, kept deliberately dumb.

These recompute the quadruple counts and the per-curve incidence counts
straight from their definitions, sharing no counting logic with the fast
paths they check. They work on the original rationals, never on the scaled
int view or a hash table, so they check the scaling and the incidence join
independently. Each rational is compared as its reduced (numerator,
denominator) pair, which equals another pair exactly when the values are
equal; every ordered pair of pairs and every (curve, grid point) is still
compared. Guards, checked before any table is built, keep them at desk
scale; past the guard they refuse rather than silently take minutes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .configs import SqDistMatrix
from .errors import TooLargeError
from .exact import Config, sq_dist
from .reduction import HyperbolaFamily, ParamGrid

Source = Union[Config, SqDistMatrix]

QUADRUPLE_GUARD = 2000  # max n*m
INCIDENCE_GUARD = 10_000_000  # max n^2 * curve count


def oracle_quadruples(src: Source) -> tuple[int, int, int]:
    """(Q, Q0, Q1) by enumerating all ordered pairs of distinct (i, j) pairs."""
    n, m = src.n, src.m
    if n * m > QUADRUPLE_GUARD:
        raise TooLargeError(f"n*m = {n * m} exceeds the oracle guard {QUADRUPLE_GUARD}")
    if isinstance(src, SqDistMatrix):
        table = src.entries
    else:
        table = [[sq_dist(a, p) for p in src.p2_points] for a in src.p1_params]
    flat = [(j, _key(d)) for row in table for j, d in enumerate(row)]
    q = 0
    q0 = 0
    for j, d in flat:
        # the columns of every pair (k, l) with the same squared distance,
        # (i, j) itself included once
        same = [l for l, e in flat if e == d]
        q += len(same) - 1
        q0 += same.count(j) - 1
    return q, q0, q - q0


def oracle_incidences(grid: ParamGrid, family: HyperbolaFamily) -> tuple[int, ...]:
    """Incidences per curve, in family.curves order, by evaluating each curve at each grid point."""
    work = grid.n ** 2 * len(family)
    if work > INCIDENCE_GUARD:
        raise TooLargeError(f"n^2 * curves = {work} exceeds the oracle guard {INCIDENCE_GUARD}")
    per_curve = []
    rhs_by_beta: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for h in family.curves:
        # (s, t) is on h iff (s + alpha)^2 + gamma == (t + beta)^2
        lhs = [_key((s + h.alpha) ** 2 + h.gamma) for s in grid.params]
        beta = _key(h.beta)
        if beta not in rhs_by_beta:
            rhs_by_beta[beta] = [_key((t + h.beta) ** 2) for t in grid.params]
        rhs = rhs_by_beta[beta]
        per_curve.append(sum(rhs.count(left) for left in lhs))
    return tuple(per_curve)


def _key(value: Fraction) -> tuple[int, int]:
    """A rational as its reduced (numerator, denominator): equal keys iff equal values."""
    return value.numerator, value.denominator
