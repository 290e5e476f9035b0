"""Brute-force oracles, kept deliberately dumb.

These recompute the quadruple counts and the per-curve incidence counts
straight from their definitions, sharing no counting logic with the fast
paths they check. They work on the original rationals, never on the scaled
int view or a hash table, so they check the scaling and the incidence join
independently. Each rational is compared as its reduced (numerator,
denominator) pair, which equals another pair exactly when the values are
equal. The pairs are computed from the numerators and denominators of the
inputs with one gcd per value (exact.sq_dist_rows for the squared
distances, the same algebra inline for (s + alpha)^2 + gamma and
(t + beta)^2), never through a chain of Fraction operators. Every ordered
pair of pairs and every (curve, grid point) is still compared. Guards,
checked before any table is built, keep them at desk scale; past the guard
they refuse rather than silently take minutes.
"""

from __future__ import annotations

from math import gcd
from typing import Union

from .configs import SqDistMatrix
from .errors import TooLargeError
from .exact import Config, sq_dist_rows
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
        rows = [[(d.numerator, d.denominator) for d in row] for row in src.entries]
    else:
        rows = sq_dist_rows(src)
    flat = [(j, d) for row in rows for j, d in enumerate(row)]
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
    params = [(s.numerator, s.denominator) for s in grid.params]
    per_curve = []
    rhs_by_beta: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for h in family.curves:
        # (s, t) is on h iff (s + alpha)^2 + gamma == (t + beta)^2; with
        # s + alpha = un/ud, the left side is (un^2 gd + gn ud^2) / (ud^2 gd)
        an, ad = h.alpha.numerator, h.alpha.denominator
        gn, gd = h.gamma.numerator, h.gamma.denominator
        lhs = []
        for sn, sd in params:
            un = sn * ad + an * sd
            ud2 = sd * ad * sd * ad
            num = un * un * gd + gn * ud2
            den = ud2 * gd
            g = gcd(num, den)
            lhs.append((num // g, den // g))
        beta = h.beta.numerator, h.beta.denominator
        rhs = rhs_by_beta.get(beta)
        if rhs is None:
            # t + beta = vn/vd reduced, so its square is (vn^2, vd^2), reduced
            bn, bd = beta
            rhs = []
            for tn, td in params:
                vn = tn * bd + bn * td
                vd = td * bd
                g = gcd(vn, vd)
                rhs.append(((vn // g) ** 2, (vd // g) ** 2))
            rhs_by_beta[beta] = rhs
        per_curve.append(sum(rhs.count(left) for left in lhs))
    return tuple(per_curve)

