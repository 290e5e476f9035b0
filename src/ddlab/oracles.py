"""Brute-force oracles, kept deliberately dumb.

These recompute the quadruple counts and the incidence count straight from
their definitions, sharing no counting logic with the fast paths they
check. Guards keep them at desk scale; past the guard they refuse rather
than silently take minutes.
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
    if isinstance(src, SqDistMatrix):
        n, m = src.n, src.m
        table = src.entries
    else:
        n, m = src.n, src.m
        table = tuple(
            tuple(sq_dist(a, p) for p in src.p2_points) for a in src.p1_params
        )
    if n * m > QUADRUPLE_GUARD:
        raise TooLargeError(f"n*m = {n * m} exceeds the oracle guard {QUADRUPLE_GUARD}")
    flat = [(i, j, table[i][j]) for i in range(n) for j in range(m)]
    q = 0
    q0 = 0
    for i, j, d in flat:
        for k, l, e in flat:
            if (i, j) == (k, l):
                continue
            if d == e:
                q += 1
                if j == l:
                    q0 += 1
    return q, q0, q - q0


def oracle_incidences(grid: ParamGrid, family: HyperbolaFamily) -> int:
    """Total incidences by evaluating every curve equation at every grid point."""
    work = grid.n ** 2 * len(family)
    if work > INCIDENCE_GUARD:
        raise TooLargeError(f"n^2 * curves = {work} exceeds the oracle guard {INCIDENCE_GUARD}")
    total = 0
    for h in family.curves:
        alpha, beta, gamma = h.alpha, h.beta, h.gamma
        for s in grid.params:
            u = s + alpha
            lhs = u * u + gamma
            for t in grid.params:
                v = t + beta
                if lhs == v * v:
                    total += 1
    return total
