"""Brute-force oracles, kept deliberately dumb.

These recompute the quadruple counts and the per-curve incidence counts
straight from their definitions, sharing no counting logic with the fast
paths they check. They read only the input's own values (a config's
points and axis parameters, a matrix's canonical table, its only form),
never a config's scaled int view, a curve family or a hash table, so they
check a config's scaling, the family build and the incidence join
independently. On a matrix the quadruple oracle and the
fast energy kernel read the same canonical ints. Each squared distance is
compared as its reduced (numerator, denominator) pair, which equals
another pair exactly when the values are equal, computed from the
numerators and denominators of the inputs with one gcd per value
(exact.sq_dist_rows), never through a chain of Fraction operators. Every
ordered pair of pairs and every (curve, grid point) is still compared.
Guards, checked before any table is built, keep them at desk scale; past
the guard they refuse rather than silently take minutes.
"""

from __future__ import annotations

from .errors import TooLargeError
from .exact import Config, Source, sq_dist_rows

QUADRUPLE_GUARD = 2000  # max n*m
INCIDENCE_GUARD = 10_000_000  # max n^2 * curve count


def oracle_quadruples(src: Source) -> tuple[int, int, int]:
    """(Q, Q0, Q1) by enumerating all ordered pairs of distinct (i, j) pairs."""
    n, m = src.n, src.m
    if n * m > QUADRUPLE_GUARD:
        raise TooLargeError(f"n*m = {n * m} exceeds the oracle guard {QUADRUPLE_GUARD}")
    flat = [(j, d) for row in sq_dist_rows(src) for j, d in enumerate(row)]
    q = 0
    q0 = 0
    for j, d in flat:
        # the columns of every pair (k, l) with the same squared distance,
        # (i, j) itself included once
        same = [l for l, e in flat if e == d]
        q += len(same) - 1
        q0 += same.count(j) - 1
    return q, q0, q - q0


def oracle_incidences(cfg: Config) -> tuple[int, ...]:
    """Incidences per curve (i, j), i-major with i != j, at every grid point (s, t) of P1^2.

    The grid is the config's own axis parameters, cfg.p1_params. (s, t) is
    on curve (i, j) exactly when
    (s - x_i)^2 + rho_sq(p_i) == (t - x_j)^2 + rho_sq(p_j), that is when
    sq_dist(s, p_i) == sq_dist(t, p_j); both sides are the reduced pairs of
    the parameters' and the points' own rationals.
    """
    n, m = cfg.n, cfg.m
    work = n * n * m * (m - 1)
    if work > INCIDENCE_GUARD:
        raise TooLargeError(f"n^2 * curves = {work} exceeds the oracle guard {INCIDENCE_GUARD}")
    rows = list(sq_dist_rows(cfg))
    cols = [[row[i] for row in rows] for i in range(m)]  # sq_dist(s, p_i) for each s
    return tuple(
        sum(cols[j].count(left) for left in cols[i]) for i in range(m) for j in range(m) if i != j
    )
