"""Floating-point evaluators for the distinct-distance lower bound.

Everything here is reporting, not proof: the evaluators plug n and m into
the piecewise bound

    x  >=  constant * min(m^2, n^(2/3) m^(2/3), n^(10/11) m^(4/11) / log^(2/11) m, n^2)

with constant 1 and log clamped below at 1 so tiny arguments never inflate
a bound. A BoundReport stores the four terms and the regime, and reads its
min and its piecewise value off them. The default convention is the
natural log; base-2 is available because the clamp makes the base visible
in the numbers. Companion evaluators give the incidence upper bound for
pseudo-parabola families and the energy upper-bound expression in n and m.

Where a term cannot be a finite float (n^3 overflows past about 5.6e102,
a square past about 1.3e154), an evaluator raises TooLargeError instead
of an OverflowError or an infinite result.
"""

from __future__ import annotations

import enum
import functools
import math

from .errors import TooLargeError
from .records import frozen_record

LOG_CONVENTIONS = ("ln-clamped", "log2-clamped")


def clamped_log(value: float, log_convention: str = "ln-clamped") -> float:
    """log of value under the named convention, never below 1."""
    if log_convention == "ln-clamped":
        return max(math.log(value), 1.0)
    if log_convention == "log2-clamped":
        return max(math.log2(value), 1.0)
    raise ValueError(f"unknown log convention {log_convention!r}")


def _finite(evaluate):
    """Raise TooLargeError where evaluate overflows a float or returns inf."""

    @functools.wraps(evaluate)
    def guarded(*args, **kwargs):
        try:
            value = evaluate(*args, **kwargs)
        except OverflowError:
            value = math.inf
        if isinstance(value, float) and not math.isfinite(value):
            raise TooLargeError(f"{evaluate.__name__}: arguments too large, a term is not a finite float")
        return value

    return guarded


class Regime(enum.Enum):
    R1 = "R1"  # m <= n^(1/2)
    R2 = "R2"  # n^(1/2) < m <= n^(4/5) / log^(3/5) n
    R3 = "R3"  # up to m <= n^3
    R4 = "R4"  # m > n^3


@_finite
def regime(n: int, m: int, log_convention: str = "ln-clamped") -> Regime:
    """Which piece of the bound applies at (n, m); exactly one always does."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    fn = float(n)
    fm = float(m)
    if fm <= math.sqrt(fn):
        return Regime.R1
    if fm <= fn ** 0.8 / clamped_log(fn, log_convention) ** 0.6:
        return Regime.R2
    if fm <= fn ** 3:
        return Regime.R3
    return Regime.R4


@frozen_record
class BoundReport:
    """The four terms of the bound at (n, m); piecewise_value is the regime's term."""

    n: int
    m: int
    regime: Regime
    term_m_sq: float
    term_two_thirds: float
    term_log: float
    term_n_sq: float

    @property
    def min_value(self) -> float:
        return min(self.term_m_sq, self.term_two_thirds, self.term_log, self.term_n_sq)

    @property
    def piecewise_value(self) -> float:
        return {
            Regime.R1: self.term_m_sq,
            Regime.R2: self.term_two_thirds,
            Regime.R3: self.term_log,
            Regime.R4: self.term_n_sq,
        }[self.regime]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "regime": self.regime.value,
            "terms": {
                "m2": self.term_m_sq,
                "n23m23": self.term_two_thirds,
                "logterm": self.term_log,
                "n2": self.term_n_sq,
            },
            "min": self.min_value,
            "piecewise": self.piecewise_value,
        }


@_finite
def distinct_lower_bound(n: int, m: int, log_convention: str = "ln-clamped") -> BoundReport:
    """Evaluate all four terms of the lower bound and their min at (n, m)."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    fn = float(n)
    fm = float(m)
    term_m_sq = fm ** 2
    term_two_thirds = fn ** (2 / 3) * fm ** (2 / 3)
    term_log = fn ** (10 / 11) * fm ** (4 / 11) / clamped_log(fm, log_convention) ** (2 / 11)
    term_n_sq = fn ** 2
    reg = regime(n, m, log_convention)
    return BoundReport(n, m, reg, term_m_sq, term_two_thirds, term_log, term_n_sq)


@_finite
def incidence_upper_bound(points: int, curves: int, log_convention: str = "ln-clamped") -> float:
    """Upper bound on incidences between points and pseudo-parabola-like curves.

    P^(2/3) C^(2/3) + P^(6/11) C^(9/11) log^(2/11) C + P + C, log clamped.
    """
    if points < 1 or curves < 1:
        raise ValueError("points and curves must be positive")
    fp = float(points)
    fc = float(curves)
    return (
        fp ** (2 / 3) * fc ** (2 / 3)
        + fp ** (6 / 11) * fc ** (9 / 11) * clamped_log(fc, log_convention) ** (2 / 11)
        + fp
        + fc
    )


@_finite
def energy_upper_expr(n: int, m: int, log_convention: str = "ln-clamped") -> float:
    """The closed-form energy upper-bound expression at (n, m), log clamped.

    n^(4/3) m^(4/3) + n^(12/11) m^(18/11) log^(2/11) m + n^2 + m^2.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    fn = float(n)
    fm = float(m)
    return (
        fn ** (4 / 3) * fm ** (4 / 3)
        + fn ** (12 / 11) * fm ** (18 / 11) * clamped_log(fm, log_convention) ** (2 / 11)
        + fn ** 2
        + fm ** 2
    )
