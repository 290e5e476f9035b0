"""Exception types shared across the package."""

from __future__ import annotations


class DdlabError(Exception):
    """Base class for all package-specific errors."""


class FormatError(DdlabError):
    """Malformed rational literal or input file."""


def excerpt(text: str) -> str:
    """repr(text) for an error message; past 40 characters, a prefix and the length."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


class EmptyResultError(DdlabError):
    """Pruning has nothing to work with (no usable points)."""


class GenerationExhaustedError(DdlabError):
    """Random generation ran out of its resampling budget."""


class InvalidCountError(DdlabError):
    """A generator was asked for a nonpositive number of points."""


class InvalidRangeError(DdlabError, ValueError):
    """A random generator's coordinate range is too small for the requested points."""


class DegenerateHyperbolaError(DdlabError):
    """An ordered pair with equal squared axis distances; the curve would be a line pair."""

    def __init__(self, p_idx: int, q_idx: int) -> None:
        super().__init__(f"degenerate curve for pair ({p_idx}, {q_idx}): gamma = 0")
        self.pair = (p_idx, q_idx)


class DuplicateCurveError(DdlabError):
    """Two ordered pairs produced the same (alpha, beta, gamma) triple."""


class IdenticalCurvesError(DdlabError):
    """Pairwise intersection needs two distinct curves."""


class IntersectionCheckError(DdlabError):
    """A computed intersection point fails a curve equation (implementation bug)."""


class TooLargeError(DdlabError):
    """Input too large: past a brute-force oracle's desk-scale guard, or past float range in a bound."""
