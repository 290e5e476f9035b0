"""Configuration construction: pruning, extremal families, random generation.

Pruning thins the second point set until the c = 1 multiplicity conditions
hold: afterwards no two surviving points share an axis coordinate and no two
share a squared axis distance, which is what the curve-family reduction
needs. The greedy scans are deterministic, so pruning the same config twice
gives the same result, and pruning an already-pruned config keeps every
point.

The extremal generators build the two classical few-distance families: all
points on one cylinder around the axis (max(n, m) distinct squared
distances) and the analytic matrix with entry i + j (n + m - 1 distinct
values). They witness that the multiplicity conditions cannot be dropped.
"""

from __future__ import annotations

import enum
import random
from fractions import Fraction
from typing import Iterable

from .errors import (
    EmptyResultError,
    GenerationExhaustedError,
    InvalidCountError,
    InvalidRangeError,
)
from .exact import Config, Point, Rational, SqDistMatrix, _frac, rho_sq
from .records import frozen_record


class Side(enum.Enum):
    UPPER = "upper"
    NOT_APPLICABLE = "n/a"


@frozen_record
class PrunedConfig:
    """Result of a pruning pass: which points of base survived, and on which side.

    kept_indices index into base.p2_points in scan order. For the planar
    prune the surviving points are reported on the upper halfplane: a kept
    point that lay below the axis stands for its mirror image, which is at
    the same distance from every axis point.
    """

    base: Config
    kept_indices: tuple[int, ...]
    side: Side

    def to_config(self) -> Config:
        """Materialize the surviving points as a fresh c = 1 config."""
        pts = []
        for idx in self.kept_indices:
            p = self.base.p2_points[idx]
            if self.side is Side.UPPER and p.coords[1] < 0:
                p = Point((p.coords[0], -p.coords[1]))
            pts.append(p)
        return Config(k=self.base.k, c=1, p1_params=self.base.p1_params, p2_points=tuple(pts))


def _greedy_scan(candidates: Iterable[tuple[Fraction, Fraction, int]]) -> tuple[int, ...]:
    """Scan (axis key, transverse key, index) triples, keeping each index whose keys are both new."""
    kept: list[int] = []
    seen_axis: set[Fraction] = set()
    seen_transverse: set[Fraction] = set()
    for axis, transverse, idx in candidates:
        if axis not in seen_axis and transverse not in seen_transverse:
            kept.append(idx)
            seen_axis.add(axis)
            seen_transverse.add(transverse)
    return tuple(kept)


def prune_planar(cfg: Config) -> PrunedConfig:
    """Greedy planar prune: one halfplane, then distinct x and distinct y.

    Points exactly on the axis are dropped first. The halfplane holding at
    least half of the remaining points is reflected up, and a scan in
    ascending (x, y) order keeps a point whenever it shares neither
    coordinate with a point kept earlier. For an input satisfying the
    multiplicity conditions at its declared c, at least
    floor(m / (2(2c-1))) points survive.
    """
    if cfg.k != 2:
        raise ValueError("planar prune needs k = 2")
    above = []
    below = []
    for idx, p in enumerate(cfg.p2_points):
        y = p.coords[1]
        if y > 0:
            above.append(idx)
        elif y < 0:
            below.append(idx)
    if not above and not below:
        raise EmptyResultError("no point lies off the axis")
    chosen = above if len(above) >= len(below) else below
    pts = cfg.p2_points
    candidates = sorted((pts[idx].coords[0], abs(pts[idx].coords[1]), idx) for idx in chosen)
    return PrunedConfig(base=cfg, kept_indices=_greedy_scan(candidates), side=Side.UPPER)


def prune_general(cfg: Config) -> PrunedConfig:
    """Greedy prune in any dimension: distinct axis coordinate, distinct rho_sq.

    Scans points in lexicographic coordinate order and keeps one whenever
    neither its axis coordinate nor its squared axis distance appeared on an
    earlier kept point. For an input satisfying the multiplicity conditions
    at its declared c, at least floor(m / (2c-1)) points survive.
    """
    if cfg.m == 0:
        raise EmptyResultError("second point set is empty")
    pts = cfg.p2_points
    order = sorted(range(cfg.m), key=lambda idx: pts[idx].coords)
    kept = _greedy_scan((pts[idx].coords[0], rho_sq(pts[idx]), idx) for idx in order)
    return PrunedConfig(base=cfg, kept_indices=kept, side=Side.NOT_APPLICABLE)


def gen_cylinder_extremal(n: int, m: int, h: Rational | str = 1) -> Config:
    """All of P2 on one cylinder: axis points 0..n-1 against (j, h) for j < m.

    Every squared distance is (i - j)^2 + h^2, so exactly max(n, m) distinct
    values occur. The config deliberately piles all m points onto a single
    cylinder around the axis, hence declares c = m.
    """
    if n < 1 or m < 1:
        raise InvalidCountError("n and m must be positive")
    offset = _frac(h)
    if offset == 0:
        raise ValueError("cylinder offset must be nonzero")
    params = tuple(Fraction(i) for i in range(n))
    pts = tuple(Point((Fraction(j), offset)) for j in range(m))
    return Config(k=2, c=m, p1_params=params, p2_points=pts)


def gen_orthogonal_extremal(n: int, m: int) -> SqDistMatrix:
    """Analytic squared-distance table with entry i + j (1-based indices).

    The values range over 2 .. n + m, i.e. exactly n + m - 1 distinct
    squared distances, matching the grid-against-orthogonal-line picture.
    """
    if n < 1 or m < 1:
        raise InvalidCountError("n and m must be positive")
    rows = tuple(tuple(range(i + 1, i + m + 1)) for i in range(1, n + 1))
    return SqDistMatrix(n=n, m=m, scale=1, scaled=rows)


def gen_random(n: int, m: int, k: int, seed: int, coord_range: int) -> Config:
    """Random integer config resampled until the c = 1 conditions hold.

    Axis parameters are n distinct integers from 0..coord_range; each P2
    point draws k integer coordinates from -coord_range..coord_range and is
    redrawn while it repeats an axis coordinate or a squared axis distance
    already in use. Draws and checks run on plain ints, and the Config's
    Fractions are made once, at the end. The draw budget is 100*m point
    attempts. Uses Python's Mersenne Twister, so one seed gives one config;
    frozen fixtures, not seeds, are what tests should rely on across
    implementations.
    """
    if n < 1 or m < 1:
        raise InvalidCountError("n and m must be positive")
    if k < 2:
        raise ValueError("k must be at least 2")
    if coord_range < n + m:
        raise InvalidRangeError("coord_range must be at least n + m")
    rng = random.Random(seed)
    params = sorted(rng.sample(range(coord_range + 1), n))
    budget = 100 * m
    used_axis: set[int] = set()
    used_rho: set[int] = set()
    rows: list[tuple[int, ...]] = []
    while len(rows) < m:
        if budget <= 0:
            raise GenerationExhaustedError(
                f"could not place {m} points within {100 * m} attempts"
            )
        budget -= 1
        coords = tuple(rng.randint(-coord_range, coord_range) for _ in range(k))
        r = sum(v * v for v in coords[1:])
        if coords[0] in used_axis or r in used_rho:
            continue
        used_axis.add(coords[0])
        used_rho.add(r)
        rows.append(coords)
    return Config.of(k=k, c=1, p1_params=params, p2_points=rows)


def translate_along_axis(cfg: Config, delta: Rational | str) -> Config:
    """Shift the whole configuration along the reference axis by delta."""
    d = _frac(delta)
    params = tuple(v + d for v in cfg.p1_params)
    pts = tuple(Point((p.coords[0] + d,) + p.coords[1:]) for p in cfg.p2_points)
    return Config(k=cfg.k, c=cfg.c, p1_params=params, p2_points=pts)
