"""Shared deterministic builders for the test suite."""

from __future__ import annotations

import os
import random
from fractions import Fraction

import pytest

from ddlab import Config, Point, SqDistMatrix, gen_random, sq_dist


@pytest.fixture(autouse=True)
def _restore_openblas_setting():
    """ddlab.cli.main defaults OPENBLAS_NUM_THREADS; in-process CLI tests must not leak it."""
    before = os.environ.get("OPENBLAS_NUM_THREADS")
    yield
    if before is None:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = before


# A valid c=1 config whose axis coordinates and rho_sq values are both in
# arithmetic progression: two of its curves have a radical line parallel to
# an asymptote that misses both curves.
RADICAL_LINE = Config.of(2, 1, [0, 1, 2, 3], [(0, 1), (1, 5), (2, 7)])


def sign_split(per_curve, family) -> tuple[int, int]:
    """Incidences on the family's curves with gamma > 0 and with gamma < 0."""
    pos = sum(c for c, h in zip(per_curve, family.iter_curves()) if h.gamma > 0)
    return pos, sum(per_curve) - pos


def matrix_values(mat) -> tuple[tuple[Fraction, ...], ...]:
    """A SqDistMatrix's table as Fractions, read off its canonical (scale, scaled)."""
    return tuple(tuple(Fraction(v, mat.scale) for v in row) for row in mat.scaled)


def fraction_rows(src) -> list[list[Fraction]]:
    """A source's squared distances by Fraction arithmetic: the reference of exact.sq_dist_rows."""
    if isinstance(src, SqDistMatrix):
        return [list(row) for row in matrix_values(src)]
    return [[sq_dist(a, p) for p in src.p2_points] for a in src.p1_params]


def reference_classes(src) -> dict:
    """The (i, j) pairs of each value of fraction_rows, keys in first-seen (i-major) order."""
    classes: dict = {}
    for i, row in enumerate(fraction_rows(src)):
        for j, d in enumerate(row):
            classes.setdefault(d, []).append((i, j))
    return classes


def small_random_config(seed: int, max_nm: int = 12, ks: tuple[int, ...] = (2, 3, 4)) -> Config:
    """A c=1 random config with dims derived from the seed, always valid."""
    rng = random.Random(seed ^ 0x5EED)
    n = rng.randint(1, max_nm)
    m = rng.randint(1, max_nm)
    k = rng.choice(ks)
    return gen_random(n=n, m=m, k=k, seed=seed, coord_range=8 * (n + m))


def _shuffle_transverse(rng: random.Random, transverse: tuple[int, ...]) -> tuple[int, ...]:
    # same squared norm: permute the entries and flip signs
    vals = [v if rng.random() < 0.5 else -v for v in transverse]
    rng.shuffle(vals)
    return tuple(vals)


def clustered_config(seed: int, n: int, m: int, k: int, c: int) -> Config:
    """A config valid at multiplicity c, with deliberate repeats up to c.

    Repeats are planted by reusing an axis coordinate, or reusing a squared
    axis distance through sign flips / permutations of the transverse
    coordinates, while never letting any multiplicity exceed c.
    """
    rng = random.Random(seed ^ 0xC1)
    coord_range = 8 * (n + m) + 8
    p1 = sorted(rng.sample(range(coord_range), n))
    pts: list[tuple[int, ...]] = []
    axis_count: dict[int, int] = {}
    rho_count: dict[int, int] = {}
    rho_example: dict[int, tuple[int, ...]] = {}
    while len(pts) < m:
        if pts and c > 1 and rng.random() < 0.4:
            x = rng.choice([p[0] for p in pts])
        else:
            x = rng.randint(-coord_range, coord_range)
        if rho_example and c > 1 and rng.random() < 0.4:
            rho2 = rng.choice(sorted(rho_example))
            transverse = _shuffle_transverse(rng, rho_example[rho2])
        else:
            transverse = tuple(rng.randint(-coord_range, coord_range) for _ in range(k - 1))
            rho2 = sum(v * v for v in transverse)
        if axis_count.get(x, 0) + 1 > c or rho_count.get(rho2, 0) + 1 > c:
            continue
        axis_count[x] = axis_count.get(x, 0) + 1
        rho_count[rho2] = rho_count.get(rho2, 0) + 1
        rho_example.setdefault(rho2, transverse)
        pts.append((x,) + transverse)
    return Config.of(k=k, c=c, p1_params=p1, p2_points=pts)


def fractional_config(seed: int, n: int, m: int, k: int, denom: int = 3) -> Config:
    """A c=1 config with non-integer coordinates (exercises the Fraction path)."""
    base = gen_random(n=n, m=m, k=k, seed=seed, coord_range=8 * (n + m))
    scale = Fraction(1, denom)
    params = tuple(v * scale for v in base.p1_params)
    pts = tuple(Point(tuple(v * scale for v in p.coords)) for p in base.p2_points)
    return Config(k=k, c=1, p1_params=params, p2_points=pts)
