"""Guards and independence of the brute-force oracles."""

from __future__ import annotations

from fractions import Fraction

import pytest

import ddlab.oracles

from ddlab import (
    Config,
    SqDistMatrix,
    TooLargeError,
    build_family,
    gen_cylinder_extremal,
    gen_random,
    oracle_incidences,
    oracle_quadruples,
)
from ddlab.oracles import INCIDENCE_GUARD, QUADRUPLE_GUARD


def test_quadruple_oracle_on_tiny_config():
    cfg = Config.of(2, 1, [0, 2], [(0, 1), (1, 2)])
    assert oracle_quadruples(cfg) == (6, 2, 4)


def test_quadruple_oracle_guard():
    mat = SqDistMatrix.of(
        n=2001,
        m=1,
        entries=tuple((Fraction(i),) for i in range(2001)),
    )
    with pytest.raises(TooLargeError):
        oracle_quadruples(mat)


def test_quadruple_oracle_guard_comes_before_the_table(monkeypatch):
    cfg = gen_cylinder_extremal(50, 50)
    assert cfg.n * cfg.m > QUADRUPLE_GUARD

    def no_distances(*args):
        raise AssertionError("sq_dist_rows called before the guard")

    monkeypatch.setattr(ddlab.oracles, "sq_dist_rows", no_distances)
    with pytest.raises(TooLargeError):
        oracle_quadruples(cfg)


def test_incidence_oracle_guard():
    cfg = gen_random(n=2, m=33, k=2, seed=0, coord_range=200)
    family = build_family(cfg)
    big_grid = tuple(Fraction(i) for i in range(100))
    assert len(big_grid) ** 2 * len(family) > INCIDENCE_GUARD
    with pytest.raises(TooLargeError):
        oracle_incidences(big_grid, cfg)
    assert "curves" not in family.__dict__  # refused before any curve was built


def test_oracle_accepts_matrix():
    cfg = gen_random(n=4, m=5, k=3, seed=3, coord_range=80)
    assert oracle_quadruples(SqDistMatrix.from_config(cfg)) == oracle_quadruples(cfg)
