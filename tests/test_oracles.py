"""Guards and independence of the brute-force oracles."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

import ddlab.oracles

from ddlab import (
    Config,
    SqDistMatrix,
    TooLargeError,
    gen_cylinder_extremal,
    gen_random,
    oracle_incidences,
    oracle_quadruples,
)
from ddlab.exact import sq_dist_rows
from ddlab.io import load_source
from ddlab.oracles import INCIDENCE_GUARD, QUADRUPLE_GUARD

VERIFY = Path(__file__).parent / "data" / "verify"


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


def test_incidence_oracle_guard(monkeypatch):
    cfg = load_source(VERIFY / "incidence-guard.csv")
    assert (cfg.n, cfg.m) == (100, 40)
    assert cfg.n ** 2 * cfg.m * (cfg.m - 1) == 15_600_000 > INCIDENCE_GUARD

    def no_distances(*args):
        raise AssertionError("sq_dist_rows called before the guard")

    monkeypatch.setattr(ddlab.oracles, "sq_dist_rows", no_distances)
    with pytest.raises(TooLargeError):
        oracle_incidences(cfg)


def test_oracle_accepts_matrix():
    cfg = gen_random(n=4, m=5, k=3, seed=3, coord_range=80)
    assert oracle_quadruples(SqDistMatrix.from_config(cfg)) == oracle_quadruples(cfg)


def test_matrix_rows_are_the_config_rows():
    # a source's rows are its own: a config's at its P1 params, a matrix's as stored
    cfg = gen_random(n=3, m=3, k=2, seed=1, coord_range=40)
    mat = SqDistMatrix.from_config(cfg)
    assert list(sq_dist_rows(mat)) == list(sq_dist_rows(cfg))
