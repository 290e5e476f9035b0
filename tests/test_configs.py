"""Pruning, extremal families, random generation, matrix construction."""

from __future__ import annotations

import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlab import (
    Config,
    EmptyResultError,
    GenerationExhaustedError,
    InvalidCountError,
    Point,
    Side,
    SqDistMatrix,
    gen_cylinder_extremal,
    gen_orthogonal_extremal,
    gen_random,
    parse_rational,
    prune_general,
    prune_planar,
    sq_dist,
    translate_along_axis,
    validate_constraints,
)
from ddlab.io import read_matrix, write_matrix
from conftest import clustered_config, fractional_config, matrix_values, small_random_config


class TestPrunePlanar:
    def test_two_sided_example(self):
        cfg = Config.of(2, 1, [0], [(0, 1), (1, 2), (2, -1)])
        pruned = prune_planar(cfg)
        assert pruned.kept_indices == (0, 1)
        assert pruned.side is Side.UPPER

    def test_budget_two_example(self):
        cfg = Config.of(2, 2, [0], [(0, 1), (0, 2), (1, 1), (1, 3), (2, 5), (3, 6)])
        pruned = prune_planar(cfg)
        assert pruned.kept_indices == (0, 3, 4, 5)
        kept = pruned.to_config()
        assert validate_constraints(kept, c=1).ok

    def test_reflects_lower_majority(self):
        cfg = Config.of(2, 1, [0], [(0, -1), (1, -2), (2, 1)])
        pruned = prune_planar(cfg)
        assert pruned.kept_indices == (0, 1)
        kept = pruned.to_config()
        assert all(p.coords[1] > 0 for p in kept.p2_points)
        # mirror images keep their distance to every axis point
        for idx, p in zip(pruned.kept_indices, kept.p2_points):
            for a in cfg.p1_params:
                assert sq_dist(a, p) == sq_dist(a, cfg.p2_points[idx])

    def test_axis_points_dropped_first(self):
        cfg = Config.of(2, 1, [0], [(0, 0), (3, 0), (1, 2)])
        pruned = prune_planar(cfg)
        assert pruned.kept_indices == (2,)

    def test_all_on_axis_is_empty(self):
        cfg = Config.of(2, 2, [0], [(0, 0), (3, 0)])
        with pytest.raises(EmptyResultError):
            prune_planar(cfg)

    def test_needs_k2(self):
        cfg = Config.of(3, 1, [0], [(0, 1, 1)])
        with pytest.raises(ValueError):
            prune_planar(cfg)


class TestPruneGeneral:
    def test_three_dim_example(self):
        cfg = Config.of(3, 1, [0], [(0, 1, 0), (1, 0, 1), (2, 1, 1)])
        pruned = prune_general(cfg)
        assert pruned.kept_indices == (0, 2)
        assert pruned.side is Side.NOT_APPLICABLE

    def test_empty_raises(self):
        cfg = Config.of(2, 1, [0], [])
        with pytest.raises(EmptyResultError):
            prune_general(cfg)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_prune_properties(seed, c):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    m = rng.randint(1, 14)
    k = rng.choice((2, 2, 3, 4))
    cfg = clustered_config(seed, n=n, m=m, k=k, c=c)
    assert validate_constraints(cfg).ok

    pruned = prune_general(cfg)
    kept = pruned.to_config()
    assert validate_constraints(kept, c=1).ok
    assert len(pruned.kept_indices) >= m // (2 * c - 1)
    again = prune_general(kept)
    assert len(again.kept_indices) == kept.m

    if k == 2:
        off_axis = [p for p in cfg.p2_points if p.coords[1] != 0]
        if off_axis:
            planar = prune_planar(cfg)
            pkept = planar.to_config()
            assert validate_constraints(pkept, c=1).ok
            assert all(p.coords[1] > 0 for p in pkept.p2_points)
            assert len(planar.kept_indices) >= m // (2 * (2 * c - 1))
            once_more = prune_planar(pkept)
            assert len(once_more.kept_indices) == pkept.m


class TestCylinder:
    def test_structure(self):
        cfg = gen_cylinder_extremal(3, 4, h=2)
        assert cfg.k == 2 and cfg.c == 4
        assert cfg.p1_params == (0, 1, 2)
        assert [p.coords for p in cfg.p2_points] == [
            (0, 2), (1, 2), (2, 2), (3, 2)
        ]

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 5), (5, 2), (7, 7), (12, 3)])
    def test_distinct_count(self, n, m):
        cfg = gen_cylinder_extremal(n, m)
        values = {sq_dist(a, p) for a in cfg.p1_params for p in cfg.p2_points}
        assert len(values) == max(n, m)

    def test_rational_offset(self):
        cfg = gen_cylinder_extremal(2, 2, h="3/2")
        assert cfg.p2_points[0].coords[1] == Fraction(3, 2)

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidCountError):
            gen_cylinder_extremal(0, 3)
        with pytest.raises(ValueError):
            gen_cylinder_extremal(2, 2, h=0)


class TestOrthogonal:
    def test_entries(self):
        mat = gen_orthogonal_extremal(2, 3)
        assert (mat.scale, mat.scaled) == (1, ((2, 3, 4), (3, 4, 5)))
        assert mat == SqDistMatrix.of(2, 3, ((2, 3, 4), (3, 4, 5)))

    @pytest.mark.parametrize("n,m", [(1, 1), (4, 9), (9, 4), (10, 10)])
    def test_distinct_count(self, n, m):
        mat = gen_orthogonal_extremal(n, m)
        values = {v for row in matrix_values(mat) for v in row}
        assert values == {Fraction(d) for d in range(2, n + m + 1)}

    def test_rejects_zero(self):
        with pytest.raises(InvalidCountError):
            gen_orthogonal_extremal(3, 0)


class TestSqDistMatrix:
    def test_from_config_matches_sq_dist(self):
        for cfg in (
            small_random_config(7),
            small_random_config(11, ks=(3,)),
            fractional_config(3, n=5, m=6, k=2),
            fractional_config(4, n=6, m=4, k=3, denom=7),
            Config.of(3, 1, ["-1/2", "5/3"], [("1/4", "2/5", "-3"), (2, "7/6", "1/9")]),
        ):
            mat = SqDistMatrix.from_config(cfg)
            assert (mat.n, mat.m) == (cfg.n, cfg.m)
            for i, a in enumerate(cfg.p1_params):
                for j, p in enumerate(cfg.p2_points):
                    assert Fraction(mat.scaled[i][j], mat.scale) == sq_dist(a, p)
                    assert type(mat.scaled[i][j]) is int

    def test_shape_and_sign_checks(self):
        with pytest.raises(ValueError):
            SqDistMatrix.of(n=2, m=1, entries=((Fraction(1),),))
        with pytest.raises(ValueError, match="column count does not match m"):
            SqDistMatrix(n=2, m=2, scale=1, scaled=((1, 2), (3,)))
        for bad in (Fraction(-1), Fraction(-1, 3), -2):
            with pytest.raises(ValueError):
                SqDistMatrix.of(n=1, m=1, entries=((bad,),))
        zero = SqDistMatrix.of(n=1, m=2, entries=((0, Fraction(0, 5)),))
        assert (zero.scale, zero.scaled) == (1, ((0, 0),))

    def test_canonical_scale(self):
        # a common factor of scale and every entry is divided out, so == is value equality
        mat = SqDistMatrix(n=1, m=3, scale=12, scaled=((6, 18, 0),))
        assert (mat.scale, mat.scaled) == (2, ((1, 3, 0),))
        assert mat == SqDistMatrix.of(1, 3, [["1/2", "3/2", "0"]])
        for scale in (5, 1):
            empty = SqDistMatrix(n=0, m=2, scale=scale, scaled=())
            assert empty.scale == 1 and empty.scaled == ()
        with pytest.raises(ValueError):
            SqDistMatrix(n=1, m=1, scale=0, scaled=((1,),))


# Literal texts over the denominators 1, 2, 3, 4, 6 and 7, unreduced ones
# included, with "-0" beside "0"; tables draw from a small pool, so equal
# values repeat, often written differently.
_DENS = (1, 2, 3, 4, 6, 7)
_LITERALS = st.one_of(
    st.sampled_from(("0", "-0")),
    st.builds(lambda num, den: f"{num}/{den}", st.integers(0, 30), st.sampled_from(_DENS)),
    st.integers(0, 30).map(str),
)


@st.composite
def literal_tables(draw):
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    pool = draw(st.lists(_LITERALS, min_size=1, max_size=6))
    row = st.lists(st.sampled_from(pool), min_size=m, max_size=m)
    return n, m, draw(st.lists(row, min_size=n, max_size=n))


def _round_trip(mat: SqDistMatrix) -> SqDistMatrix:
    buf = io.StringIO()
    write_matrix(mat, buf)
    return read_matrix(io.StringIO(buf.getvalue()))


@settings(max_examples=200, deadline=None)
@given(literal_tables())
def test_canonical_matrix_from_any_rational_table(table):
    n, m, texts = table
    values = tuple(tuple(parse_rational(t) for t in row) for row in texts)
    mat = SqDistMatrix.of(n, m, texts)
    assert matrix_values(mat) == values
    assert all(type(v) is int for row in mat.scaled for v in row)
    assert mat.scale == math.lcm(*(v.denominator for row in values for v in row))
    assert SqDistMatrix.of(n, m, values) == mat
    assert _round_trip(mat) == mat
    text = f"n={n},m={m}\n" + "".join(",".join(row) + "\n" for row in texts)
    assert read_matrix(io.StringIO(text)) == mat


_COORDS = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(_DENS))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.lists(_COORDS, min_size=1, max_size=4, unique=True), st.data())
def test_canonical_matrix_from_config(k, params, data):
    point = st.lists(_COORDS, min_size=k, max_size=k)
    points = data.draw(st.lists(point, min_size=1, max_size=4))
    cfg = Config.of(k=k, c=len(points), p1_params=params, p2_points=points)
    mat = SqDistMatrix.from_config(cfg)
    by_value = SqDistMatrix.of(
        cfg.n, cfg.m, [[sq_dist(a, p) for p in cfg.p2_points] for a in cfg.p1_params]
    )
    assert mat == by_value
    assert _round_trip(mat) == mat


class TestGenRandom:
    def test_deterministic(self):
        a = gen_random(n=4, m=6, k=3, seed=99, coord_range=50)
        b = gen_random(n=4, m=6, k=3, seed=99, coord_range=50)
        assert a == b

    def test_seed_changes_output(self):
        a = gen_random(n=4, m=6, k=3, seed=1, coord_range=50)
        b = gen_random(n=4, m=6, k=3, seed=2, coord_range=50)
        assert a != b

    def test_c1_valid(self):
        for seed in range(12):
            cfg = gen_random(n=5, m=9, k=2 + seed % 3, seed=seed, coord_range=60)
            assert cfg.n == 5 and cfg.m == 9
            assert validate_constraints(cfg, c=1).ok

    def test_preconditions(self):
        with pytest.raises(InvalidCountError):
            gen_random(n=0, m=3, k=2, seed=0, coord_range=10)
        with pytest.raises(ValueError):
            gen_random(n=3, m=3, k=2, seed=0, coord_range=5)
        with pytest.raises(ValueError):
            gen_random(n=3, m=3, k=1, seed=0, coord_range=10)

    def test_exhaustion_surfaces(self, monkeypatch):
        class StuckRandom(random.Random):
            def randint(self, a, b):
                return 1

        monkeypatch.setattr("ddlab.configs.random.Random", StuckRandom)
        with pytest.raises(GenerationExhaustedError):
            gen_random(n=1, m=3, k=2, seed=0, coord_range=20)


def test_translate_along_axis():
    cfg = Config.of(2, 1, [0, 2], [(0, 1), (1, 2)])
    moved = translate_along_axis(cfg, "1/2")
    assert moved.p1_params == (Fraction(1, 2), Fraction(5, 2))
    assert moved.p2_points[1].coords == (Fraction(3, 2), Fraction(2))
