"""The reduced (numerator, denominator) int pairs against plain Fraction arithmetic.

energy, distance_classes, oracle_quadruples and oracle_incidences compute
each rational as a reduced int pair with one gcd (exact.sq_dist_rows, which
reads a config's rationals or a matrix's canonical ints). The references
here are the Fraction operator chains those functions used before, copied
into the test.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ddlab import (
    Config,
    SqDistMatrix,
    build_family,
    distance_classes,
    gen_random,
    oracle_incidences,
    sq_dist,
)
import ddlab.energy as energy_mod
from ddlab.exact import rho_sq, sq_dist_rows


def reference_classes(cfg: Config) -> dict:
    classes: dict = {}
    cols = [(p.coords[0], rho_sq(p)) for p in cfg.p2_points]
    for i, a in enumerate(cfg.p1_params):
        for j, (f, r) in enumerate(cols):
            t = a - f
            classes.setdefault(t * t + r, []).append((i, j))
    return classes


def reference_incidences(params, family) -> tuple[int, ...]:
    per_curve = []
    for h in family.iter_curves():
        lhs = [(s + h.alpha) ** 2 + h.gamma for s in params]
        rhs = [(t + h.beta) ** 2 for t in params]
        per_curve.append(sum(rhs.count(left) for left in lhs))
    return tuple(per_curve)


@st.composite
def fractional_configs(draw, reducible: bool = False):
    """Mixed denominators from 1..7, negative coordinates, k = 2..4; small
    ranges so that classes and incidences are common. A reducible config has distinct
    axis coordinates and distinct squared axis distances (valid at c = 1)."""
    k = draw(st.integers(2, 4))
    # a few denominators per config, so that equal values are common
    dens = draw(st.lists(st.integers(1, 7), min_size=1, max_size=3, unique=True))
    value = st.builds(Fraction, st.integers(-6, 6), st.sampled_from(dens))
    params = draw(st.lists(value, min_size=1, max_size=7, unique=True))
    point = st.tuples(*[value] * k)
    if reducible:
        points = draw(
            st.lists(
                point,
                min_size=2,
                max_size=6,
                unique_by=(lambda p: p[0], lambda p: sum(v * v for v in p[1:])),
            )
        )
    else:
        points = draw(st.lists(point, min_size=1, max_size=7))
    return Config.of(k=k, c=len(points), p1_params=params, p2_points=points)


@settings(max_examples=200, deadline=None)
@given(fractional_configs())
def test_distance_classes_match_fraction_reference(cfg):
    got = distance_classes(cfg).classes
    want = reference_classes(cfg)
    assert got == want
    assert list(got) == list(want)  # first-seen key order
    assert all(type(key) is Fraction for key in got)


@settings(max_examples=200, deadline=None)
@given(fractional_configs())
def test_rows_are_reduced_squared_distances(cfg):
    rows = list(sq_dist_rows(cfg))
    assert len(rows) == cfg.n
    for a, row in zip(cfg.p1_params, rows):
        want = [sq_dist(a, p) for p in cfg.p2_points]
        assert row == [(d.numerator, d.denominator) for d in want]
    assert list(sq_dist_rows(SqDistMatrix.from_config(cfg))) == rows


@settings(max_examples=250, deadline=None)
@given(fractional_configs(reducible=True))
def test_oracle_incidences_match_fraction_reference(cfg):
    assert oracle_incidences(cfg) == reference_incidences(cfg.p1_params, build_family(cfg))


def test_distance_classes_build_one_fraction_per_class(monkeypatch):
    made = []

    def counting(*args):
        made.append(args)
        return Fraction(*args)

    cfg = gen_random(n=40, m=40, k=2, seed=11, coord_range=80)
    want = reference_classes(cfg)
    mat = SqDistMatrix.from_config(cfg)
    monkeypatch.setattr(energy_mod, "Fraction", counting)
    for src in (cfg, mat):
        made.clear()
        got = distance_classes(src)
        assert got.classes == want
        assert list(got.classes) == list(want)  # first-seen key order
        assert len(made) == got.distinct_count
        assert got.distinct_count < cfg.n * cfg.m  # a per-pair Fraction would show
        made.clear()
        rep = energy_mod.energy(src)  # the reference counts the same classes with none
        assert made == []
        assert rep.class_histogram == tuple(sorted(Counter(map(len, want.values())).items()))
