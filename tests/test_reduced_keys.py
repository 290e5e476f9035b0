"""The reduced (numerator, denominator) int pairs against plain Fraction arithmetic.

energy, distance_classes, oracle_quadruples and oracle_incidences compute
each rational as a reduced int pair with one gcd (exact.sq_dist_rows, which
reads a config's rationals or a matrix's canonical ints). The references
are the Fraction operator chains those functions used before (conftest's
fraction_rows and reference_classes, and reference_incidences here), on
every source tests/strategies.py draws. The spy pins what the Fractions cost.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from hypothesis import given, settings

from ddlab import (
    DegenerateHyperbolaError,
    DuplicateCurveError,
    SqDistMatrix,
    build_family,
    distance_classes,
    gen_random,
    oracle_incidences,
)
import ddlab.energy as energy_mod
from ddlab.exact import sq_dist_rows
from conftest import fraction_rows, reference_classes
from strategies import configs, sources


def reference_incidences(params, family) -> tuple[int, ...]:
    """Per-curve incidences by Fraction arithmetic on each curve's own coefficients."""
    per_curve = []
    for h in family.iter_curves():
        lhs = [(s + h.alpha) ** 2 + h.gamma for s in params]
        rhs = [(t + h.beta) ** 2 for t in params]
        per_curve.append(sum(rhs.count(left) for left in lhs))
    return tuple(per_curve)


@settings(max_examples=100, deadline=None)
@given(sources())
def test_distance_classes_match_fraction_reference(src):
    got = distance_classes(src).classes
    want = reference_classes(src)
    assert got == want
    assert list(got) == list(want)  # first-seen key order
    assert all(type(key) is Fraction for key in got)


@settings(max_examples=60, deadline=None)
@given(sources())
def test_rows_are_reduced_squared_distances(src):
    rows = list(sq_dist_rows(src))
    assert len(rows) == src.n
    assert rows == [[(d.numerator, d.denominator) for d in row] for row in fraction_rows(src)]


@settings(max_examples=100, deadline=None)
@given(configs())
def test_oracle_incidences_match_fraction_reference(cfg):
    try:
        family = build_family(cfg)
    except (DegenerateHyperbolaError, DuplicateCurveError):
        return  # no family: test_build_family_matches_the_scan_off_c1 checks the refusal
    assert oracle_incidences(cfg) == reference_incidences(cfg.p1_params, family)


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
