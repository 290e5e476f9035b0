"""The int kernels against the rational reference paths, and the incidence join.

energy_report, build_family and the incidence join scale their input once
into plain ints; energy, distance_classes and the oracles stay on the
original rationals. The properties read every config that
tests/strategies.py draws and build_family accepts, at any multiplicity:
the scale can come from rho_sq alone, mirror parameters give a point one
value twice, and axis coordinates repeat off c = 1. The unit tests pin the
join's edge cases and keep Fraction arithmetic out of the int kernels.
"""

from __future__ import annotations

import io
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, target

from ddlab import (
    DegenerateHyperbolaError,
    DuplicateCurveError,
    IncidenceReport,
    Config,
    HyperbolaFamily,
    SqDistMatrix,
    build_family,
    distance_classes,
    energy_report,
    format_rational,
    gen_random,
    incidences,
    oracle_incidences,
    oracle_quadruples,
    rho_sq,
)
from ddlab.energy import _numpy_report, energy
from ddlab.exact import IntView
from ddlab.io import read_matrix, write_gamma_csv, write_matrix
from conftest import fractional_config, sign_split
from strategies import configs


def _mirror(per_curve, m: int) -> list[int]:
    """per_curve reindexed so that entry (i, j) holds the count of curve (j, i)."""
    at = dict(zip(permutations(range(m), 2), per_curve))
    return [at[(j, i)] for i, j in permutations(range(m), 2)]


def _family(cfg: Config) -> HyperbolaFamily | None:
    """build_family(cfg), or None where it refuses a repeated rho_sq or curve
    (test_build_family_matches_the_scan_off_c1 checks the refusal)."""
    try:
        return build_family(cfg)
    except (DegenerateHyperbolaError, DuplicateCurveError):
        return None


@settings(max_examples=40, deadline=None)
@given(configs())
def test_int_kernels_match_rational_references(cfg):
    # the family's curves and gamma CSV, from its int columns, against the
    # config's own rationals
    family = _family(cfg)
    if family is None:
        return
    xs = [p.coords[0] for p in cfg.p2_points]
    rhos = [rho_sq(p) for p in cfg.p2_points]
    curves = [((i, j), -xs[i], -xs[j], rhos[i] - rhos[j]) for i, j in permutations(range(cfg.m), 2)]
    assert [(h.src, h.alpha, h.beta, h.gamma) for h in family.iter_curves()] == curves
    buf = io.StringIO()
    write_gamma_csv(family, buf)
    assert buf.getvalue() == "p_idx,q_idx,alpha,beta,gamma\n" + "".join(
        f"{i},{j},{format_rational(a)},{format_rational(b)},{format_rational(g)}\n"
        for (i, j), a, b, g in curves
    )


@settings(max_examples=80, deadline=None)
@given(configs())
def test_join_per_curve_matches_oracle(cfg):
    family = _family(cfg)
    if family is None:
        return
    own = incidences(cfg.view, family)
    target(float(own.total), label="incidences on the config's grid")
    assert own.total == energy_report(cfg).energy_cross
    assert own.per_curve == oracle_incidences(cfg)
    # (s, t) on curve (i, j) iff (t, s) on curve (j, i), and the swap flips gamma's sign
    assert list(own.per_curve) == _mirror(own.per_curve, cfg.m)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["mirror-row-first", "mirror-row-second"])
def test_join_counts_a_value_taken_twice_by_one_row(order):
    # params -1 and 1 mirror about x = 0, so the point (0, 1, 0) takes the
    # value 2 at both; (2, 1, 1) takes it once, at t = 2: c_i = 2, c_j = 1
    points = [(0, 1, 0), (2, 1, 1)]
    cfg = Config.of(k=3, c=1, p1_params=[-1, 1, 2], p2_points=[points[i] for i in order])
    family = build_family(cfg)
    rep = incidences(cfg.view, family)
    assert rep.per_curve == (2, 2)
    assert rep.per_curve == oracle_incidences(cfg)
    assert rep.total == energy_report(cfg).energy_cross == 4


def test_join_on_a_grid_the_family_scale_misses():
    # the join reads grid and family at one scale; a grid of fifths against
    # a family at scale 1 is refused, not miscounted
    cfg = Config.of(k=2, c=1, p1_params=[0], p2_points=[(0, 2), (1, 1)])
    family = build_family(cfg)
    assert family.scale == 1
    fifths = IntView(5, tuple(range(-20, 21)), (), ())  # the params -4, -19/5, ..., 4
    with pytest.raises(ValueError, match="scale 5"):
        incidences(fifths, family)


def test_join_with_no_incidences():
    cfg = Config.of(k=2, c=1, p1_params=[0], p2_points=[(0, 1), (5, 3)])
    family = build_family(cfg)
    zero = IncidenceReport(per_curve=(0, 0))
    assert incidences(cfg.view, family) == zero
    assert oracle_incidences(cfg) == zero.per_curve
    assert energy_report(cfg).energy_cross == 0


def test_join_at_400_matches_energy():
    cfg = gen_random(n=400, m=400, k=2, seed=7, coord_range=1600)
    family = build_family(cfg)
    rep = incidences(cfg.view, family)
    assert rep.total == energy_report(cfg).energy_cross > 0
    assert sign_split(rep.per_curve, family) == (rep.total // 2, rep.total // 2)
    assert len(rep.per_curve) == 400 * 399


def test_fractional_matrix_entries():
    half, third = Fraction(1, 2), Fraction(1, 3)
    mat = SqDistMatrix.of(
        n=3,
        m=3,
        entries=(
            (half, Fraction(3, 4), third),
            (Fraction(3, 4), half, Fraction(5, 6)),
            (Fraction(1), third, Fraction(2, 4)),
        ),
    )
    rep = energy_report(mat)
    assert rep == energy(mat)
    assert (rep.energy, rep.energy_same_point, rep.energy_cross) == oracle_quadruples(mat)
    assert rep.distinct_count == 5
    assert set(distance_classes(mat).classes) == {half, Fraction(3, 4), third, Fraction(5, 6), 1}


def _refuse_fraction_arithmetic(monkeypatch) -> None:
    def refuse(*args):
        raise AssertionError("Fraction arithmetic inside an int kernel")

    for op in ("add", "sub", "mul", "truediv", "pow"):
        monkeypatch.setattr(Fraction, f"__{op}__", refuse)
        monkeypatch.setattr(Fraction, f"__r{op}__", refuse)
    for op in ("eq", "lt", "le", "gt", "ge", "hash"):
        monkeypatch.setattr(Fraction, f"__{op}__", refuse)


def test_kernels_do_no_fraction_arithmetic(monkeypatch):
    cfg = fractional_config(4, n=5, m=5, k=3)
    mat = SqDistMatrix.from_config(cfg)
    _refuse_fraction_arithmetic(monkeypatch)
    energy_report(cfg)
    energy_report(mat)
    buf = io.StringIO()
    write_matrix(mat, buf)  # the file reader and writer stay on the scaled ints too
    assert read_matrix(io.StringIO(buf.getvalue())).scaled == mat.scaled
    incidences(cfg.view, build_family(cfg))


def test_numpy_kernel_does_no_fraction_arithmetic(monkeypatch):
    pytest.importorskip("numpy")
    cfg = fractional_config(4, n=5, m=5, k=3)
    mat = SqDistMatrix.from_config(cfg)
    _refuse_fraction_arithmetic(monkeypatch)
    assert _numpy_report(cfg) is not None
    assert _numpy_report(mat) is not None
