"""The int kernels against the rational reference paths on mixed denominators.

energy_report, build_family and the incidence join scale their input once
into plain ints; energy, distance_classes and the oracles stay on the
original rationals. Each coordinate here draws its own denominator, so the
common scale is a genuine lcm, sometimes set by the transverse coordinates
alone.
"""

from __future__ import annotations

import io
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, target
from hypothesis import strategies as st

from ddlab import (
    DuplicateCurveError,
    IncidenceReport,
    Config,
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
    validate_constraints,
)
from ddlab.energy import _numpy_report, energy
from ddlab.exact import IntView
from ddlab.io import read_matrix, write_gamma_csv, write_matrix
from conftest import fractional_config, sign_split

DENOMINATORS = (1, 2, 3, 5, 7, 12)


def rationals(integral: bool = False):
    dens = st.just(1) if integral else st.sampled_from(DENOMINATORS)
    return st.builds(Fraction, st.integers(-40, 40), dens)


@st.composite
def mixed_configs(draw) -> Config:
    """A c=1 config; with only_transverse the scale comes from rho_sq alone."""
    k = draw(st.sampled_from((2, 3)))
    axis_integral = draw(st.booleans())
    params = draw(st.lists(rationals(axis_integral), min_size=1, max_size=5, unique=True))
    points = draw(
        st.lists(
            st.tuples(rationals(axis_integral), *[rationals() for _ in range(k - 1)]),
            min_size=2,
            max_size=5,
        )
    )
    cfg = Config.of(k=k, c=1, p1_params=params, p2_points=points)
    assume(validate_constraints(cfg).ok)
    return cfg


@settings(max_examples=120, deadline=None)
@given(mixed_configs())
def test_int_kernels_match_rational_references(cfg):
    rep = energy_report(cfg)
    assert rep == energy(cfg)
    assert (rep.energy, rep.energy_same_point, rep.energy_cross) == oracle_quadruples(cfg)
    mat = SqDistMatrix.from_config(cfg)
    assert energy_report(mat) == rep

    family = build_family(cfg)
    rhos = [rho_sq(p) for p in cfg.p2_points]
    xs = [p.coords[0] for p in cfg.p2_points]
    expected = [
        ((i, j), -xs[i], -xs[j], rhos[i] - rhos[j])
        for i in range(cfg.m)
        for j in range(cfg.m)
        if i != j
    ]
    assert [(h.src, h.alpha, h.beta, h.gamma) for h in family.iter_curves()] == expected

    buf = io.StringIO()
    write_gamma_csv(family, buf)
    assert buf.getvalue() == "p_idx,q_idx,alpha,beta,gamma\n" + "".join(
        f"{i},{j},{format_rational(a)},{format_rational(b)},{format_rational(g)}\n"
        for (i, j), a, b, g in expected
    )

    fast = incidences(cfg.view, family)
    assert fast.per_curve == oracle_incidences(cfg)
    assert fast.total == rep.energy_cross


# A narrow coordinate range makes grid values collide, so the incidence count
# I is large next to n m and rows often take a value twice (mirror points).
_NARROW = st.integers(-5, 5)


@st.composite
def dense_families(draw):
    """A config on a narrow range, maybe scaled and shifted off the ints, with its family.

    Points are unique by rho_sq, so every pair gives a curve; axis
    coordinates may repeat, which build_family allows.
    """
    k = draw(st.integers(2, 4))
    params = draw(st.lists(_NARROW, min_size=1, max_size=8, unique=True))
    points = draw(
        st.lists(
            st.tuples(*[_NARROW] * k),
            min_size=2,
            max_size=6,
            unique_by=lambda p: sum(v * v for v in p[1:]),
        )
    )
    scale = Fraction(1, draw(st.sampled_from((1, 2, 3, 6))))
    shift = draw(st.sampled_from((0, Fraction(1, 5), Fraction(-3, 7))))
    cfg = Config.of(
        k=k,
        c=1,
        p1_params=[a * scale + shift for a in params],
        p2_points=[(p[0] * scale + shift,) + tuple(v * scale for v in p[1:]) for p in points],
    )
    try:
        return cfg, build_family(cfg)
    except DuplicateCurveError:
        assume(False)


def _mirror(per_curve, m: int) -> list[int]:
    """per_curve reindexed so that entry (i, j) holds the count of curve (j, i)."""
    at = {pair: c for pair, c in zip(((i, j) for i in range(m) for j in range(m) if i != j), per_curve)}
    return [at[(j, i)] for i in range(m) for j in range(m) if i != j]


@settings(max_examples=100, deadline=None)
@given(dense_families())
def test_join_per_curve_matches_oracle(cfg_family):
    cfg, family = cfg_family
    own = incidences(cfg.view, family)
    target(float(own.total), label="incidences on the config's grid")
    assert own.total == energy_report(cfg).energy_cross
    assert own.per_curve == oracle_incidences(cfg)
    # (s, t) on curve (i, j) iff (t, s) on curve (j, i), and the swap flips gamma's sign
    assert list(own.per_curve) == _mirror(own.per_curve, cfg.m)
    assert sign_split(own.per_curve, family) == (own.total // 2, own.total // 2)


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
