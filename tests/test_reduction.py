"""Curve family construction, incidence counting, curve membership, intersections."""

from __future__ import annotations

import ast
import random
from fractions import Fraction
from itertools import combinations, islice, permutations
from pathlib import Path

import pytest
import ddlab.cli
import ddlab.reduction
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ddlab import (
    Config,
    DegenerateHyperbolaError,
    DuplicateCurveError,
    FormatError,
    Hyperbola,
    HyperbolaFamily,
    IdenticalCurvesError,
    Point,
    build_family,
    distance_classes,
    energy_report,
    gen_orthogonal_extremal,
    gen_random,
    incidences,
    intersection_count,
    oracle_incidences,
    rho_sq,
    sq_dist,
    validate_constraints,
)
from ddlab.cli import _quadruple_images, _verify_checks
from ddlab.io import load_source
from conftest import RADICAL_LINE, fractional_config, sign_split, small_random_config

WORKED = Config.of(2, 1, [0, 2], [(0, 1), (1, 2)])

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


class TestBuildFamily:
    def test_worked_example(self):
        family = build_family(WORKED)
        assert [(h.src, h.alpha, h.beta, h.gamma) for h in family.iter_curves()] == [
            ((0, 1), 0, -1, -3),
            ((1, 0), -1, 0, 3),
        ]

    def test_curve_of_one_pair(self):
        # each curve against the config's own rationals, not the scaled columns
        cfg = fractional_config(3, 4, 5, 2)
        family = build_family(cfg)
        xs, rhos = [p.coords[0] for p in cfg.p2_points], [rho_sq(p) for p in cfg.p2_points]
        assert family.scale > 1  # the columns are not the rationals themselves
        for i, j in permutations(range(cfg.m), 2):
            assert family.curve(i, j) == Hyperbola(-xs[i], -xs[j], rhos[i] - rhos[j], (i, j))

    def test_expanded_form(self):
        # pair p=(1,2), q=(3,1): (x-1)^2 - (y-3)^2 + 3, i.e. x^2-y^2-2x+6y-5
        cfg = Config.of(2, 1, [0], [(1, 2), (3, 1)])
        h = build_family(cfg).curve(0, 1)
        assert (h.alpha, h.beta, h.gamma) == (-1, -3, 3)
        for x, y in [(0, 0), (1, 3), (Fraction(5, 2), Fraction(-1, 3)), (7, 2)]:
            expanded = x * x - y * y - 2 * x + 6 * y - 5
            assert h.evaluate(x, y) == expanded

    def test_family_invariants(self):
        for seed in range(6):
            cfg = small_random_config(seed, max_nm=7)
            if cfg.m < 2:
                continue
            family = build_family(cfg)
            m = cfg.m
            curves = list(family.iter_curves())
            assert len(family) == len(curves) == m * (m - 1)
            triples = {(h.alpha, h.beta, h.gamma) for h in curves}
            assert len(triples) == m * (m - 1)
            assert sum(1 for h in curves if h.gamma > 0) == m * (m - 1) // 2
            by_src = {h.src: h for h in curves}
            for (i, j), h in by_src.items():
                assert by_src[(j, i)].gamma == -h.gamma

    def test_only_the_benchmark_tracer_reads_curves(self):
        # the family's int columns are its only form: library, tests and demos
        # build curves through curve and iter_curves, never the cached tuple
        root = Path(__file__).resolve().parent.parent
        paths = sorted(path for top in ("src", "tests", "demos") for path in (root / top).rglob("*.py"))
        assert {"reduction.py", "test_reduction.py", "04_curve_reduction.py"} <= {path.name for path in paths}
        found = [
            f"{path.relative_to(root)}:{node.lineno}"
            for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr == "curves"
        ]
        assert found == []

    def test_degenerate_pair_raises(self):
        cfg = Config.of(2, 2, [0], [(0, 1), (5, -1)])
        with pytest.raises(DegenerateHyperbolaError) as exc:
            build_family(cfg)
        assert exc.value.pair == (0, 1)

    def test_gamma_zero_rejected_at_type_level(self):
        with pytest.raises(DegenerateHyperbolaError):
            Hyperbola(alpha=Fraction(1), beta=Fraction(2), gamma=Fraction(0), src=(0, 1))

    def test_rejects_matrix_and_tiny(self):
        with pytest.raises(TypeError):
            build_family(gen_orthogonal_extremal(2, 2))
        with pytest.raises(ValueError):
            build_family(Config.of(2, 1, [0], [(0, 1)]))

    def test_duplicate_curve_error_exists(self):
        # mirror images (5, 2) and (5, -2) give pairs (0, 1) and (0, 2) one
        # curve, and row 0 is scanned before the degenerate pair (1, 2)
        cfg = Config.of(2, 2, [0], [(0, 1), (5, 2), (5, -2)])
        with pytest.raises(DuplicateCurveError, match=r"\(0, 2\) repeats the curve of pair \(0, 1"):
            build_family(cfg)

    def test_c1_configs_skip_the_scan(self, monkeypatch):
        def scan(firsts, rhos):
            pytest.fail("a c = 1 config entered the pair scan")

        monkeypatch.setattr(ddlab.reduction, "_scan_pairs", scan)
        configs = [WORKED, RADICAL_LINE, fractional_config(4, n=5, m=6, k=3)]
        configs += [small_random_config(seed) for seed in range(20)]
        configs.append(gen_random(n=400, m=400, k=2, seed=7, coord_range=1600))
        for cfg in configs:
            if cfg.m < 2:
                continue
            family = build_family(cfg)
            assert len(family) == cfg.m * (cfg.m - 1)
            assert len(set(family.firsts)) == len(set(family.rhos)) == cfg.m


def _scanned_family(cfg: Config) -> HyperbolaFamily:
    """build_family as it was before the c = 1 exit: every pair, i-major."""
    view = cfg.view
    firsts, rhos = view.firsts, view.rhos
    seen = {}
    for i in range(cfg.m):
        for j in range(cfg.m):
            if i == j:
                continue
            gamma = rhos[i] - rhos[j]
            if gamma == 0:
                raise DegenerateHyperbolaError(i, j)
            triple = (firsts[i], firsts[j], gamma)
            if triple in seen:
                raise DuplicateCurveError(f"pair ({i}, {j}) repeats the curve of pair {seen[triple]}")
            seen[triple] = (i, j)
    return HyperbolaFamily(scale=view.scale, firsts=firsts, rhos=rhos)


@st.composite
def configs_off_c1(draw):
    """Small configs that repeat an axis coordinate or a squared axis distance."""
    k = draw(st.integers(2, 4))
    points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * k), min_size=2, max_size=7))
    scale = Fraction(1, draw(st.sampled_from((1, 2, 3))))
    cfg = Config.of(k, 3, [0, 1], [tuple(v * scale for v in p) for p in points])
    assume(not validate_constraints(cfg, c=1).ok)
    return cfg


@settings(max_examples=200, deadline=None)
@given(configs_off_c1())
def test_build_family_matches_the_scan_off_c1(cfg):
    try:
        expected = _scanned_family(cfg)
    except (DegenerateHyperbolaError, DuplicateCurveError) as exc:
        with pytest.raises(type(exc)) as got:
            build_family(cfg)
        assert str(got.value) == str(exc)
    else:
        assert build_family(cfg) == expected


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, rationals, rationals, st.lists(rationals, min_size=1, max_size=3), st.lists(rationals, min_size=1, max_size=3))
def test_incidence_iff_equal_sq_dist(s, t, px, qx, ptrans, qtrans):
    p = Point((px,) + tuple(ptrans))
    q = Point((qx,) + tuple(qtrans) + (Fraction(0),) * (len(ptrans) - len(qtrans)))
    if len(qtrans) > len(ptrans):
        p = Point(p.coords + (Fraction(0),) * (len(qtrans) - len(ptrans)))
    if rho_sq(p) == rho_sq(q):
        return  # degenerate pair, no curve
    h = Hyperbola(alpha=-p.coords[0], beta=-q.coords[0], gamma=rho_sq(p) - rho_sq(q), src=(0, 1))
    assert h.contains(s, t) == (sq_dist(s, p) == sq_dist(t, q))


class TestIncidences:
    def test_worked_example(self):
        family = build_family(WORKED)
        rep = incidences(WORKED.view, family)
        assert rep.total == 4
        assert rep.per_curve == (2, 2)
        assert sign_split(rep.per_curve, family) == (2, 2)

    def test_modes_and_oracle_agree(self):
        for seed in range(10):
            rng = random.Random(seed)
            n = rng.randint(1, 7)
            m = rng.randint(2, 7)
            cfg = gen_random(n=n, m=m, k=rng.choice((2, 3, 4)), seed=seed, coord_range=9 * (n + m))
            family = build_family(cfg)
            fast = incidences(cfg.view, family)
            per_curve = oracle_incidences(cfg.p1_params, cfg)
            assert fast.per_curve == per_curve
            assert sum(fast.per_curve) == fast.total
            assert sign_split(per_curve, family) == (fast.total // 2, fast.total // 2)

    def test_fractional_coordinates(self):
        cfg = fractional_config(2, n=4, m=5, k=2)
        family = build_family(cfg)
        assert incidences(cfg.view, family).per_curve == oracle_incidences(cfg.p1_params, cfg)

    def test_grid_takes_literals(self):
        # the join's grid is the config's view, so its params coerce as Config's
        # do: literal text parses, bad text is a FormatError
        literal = Config.of(2, 1, ["1/2", "2"], [(0, 1), (1, 2)])
        assert literal.p1_params == (Fraction(1, 2), Fraction(2))
        rep = incidences(literal.view, build_family(literal))
        assert rep.per_curve == oracle_incidences(literal.p1_params, literal)
        with pytest.raises(FormatError, match=r"bad rational literal: '1\.5'"):
            Config.of(2, 1, ["1.5"], [(0, 1), (1, 2)])

    def test_json_shape(self):
        rep = incidences(WORKED.view, build_family(WORKED))
        assert rep.to_json_dict() == {
            "total": 4,
            "per_sign": {"pos": 2, "neg": 2},
            "per_curve": [2, 2],
        }


class TestBijection:
    # verify's bijection line walks the map quadruple -> (grid point, curve)
    # that _quadruple_images reads off the distance classes
    def test_worked_example_audit(self):
        images = list(_quadruple_images(WORKED, distance_classes(WORKED)))
        assert ((1, 0, 0, 1), (Fraction(2), Fraction(0)), (0, 1)) in images
        assert ((1, 0, 1, 1), (Fraction(2), Fraction(2)), (0, 1)) in images
        assert len(set(images)) == len(images) == energy_report(WORKED).energy_cross == 4
        family = build_family(WORKED)
        assert all(family.curve(*pair).contains(*point) for _, point, pair in images)
        assert ("bijection", "PASS", "Q1 = 4 vs incidences = 4") in _verify_checks(WORKED)

    def test_random_sweep(self):
        for seed in range(14):
            rng = random.Random(seed + 100)
            n = rng.randint(1, 8)
            m = rng.randint(2, 8)
            cfg = gen_random(n=n, m=m, k=rng.choice((2, 3)), seed=seed, coord_range=9 * (n + m))
            checks = {name: (status, detail) for name, status, detail in _verify_checks(cfg)}
            q1 = energy_report(cfg).energy_cross
            assert checks["bijection"] == ("PASS", f"Q1 = {q1} vs incidences = {q1}")

    def test_lattice_configs_audit_every_quadruple(self, monkeypatch):
        # random configs above have Q1 = 0; P1 = {0..N-1}, P2 = {(j, j + 1)}
        # is valid at c = 1 with Q1 > 0, so the audit tests real images
        audited = []

        def counting(cfg, classes):
            for image in _quadruple_images(cfg, classes):
                audited.append(image)
                yield image

        monkeypatch.setattr(ddlab.cli, "_quadruple_images", counting)
        for size in range(3, 9):
            cfg = Config.of(2, 1, list(range(size)), [(j, j + 1) for j in range(size)])
            audited.clear()
            q1 = energy_report(cfg).energy_cross
            assert ("bijection", "PASS", f"Q1 = {q1} vs incidences = {q1}") in _verify_checks(cfg)
            assert len(audited) == q1 > 0

    def test_audit_points_are_incident(self):
        recorded = load_source(Path(__file__).parent / "data" / "verify" / "fractional.csv")
        for cfg in (gen_random(n=5, m=4, k=3, seed=8, coord_range=80), recorded):
            images = list(_quadruple_images(cfg, distance_classes(cfg)))
            assert len(images) == energy_report(cfg).energy_cross
            family = build_family(cfg)
            assert all(family.curve(*pair).contains(*point) for _, point, pair in images)
        assert len(images) == 10  # the recorded config's Q1


class TestBranches:
    # contains accepts the points of both branches of a curve, and only those
    def test_top_and_bottom(self):
        h = Hyperbola(alpha=Fraction(0), beta=Fraction(-1), gamma=Fraction(3), src=(0, 1))
        assert h.contains(1, 3)
        assert h.contains(1, -1)

    def test_not_incident(self):
        h = Hyperbola(alpha=Fraction(0), beta=Fraction(-1), gamma=Fraction(3), src=(0, 1))
        assert not h.contains(0, 0)

    def test_side_split(self):
        neg = Hyperbola(alpha=Fraction(-1), beta=Fraction(0), gamma=Fraction(-3), src=(1, 0))
        # (3, 1) lies on neg: (3-1)^2 - 1 - 3 = 0
        assert neg.contains(3, 1)
        assert neg.contains(-1, 1)

    def test_contained_grid_points_count_q1(self):
        # every grid point that a curve's own equation accepts, over all curves
        for seed in (3, 7):
            cfg = gen_random(n=6, m=5, k=2, seed=seed, coord_range=99)
            family = build_family(cfg)
            params = cfg.p1_params
            seen = sum(h.contains(s, t) for h in family.iter_curves() for s in params for t in params)
            assert seen == energy_report(cfg).energy_cross


class TestIntersections:
    def test_single_point_example(self):
        h1 = Hyperbola(alpha=Fraction(0), beta=Fraction(-1), gamma=Fraction(-3), src=(0, 1))
        h2 = Hyperbola(alpha=Fraction(-1), beta=Fraction(0), gamma=Fraction(3), src=(1, 0))
        res = intersection_count(h1, h2)
        assert res.count == 1
        assert res.points == ((Fraction(2), Fraction(2)),)

    def test_gamma_translates_never_meet(self):
        h1 = Hyperbola(alpha=Fraction(1), beta=Fraction(2), gamma=Fraction(5), src=(0, 1))
        h2 = Hyperbola(alpha=Fraction(1), beta=Fraction(2), gamma=Fraction(-4), src=(1, 0))
        res = intersection_count(h1, h2)
        assert res.count == 0 and res.points == ()

    def test_two_rational_points(self):
        h1 = Hyperbola(alpha=Fraction(0), beta=Fraction(0), gamma=Fraction(3), src=(0, 1))
        h2 = Hyperbola(alpha=Fraction(-2), beta=Fraction(0), gamma=Fraction(3), src=(1, 0))
        res = intersection_count(h1, h2)
        assert res.count == 2
        assert res.points == ((Fraction(1), Fraction(-2)), (Fraction(1), Fraction(2)))

    def test_two_irrational_points(self):
        h1 = Hyperbola(alpha=Fraction(0), beta=Fraction(0), gamma=Fraction(1), src=(0, 1))
        h2 = Hyperbola(alpha=Fraction(-1), beta=Fraction(0), gamma=Fraction(1), src=(1, 0))
        res = intersection_count(h1, h2)
        assert res.count == 2 and res.points == ()

    def test_tangency(self):
        h1 = Hyperbola(alpha=Fraction(0), beta=Fraction(0), gamma=Fraction(-4), src=(0, 1))
        h2 = Hyperbola(alpha=Fraction(-1), beta=Fraction(0), gamma=Fraction(-1), src=(1, 0))
        res = intersection_count(h1, h2)
        assert res.count == 1
        assert res.points == ((Fraction(2), Fraction(0)),)

    def test_disjoint_vertical_case(self):
        h1 = Hyperbola(alpha=Fraction(0), beta=Fraction(0), gamma=Fraction(-9), src=(0, 1))
        h2 = Hyperbola(alpha=Fraction(-1), beta=Fraction(0), gamma=Fraction(-9), src=(1, 0))
        assert intersection_count(h1, h2).count == 0

    def test_identical_raises(self):
        h = Hyperbola(alpha=Fraction(1), beta=Fraction(2), gamma=Fraction(3), src=(0, 1))
        twin = Hyperbola(alpha=Fraction(1), beta=Fraction(2), gamma=Fraction(3), src=(2, 3))
        with pytest.raises(IdenticalCurvesError):
            intersection_count(h, twin)

    def test_returned_points_lie_on_both(self):
        rng = random.Random(5)
        for _ in range(120):
            h1 = _random_curve(rng)
            h2 = _random_curve(rng)
            if (h1.alpha, h1.beta, h1.gamma) == (h2.alpha, h2.beta, h2.gamma):
                continue
            res = intersection_count(h1, h2)
            assert res.count in (0, 1, 2)
            assert len(res.points) <= res.count
            for pt in res.points:
                assert h1.contains(*pt) and h2.contains(*pt)

    def test_radical_line_parallel_to_asymptote(self):
        family = build_family(RADICAL_LINE)
        for a, b in (((0, 1), (1, 2)), ((1, 0), (2, 1))):
            res = intersection_count(family.curve(*a), family.curve(*b))
            assert res.count == 0 and res.points == ()

    def test_family_path_matches_intersection_count(self):
        # intersection_count reads each curve's cached int form, which must be
        # the family's own int columns at the curve's scale L
        configs = [RADICAL_LINE, fractional_config(4, n=3, m=7, k=3)] + [
            gen_random(n=4, m=7, k=k, seed=seed, coord_range=12) for k in (2, 3) for seed in range(3)
        ]
        with_points = 0
        for cfg in configs:
            family = build_family(cfg)
            f, r, scale = family.firsts, family.rhos, family.scale
            curves = list(islice(family.iter_curves(), 40))
            for h in curves:
                (i, j), (L, a, b, g) = h.src, h._ints
                assert (Fraction(a, L), Fraction(b, L)) == (Fraction(-f[i], scale), Fraction(-f[j], scale))
                assert Fraction(g, L * L) == Fraction(r[i] - r[j], scale * scale)
            with_points += sum(bool(intersection_count(h1, h2).points) for h1, h2 in combinations(curves, 2))
        assert with_points > 0

    def test_family_pairs_cross_at_most_twice(self):
        cfg = gen_random(n=3, m=6, k=2, seed=21, coord_range=90)
        curves = list(build_family(cfg).iter_curves())
        for a in range(len(curves)):
            for b in range(a + 1, len(curves)):
                assert intersection_count(curves[a], curves[b]).count <= 2


def _random_curve(rng: random.Random) -> Hyperbola:
    while True:
        gamma = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        if gamma != 0:
            break
    return Hyperbola(
        alpha=Fraction(rng.randint(-8, 8), rng.randint(1, 3)),
        beta=Fraction(rng.randint(-8, 8), rng.randint(1, 3)),
        gamma=gamma,
        src=(0, 1),
    )
