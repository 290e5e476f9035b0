"""Rational literals, points, squared distances, constraint validation."""

from __future__ import annotations

import ast
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Union

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddlab import (
    Config,
    FormatError,
    Hyperbola,
    Point,
    format_rational,
    parse_rational,
    rho_sq,
    sq_dist,
    validate_constraints,
)
import ddlab.configs
import ddlab.exact
from ddlab.exact import scale_table

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=60)


class TestRationalLiterals:
    def test_plain_integers(self):
        assert parse_rational("5") == 5
        assert parse_rational("-17") == -17
        assert parse_rational("0") == 0

    def test_fractions_reduce(self):
        assert parse_rational("4/6") == Fraction(2, 3)
        assert parse_rational("-9/3") == -3

    @pytest.mark.parametrize("bad", ["", "+5", "1/-2", "1.5", "a", "1 / 2", "--3", "1/0", "5/"])
    def test_rejects(self, bad):
        with pytest.raises(FormatError):
            parse_rational(bad)

    def test_scale_table_parses_each_distinct_item_once_in_order(self):
        calls = []

        def parse(text):
            calls.append(text)
            return parse_rational(text)

        assert scale_table([["1/2", "1/3"], ["1/2", "2"]], parse) == (6, ((3, 2), (3, 12)))
        assert calls == ["1/2", "1/3", "2"]
        with pytest.raises(FormatError, match="bad rational literal: 'x'"):
            scale_table([["1", "x"], ["1/0"]], parse_rational)  # the first bad item raises
        assert scale_table([], parse_rational) == (1, ())

    def test_rejects_trailing_newline(self):
        with pytest.raises(FormatError):
            parse_rational("3\n")
        with pytest.raises(FormatError):
            parse_rational("2/3\n")

    def test_overlong_literal_is_format_error(self):
        # int() refuses more than sys.get_int_max_str_digits() digits with a
        # plain ValueError; a literal must fail as a FormatError instead.
        limit = sys.get_int_max_str_digits()
        if limit == 0:
            pytest.skip("the integer digit limit is switched off")
        for text in ("9" * (limit + 1), "-" + "9" * (limit + 1), "1/" + "7" * (limit + 1)):
            with pytest.raises(FormatError, match="too long"):
                parse_rational(text)
        assert parse_rational("9" * limit) == 10**limit - 1

    def test_format_examples(self):
        assert format_rational(Fraction(4, 6)) == "2/3"
        assert format_rational(Fraction(-4, 6)) == "-2/3"
        assert format_rational(7) == "7"

    @given(rationals)
    def test_round_trip(self, value):
        text = format_rational(value)
        back = parse_rational(text)
        assert back == value
        assert back.denominator > 0
        # reduced: the formatted string of the parse is stable
        assert format_rational(back) == text


class TestPoints:
    def test_needs_two_coords(self):
        with pytest.raises(ValueError):
            Point((Fraction(1),))

    def test_of_normalizes(self):
        p = Point.of(1, "3/2")
        assert p.coords == (Fraction(1), Fraction(3, 2))
        assert p.k == 2
        assert p.axis_coord == 1

    def test_constructor_takes_only_literals_of_the_grammar(self):
        # the constructor and Point.of coerce through the same step, and so does
        # Hyperbola, whose alpha and beta stand in for the coords here
        def hyperbola(coords):
            h = Hyperbola(*coords, 1, (0, 1))
            return (h.alpha, h.beta)

        for make in (lambda coords: Point(coords).coords, lambda coords: Point.of(*coords).coords, hyperbola):
            for bad in ("1.5", " 3", "1e2"):
                with pytest.raises(FormatError, match=re.escape(f"bad rational literal: {bad!r}")):
                    make((bad, 0))
            assert make(("3/2", 0)) == (Fraction(3, 2), 0)


class TestSqDist:
    def test_planar_values(self):
        assert sq_dist(0, Point.of(0, 1)) == 1
        assert sq_dist(2, Point.of(0, 1)) == 5
        assert sq_dist(0, Point.of(1, 2)) == 5
        assert sq_dist(2, Point.of(1, 2)) == 5

    def test_three_dims(self):
        assert rho_sq(Point.of(1, 2, 2)) == 8
        assert sq_dist(2, Point.of(1, 2, 2)) == 9

    def test_rational_coords(self):
        # (1/2 - 1/3)^2 + (1/5)^2 = 1/36 + 1/25 = 61/900
        p = Point.of("1/3", "1/5")
        assert sq_dist(Fraction(1, 2), p) == Fraction(61, 900)

    @given(rationals, st.lists(rationals, min_size=2, max_size=4))
    def test_at_least_transverse_part(self, a, coords):
        p = Point(tuple(coords))
        d = sq_dist(a, p)
        r = rho_sq(p)
        assert d >= r
        assert (d == r) == (a == p.coords[0])

    @given(rationals, rationals, st.lists(rationals, min_size=2, max_size=4))
    def test_translation_invariant(self, a, delta, coords):
        p = Point(tuple(coords))
        q = Point((p.coords[0] + delta,) + p.coords[1:])
        assert sq_dist(a, p) == sq_dist(a + delta, q)


class TestConfig:
    def test_structure_checks(self):
        with pytest.raises(ValueError):
            Config(k=1, c=1, p1_params=(Fraction(0),), p2_points=())
        with pytest.raises(ValueError):
            Config(k=2, c=0, p1_params=(Fraction(0),), p2_points=())
        with pytest.raises(ValueError):
            Config(k=2, c=1, p1_params=(Fraction(1), Fraction(0)), p2_points=())
        with pytest.raises(ValueError):
            Config(k=2, c=1, p1_params=(Fraction(0), Fraction(0)), p2_points=())
        with pytest.raises(ValueError):
            Config(k=3, c=1, p1_params=(), p2_points=(Point.of(0, 1),))

    def test_of_sorts_params(self):
        cfg = Config.of(2, 1, [3, 0, 2], [(0, 1)])
        assert cfg.p1_params == (0, 2, 3)
        assert cfg.n == 3 and cfg.m == 1

    def test_of_keeps_fraction_objects(self):
        # each coordinate is coerced once: a Fraction is already canonical
        a, b, x, y = Fraction(5, 3), Fraction(-1, 2), Fraction(7, 4), Fraction(0)
        cfg = Config.of(2, 1, [a, b], [(x, y)])
        assert cfg.p1_params[0] is b and cfg.p1_params[1] is a
        assert cfg.p2_points[0].coords[0] is x and cfg.p2_points[0].coords[1] is y
        direct = Config(k=2, c=1, p1_params=(b, a), p2_points=(Point((x, y)),))
        assert direct.p1_params[0] is b and direct.p2_points[0].coords[1] is y

    def test_of_coerces_ints_and_literals(self):
        cfg = Config.of(2, 1, [3, "4/6"], [(2, "-0"), ("10/4", -1)])
        values = cfg.p1_params + tuple(v for p in cfg.p2_points for v in p.coords)
        assert values == (Fraction(2, 3), 3, 2, 0, Fraction(5, 2), -1)
        assert all(type(v) is Fraction for v in values)
        assert values[0].denominator == 3 and values[4].denominator == 2


class TestValidateConstraints:
    def test_axis_violation(self):
        cfg = Config.of(2, 1, [0], [(0, 1), (0, 2)])
        report = validate_constraints(cfg)
        assert not report.ok
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.condition == "p1" and v.value == 0 and v.indices == (0, 1)

    def test_rho_violation(self):
        cfg = Config.of(2, 1, [0], [(0, 1), (5, -1)])
        report = validate_constraints(cfg)
        assert [v.condition for v in report.violations] == ["rho_sq"]
        assert report.violations[0].value == 1

    def test_ok_at_two(self):
        cfg = Config.of(2, 2, [0], [(0, 1), (0, 2), (5, -1)])
        assert validate_constraints(cfg).ok
        assert not validate_constraints(cfg, c=1).ok

    def test_clean_config(self):
        cfg = Config.of(2, 1, [0, 2], [(0, 1), (1, 2)])
        assert validate_constraints(cfg).ok


def test_exact_owns_the_input_model():
    # Config, SqDistMatrix and their union Source live in exact.py, which
    # imports no ddlab module but errors and records; configs.py only builds
    # configs, so only the sweep and the package root import it
    assert ddlab.exact.Source == Union[Config, ddlab.exact.SqDistMatrix]
    assert ddlab.exact.SqDistMatrix.__module__ == "ddlab.exact"
    assert "Source" not in vars(ddlab.configs)
    importers, exact_imports = set(), set()
    for path in Path(ddlab.exact.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            modules = {node.module} if node.module else {alias.name for alias in node.names}
            if "configs" in modules:
                importers.add(path.name)
            if path.name == "exact.py":
                exact_imports |= modules
    assert importers == {"sweep.py", "__init__.py"}
    assert exact_imports == {"errors", "records"}
