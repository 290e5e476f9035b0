"""ddlab verify's stdout, pinned byte for byte on six recorded inputs.

tests/data/verify holds each input (<name>.csv) with the text (<name>.txt)
and --json (<name>.json) stdout recorded before the oracles and
intersection_count moved to key and int arithmetic: a random c=1 config with
fractional coordinates, a 50x50 cylinder config past the quadruple oracle's
guard (the SKIP path), the radical-line fixture and an orthogonal matrix.
incidence-guard (`ddlab gen --n 100 --m 40 --seed 1`, recorded before the
quadratic incidence scan was deleted) is reducible but past the incidence
oracle's guard, so both incidence lines take their SKIP path. The matrix
recordings were renewed when `constraints` began checking a matrix's
columns (SKIP became PASS); every other line is unchanged. orthogonal
(`ddlab gen --generator orthogonal --n 50 --m 50`) is a matrix past the
quadruple oracle's guard, recorded before class-grouping stopped building
pair lists.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path

import pytest

import ddlab.sweep
from ddlab import gen_orthogonal_extremal
from ddlab.cli import main
from ddlab.reduction import Hyperbola, _ordered_pairs
from ddlab.io import load_source
from ddlab.exact import validate_constraints
from ddlab.oracles import INCIDENCE_GUARD, QUADRUPLE_GUARD
from conftest import RADICAL_LINE

DATA = Path(__file__).parent / "data" / "verify"
INPUTS = ("fractional", "cylinder", "radical-line", "matrix", "incidence-guard", "orthogonal")


@pytest.mark.parametrize("name", INPUTS)
@pytest.mark.parametrize("form", ("txt", "json"))
def test_stdout_is_pinned(name, form, capsys):
    argv = ["verify", "--input", str(DATA / f"{name}.csv")] + (["--json"] if form == "json" else [])
    assert main(argv) == 0
    assert capsys.readouterr().out == (DATA / f"{name}.{form}").read_text(encoding="utf-8")


def test_recorded_inputs():
    assert load_source(DATA / "radical-line.csv") == RADICAL_LINE
    frac = load_source(DATA / "fractional.csv")
    assert any(v.denominator > 1 for p in frac.p2_points for v in p.coords)
    cyl = load_source(DATA / "cylinder.csv")
    assert cyl.n * cyl.m > QUADRUPLE_GUARD
    big = load_source(DATA / "incidence-guard.csv")
    assert big.n ** 2 * big.m * (big.m - 1) > INCIDENCE_GUARD
    assert validate_constraints(big, c=1).ok
    orth = load_source(DATA / "orthogonal.csv")
    assert orth == gen_orthogonal_extremal(50, 50)
    assert orth.n * orth.m > QUADRUPLE_GUARD


def test_intersections_build_only_the_sampled_curves(capsys, monkeypatch):
    # past the incidence guard nothing else reads the curves: verify builds
    # the 40 it intersects, not all 1560
    built = []
    post_init = Hyperbola.__post_init__

    def counting(self):
        built.append(self.src)
        post_init(self)

    monkeypatch.setattr(Hyperbola, "__post_init__", counting)
    assert main(["verify", "--input", str(DATA / "incidence-guard.csv")]) == 0
    assert capsys.readouterr().out == (DATA / "incidence-guard.txt").read_text(encoding="utf-8")
    assert 0 < len(built) <= 40


def test_bijection_past_the_quadruple_guard_audits_no_quadruple(capsys, monkeypatch):
    # n*m = 4000: the bijection line compares Q1 with I and builds no curve;
    # the only curves built are the 40 that intersections samples, once each
    built = []
    post_init = Hyperbola.__post_init__

    def counting(self):
        built.append(self.src)
        post_init(self)

    def no_audit(cfg, classes):
        raise AssertionError("audited past the guard")

    monkeypatch.setattr(Hyperbola, "__post_init__", counting)
    monkeypatch.setattr(ddlab.sweep, "_quadruple_images", no_audit)
    assert main(["verify", "--input", str(DATA / "incidence-guard.csv")]) == 0
    assert capsys.readouterr().out == (DATA / "incidence-guard.txt").read_text(encoding="utf-8")
    m = load_source(DATA / "incidence-guard.csv").m
    assert built == list(islice(_ordered_pairs(m), 40))


@pytest.mark.parametrize("name, calls", [("incidence-guard", 0), ("cylinder", 0), ("fractional", 1)])
def test_only_the_bijection_audit_builds_pair_lists(name, calls, capsys, monkeypatch):
    # class-grouping counts reduced-pair keys at every size; distance_classes
    # runs once, for bijection's audit, only at or below QUADRUPLE_GUARD
    built = []
    real = ddlab.sweep.distance_classes

    def spy(src):
        built.append(src)
        return real(src)

    monkeypatch.setattr(ddlab.sweep, "distance_classes", spy)
    assert main(["verify", "--input", str(DATA / f"{name}.csv")]) == 0
    assert capsys.readouterr().out == (DATA / f"{name}.txt").read_text(encoding="utf-8")
    assert len(built) == calls
