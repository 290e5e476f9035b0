"""ddlab gen, reduce and sweep outputs, pinned byte for byte.

tests/data/reduce holds three configs (<name>.csv) with the reduce text
stdout (<name>.txt), the --json stdout (<name>.json, whose per_curve lists
every curve's incidence count in i-major order) and the gamma CSV written
by --output (<name>.gamma.csv): a random k=2 config drawn from a narrow
coordinate range (134 incidences), a k=3 config with denominators 30 from a
scale of 1/6 and an axis shift of 1/5 (26 incidences) and the radical-line
fixture (none). tests/data/sweep/grid.csv is the CSV of SWEEP_ARGV. All
were recorded before the incidence count became a grouped join.
tests/data/gen holds the stdout of each GEN_ARGV entry: the random ones
recorded while gen_random still drew its coordinates as Fractions, and one
argument set for each of the two fixed generators.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import pytest

from ddlab.cli import main
from ddlab.io import load_source
from conftest import RADICAL_LINE

DATA = Path(__file__).parent / "data"
REDUCE_INPUTS = ("random-k2", "fractional", "radical-line")
SWEEP_ARGV = ["sweep", "--n-list", "4,9,16", "--m-list", "3,8", "--seeds", "0,1", "--coord-range", "24"]
GEN_ARGV = {
    "random-k3": ["--n", "5", "--m", "4", "--k", "3", "--seed", "8", "--coord-range", "80"],
    # 21 point draws for 6 points: 15 are rejected for a repeated axis
    # coordinate or squared axis distance
    "random-rejections": ["--n", "3", "--m", "6", "--coord-range", "9", "--seed", "0"],
    "cylinder": ["--generator", "cylinder", "--n", "4", "--m", "3", "--offset", "7/3"],
    "orthogonal": ["--generator", "orthogonal", "--n", "3", "--m", "4"],
}


@pytest.mark.parametrize("name", GEN_ARGV)
def test_gen_is_pinned(name, capsys):
    assert main(["gen"] + GEN_ARGV[name]) == 0
    assert capsys.readouterr().out == (DATA / "gen" / f"{name}.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", REDUCE_INPUTS)
def test_reduce_text_and_gamma_csv_are_pinned(name, tmp_path, capsys):
    src, out = DATA / "reduce" / f"{name}.csv", tmp_path / "gamma.csv"
    assert main(["reduce", "--input", str(src), "--output", str(out)]) == 0
    assert capsys.readouterr().out == (DATA / "reduce" / f"{name}.txt").read_text(encoding="utf-8")
    assert out.read_bytes() == (DATA / "reduce" / f"{name}.gamma.csv").read_bytes()


@pytest.mark.parametrize("name", REDUCE_INPUTS)
def test_reduce_json_is_pinned(name, capsys):
    assert main(["reduce", "--input", str(DATA / "reduce" / f"{name}.csv"), "--json"]) == 0
    assert capsys.readouterr().out == (DATA / "reduce" / f"{name}.json").read_text(encoding="utf-8")


def test_sweep_csv_is_pinned(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(SWEEP_ARGV + ["--output", str(out)]) == 0
    assert out.read_bytes() == (DATA / "sweep" / "grid.csv").read_bytes()


def test_recorded_inputs():
    assert load_source(DATA / "reduce" / "radical-line.csv") == RADICAL_LINE
    frac = load_source(DATA / "reduce" / "fractional.csv")
    assert any(v.denominator == 30 for v in frac.p1_params)
    rows = list(csv.DictReader(io.StringIO((DATA / "sweep" / "grid.csv").read_text(encoding="utf-8"))))
    assert len(rows) == 12 and max(int(row["I"]) for row in rows) > 0
