"""Every pinned command of tests/recordings.py, and the recorded inputs it reads.

Each entry runs through ddlab.cli.main in a fresh working directory: it must
exit 0 with nothing on stderr, and its stdout and written files must equal
their recordings byte for byte. A drift guard keeps tests/data and the
entries in step, so a recording that no entry compares cannot sit unread.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import pytest

from ddlab.cli import main
from ddlab.io import load_source
from conftest import RADICAL_LINE
from recordings import DATA, RECORDINGS

PINNED = ("verify", "stats", "reduce", "gen", "bound", "sweep")


@pytest.mark.parametrize("rec", RECORDINGS, ids=lambda rec: rec.id)
def test_outputs_are_pinned(rec, tmp_path, monkeypatch, capsysbinary):
    monkeypatch.chdir(tmp_path)
    assert main(rec.argv) == 0
    out, err = capsysbinary.readouterr()
    assert err == b""
    assert rec.produced(out, tmp_path) == rec.expected()


def test_every_recorded_file_is_an_entrys_input_or_recording():
    inputs = {Path(rec.argv[rec.argv.index("--input") + 1]) for rec in RECORDINGS if "--input" in rec.argv}
    recorded = {path for rec in RECORDINGS for path in rec.outputs.values()}
    assert sorted(path for path in recorded if not path.is_file()) == []
    on_disk = {path for kind in PINNED for path in (DATA / kind).iterdir()}
    assert sorted(on_disk - inputs - recorded) == []


def test_recorded_reduce_inputs_and_sweep_grid():
    assert load_source(DATA / "reduce" / "radical-line.csv") == RADICAL_LINE
    frac = load_source(DATA / "reduce" / "fractional.csv")
    assert any(v.denominator == 30 for v in frac.p1_params)
    rows = list(csv.DictReader(io.StringIO((DATA / "sweep" / "grid.csv").read_text(encoding="utf-8"))))
    assert len(rows) == 12 and max(int(row["I"]) for row in rows) > 0

