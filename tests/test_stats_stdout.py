"""ddlab stats on cylinder-512, the input at the numpy kernel's threshold.

tests/data/gen/cylinder-512.csv is the stdout of `ddlab gen --generator
cylinder --n 512 --m 512` (gen_cylinder_extremal(512, 512)). It has exactly
NUMPY_MIN_PAIRS pairs, so stats takes the numpy kernel when numpy imports
and the stdlib kernel otherwise; both must print the bytes that
tests/recordings.py pins for its stats-cylinder-512 entries.
"""

from __future__ import annotations

import pytest

import ddlab.energy as energy_mod
from ddlab import gen_cylinder_extremal
from ddlab.cli import main
from ddlab.energy import NUMPY_MIN_PAIRS
from ddlab.io import load_source
from recordings import DATA, RECORDINGS

FORMS = {rec.id.rsplit("-", 1)[1]: rec for rec in RECORDINGS if rec.id.startswith("stats-cylinder-512-")}


@pytest.mark.parametrize("form", sorted(FORMS))
def test_stdlib_kernel_prints_the_same_bytes(form, tmp_path, capsysbinary, monkeypatch):
    rec = FORMS[form]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(energy_mod, "_numpy_report", lambda src: None)
    assert main(rec.argv) == 0
    out, err = capsysbinary.readouterr()
    assert err == b""
    assert rec.produced(out, tmp_path) == rec.expected()


def test_recorded_cylinder_input():
    cfg = load_source(DATA / "gen" / "cylinder-512.csv")
    assert cfg == gen_cylinder_extremal(512, 512)
    assert cfg.n * cfg.m == NUMPY_MIN_PAIRS
