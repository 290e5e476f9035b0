"""ddlab stats' stdout, pinned byte for byte.

tests/data/stats holds the text (<name>.txt) and --json (<name>.json)
stdout of stats on every input of tests/data/verify and on cylinder-512,
the file that `ddlab gen --generator cylinder --n 512 --m 512` writes
(gen_cylinder_extremal(512, 512)). That input has exactly NUMPY_MIN_PAIRS
pairs, so it takes the numpy kernel when numpy imports and the stdlib
kernel otherwise; both must print the recorded bytes.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import ddlab.energy as energy_mod
from ddlab import gen_cylinder_extremal
from ddlab.cli import main
from ddlab.energy import NUMPY_MIN_PAIRS
from ddlab.io import load_source

DATA = Path(__file__).parent / "data"
VERIFY_INPUTS = ("fractional", "cylinder", "radical-line", "matrix", "incidence-guard", "orthogonal")
FORMS = ("txt", "json")
CYLINDER_512 = ["gen", "--generator", "cylinder", "--n", "512", "--m", "512"]


@pytest.fixture(scope="module")
def cylinder_512(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("stats") / "cylinder-512.csv"
    assert main(CYLINDER_512 + ["--output", str(path)]) == 0
    return path


def _stats(path: Path, form: str, capsys) -> str:
    assert main(["stats", "--input", str(path)] + (["--json"] if form == "json" else [])) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", VERIFY_INPUTS)
@pytest.mark.parametrize("form", FORMS)
def test_stdout_is_pinned(name, form, capsys):
    out = _stats(DATA / "verify" / f"{name}.csv", form, capsys)
    assert out == (DATA / "stats" / f"{name}.{form}").read_text(encoding="utf-8")


@pytest.mark.parametrize("form", FORMS)
def test_cylinder_at_the_numpy_threshold_is_pinned(form, cylinder_512, capsys):
    out = _stats(cylinder_512, form, capsys)
    assert out == (DATA / "stats" / f"cylinder-512.{form}").read_text(encoding="utf-8")


@pytest.mark.parametrize("form", FORMS)
def test_stdlib_kernel_prints_the_same_bytes(form, cylinder_512, capsys, monkeypatch):
    monkeypatch.setattr(energy_mod, "_numpy_report", lambda src: None)
    out = _stats(cylinder_512, form, capsys)
    assert out == (DATA / "stats" / f"cylinder-512.{form}").read_text(encoding="utf-8")


def test_recorded_cylinder_input(cylinder_512):
    cfg = load_source(cylinder_512)
    assert cfg == gen_cylinder_extremal(512, 512)
    assert cfg.n * cfg.m == NUMPY_MIN_PAIRS
