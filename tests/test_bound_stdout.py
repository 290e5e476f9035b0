"""ddlab bound's stdout, pinned byte for byte.

tests/data/bound holds the text (<name>.txt) and --json (<name>.json)
stdout of `ddlab bound` for each BOUND_ARGV entry: one (n, m) in each of
the regimes R1 to R4, and README's log2-clamped example. The floats are
printed with repr, so any change to a term's evaluation order shows here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from ddlab.cli import main

DATA = Path(__file__).parent / "data" / "bound"
BOUND_ARGV = {
    "n100-m5": ["--n", "100", "--m", "5"],  # R1
    "n10000-m200": ["--n", "10000", "--m", "200"],  # R2
    "n100-m1000": ["--n", "100", "--m", "1000"],  # R3
    "n3-m100": ["--n", "3", "--m", "100"],  # R4
    "n100-m5-log2-clamped": ["--n", "100", "--m", "5", "--log-convention", "log2-clamped"],
}


@pytest.mark.parametrize("name", BOUND_ARGV)
@pytest.mark.parametrize("form", ("txt", "json"))
def test_stdout_is_pinned(name, form, capsys):
    assert main(["bound"] + BOUND_ARGV[name] + (["--json"] if form == "json" else [])) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (DATA / f"{name}.{form}").read_text(encoding="utf-8")
