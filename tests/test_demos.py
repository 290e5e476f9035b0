"""Every demo script runs to completion as its own process, and prints its recorded stdout.

tests/data/demos/<name>.txt holds each demo's stdout, byte for byte; it is
the same with PYTHONHASHSEED unset and set.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = Path(__file__).parent / "data" / "demos"


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout == (RECORDED / f"{demo.stem}.txt").read_text(encoding="utf-8")


def test_every_recording_has_a_demo():
    assert sorted(p.stem for p in RECORDED.glob("*.txt")) == [d.stem for d in DEMOS]
