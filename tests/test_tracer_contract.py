"""The benchmark's tracer against this package: the counts it derives.

perfbench/tracer.py replays one ddlab command with spans around the
functions that ddlab.cli and ddlab.sweep look up by name, and derives its
counts from their arguments and results only: the grid's params and the
family's curves for `reduction.incidences_hash`, the family's curves for
`reduction.build_family`. A change to those names or records can break the
traced benchmark while every untraced run passes. These tests run the
tracer, unchanged, as a process on stats, reduce, verify and a two-row
sweep, and check that its spans count what the command itself reports and
that each command records the same set of span names as before: a traced
layer whose call site moved away from those names would read 0 otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from ddlab.io import load_source

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def traced(tmp_path: Path, *argv: str) -> tuple[str, list[dict]]:
    """The command's stdout and the tracer's spans."""
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), "--", *argv],
        cwd=tmp_path, env=ENV, capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout, json.loads(spans.read_text(encoding="utf-8"))


def span_counts(spans: list[dict], name: str) -> list[dict]:
    return [span["counts"] for span in spans if span["name"] == name]


def span_names(spans: list[dict]) -> set[str]:
    return {span["name"] for span in spans}


def assert_counts(spans: list[dict], rows: list[tuple[int, int, int]]) -> None:
    """One build_family and one incidences_hash span per (n, m, incidence total), in order."""
    assert [c["curves"] for c in span_counts(spans, "reduction.build_family")] == [m * (m - 1) for _, m, _ in rows]
    assert [(c["probes"], c["hits"]) for c in span_counts(spans, "reduction.incidences_hash")] == [
        (n * m * (m - 1), total) for n, m, total in rows
    ]


def test_stats(tmp_path):
    _, spans = traced(tmp_path, "stats", "--json", "--input", str(DATA / "verify" / "fractional.csv"))
    assert span_names(spans) == {"cli", "io.load_source", "energy.energy_report"}


def test_reduce(tmp_path):
    src = DATA / "reduce" / "random-k2.csv"
    cfg = load_source(src)
    out, spans = traced(tmp_path, "reduce", "--input", str(src), "--output", "gamma.csv")
    total = int(re.search(r"^incidences: (\d+) ", out, re.M).group(1))
    assert total > 0
    assert_counts(spans, [(cfg.n, cfg.m, total)])
    assert span_names(spans) == {
        "cli", "io.load_source", "io.write_gamma_csv", "reduction.build_family", "reduction.incidences_hash",
    }


def test_verify(tmp_path):
    src = DATA / "verify" / "fractional.csv"
    cfg = load_source(src)
    out, spans = traced(tmp_path, "verify", "--input", str(src))
    total = int(re.search(r"^PASS incidence-modes: hash (\d+) vs", out, re.M).group(1))
    assert total > 0
    assert_counts(spans, [(cfg.n, cfg.m, total)])
    pairs = int(re.search(r"^PASS intersections: (\d+) curve pairs", out, re.M).group(1))
    assert len(span_counts(spans, "reduction.intersection_count")) == pairs == 780
    assert span_names(spans) == {
        "cli", "io.load_source", "energy.energy_report", "energy.energy", "energy.distance_classes",
        "exact.validate_constraints", "oracles.oracle_quadruples", "oracles.oracle_incidences",
        "reduction.build_family", "reduction.incidences_hash", "reduction.intersection_count",
    }


def test_sweep(tmp_path):
    argv = ["sweep", "--n-list", "16", "--m-list", "3,8", "--seeds", "0", "--coord-range", "24"]
    out, spans = traced(tmp_path, *argv)
    rows = [(int(r["n"]), int(r["m"]), int(r["I"])) for r in csv.DictReader(io.StringIO(out))]
    assert len(rows) == 2 and all(total > 0 for _, _, total in rows)
    assert_counts(spans, rows)
    assert span_names(spans) == {
        "cli", "sweep.run_sweep", "configs.gen_random", "energy.energy_report", "exact.validate_constraints",
        "reduction.build_family", "reduction.incidences_hash", "bounds.distinct_lower_bound",
        "bounds.energy_upper_expr",
    }
