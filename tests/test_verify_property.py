"""ddlab verify on the whole input space its readers accept.

Every source that tests/strategies.py draws: configs with k = 2..4, any
multiplicity, mixed denominators and mirror parameters, and arbitrary
squared-distance matrices. No identity line may FAIL and nothing may
raise: the exit code is 0, or 1 only through the `constraints` line, which
reports an input property. On a config the reduction applies to, the
bijection line reports the oracle's Q1 as the incidence count.
"""

from __future__ import annotations

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings, target

from ddlab import Config, SqDistMatrix, oracle_quadruples, validate_constraints
from ddlab.cli import main
from ddlab.io import save_source
from strategies import configs, matrices


def _verify(src) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        save_source(src, path)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", "--input", str(path)])
    assert err.getvalue() == ""
    lines = out.getvalue().splitlines()
    assert len(lines) == 10
    failed = [line for line in lines if line.startswith("FAIL ")]
    assert all(line.startswith("FAIL constraints:") for line in failed), failed
    assert code == (1 if failed else 0)
    if isinstance(src, Config) and validate_constraints(src, c=1).ok:
        q1 = oracle_quadruples(src)[2]
        target(float(q1), label="Q1 of a reducible config")
        assert f"PASS bijection: Q1 = {q1} vs incidences = {q1}" in lines


@settings(max_examples=100, deadline=None)
@given(configs())
def test_verify_on_any_config(cfg):
    _verify(cfg)


@settings(max_examples=150, deadline=None)
@given(matrices())
@example(SqDistMatrix.of(n=3, m=1, entries=((1,), (1,), (1,))))
def test_verify_on_any_matrix(mat):
    _verify(mat)
