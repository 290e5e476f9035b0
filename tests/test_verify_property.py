"""ddlab verify on the whole input space its readers accept.

Configs with k = 2..4, budgets c = 1..3 (so repeated axis coordinates and
squared axis distances), fractional coordinates over mixed denominators, and
arbitrary squared-distance matrices, all with n, m <= 9. No identity line
may FAIL and nothing may raise: the exit code is 0, or 1 only through the
`constraints` line, which reports an input property.
"""

from __future__ import annotations

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddlab import SqDistMatrix, translate_along_axis
from ddlab.cli import main
from ddlab.io import save_source
from conftest import clustered_config, fractional_config


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


@st.composite
def configs(draw):
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 9))
    k = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        cfg = clustered_config(seed, n, m, k, c=draw(st.integers(1, 3)))
    else:
        cfg = fractional_config(seed, n, m, k, denom=draw(st.sampled_from((1, 2, 3, 5))))
    # a shift along the axis over another denominator keeps every multiplicity
    return translate_along_axis(cfg, Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from((1, 4, 7)))))


@st.composite
def matrices(draw):
    n = draw(st.integers(0, 9))
    m = draw(st.integers(1, 9))
    entry = st.builds(Fraction, st.integers(0, 5), st.sampled_from((1, 2, 4)))
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    return SqDistMatrix.of(n=n, m=m, entries=tuple(map(tuple, rows)))


@settings(max_examples=100, deadline=None)
@given(configs())
def test_verify_on_any_config(cfg):
    _verify(cfg)


@settings(max_examples=150, deadline=None)
@given(matrices())
@example(SqDistMatrix.of(n=3, m=1, entries=((1,), (1,), (1,))))
def test_verify_on_any_matrix(mat):
    _verify(mat)
