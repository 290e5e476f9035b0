"""The paper's O(m + n) constructions against their exact closed forms.

Both generators build the extremal families of PAPER.md's closing remark,
and both have class sizes and Q0 in closed form:

- cylinder, P1 = {0..n-1} against P2 = {(j, h)}: D_ij = (i - j)^2 + h^2, one
  class per d = |i - j|, of size e_0 = min(n, m) and, for 1 <= d < max(n, m),
  e_d = max(0, min(n - d, m)) + max(0, min(m - d, n)); column j repeats a
  value at i and 2j - i, so Q0 = 2 sum_{j < min(n, m)} min(j, n - 1 - j);
- orthogonal, entry i + j: class v = 2..n + m has size
  min(v - 1, n, m, n + m + 1 - v), and no column repeats a value, so Q0 = 0.

The forms share no code with the kernels, cost O(n + m) and hold at any
size, so the fixed cases reach the numpy kernel's int32 and int64 tables
and the stdlib kernel past NUMPY_MIN_PAIRS.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddlab.energy as energy_mod
from ddlab import EnergyReport, energy_report, gen_cylinder_extremal, gen_orthogonal_extremal
from ddlab.energy import NUMPY_MIN_PAIRS, _numpy_report, _table_dtype, energy

OFFSETS = (1, 2, Fraction(7, 3), Fraction(-1, 2), 10**5)


def _report(n: int, m: int, q0: int, sizes) -> EnergyReport:
    return EnergyReport(n, m, q0, tuple(sorted(Counter(sizes).items())))


def cylinder_report(n: int, m: int) -> EnergyReport:
    sizes = [min(n, m)] + [max(0, min(n - d, m)) + max(0, min(m - d, n)) for d in range(1, max(n, m))]
    q0 = 2 * sum(min(j, n - 1 - j) for j in range(min(n, m)))
    return _report(n, m, q0, sizes)


def orthogonal_report(n: int, m: int) -> EnergyReport:
    return _report(n, m, 0, [min(v - 1, n, m, n + m + 1 - v) for v in range(2, n + m + 1)])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), st.sampled_from(OFFSETS))
def test_cylinder_matches_closed_form(n, m, h):
    cfg = gen_cylinder_extremal(n, m, h=h)
    want = cylinder_report(n, m)
    assert energy_report(cfg) == want
    assert energy(cfg) == want
    assert want.distinct_count == max(n, m)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60))
def test_orthogonal_matches_closed_form(n, m):
    mat = gen_orthogonal_extremal(n, m)
    want = orthogonal_report(n, m)
    assert energy_report(mat) == want
    assert energy(mat) == want
    assert want.distinct_count == n + m - 1


@pytest.mark.parametrize(
    "src, dtype, want",
    [
        (gen_cylinder_extremal(600, 600, h=10**5), "int64", cylinder_report(600, 600)),
        (gen_cylinder_extremal(520, 520), "int32", cylinder_report(520, 520)),
        (gen_orthogonal_extremal(600, 500), "int32", orthogonal_report(600, 500)),
    ],
    ids=["cylinder-600-int64", "cylinder-520-int32", "orthogonal-600x500"],
)
def test_numpy_kernel_matches_closed_form(src, dtype, want, monkeypatch):
    pytest.importorskip("numpy")
    assert src.n * src.m >= NUMPY_MIN_PAIRS
    dtypes = []

    def spy(bound):
        dtypes.append(_table_dtype(bound))
        return dtypes[-1]

    monkeypatch.setattr(energy_mod, "_table_dtype", spy)
    assert _numpy_report(src) == want
    assert dtypes == [dtype]


def test_stdlib_kernel_matches_closed_form_past_the_numpy_threshold(monkeypatch):
    # the kernel energy_report takes without numpy, at a size only numpy takes with it
    monkeypatch.setattr(energy_mod, "_numpy_report", lambda src: None)
    cfg = gen_cylinder_extremal(520, 520)
    assert cfg.n * cfg.m >= NUMPY_MIN_PAIRS
    assert energy_report(cfg) == cylinder_report(520, 520)
