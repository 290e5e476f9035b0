"""Distance classes, energy accounting, oracle agreement, the inequality chain."""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ddlab import (
    ChainReport,
    Config,
    Point,
    SqDistMatrix,
    check_chain,
    distance_classes,
    energy_report,
    gen_cylinder_extremal,
    gen_orthogonal_extremal,
    gen_random,
    oracle_quadruples,
    sq_dist,
    translate_along_axis,
)
import ddlab.energy as energy_mod
from ddlab.energy import NUMPY_MIN_PAIRS, _numpy_report, _stdlib_report, _table_dtype, energy
from ddlab.exact import sq_dist_rows
from conftest import clustered_config, fraction_rows, reference_classes, small_random_config
from strategies import configs, sources

WORKED = Config.of(2, 1, [0, 2], [(0, 1), (1, 2)])


def test_package_attribute_is_the_energy_module():
    import ddlab

    assert isinstance(ddlab.energy, types.ModuleType)
    assert ddlab.energy is energy_mod
    assert ddlab.energy.energy is energy


class TestWorkedExample:
    def test_classes(self):
        classes = distance_classes(WORKED)
        assert classes.n == 2 and classes.m == 2
        grouped = {k: set(v) for k, v in classes.classes.items()}
        assert grouped == {
            Fraction(1): {(0, 0)},
            Fraction(5): {(1, 0), (0, 1), (1, 1)},
        }

    def test_energy_split(self):
        rep = energy(WORKED)
        assert rep.distinct_count == 2
        assert rep.energy == 6
        assert rep.energy_same_point == 2
        assert rep.energy_cross == 4
        assert rep.class_histogram == ((1, 1), (3, 1))

    def test_streamed_route_matches(self):
        assert energy_report(WORKED) == energy(WORKED)

    def test_chain(self):
        chain = check_chain(energy_report(WORKED))
        assert chain.cauchy_ok and chain.slack == 8
        assert chain.x_le_half
        assert chain.lower_ok is True
        assert not chain.vacuous

    def test_json_keys(self):
        d = energy_report(WORKED).to_json_dict()
        assert d == {
            "n": 2,
            "m": 2,
            "x": 2,
            "Q": 6,
            "Q0": 2,
            "Q1": 4,
            "histogram": [[1, 1], [3, 1]],
        }


def test_classes_partition_pairs():
    cfg = small_random_config(11)
    classes = distance_classes(cfg)
    seen = sorted(pair for pairs in classes.classes.values() for pair in pairs)
    assert seen == [(i, j) for i in range(cfg.n) for j in range(cfg.m)]
    for d, pairs in classes.classes.items():
        for i, j in pairs:
            assert sq_dist(cfg.p1_params[i], cfg.p2_points[j]) == d


@settings(max_examples=100, deadline=None)
@given(sources())
def test_energy_matches_oracle(src):
    # Q, Q0 and Q1 from the int kernel, the reference count and the oracle
    rep = energy_report(src)
    assert rep == energy(src)
    assert (rep.energy, rep.energy_same_point, rep.energy_cross) == oracle_quadruples(src)


@settings(max_examples=40, deadline=None)
@given(sources())
def test_fraction_path_matches_oracle(src):
    # Q and Q0 on Fraction arithmetic: the ordered pairs of distinct (i, j)
    # pairs in one class, and those of them in one column
    q = sum(len(pairs) * (len(pairs) - 1) for pairs in reference_classes(src).values())
    q0 = sum(c * (c - 1) for col in zip(*fraction_rows(src)) for c in Counter(col).values())
    rep = energy_report(src)
    assert (q, q0, q - q0) == oracle_quadruples(src) == (rep.energy, rep.energy_same_point, rep.energy_cross)


@settings(max_examples=40, deadline=None)
@given(configs())
def test_matrix_source_agrees_with_config(cfg):
    mat = SqDistMatrix.from_config(cfg)
    assert energy_report(mat) == energy_report(cfg)
    assert oracle_quadruples(mat) == oracle_quadruples(cfg)
    assert list(sq_dist_rows(mat)) == list(sq_dist_rows(cfg))


class TestQ0Bound:
    def test_mirror_rich_config_hits_bound(self):
        # every axis point has its mirror partner: Q0 = n*m exactly
        cfg = Config.of(2, 4, [-2, -1, 1, 2], [(0, 1), (0, 2), (0, 3)])
        rep = energy_report(cfg)
        assert rep.energy_same_point == cfg.n * cfg.m

    @pytest.mark.parametrize(
        "cfg",
        [
            gen_cylinder_extremal(9, 7),
            Config.of(2, 5, [0, 1, 4], [(3, v) for v in (1, 2, 3, 4, 5)]),
            Config.of(2, 2, [0, 3], [(1, 2), (1, 2)]),
            clustered_config(5, n=4, m=9, k=3, c=3),
        ],
    )
    def test_adversarial_configs(self, cfg):
        rep = energy_report(cfg)
        assert rep.energy_same_point <= cfg.n * cfg.m

    def test_orthogonal_matrix(self):
        mat = gen_orthogonal_extremal(12, 9)
        rep = energy_report(mat)
        assert rep.energy_same_point == 0


@st.composite
def chain_inputs(draw):
    """(n, m, x, Q) with n, m >= 0, 0 <= x <= nm and Q >= 0, Q often near
    the thresholds (nm - x)^2 / x and (nm)^2 / 4x."""
    n, m = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    x = draw(st.integers(0, n * m))
    q = draw(st.integers(0, (n * m) ** 2 + 2) | st.integers(0, 10**30))
    return n, m, x, q


class TestChain:
    @settings(max_examples=40, deadline=None)
    @given(sources())
    def test_exact_inequalities(self, src):
        rep = energy_report(src)
        chain = check_chain(rep)
        x, q, nm = rep.distinct_count, rep.energy, src.n * src.m
        assert chain.cauchy_ok
        assert x * q - (nm - x) ** 2 == chain.slack >= 0
        if chain.x_le_half and not chain.vacuous:
            assert chain.lower_ok is True
        else:
            assert chain.lower_ok is None

    def test_vacuous_when_all_distinct(self):
        cfg = Config.of(2, 1, [0], [(0, 1), (0, 2)])
        rep = energy_report(cfg)
        assert rep.energy == 0
        chain = check_chain(rep)
        assert chain.vacuous and chain.lower_ok is None
        assert chain.cauchy_ok  # 0 >= 0
        assert chain == ChainReport(1, 2, 2, 0)

    @settings(max_examples=300, deadline=None)
    @given(chain_inputs())
    @example((4, 4, 8, 8))  # x = nm/2 and Q = x: both inequalities hold with equality
    @example((4, 4, 8, 7))  # x = nm/2 and Q < x: both fail
    @example((4, 4, 4, 10))  # x < nm/2: the lower bound is claimed and fails
    @example((3, 2, 6, 0))  # Q = 0 with x = nm
    @example((3, 2, 2, 0))  # Q = 0 with x < nm: Cauchy-Schwarz fails
    @example((3, 3, 5, 1))  # x > nm/2: the lower bound is not claimed
    @example((0, 5, 0, 0))
    def test_verdicts_follow_the_inequalities(self, values):
        n, m, x, q = values
        chain = ChainReport(n, m, x, q)
        nm = n * m
        assert chain.slack == x * q - (nm - x) ** 2
        assert chain.cauchy_ok is (x * q >= (nm - x) ** 2)
        assert chain.x_le_half is (2 * x <= nm)
        assert chain.vacuous is (q == 0)
        claimed = 2 * x <= nm and q != 0
        assert chain.lower_ok is ((4 * x * q >= m * m * n * n) if claimed else None)
        assert chain.ok is (x * q >= (nm - x) ** 2 and not (claimed and 4 * x * q < m * m * n * n))


class TestInvariance:
    @settings(max_examples=30, deadline=None)
    @given(configs(), st.fractions(min_value=-20, max_value=20, max_denominator=7))
    def test_translation(self, cfg, delta):
        assert energy_report(translate_along_axis(cfg, delta)) == energy_report(cfg)

    def test_point_permutation(self):
        cfg = small_random_config(31, max_nm=8)
        rng = random.Random(0)
        order = list(range(cfg.m))
        rng.shuffle(order)
        shuffled = Config(
            k=cfg.k,
            c=cfg.c,
            p1_params=cfg.p1_params,
            p2_points=tuple(cfg.p2_points[i] for i in order),
        )
        a = energy_report(cfg)
        b = energy_report(shuffled)
        assert a.class_histogram == b.class_histogram
        assert (a.energy, a.energy_same_point) == (b.energy, b.energy_same_point)


# The numpy kernel against the stdlib kernel, which is its reference.

INT32_LIMIT = 1 << 31
INT64_LIMIT = 1 << 63


def near_limit(src, limit: int, above: bool, slack: int):
    """src with one far value added: the numpy kernel's bound on the largest
    intermediate value lands just below limit, or at or just above it."""
    if isinstance(src, SqDistMatrix):
        far = limit + slack if above else limit - 1 - slack
        # a whole row of the far value, so that a class sits at the top of the range
        return SqDistMatrix(src.n + 1, src.m, src.scale, src.scaled + ((far,) * src.m,))
    # one far point at scaled squared axis distance limit / 2, half the
    # budget, and on the far side of the largest axis parameter:
    # (|top| + s)^2 + limit / 2 is both the bound and the largest table entry
    view = src.view
    top = max(view.params, key=abs)
    rho = limit >> 1
    s = math.isqrt(limit - 1 - rho) - abs(top) - slack + (slack + 1 if above else 0)
    x = Fraction(-s if top >= 0 else s, view.scale)
    far = (x, Fraction(math.isqrt(rho), view.scale)) + (Fraction(0),) * (src.k - 2)
    return Config(src.k, src.c, src.p1_params, src.p2_points + (Point(far),))


@contextlib.contextmanager
def dtype_choices():
    """The dtypes that _table_dtype picks for the numpy kernel inside the block."""
    chosen = []

    def spy(bound):
        chosen.append(_table_dtype(bound))
        return chosen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy_mod, "_table_dtype", spy)
        yield chosen


def test_table_dtype_boundaries():
    assert _table_dtype(0) == _table_dtype(INT32_LIMIT - 1) == "int32"
    assert _table_dtype(INT32_LIMIT) == _table_dtype(INT64_LIMIT - 1) == "int64"
    assert _table_dtype(INT64_LIMIT) is None


# the dtype a bound just below (False) or at or above (True) each limit takes
NEAR_DTYPE = {
    (INT32_LIMIT, False): "int32",
    (INT32_LIMIT, True): "int64",
    (INT64_LIMIT, False): "int64",
    (INT64_LIMIT, True): None,
}


@settings(max_examples=150, deadline=None)
@given(
    sources(),
    st.sampled_from((INT32_LIMIT, INT64_LIMIT)),
    st.sampled_from((None, False, True)),
    st.integers(0, 3),
)
def test_numpy_kernel_matches_stdlib(src, limit, near, slack):
    pytest.importorskip("numpy")
    if near is not None:
        src = near_limit(src, limit, above=near, slack=slack)
    assume(src.n)  # the numpy kernel is reached at n m >= NUMPY_MIN_PAIRS only
    ref = _stdlib_report(src)
    with dtype_choices() as chosen:
        rep = _numpy_report(src)
    dtype = "int32" if near is None else NEAR_DTYPE[limit, near]
    assert chosen == [dtype]
    assert rep == (None if dtype is None else ref)
    reference = energy(src)
    assert ref == reference
    # the bijection audit's pair lists give the reference's histogram and Q0
    pairs = distance_classes(src).classes.values()
    assert tuple(sorted(Counter(map(len, pairs)).items())) == reference.class_histogram
    q0 = sum(c * (c - 1) for p in pairs for c in Counter(j for _, j in p).values())
    assert q0 == reference.energy_same_point


@pytest.mark.parametrize("block", [1, 2, 3, 5])
@settings(max_examples=60, deadline=None)
@given(sources())
def test_numpy_kernel_across_run_blocks(block, src):
    # blocks smaller than a row: runs cross block edges, some blocks hold
    # no run start, and each block marks the row boundaries it holds at
    # its own offset
    pytest.importorskip("numpy")
    assume(src.n)  # the numpy kernel is reached at n m >= NUMPY_MIN_PAIRS only
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy_mod, "_RUN_BLOCK", block)
        rep = _numpy_report(src)
    assert rep == _stdlib_report(src) == energy(src)


@pytest.mark.parametrize("coord_range, dtype", [(9600, "int32"), (1 << 20, "int64")])
def test_numpy_kernel_working_set(coord_range, dtype):
    # the table plus block-sized scratch only: at most itemsize + 0.5 traced
    # bytes per pair, on the config and on its matrix, whose int table is
    # built before tracing; a bool mask of the table's size would exceed it
    np = pytest.importorskip("numpy")  # loaded before tracing starts
    cfg = gen_random(n=1200, m=1200, k=2, seed=7, coord_range=coord_range)
    pairs = cfg.n * cfg.m
    for src in (cfg, SqDistMatrix.from_config(cfg)):
        with dtype_choices() as chosen:
            tracemalloc.start()
            try:
                rep = _numpy_report(src)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert chosen == [dtype]
        assert rep is not None
        assert peak <= (np.dtype(dtype).itemsize + 0.5) * pairs, f"{type(src).__name__}: {peak / pairs:.1f} B/pair"


def test_over_the_limit_takes_the_stdlib_path():
    cfg = near_limit(gen_cylinder_extremal(512, 511), INT64_LIMIT, above=True, slack=0)
    assert cfg.n * cfg.m == NUMPY_MIN_PAIRS
    assert _numpy_report(cfg) is None
    assert energy_report(cfg) == _stdlib_report(cfg)


def test_threshold_routes_only_large_inputs_to_numpy(monkeypatch):
    seen = []

    def spy(src):
        seen.append(src.n * src.m)
        return _numpy_report(src)

    monkeypatch.setattr(energy_mod, "_numpy_report", spy)
    energy_report(gen_cylinder_extremal(511, 513))
    energy_report(gen_cylinder_extremal(512, 512))
    assert seen == [NUMPY_MIN_PAIRS]


def test_without_numpy_large_inputs_fall_back(monkeypatch):
    cfg = gen_random(n=512, m=512, k=2, seed=5, coord_range=4096)
    rep = energy_report(cfg)
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert _numpy_report(cfg) is None
    assert energy_report(cfg) == rep == _stdlib_report(cfg)


ISOLATION_SCRIPT = textwrap.dedent(
    """
    import contextlib, io, json, sys
    from ddlab.cli import main

    runs = [
        ["gen", "--n", "12", "--m", "12", "--seed", "3", "--output", "cfg.csv"],
        ["gen", "--generator", "orthogonal", "--n", "30", "--m", "30", "--output", "mat.csv"],
        ["stats", "--input", "cfg.csv", "--json"],
        ["stats", "--input", "mat.csv"],
        ["verify", "--input", "cfg.csv"],
        ["verify", "--input", "mat.csv"],
        ["reduce", "--input", "cfg.csv", "--output", "gamma.csv"],
        ["sweep", "--n-list", "8,16", "--m-list", "8", "--output", "sweep.csv"],
    ]
    codes = []
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(main(argv))
    loaded = {name: name in sys.modules for name in ("numpy", "dataclasses")}
    print(json.dumps({"codes": codes, **loaded}))
    """
)


def test_small_commands_never_import_numpy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", ISOLATION_SCRIPT],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0] * 8, "numpy": False, "dataclasses": False}
