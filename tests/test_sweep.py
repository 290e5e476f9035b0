"""Sweep rows: determinism, ordering, extremal fixtures, error capture."""

from __future__ import annotations

from itertools import product

import pytest

import ddlab.sweep
from ddlab import IncidenceReport, SweepSpec, rows_to_csv, run_sweep
from ddlab.cli import main
from ddlab.errors import DdlabError, GenerationExhaustedError
from ddlab.io import save_source
from ddlab.sweep import CSV_COLUMNS, GENERATORS, check_options, compute_row, generate, verify_checks


def test_csv_header():
    assert CSV_COLUMNS[:6] == ("n", "m", "k", "seed", "generator", "error")
    rows = run_sweep(SweepSpec(n_list=(2,), m_list=(2,), seeds=(0,)))
    text = rows_to_csv(rows)
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_byte_identical_runs():
    spec = SweepSpec(n_list=(2, 5), m_list=(3, 4), seeds=(0, 1), k=3)
    first = rows_to_csv(run_sweep(spec))
    second = rows_to_csv(run_sweep(spec))
    assert first == second


def test_rows_ordered_by_n_m_seed():
    spec = SweepSpec(n_list=(5, 2), m_list=(4, 3), seeds=(1, 0))
    rows = run_sweep(spec)
    keys = [(r.n, r.m, r.seed) for r in rows]
    assert keys == sorted(keys)


def test_random_rows_check_out():
    spec = SweepSpec(n_list=(4, 7), m_list=(4, 6), seeds=(0, 1, 2))
    for row in run_sweep(spec):
        assert row.error == ""
        assert row.chain_ok and row.q0_ok and row.bijection_ok
        assert row.I == row.Q1
        assert row.Q0 + row.Q1 == row.Q
        assert row.ratio_x_over_bound > 0
        assert row.ratio_Q_over_expr >= 0
        assert row.regime in {"R1", "R2", "R3", "R4"}


def test_cylinder_and_orthogonal_fixtures():
    cyl = run_sweep(SweepSpec(n_list=(16,), m_list=(16,), seeds=(0,), generator="cylinder"))
    assert len(cyl) == 1
    assert cyl[0].x == 16
    assert cyl[0].I is None and cyl[0].bijection_ok is None

    orth = run_sweep(SweepSpec(n_list=(16,), m_list=(16,), seeds=(0,), generator="orthogonal"))
    assert orth[0].x == 31
    assert orth[0].I is None


def test_generation_failure_fills_error_column(monkeypatch):
    def explode(**kwargs):
        raise GenerationExhaustedError("ran out of attempts")

    monkeypatch.setattr("ddlab.sweep.gen_random", explode)
    spec = SweepSpec(n_list=(3,), m_list=(3,), seeds=(0,))
    row = run_sweep(spec)[0]
    assert row.error == "ran out of attempts"
    assert row.x is None
    line = rows_to_csv([row]).splitlines()[1]
    assert "ran out of attempts" in line


def test_too_small_coord_range_fails_only_its_row():
    # 4 + 4 <= 10 < 16 + 4: one row generates, the other gets an error cell
    small, large = run_sweep(SweepSpec(n_list=(4, 16), m_list=(4,), seeds=(0,), coord_range=10))
    assert small.error == "" and small.I == small.Q1 and small.bijection_ok
    assert large.error == "coord_range must be at least n + m"
    assert large.x is None and large.I is None


def test_unknown_generator_rejected():
    with pytest.raises(ValueError):
        SweepSpec(n_list=(2,), m_list=(2,), seeds=(0,), generator="spiral")


@pytest.mark.parametrize(
    "generator, options, rule",
    [
        ("cylinder", {"k": 3}, "--k other than 2 applies only to the random generator"),
        ("orthogonal", {"k": 4}, "--k other than 2 applies only to the random generator"),
        ("cylinder", {"coord_range": 50}, "--coord-range applies only to the random generator"),
        ("orthogonal", {"coord_range": 50}, "--coord-range applies only to the random generator"),
    ],
)
def test_options_a_fixed_generator_ignores_are_rejected(generator, options, rule):
    # the spec refuses them when it is built, before any row is computed
    with pytest.raises(DdlabError, match=f"^{rule}, not {generator}$"):
        SweepSpec(n_list=(2,), m_list=(2,), seeds=(0,), generator=generator, **options)


@pytest.mark.parametrize("generator", ["random", "cylinder", "orthogonal"])
@pytest.mark.parametrize("k", [1, 0, -3])
def test_k_below_two_is_rejected_for_every_generator(generator, k):
    with pytest.raises(DdlabError, match=f"^--k must be at least 2, got {k}$"):
        SweepSpec(n_list=(0,), m_list=(2,), seeds=(0,), generator=generator, k=k)
    with pytest.raises(DdlabError, match=f"^--k must be at least 2, got {k}$"):
        check_options(generator, k=k)


def test_options_the_generator_reads_are_accepted():
    assert SweepSpec(n_list=(2,), m_list=(2,), seeds=(0,), k=3, coord_range=50).k == 3
    assert SweepSpec(n_list=(2,), m_list=(2,), seeds=(0,), generator="cylinder", k=2).generator == "cylinder"


def test_compute_row_direct():
    spec = SweepSpec(n_list=(3,), m_list=(3,), seeds=(0,))
    row = compute_row(spec, 3, 3, 0)
    assert (row.n, row.m, row.seed) == (3, 3, 0)
    assert row.x >= 1


@pytest.mark.parametrize("generator", GENERATORS)
def test_row_agrees_with_verify(generator):
    # compute_row reads chain, q0-bound, bijection's Q1 = I and the join's
    # total off the table that verify prints: each must read as verify reads it
    spec = SweepSpec(n_list=(1,), m_list=(1,), seeds=(0,), generator=generator)
    seeds = (0, 1, 2) if generator == "random" else (0,)
    reduced = 0
    for n, m, seed in product((1, 2, 5, 9), (1, 2, 4, 7), seeds):
        row = compute_row(spec, n, m, seed)
        src = generate(generator, n, m, k=spec.k, seed=seed, coord_range=spec.coord_range)
        checks = {name: (status, detail) for name, status, detail in verify_checks(src)}
        assert row.error == ""
        assert row.chain_ok == (checks["chain"][0] == "PASS")
        assert row.q0_ok == (checks["q0-bound"][0] == "PASS")
        status, detail = checks["bijection"]  # "Q1 = <Q1> vs incidences = <I>"
        if status == "SKIP":
            assert row.bijection_ok is None and row.I is None
        else:
            reduced += 1
            assert row.bijection_ok == (status == "PASS")
            assert row.I == int(detail.rpartition(" = ")[2])
    assert (reduced > 0) == (generator == "random")


def test_an_extra_incidence_fails_verify_and_the_row(tmp_path, capsys, monkeypatch):
    # one more incidence on curve (0, 1) breaks Q1 = I for verify and for the
    # row alike, as both look up the join in ddlab.sweep
    spec = SweepSpec(n_list=(4,), m_list=(4,), seeds=(0,))
    path = tmp_path / "cfg.csv"
    save_source(generate("random", 4, 4, k=2, seed=0, coord_range=None), path)
    real = ddlab.sweep.incidences

    def one_more(grid, family):
        per_curve = real(grid, family).per_curve
        return IncidenceReport(per_curve=(per_curve[0] + 1,) + per_curve[1:])

    monkeypatch.setattr(ddlab.sweep, "incidences", one_more)
    row = compute_row(spec, 4, 4, 0)
    assert (row.bijection_ok, row.I) == (False, row.Q1 + 1)
    assert main(["verify", "--input", str(path)]) == 1
    assert f"\nFAIL bijection: Q1 = {row.Q1} vs incidences = {row.Q1 + 1}\n" in capsys.readouterr().out


def test_an_exception_escapes_the_row(capsys, monkeypatch):
    # the table's ERROR status belongs to verify: in a sweep a crash is never
    # a false or empty cell
    def broken(src):
        raise RuntimeError("injected")

    monkeypatch.setattr(ddlab.sweep, "energy_report", broken)
    spec = SweepSpec(n_list=(3,), m_list=(3,), seeds=(0,))
    with pytest.raises(RuntimeError, match="^injected$"):
        compute_row(spec, 3, 3, 0)
    assert main(["sweep", "--n-list", "3", "--m-list", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: injected\n"
