"""Command-line behavior: subcommands, formats, exit codes."""

from __future__ import annotations

import ast
import csv
import io
import json
import os
import subprocess
import sys
import textwrap
from functools import cached_property
from pathlib import Path

import pytest

import ddlab.cli
import ddlab.reduction
from ddlab import Hyperbola, HyperbolaFamily, IncidenceReport, energy_report, gen_random
from ddlab.bounds import distinct_lower_bound, energy_upper_expr
from ddlab.cli import main
from ddlab.exact import Config, IntView
from ddlab.io import load_source, save_source
from conftest import RADICAL_LINE

DATA = Path(__file__).parent / "data"


def run_cli(*argv: str, capsys) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGen:
    def test_random_config_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.csv"
        code, _ = run_cli(
            "gen", "--n", "4", "--m", "5", "--k", "3", "--seed", "7",
            "--output", str(path), capsys=capsys,
        )
        assert code == 0
        cfg = load_source(path)
        assert cfg == gen_random(n=4, m=5, k=3, seed=7, coord_range=36)

    def test_declared_c_override(self, tmp_path, capsys):
        path = tmp_path / "cfg.csv"
        code, _ = run_cli(
            "gen", "--n", "2", "--m", "2", "--c", "3", "--output", str(path),
            capsys=capsys,
        )
        assert code == 0
        assert load_source(path).c == 3

    @pytest.mark.parametrize(
        "generator, option, rule",
        [
            pytest.param("cylinder", ("--c", "1"), "--c applies only to the random", id="cylinder"),
            pytest.param("orthogonal", ("--c", "1"), "--c applies only to the random", id="orthogonal"),
            pytest.param("cylinder", ("--k", "3"), "--k other than 2 applies only to the random", id="cylinder-k"),
            pytest.param("orthogonal", ("--k", "3"), "--k other than 2 applies only to the random", id="orthogonal-k"),
            pytest.param(
                "cylinder", ("--coord-range", "50"), "--coord-range applies only to the random",
                id="cylinder-coord-range",
            ),
            pytest.param(
                "orthogonal", ("--coord-range", "50"), "--coord-range applies only to the random",
                id="orthogonal-coord-range",
            ),
            pytest.param("random", ("--offset", "7"), "--offset applies only to the cylinder", id="random-offset"),
            pytest.param(
                "orthogonal", ("--offset", "7"), "--offset applies only to the cylinder", id="orthogonal-offset",
            ),
        ],
    )
    def test_c_with_a_fixed_generator_is_an_error(self, generator, option, rule, tmp_path, capsys):
        # cylinder declares c = m and orthogonal writes a k-less matrix, so --c,
        # --k and --coord-range would be ignored; only the cylinder reads --offset
        path = tmp_path / "out.csv"
        code = main(["gen", "--generator", generator, "--n", "2", "--m", "3", *option, "--output", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {rule} generator, not {generator}\n"
        assert captured.out == "" and not path.exists()

    @pytest.mark.parametrize("generator", ["cylinder", "orthogonal"])
    def test_default_options_with_a_fixed_generator_are_accepted(self, generator, capsys):
        # an explicit --k 2 is the default, which every generator honors
        code, out = run_cli("gen", "--generator", generator, "--n", "2", "--m", "3", "--k", "2", capsys=capsys)
        default_code, default_out = run_cli("gen", "--generator", generator, "--n", "2", "--m", "3", capsys=capsys)
        assert code == default_code == 0
        assert out == default_out

    def test_cylinder_to_stdout(self, capsys):
        code, out = run_cli(
            "gen", "--generator", "cylinder", "--n", "2", "--m", "3",
            "--offset", "3/2", capsys=capsys,
        )
        assert code == 0
        assert out.startswith("k=2,c=3\n")
        assert "P2,0,3/2" in out

    def test_orthogonal_matrix(self, tmp_path, capsys):
        path = tmp_path / "mat.csv"
        code, _ = run_cli(
            "gen", "--generator", "orthogonal", "--n", "2", "--m", "2",
            "--output", str(path), capsys=capsys,
        )
        assert code == 0
        assert path.read_text() == "n=2,m=2\n2,3\n3,4\n"


class TestStats:
    def test_json_matches_library(self, tmp_path, capsys):
        path = tmp_path / "cfg.csv"
        run_cli("gen", "--n", "5", "--m", "6", "--seed", "1", "--output", str(path), capsys=capsys)
        code, out = run_cli("stats", "--input", str(path), "--json", capsys=capsys)
        assert code == 0
        assert json.loads(out) == energy_report(load_source(path)).to_json_dict()

    def test_text_mode(self, tmp_path, capsys):
        path = tmp_path / "cfg.csv"
        run_cli("gen", "--n", "3", "--m", "3", "--output", str(path), capsys=capsys)
        code, out = run_cli("stats", "--input", str(path), capsys=capsys)
        assert code == 0
        assert "distinct squared distances" in out

    def test_matrix_input(self, tmp_path, capsys):
        path = tmp_path / "mat.csv"
        run_cli("gen", "--generator", "orthogonal", "--n", "4", "--m", "4",
                "--output", str(path), capsys=capsys)
        code, out = run_cli("stats", "--input", str(path), "--json", capsys=capsys)
        assert code == 0
        assert json.loads(out)["x"] == 7


class TestReduce:
    def test_writes_family_and_report(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.csv"
        gamma_path = tmp_path / "gamma.csv"
        run_cli("gen", "--n", "3", "--m", "4", "--seed", "2", "--output", str(cfg_path), capsys=capsys)
        code, out = run_cli(
            "reduce", "--input", str(cfg_path), "--output", str(gamma_path), "--json",
            capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == sum(payload["per_curve"])
        assert payload["per_sign"]["pos"] + payload["per_sign"]["neg"] == payload["total"]
        lines = gamma_path.read_text().splitlines()
        assert lines[0] == "p_idx,q_idx,alpha,beta,gamma"
        assert len(lines) == 1 + 4 * 3

    def test_rejects_matrix(self, tmp_path, capsys):
        path = tmp_path / "mat.csv"
        run_cli("gen", "--generator", "orthogonal", "--n", "2", "--m", "2",
                "--output", str(path), capsys=capsys)
        code, _ = run_cli("reduce", "--input", str(path), capsys=capsys)
        assert code == 2


class TestVerify:
    def test_good_config_passes(self, tmp_path, capsys):
        path = tmp_path / "cfg.csv"
        run_cli("gen", "--n", "4", "--m", "4", "--seed", "3", "--output", str(path), capsys=capsys)
        code, out = run_cli("verify", "--input", str(path), capsys=capsys)
        assert code == 0
        assert "FAIL" not in out
        assert "PASS constraints" in out
        assert "PASS bijection" in out

    def test_json_payload(self, tmp_path, capsys):
        path = tmp_path / "cfg.csv"
        run_cli("gen", "--n", "3", "--m", "2", "--output", str(path), capsys=capsys)
        code, out = run_cli("verify", "--input", str(path), "--json", capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert {c["status"] for c in payload["checks"]} <= {"PASS", "SKIP"}

    def test_constraint_violation_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("k=2,c=1\nP1,0\nP2,0,1\nP2,0,2\n", encoding="utf-8")
        code, out = run_cli("verify", "--input", str(path), capsys=capsys)
        assert code == 1
        assert "FAIL constraints" in out

    def test_radical_line_fixture_passes(self, tmp_path, capsys):
        path = tmp_path / "cfg.csv"
        save_source(RADICAL_LINE, path)
        code, out = run_cli("verify", "--input", str(path), capsys=capsys)
        assert code == 0
        assert "FAIL" not in out
        assert "PASS intersections" in out

    def test_m1_skips_reduction_checks(self, tmp_path, capsys):
        path = tmp_path / "cfg.csv"
        run_cli("gen", "--n", "3", "--m", "1", "--output", str(path), capsys=capsys)
        code, out = run_cli("verify", "--input", str(path), capsys=capsys)
        assert code == 0
        assert "SKIP bijection" in out

    def test_reduce_reports_a_family_verify_skips(self, tmp_path, capsys):
        # README's gap example: two points share the axis coordinate 0, so the
        # config is valid at c = 2 only; build_family scans its pairs and
        # builds the family reduce reports, while verify skips every reduction
        # line. Extending the reduction past c = 1 changes this on purpose.
        path = tmp_path / "cfg.csv"
        path.write_text("k=2,c=2\nP1,0\nP1,1\nP1,3\nP2,0,1\nP2,0,2\nP2,3,4\n", encoding="utf-8")
        code, out = run_cli("reduce", "--input", str(path), capsys=capsys)
        assert code == 0
        assert out == "curves: 6 (gamma>0: 3, gamma<0: 3)\nincidences: 0 (on gamma>0: 0, on gamma<0: 0)\n"
        code, out = run_cli("verify", "--input", str(path), capsys=capsys)
        names = ("family", "incidence-modes", "incidence-oracle", "bijection", "intersections")
        lines = out.splitlines()
        assert code == 0 and all(line.startswith("PASS ") for line in lines[:-5])
        assert lines[-5:] == [f"SKIP {name}: needs a coordinate config, m >= 2, valid at c = 1" for name in names]

    @pytest.mark.parametrize(
        "per_curve, modes, oracle",
        [((1, 3), "FAIL", "PASS"), ((2, 3), "FAIL", "FAIL")],
        ids=["moved-incidence", "changed-total"],
    )
    def test_oracle_disagreement_fails(self, per_curve, modes, oracle, tmp_path, capsys, monkeypatch):
        # the worked example: two curves with two incidences each
        path = tmp_path / "cfg.csv"
        path.write_text("k=2,c=1\nP1,0\nP1,2\nP2,0,1\nP2,1,2\n", encoding="utf-8")
        real = ddlab.cli.oracle_incidences

        def injected(grid, cfg):
            assert real(grid, cfg) == (2, 2)
            return per_curve

        monkeypatch.setattr(ddlab.cli, "oracle_incidences", injected)
        code, out = run_cli("verify", "--input", str(path), capsys=capsys)
        assert code == 1
        assert f"{modes} incidence-modes: hash 4 vs naive {sum(per_curve)}\n" in out
        assert f"{oracle} incidence-oracle: oracle {sum(per_curve)} vs fast 4\n" in out
        assert "PASS bijection: Q1 = 4 vs incidences = 4\n" in out

    def test_asymmetric_incidences_fail_family(self, tmp_path, capsys, monkeypatch):
        # the worked example again: moving one incidence from curve (0, 1) to
        # its mirror keeps the total but breaks the mirror symmetry
        path = tmp_path / "cfg.csv"
        path.write_text("k=2,c=1\nP1,0\nP1,2\nP2,0,1\nP2,1,2\n", encoding="utf-8")
        real = ddlab.cli.incidences

        def injected(grid, family):
            rep = real(grid, family)
            assert rep.per_curve == (2, 2)
            return IncidenceReport(per_curve=(1, 3))

        monkeypatch.setattr(ddlab.cli, "incidences", injected)
        code, out = run_cli("verify", "--input", str(path), capsys=capsys)
        assert code == 1
        assert "FAIL family: curve (0, 1) has 1 incidences, its mirror (1, 0) has 3\n" in out
        assert "PASS bijection: Q1 = 4 vs incidences = 4\n" in out

    def test_family_reports_the_first_broken_pair(self, capsys, monkeypatch):
        # m = 7: moving the incidence of curve (2, 4), index 2 * 6 + 3, to its
        # mirror (4, 2), index 4 * 6 + 2, breaks only that pair, first seen as (2, 4)
        real = ddlab.cli.incidences

        def injected(grid, family):
            per_curve = list(real(grid, family).per_curve)
            assert (per_curve[15], per_curve[26]) == (1, 1)
            per_curve[15], per_curve[26] = 0, 2
            return IncidenceReport(per_curve=tuple(per_curve))

        monkeypatch.setattr(ddlab.cli, "incidences", injected)
        code, out = run_cli("verify", "--input", str(DATA / "verify" / "fractional.csv"), capsys=capsys)
        assert code == 1
        assert "FAIL family: curve (2, 4) has 0 incidences, its mirror (4, 2) has 2\n" in out

    def test_quadruple_off_its_curve_fails_bijection(self, tmp_path, capsys, monkeypatch):
        # the worked example, with gamma of curve (0, 1) shifted in the curves
        # that the audit builds; the joins and the intersections see the real family
        path = tmp_path / "cfg.csv"
        path.write_text("k=2,c=1\nP1,0\nP1,2\nP2,0,1\nP2,1,2\n", encoding="utf-8")
        real = ddlab.cli.build_family

        class Shifted:
            def __init__(self, family):
                self.family = family

            def __getattr__(self, name):
                return getattr(self.family, name)

            def __len__(self):
                return len(self.family)

            def curve(self, i, j):
                h = self.family.curve(i, j)
                return Hyperbola(h.alpha, h.beta, h.gamma + 1, h.src) if (i, j) == (0, 1) else h

        monkeypatch.setattr(ddlab.cli, "build_family", lambda cfg: Shifted(real(cfg)))
        code, out = run_cli("verify", "--input", str(path), capsys=capsys)
        assert code == 1
        lines = out.splitlines()
        assert lines[8] == "FAIL bijection: quadruple (1, 0, 0, 1) maps to grid point (2, 0) off curve (0, 1)"
        assert [ln.split(" ", 1)[0] for ln in lines] == ["PASS"] * 8 + ["FAIL", "PASS"]

    def test_family_with_doubled_rho_fails_both_incidence_lines(self, capsys, monkeypatch):
        # the oracle reads the config's own rationals, so a family built from
        # wrong int columns disagrees with it on every curve that moved
        real = ddlab.cli.build_family

        def doubled(cfg):
            family = real(cfg)
            return HyperbolaFamily(family.scale, family.firsts, tuple(2 * r for r in family.rhos))

        monkeypatch.setattr(ddlab.cli, "build_family", doubled)
        code, out = run_cli("verify", "--input", str(DATA / "verify" / "fractional.csv"), capsys=capsys)
        assert code == 1
        assert "FAIL incidence-modes: hash 4 vs naive 10\n" in out
        assert "FAIL incidence-oracle: oracle 10 vs fast 4\n" in out

    def test_view_with_a_copied_column_fails_class_grouping(self, capsys, monkeypatch):
        # past QUADRUPLE_GUARD energy-oracle SKIPs, and class-grouping alone
        # checks energy_report's counts: a view in which P2 point 1 takes
        # point 0's column fails it, as the reference reads the rationals
        real = Config.__dict__["view"].func

        def copied_column(cfg):
            view = real(cfg)
            firsts = (view.firsts[0],) * 2 + view.firsts[2:]
            rhos = (view.rhos[0],) * 2 + view.rhos[2:]
            return IntView(view.scale, view.params, firsts, rhos)

        monkeypatch.setattr(Config, "view", property(copied_column))
        code, out = run_cli("verify", "--input", str(DATA / "verify" / "incidence-guard.csv"), capsys=capsys)
        assert code == 1
        assert "FAIL class-grouping: streamed and materialized grouping disagree\n" in out
        assert "SKIP energy-oracle: n*m = 4000 exceeds the oracle guard 2000\n" in out

    def test_matrix_off_a_line_fails_constraints(self, tmp_path, capsys):
        # a column with a value three times cannot be distances from a line,
        # so Q0 <= nm need not hold: reported as an input property
        path = tmp_path / "m.csv"
        path.write_text("n=3,m=1\n1\n1\n1\n", encoding="utf-8")
        code, out = run_cli("verify", "--input", str(path), capsys=capsys)
        assert code == 1
        assert "FAIL constraints: 1 column(s) repeat a value more than twice\n" in out
        assert "SKIP q0-bound: a column repeats a value more than twice\n" in out
        assert out.count("FAIL") == 1

    def test_intersection_self_check_fails(self, tmp_path, capsys, monkeypatch):
        # the radical-line fixture has sampled pairs with rational crossings,
        # so a curve membership test that always says no trips the self-check
        path = tmp_path / "cfg.csv"
        save_source(RADICAL_LINE, path)
        monkeypatch.setattr(ddlab.reduction.Hyperbola, "contains", lambda self, s, t: False)
        code = main(["verify", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "\nFAIL intersections: computed point (" in captured.out
        assert "PASS bijection" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_crashing_check_reports_error_and_later_checks_run(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "cfg.csv"
        path.write_text("k=2,c=1\nP1,0\nP1,2\nP2,0,1\nP2,1,2\n", encoding="utf-8")

        def broken(src):
            raise RuntimeError("injected")

        monkeypatch.setattr(ddlab.cli, "oracle_quadruples", broken)
        code = main(["verify", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        lines = captured.out.splitlines()
        assert [ln.split(" ", 1)[0] for ln in lines] == ["PASS", "PASS", "ERROR"] + ["PASS"] * 7
        assert lines[2] == "ERROR energy-oracle: RuntimeError: injected"
        assert lines[3].startswith("PASS chain: ")
        assert lines[-1].startswith("PASS intersections: ")
        assert captured.err == ""

    def test_checks_needing_a_crashed_result_each_report_error(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "cfg.csv"
        path.write_text("k=2,c=1\nP1,0\nP1,2\nP2,0,1\nP2,1,2\n", encoding="utf-8")
        calls = []

        def broken(src):
            calls.append(src)
            raise RuntimeError("injected")

        monkeypatch.setattr(ddlab.cli, "energy_report", broken)
        code = main(["verify", "--input", str(path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert payload["ok"] is False
        errors = [c["name"] for c in payload["checks"] if c["status"] == "ERROR"]
        assert errors == ["class-grouping", "energy-oracle", "chain", "q0-bound", "bijection"]
        assert {c["detail"] for c in payload["checks"] if c["status"] == "ERROR"} == {
            "RuntimeError: injected"
        }
        assert len(calls) == 1  # the shared report is computed once
        assert {c["status"] for c in payload["checks"] if c["name"] not in errors} == {"PASS"}


class TestScaleOnce:
    """Every int kernel of a command reads one view per config."""

    @pytest.fixture
    def views(self, monkeypatch):
        made = []
        real = IntView.__init__

        def counting(self, *args, **kwargs):
            made.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(IntView, "__init__", counting)
        return made

    def test_view_is_cached(self):
        cfg = gen_random(n=3, m=4, k=2, seed=1, coord_range=20)
        assert cfg.view is cfg.view

    @pytest.mark.parametrize(
        "argv, count",
        [
            (["verify", "--input", str(DATA / "verify" / "fractional.csv")], 1),
            (["reduce", "--input", str(DATA / "reduce" / "fractional.csv")], 1),
            (["sweep", "--n-list", "16,32,64", "--m-list", "16,32,64", "--seeds", "0"], 9),
        ],
        ids=["verify", "reduce", "sweep"],
    )
    def test_one_view_per_config(self, argv, count, views, capsys):
        assert main(argv) == 0
        capsys.readouterr()
        assert len(views) == count

    def test_one_int_form_per_sampled_curve(self, capsys, monkeypatch):
        # intersections pairs 40 curves: each computes its int form once, not once per pair
        made = []
        real = Hyperbola.__dict__["_ints"].func

        def counting(h):
            made.append(h.src)
            return real(h)

        spy = cached_property(counting)
        spy.__set_name__(Hyperbola, "_ints")
        monkeypatch.setattr(Hyperbola, "_ints", spy)
        assert main(["verify", "--input", str(DATA / "verify" / "fractional.csv")]) == 0
        assert "PASS intersections: 780 curve pairs" in capsys.readouterr().out
        assert len(made) == len(set(made)) == 40


class TestBound:
    def test_json_fixture(self, capsys):
        code, out = run_cli("bound", "--n", "100", "--m", "5", "--json", capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "R1"
        assert payload["min"] == 25.0

    def test_log_convention_flag(self, capsys):
        code, out = run_cli(
            "bound", "--n", "100", "--m", "5", "--log-convention", "log2-clamped",
            "--json", capsys=capsys,
        )
        assert code == 0
        assert abs(json.loads(out)["terms"]["logterm"] - 101.35257133667804) < 1e-9

    def test_overflowing_terms_are_an_input_error(self, capsys):
        code = main(["bound", "--n", "3", "--m", str(10**155)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: distinct_lower_bound: arguments too large")
        assert "Traceback" not in captured.err


class TestSweep:
    def test_stdout_determinism(self, capsys):
        args = ("sweep", "--n-list", "2,3", "--m-list", "2", "--seeds", "0,1")
        code, first = run_cli(*args, capsys=capsys)
        assert code == 0
        code, second = run_cli(*args, capsys=capsys)
        assert first == second
        assert first.splitlines()[0].startswith("n,m,k,seed,generator")

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        code, _ = run_cli(
            "sweep", "--n-list", "4", "--m-list", "4", "--seeds", "0",
            "--generator", "cylinder", "--output", str(path), capsys=capsys,
        )
        assert code == 0
        assert path.read_text().count("\n") == 2

    def test_log2_convention_changes_only_the_bound_columns(self, capsys):
        argv = ("sweep", "--n-list", "9,16", "--m-list", "8", "--seeds", "1", "--coord-range", "24")
        _, default = run_cli(*argv, capsys=capsys)
        code, log2 = run_cli(*argv, "--log-convention", "log2-clamped", capsys=capsys)
        assert code == 0
        default_rows, log2_rows = (list(csv.DictReader(io.StringIO(out))) for out in (default, log2))
        assert len(log2_rows) == 2 and all(int(row["I"]) > 0 for row in log2_rows)
        exact = ("x", "Q", "Q0", "Q1", "I", "chain_ok", "q0_ok", "bijection_ok")
        for row, default_row in zip(log2_rows, default_rows):
            assert [row[col] for col in exact] == [default_row[col] for col in exact]
        for row in log2_rows:
            n, m, x, q = (int(row[col]) for col in ("n", "m", "x", "Q"))
            bound = distinct_lower_bound(n, m, "log2-clamped")
            expr = energy_upper_expr(n, m, "log2-clamped")
            assert (float(row["bound_min"]), row["regime"]) == (bound.min_value, bound.regime.value)
            assert float(row["ratio_x_over_bound"]) == x / bound.min_value
            assert float(row["ratio_Q_over_expr"]) == q / expr
        assert log2 != default  # the convention reaches the rows

    def test_bad_integer_list_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n-list", "1,x", "--m-list", "2"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.endswith("error: argument --n-list: bad integer list: '1,x'\n")

    @pytest.mark.parametrize("option", [("--k", "4"), ("--coord-range", "50"), ("--k", "1")])
    def test_option_a_fixed_generator_ignores_is_an_error(self, option, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        code = main([
            "sweep", "--n-list", "4", "--m-list", "4", "--generator", "orthogonal", *option,
            "--output", str(path),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: {option[0]} ") and captured.err.count("\n") == 1
        assert captured.out == "" and not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["sweep", "--n-list", "0", "--m-list", "2", "--k", "1"], id="sweep-error-row"),
        pytest.param(["sweep", "--n-list", "2", "--m-list", "2", "--k", "1"], id="sweep"),
        pytest.param(
            ["sweep", "--n-list", "2", "--m-list", "2", "--k", "0", "--generator", "cylinder"],
            id="sweep-cylinder",
        ),
        pytest.param(["gen", "--n", "2", "--m", "2", "--k", "1"], id="gen"),
    ],
)
def test_k_below_two_is_an_input_error_before_any_row(argv, capsys):
    # refused before any row, even one that would carry its own error (n = 0),
    # whichever generator is named
    code = main(argv)
    captured = capsys.readouterr()
    k = argv[argv.index("--k") + 1]
    assert code == 2
    assert captured.err == f"error: --k must be at least 2, got {k}\n"
    assert captured.out == ""


class TestErrors:
    def test_missing_file(self, capsys):
        code, _ = run_cli("stats", "--input", "/nonexistent/nope.csv", capsys=capsys)
        assert code == 2

    def test_bad_rational_in_file(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("k=2,c=1\nP1,zero\nP2,0,1\n", encoding="utf-8")
        code, _ = run_cli("stats", "--input", str(path), capsys=capsys)
        assert code == 2

    def test_overlong_literal_is_a_format_error(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("n=1,m=1\n" + "9" * 5000 + "\n", encoding="utf-8")
        assert main(["stats", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: rational literal too long (5000 characters)\n"

    def test_bad_wide_row_gives_a_short_message(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        row = ",".join(str(v) for v in range(400))
        path.write_text(f"n=2,m=400\n{row}\n{row},400\n", encoding="utf-8")
        assert main(["stats", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: expected 400 entries per row, got 401: '0,1,2,")
        assert err.endswith(f"... ({len(row) + 4} characters)\n")
        assert len(err) < 120

    def test_loose_header_is_a_format_error(self, tmp_path, capsys):
        path = tmp_path / "loose.csv"
        path.write_text("k=\u0662,c=+1\nP1,0\nP2,1,2\n", encoding="utf-8")
        assert main(["stats", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: expected k=<int>,c=<int> header")

    def test_unexpected_exception_exits_three(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "cfg.csv"
        save_source(RADICAL_LINE, path)

        def broken(src):
            raise RuntimeError("injected")

        monkeypatch.setattr(ddlab.cli, "energy_report", broken)
        code = main(["stats", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError: injected\n"
        assert "Traceback" not in captured.err

    def test_argparse_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stats"])  # missing --input
        assert exc.value.code == 2


def test_package_has_no_assert():
    # a failed assert would raise AssertionError, which no public function may
    # raise; nor may a module raise or catch it by name
    paths = sorted(Path(ddlab.cli.__file__).parent.glob("*.py"))
    assert {"cli.py", "exact.py", "io.py"} <= {path.name for path in paths}
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "AssertionError")
        or (isinstance(node, ast.Attribute) and node.attr == "AssertionError")
    ]
    assert found == []


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "ddlab.cli", "bound", "--n", "1", "--m", "1", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["min"] == 1.0


OPENBLAS_SCRIPT = textwrap.dedent(
    """
    import contextlib, io, json, os, sys

    seen = {}

    class WatchNumpyImport:
        # Records the setting at the moment numpy is first looked up.
        def find_spec(self, name, path=None, target=None):
            if name == "numpy":
                seen.setdefault("at_numpy_import", os.environ.get("OPENBLAS_NUM_THREADS"))
            return None

    sys.meta_path.insert(0, WatchNumpyImport())
    import ddlab
    from ddlab.cli import main
    from ddlab.io import save_source

    seen["after_import"] = os.environ.get("OPENBLAS_NUM_THREADS")
    save_source(ddlab.gen_cylinder_extremal(512, 512), "cyl.csv")  # 2^18 pairs: the numpy kernel
    with contextlib.redirect_stdout(io.StringIO()):
        seen["code"] = main(["stats", "--input", "cyl.csv", "--json"])
    seen["after_main"] = os.environ.get("OPENBLAS_NUM_THREADS")
    print(json.dumps(seen))
    """
)


@pytest.mark.parametrize("preset", [None, "3"])
def test_cli_defaults_openblas_to_one_thread(tmp_path, preset):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", OPENBLAS_SCRIPT], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    want = preset or "1"
    assert json.loads(proc.stdout) == {
        "after_import": preset,  # importing ddlab leaves the environment alone
        "code": 0,
        "at_numpy_import": want,
        "after_main": want,
    }
