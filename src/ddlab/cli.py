"""Command-line front end.

Subcommands: gen (write a config or matrix file), stats (energy report),
reduce (curve family export plus incidence report), verify (run every exact
identity that applies and report pass/fail), bound (float bound report),
sweep (deterministic CSV over an (n, m, seed) grid).

Exit codes: 0 when everything passed, 1 when an exact identity check
failed, 2 on input errors, 3 on an internal error (any other exception,
or a verify check that raised and was reported as ERROR).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from io import StringIO
from itertools import combinations, islice
from pathlib import Path
from typing import Iterator

from . import __version__, bounds, io as dio
from .energy import check_chain, distance_classes, energy, energy_report
from .errors import DdlabError, IntersectionCheckError, TooLargeError
from .exact import Config, SqDistMatrix, validate_constraints
from .oracles import QUADRUPLE_GUARD, oracle_incidences, oracle_quadruples
from .reduction import _ordered_pairs, build_family, incidences, intersection_count
from .sweep import GENERATORS, CSV_COLUMNS, SweepSpec, check_options, generate, rows_to_csv, run_sweep

SWEEP_COLUMNS_HELP = "CSV columns, in order: " + ", ".join(CSV_COLUMNS)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddlab",
        description="Exact experiments on distinct distances between a collinear set and an arbitrary point set.",
    )
    parser.add_argument("--version", action="version", version=f"ddlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a config or matrix file")
    p_gen.add_argument("--generator", choices=GENERATORS, default="random")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--k", type=int, default=2, help="dimension (random generator only)")
    p_gen.add_argument(
        "--c", type=int, default=None,
        help="declared multiplicity budget on the emitted config (random generator only; default 1)",
    )
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--coord-range", type=int, default=None, help="coordinate range (random generator only)")
    p_gen.add_argument("--offset", default=None, help="cylinder offset, a rational literal (default 1)")
    p_gen.add_argument("--output", default=None, help="output path (default: stdout)")

    p_stats = sub.add_parser("stats", help="energy report for a config or matrix file")
    p_stats.add_argument("--input", required=True)
    p_stats.add_argument("--json", action="store_true")

    p_reduce = sub.add_parser("reduce", help="curve family and incidence report for a config file")
    p_reduce.add_argument("--input", required=True)
    p_reduce.add_argument("--output", default=None, help="write the curve family CSV here")
    p_reduce.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="run every applicable exact identity check")
    p_verify.add_argument("--input", required=True)
    p_verify.add_argument("--json", action="store_true")

    p_bound = sub.add_parser("bound", help="float bound report at (n, m)")
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--m", type=int, required=True)
    p_bound.add_argument("--log-convention", choices=bounds.LOG_CONVENTIONS, default="ln-clamped")
    p_bound.add_argument("--json", action="store_true")

    p_sweep = sub.add_parser(
        "sweep",
        help="deterministic CSV sweep over an (n, m, seed) grid",
        epilog=SWEEP_COLUMNS_HELP,
    )
    p_sweep.add_argument("--n-list", type=_int_list, required=True)
    p_sweep.add_argument("--m-list", type=_int_list, required=True)
    p_sweep.add_argument("--seeds", type=_int_list, default=(0,))
    p_sweep.add_argument("--k", type=int, default=2, help="dimension (random generator only)")
    p_sweep.add_argument("--generator", choices=GENERATORS, default="random")
    p_sweep.add_argument("--coord-range", type=int, default=None, help="coordinate range (random generator only)")
    p_sweep.add_argument("--log-convention", choices=bounds.LOG_CONVENTIONS, default="ln-clamped")
    p_sweep.add_argument("--output", default=None, help="output path (default: stdout)")
    return parser


def _write_json(payload) -> None:
    import json  # only --json output needs it, so other runs skip the import

    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="")


def _cmd_gen(args: argparse.Namespace) -> int:
    check_options(args.generator, k=args.k, coord_range=args.coord_range, offset=args.offset, c=args.c)
    src = generate(
        args.generator, args.n, args.m, k=args.k, seed=args.seed,
        coord_range=args.coord_range, offset=1 if args.offset is None else args.offset,
    )
    if args.c is not None:
        src = Config(k=src.k, c=args.c, p1_params=src.p1_params, p2_points=src.p2_points)
    buf = StringIO()
    dio.write_source(src, buf)
    _emit(buf.getvalue(), args.output)
    return 0


def _format_energy_text(rep) -> str:
    lines = [
        f"n={rep.n} m={rep.m}",
        f"distinct squared distances x = {rep.distinct_count}",
        f"energy Q = {rep.energy} (same-point Q0 = {rep.energy_same_point}, cross Q1 = {rep.energy_cross})",
        "class histogram (size x count): "
        + " ".join(f"{size}x{count}" for size, count in rep.class_histogram),
    ]
    return "\n".join(lines) + "\n"


def _cmd_stats(args: argparse.Namespace) -> int:
    src = dio.load_source(args.input)
    rep = energy_report(src)
    if args.json:
        _write_json(rep.to_json_dict())
    else:
        sys.stdout.write(_format_energy_text(rep))
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    src = dio.load_source(args.input)
    if isinstance(src, SqDistMatrix):
        raise DdlabError("reduce needs a coordinate config, not a matrix")
    family = build_family(src)
    rep = incidences(src.view, family)
    if args.output is not None:
        buf = StringIO()
        dio.write_gamma_csv(family, buf)
        _emit(buf.getvalue(), args.output)
    if args.json:
        _write_json(rep.to_json_dict())
    else:
        # the mirror (i, j) -> (j, i) negates gamma: half the curves, and half
        # the incidences, lie on each sign
        half, on_each = len(family) // 2, rep.total // 2
        sys.stdout.write(
            f"curves: {len(family)} (gamma>0: {half}, gamma<0: {half})\n"
            f"incidences: {rep.total} (on gamma>0: {on_each}, on gamma<0: {on_each})\n"
        )
    return 0


def _once(compute):
    """A thunk for compute(): it runs on the first call, and every call
    returns its result or raises its exception again."""
    memo: list = []

    def get():
        if not memo:
            try:
                memo.append((compute(), None))
            except Exception as exc:
                memo.append((None, exc))
        result, exc = memo[0]
        if exc is not None:
            raise exc
        return result

    return get


def _quadruple_images(cfg: Config, classes) -> Iterator[tuple]:
    """The reduction's map, from distance classes: each cross quadruple
    (i, j, k, l), with sq_dist(a_i, p_j) = sq_dist(a_k, p_l) and j != l, goes
    to grid point (a_i, a_k) on curve (j, l)."""
    a = cfg.p1_params
    for pairs in classes.classes.values():
        for i, j in pairs:
            for k, l in pairs:
                if j != l:
                    yield (i, j, k, l), (a[i], a[k]), (j, l)


def _verify_checks(src) -> list[tuple[str, str, str]]:
    """Each check is (name, status, detail) with status PASS/FAIL/SKIP/ERROR.

    Every check runs in its own guard: one that raises is reported as
    ERROR with the exception, and the later checks still run. Results that
    several checks share are computed once; a check that needs one that
    raised reports its own ERROR.
    """
    n, m = src.n, src.m
    # columns that repeat a value more than twice, which distances from a line never do
    crowded = _once(
        lambda: 0 if isinstance(src, Config)
        else sum(1 for col in zip(*src.scaled) if max(Counter(col).values()) > 2)
    )
    rep = _once(lambda: energy_report(src))
    reducible = _once(
        lambda: isinstance(src, Config) and m >= 2 and validate_constraints(src, c=1).ok
    )
    family = _once(lambda: build_family(src))
    fast = _once(lambda: incidences(src.view, family()))
    per_curve = _once(lambda: oracle_incidences(src))

    def constraints():
        if isinstance(src, Config):
            report = validate_constraints(src)
            if report.ok:
                return "PASS", f"multiplicities within c={src.c}"
            return "FAIL", f"{len(report.violations)} violation(s) at c={src.c}"
        if crowded():
            return "FAIL", f"{crowded()} column(s) repeat a value more than twice"
        return "PASS", "no column repeats a value more than twice"

    def class_grouping():
        if rep() == energy(src):
            return "PASS", "streamed and materialized grouping agree"
        return "FAIL", "streamed and materialized grouping disagree"

    def energy_oracle():
        try:
            q, q0, q1 = oracle_quadruples(src)
        except TooLargeError as exc:
            return "SKIP", str(exc)
        fast_q = (rep().energy, rep().energy_same_point, rep().energy_cross)
        return "PASS" if (q, q0, q1) == fast_q else "FAIL", f"oracle ({q}, {q0}, {q1}) vs fast {fast_q}"

    def chain():
        report = check_chain(rep())
        return "PASS" if report.ok else "FAIL", f"x*Q - (nm-x)^2 = {report.slack}, x<=nm/2: {report.x_le_half}"

    def q0_bound():
        if crowded():
            return "SKIP", "a column repeats a value more than twice"
        q0 = rep().energy_same_point
        return "PASS" if q0 <= n * m else "FAIL", f"Q0 = {q0} vs nm = {n * m}"

    def family_check():
        # the per-sign totals are total // 2 because curve (i, j) and its mirror
        # (j, i), of opposite gamma, carry the same incidences: check every pair
        # row i holds curves (i, j), j != i; a 0 on the diagonal makes the rows square
        per, w = fast().per_curve, m - 1
        rows = [per[i * w:i * w + i] + (0,) + per[i * w + i:i * w + w] for i in range(m)]
        if rows == list(zip(*rows)):
            half = len(family()) // 2
            return "PASS", f"{len(family())} curves, sign split {half}/{half}"
        i, j = next((i, j) for i, j in _ordered_pairs(m) if rows[i][j] != rows[j][i])
        return "FAIL", f"curve {(i, j)} has {rows[i][j]} incidences, its mirror {(j, i)} has {rows[j][i]}"

    def incidence_modes():
        # the oracle evaluates every curve at every grid point on the input's own
        # rationals, not on the family it checks
        try:
            oracle = per_curve()
        except TooLargeError:
            return "SKIP", f"n^2*curves = {n ** 2 * len(family())} too large"
        status = "PASS" if fast().per_curve == oracle else "FAIL"
        return status, f"hash {fast().total} vs naive {sum(oracle)}"

    def incidence_oracle():
        try:
            total = sum(per_curve())
        except TooLargeError as exc:
            return "SKIP", str(exc)
        return "PASS" if total == fast().total else "FAIL", f"oracle {total} vs fast {fast().total}"

    def bijection():
        # below the guard, every cross quadruple's image must lie on its curve
        if n * m <= QUADRUPLE_GUARD:
            curves: dict = {}  # built as the images reach them
            for quad, (s, t), pair in _quadruple_images(src, distance_classes(src)):
                if pair not in curves:
                    curves[pair] = family().curve(*pair)
                if not curves[pair].contains(s, t):
                    return "FAIL", f"quadruple {quad} maps to grid point ({s}, {t}) off curve {pair}"
        q1, total = rep().energy_cross, fast().total
        return "PASS" if total == q1 else "FAIL", f"Q1 = {q1} vs incidences = {total}"

    def intersections():
        pairs = list(combinations(islice(family().iter_curves(), 40), 2))
        try:
            for h1, h2 in pairs:  # each call checks its points on both curves
                intersection_count(h1, h2)
        except IntersectionCheckError as exc:
            return "FAIL", str(exc)
        return "PASS", f"{len(pairs)} curve pairs, all meeting at most twice"

    def needs_reduction(check):
        def run():
            if not reducible():
                return "SKIP", "needs a coordinate config, m >= 2, valid at c = 1"
            return check()

        return run

    checks: list[tuple[str, str, str]] = []
    for name, check in (
        ("constraints", constraints),
        ("class-grouping", class_grouping),
        ("energy-oracle", energy_oracle),
        ("chain", chain),
        ("q0-bound", q0_bound),
        ("family", needs_reduction(family_check)),
        ("incidence-modes", needs_reduction(incidence_modes)),
        ("incidence-oracle", needs_reduction(incidence_oracle)),
        ("bijection", needs_reduction(bijection)),
        ("intersections", needs_reduction(intersections)),
    ):
        try:
            status, detail = check()
        except Exception as exc:  # a bug in this check or in what it needs
            status, detail = "ERROR", f"{type(exc).__name__}: {exc}"
        checks.append((name, status, detail))
    return checks


def _cmd_verify(args: argparse.Namespace) -> int:
    src = dio.load_source(args.input)
    checks = _verify_checks(src)
    statuses = {status for _, status, _ in checks}
    if args.json:
        payload = {
            "ok": statuses <= {"PASS", "SKIP"},
            "checks": [
                {"name": name, "status": status, "detail": detail}
                for name, status, detail in checks
            ],
        }
        _write_json(payload)
    else:
        for name, status, detail in checks:
            sys.stdout.write(f"{status} {name}: {detail}\n")
    if "ERROR" in statuses:
        return 3
    return 1 if "FAIL" in statuses else 0


def _cmd_bound(args: argparse.Namespace) -> int:
    rep = bounds.distinct_lower_bound(args.n, args.m, args.log_convention)
    if args.json:
        _write_json(rep.to_json_dict())
    else:
        sys.stdout.write(
            f"n={rep.n} m={rep.m} regime={rep.regime.value}\n"
            f"terms: m^2={rep.term_m_sq!r} (nm)^(2/3)={rep.term_two_thirds!r} "
            f"log-term={rep.term_log!r} n^2={rep.term_n_sq!r}\n"
            f"min={rep.min_value!r} piecewise={rep.piecewise_value!r}\n"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = SweepSpec(
        n_list=args.n_list,
        m_list=args.m_list,
        seeds=args.seeds,
        k=args.k,
        generator=args.generator,
        coord_range=args.coord_range,
        log_convention=args.log_convention,
    )
    rows = run_sweep(spec)
    _emit(rows_to_csv(rows), args.output)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "stats": _cmd_stats,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "bound": _cmd_bound,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    # The numpy energy kernel never uses BLAS, so a command should not pay
    # for an OpenBLAS thread pool when it first imports numpy. A caller's
    # own setting wins; library users who never call main keep theirs.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DdlabError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # a bug, never "an identity failed" (exit 1)
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


def run() -> None:
    """Console entry point: main(), then exit without interpreter teardown.

    Once stdout and stderr are flushed nothing is left to write, so os._exit
    skips module finalization. A flush that fails (a reader closed the pipe)
    takes the usual exit path, which reports it as before. Exceptions that
    escape main, such as argparse's SystemExit, propagate unchanged.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
