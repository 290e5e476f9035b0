"""Command-line front end.

Subcommands: gen (write a config or matrix file), stats (energy report),
reduce (curve family export plus incidence report), verify (run every exact
identity that applies and report pass/fail), bound (float bound report),
sweep (deterministic CSV over an (n, m, seed) grid).

Exit codes: 0 when everything passed, 1 when an exact identity check
failed, 2 on input errors, 3 on an internal error (any other exception).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from itertools import combinations, islice
from pathlib import Path

from . import __version__, bounds, io as dio
from .configs import SqDistMatrix
from .energy import check_chain, distance_classes, energy, energy_report
from .errors import DdlabError, IntersectionCheckError, TooLargeError
from .exact import Config, validate_constraints
from .oracles import oracle_incidences, oracle_quadruples
from .reduction import ParamGrid, _ordered_pairs, build_family, incidences, intersection_count
from .sweep import GENERATORS, CSV_COLUMNS, SweepSpec, generate, rows_to_csv, run_sweep

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
    p_gen.add_argument("--k", type=int, default=2)
    p_gen.add_argument("--c", type=int, default=1, help="declared multiplicity budget on the emitted config")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--coord-range", type=int, default=None)
    p_gen.add_argument("--offset", default="1", help="cylinder offset, a rational literal")
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
    p_sweep.add_argument("--k", type=int, default=2)
    p_sweep.add_argument("--generator", choices=GENERATORS, default="random")
    p_sweep.add_argument("--coord-range", type=int, default=None)
    p_sweep.add_argument("--log-convention", choices=bounds.LOG_CONVENTIONS, default="ln-clamped")
    p_sweep.add_argument("--output", default=None, help="output path (default: stdout)")
    return parser


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="")


def _cmd_gen(args: argparse.Namespace) -> int:
    src = generate(
        args.generator, args.n, args.m, k=args.k, seed=args.seed,
        coord_range=args.coord_range, offset=args.offset,
    )
    if args.generator == "random" and args.c != 1:
        src = Config(k=src.k, c=args.c, p1_params=src.p1_params, p2_points=src.p2_points)
    import io as _io

    buf = _io.StringIO()
    if isinstance(src, SqDistMatrix):
        dio.write_matrix(src, buf)
    else:
        dio.write_config(src, buf)
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
        sys.stdout.write(json.dumps(rep.to_json_dict(), indent=2) + "\n")
    else:
        sys.stdout.write(_format_energy_text(rep))
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    src = dio.load_source(args.input)
    if isinstance(src, SqDistMatrix):
        raise DdlabError("reduce needs a coordinate config, not a matrix")
    family = build_family(src)
    rep = incidences(ParamGrid.from_config(src), family)
    if args.output is not None:
        import io as _io

        buf = _io.StringIO()
        dio.write_gamma_csv(family, buf)
        Path(args.output).write_text(buf.getvalue(), encoding="utf-8", newline="")
    if args.json:
        sys.stdout.write(json.dumps(rep.to_json_dict(), indent=2) + "\n")
    else:
        half = len(family) // 2  # the mirror (i, j) -> (j, i) negates gamma
        sys.stdout.write(
            f"curves: {len(family)} (gamma>0: {half}, gamma<0: {half})\n"
            f"incidences: {rep.total} (on gamma>0: {rep.positive_total}, "
            f"on gamma<0: {rep.negative_total})\n"
        )
    return 0


def _verify_checks(src) -> list[tuple[str, str, str]]:
    """Each check is (name, status, detail) with status PASS/FAIL/SKIP."""
    checks: list[tuple[str, str, str]] = []
    n, m = src.n, src.m

    line_like = True  # every column repeats a value at most twice, as distances from a line do
    if isinstance(src, Config):
        report = validate_constraints(src)
        if report.ok:
            checks.append(("constraints", "PASS", f"multiplicities within c={src.c}"))
        else:
            checks.append(("constraints", "FAIL", f"{len(report.violations)} violation(s) at c={src.c}"))
    else:
        crowded = sum(1 for col in zip(*src.entries) if max(Counter(col).values()) > 2)
        line_like = crowded == 0
        if line_like:
            checks.append(("constraints", "PASS", "no column repeats a value more than twice"))
        else:
            checks.append(("constraints", "FAIL", f"{crowded} column(s) repeat a value more than twice"))

    rep = energy_report(src)
    slow = energy(distance_classes(src))
    if rep == slow:
        checks.append(("class-grouping", "PASS", "streamed and materialized grouping agree"))
    else:
        checks.append(("class-grouping", "FAIL", "streamed and materialized grouping disagree"))

    try:
        q, q0, q1 = oracle_quadruples(src)
        ok = (q, q0, q1) == (rep.energy, rep.energy_same_point, rep.energy_cross)
        checks.append(
            (
                "energy-oracle",
                "PASS" if ok else "FAIL",
                f"oracle ({q}, {q0}, {q1}) vs fast ({rep.energy}, {rep.energy_same_point}, {rep.energy_cross})",
            )
        )
    except TooLargeError as exc:
        checks.append(("energy-oracle", "SKIP", str(exc)))

    chain = check_chain(rep, n, m)
    chain_ok = chain.cauchy_ok and chain.lower_ok is not False
    checks.append(
        (
            "chain",
            "PASS" if chain_ok else "FAIL",
            f"x*Q - (nm-x)^2 = {chain.slack}, x<=nm/2: {chain.x_le_half}",
        )
    )
    if line_like:
        q0_ok = rep.energy_same_point <= n * m
        checks.append(
            ("q0-bound", "PASS" if q0_ok else "FAIL", f"Q0 = {rep.energy_same_point} vs nm = {n * m}")
        )
    else:
        checks.append(("q0-bound", "SKIP", "a column repeats a value more than twice"))

    reducible = (
        isinstance(src, Config) and m >= 2 and validate_constraints(src, c=1).ok
    )
    if not reducible:
        why = "needs a coordinate config, m >= 2, valid at c = 1"
        for name in ("family", "incidence-modes", "incidence-oracle", "bijection", "intersections"):
            checks.append((name, "SKIP", why))
        return checks

    family = build_family(src)
    grid = ParamGrid.from_config(src)
    fast = incidences(grid, family)
    # the per-sign totals are total // 2 because curve (i, j) and its mirror
    # (j, i), of opposite gamma, carry the same incidences: check every pair
    count = dict(zip(_ordered_pairs(m), fast.per_curve))
    broken = next(((i, j) for (i, j), c in count.items() if c != count[(j, i)]), None)
    half = len(family) // 2
    if broken is None:
        checks.append(("family", "PASS", f"{len(family)} curves, sign split {half}/{half}"))
    else:
        mirror = broken[::-1]
        detail = f"curve {broken} has {count[broken]} incidences, its mirror {mirror} has {count[mirror]}"
        checks.append(("family", "FAIL", detail))
    try:
        per_curve = oracle_incidences(grid, family)
    except TooLargeError as exc:
        work = grid.n ** 2 * len(family)
        checks.append(("incidence-modes", "SKIP", f"n^2*curves = {work} too large"))
        checks.append(("incidence-oracle", "SKIP", str(exc)))
    else:
        # the oracle is the naive evaluation of every curve at every grid point
        oracle_total = sum(per_curve)
        checks.append(
            (
                "incidence-modes",
                "PASS" if fast.per_curve == per_curve else "FAIL",
                f"hash {fast.total} vs naive {oracle_total}",
            )
        )
        checks.append(
            (
                "incidence-oracle",
                "PASS" if oracle_total == fast.total else "FAIL",
                f"oracle {oracle_total} vs fast {fast.total}",
            )
        )
    bij_ok = fast.total == rep.energy_cross
    checks.append(
        (
            "bijection",
            "PASS" if bij_ok else "FAIL",
            f"Q1 = {rep.energy_cross} vs incidences = {fast.total}",
        )
    )
    pairs = list(combinations(islice(family.iter_curves(), 40), 2))
    try:
        for h1, h2 in pairs:  # each call checks its points on both curves
            intersection_count(h1, h2)
    except IntersectionCheckError as exc:
        checks.append(("intersections", "FAIL", str(exc)))
    else:
        checks.append(("intersections", "PASS", f"{len(pairs)} curve pairs, all meeting at most twice"))
    return checks


def _cmd_verify(args: argparse.Namespace) -> int:
    src = dio.load_source(args.input)
    checks = _verify_checks(src)
    failed = any(status == "FAIL" for _, status, _ in checks)
    if args.json:
        payload = {
            "ok": not failed,
            "checks": [
                {"name": name, "status": status, "detail": detail}
                for name, status, detail in checks
            ],
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for name, status, detail in checks:
            sys.stdout.write(f"{status} {name}: {detail}\n")
    return 1 if failed else 0


def _cmd_bound(args: argparse.Namespace) -> int:
    rep = bounds.distinct_lower_bound(args.n, args.m, args.log_convention)
    if args.json:
        sys.stdout.write(json.dumps(rep.to_json_dict(), indent=2) + "\n")
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


if __name__ == "__main__":
    sys.exit(main())
