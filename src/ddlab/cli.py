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
from io import StringIO
from pathlib import Path

from . import __version__, bounds, io as dio
from .energy import energy_report
from .errors import DdlabError
from .exact import Config, SqDistMatrix
from .reduction import build_family, incidences
from .sweep import GENERATORS, CSV_COLUMNS, SweepSpec, check_options, generate, rows_to_csv, run_sweep
from .sweep import verify_checks

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


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = verify_checks(dio.load_source(args.input))
    statuses = {status for _, status, _ in checks}
    if args.json:
        rows = [{"name": name, "status": status, "detail": detail} for name, status, detail in checks]
        _write_json({"ok": statuses <= {"PASS", "SKIP"}, "checks": rows})
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
