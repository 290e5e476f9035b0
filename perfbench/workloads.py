"""The four benchmark workloads: inputs, ddlab command lines and output checks.

Each workload is a list of input files, written during set-up, and a list
of operations, each one ddlab command line run as its own process. A run
repeats the operations in order, one at a time (a closed loop with one
client), in rounds. Inputs depend only on the pool index: the benchmark
seed selects one of POOL input sets, and expected.json holds the digests of
each set's outputs as recorded from the commit that defined the benchmark.

Checks here are identities that hold for any correct ddlab, independent of
the recorded digests. Each returns a list of problems; empty means correct.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from typing import Callable

POOL = 32

# A valid c=1 config whose axis coordinates and rho_sq values are both in
# arithmetic progression: two of its curves have a radical line parallel to
# an asymptote that misses the curve, and intersection_count raises
# AssertionError, so verify crashes. Kept in every verify round so the
# defect shows in the failure count until it is fixed.
RADICAL_LINE_CONFIG = "k=2,c=1\nP1,0\nP1,1\nP1,2\nP1,3\nP2,0,1\nP2,1,5\nP2,2,7\n"


@dataclass(frozen=True)
class Input:
    """One set-up file: made by ``ddlab gen <gen> --output name``, or written as text."""

    name: str
    gen: tuple[str, ...] = ()
    text: str | None = None


@dataclass(frozen=True)
class Op:
    """One timed ddlab command; argv names files in the run's work directory.

    check(stdout, files, companion) returns problems. companion(argv) runs an
    untimed ddlab command and returns its stdout, for cross-command identities.
    """

    name: str
    argv: tuple[str, ...]
    check: Callable
    outputs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    inputs: tuple[Input, ...]
    ops: tuple[Op, ...]


def _stats_identities(n: int, m: int, x_expected: int | None = None) -> Callable:
    def check(stdout: str, files: dict, companion) -> list[str]:
        rep = json.loads(stdout)
        problems = []
        hist = [tuple(entry) for entry in rep["histogram"]]
        if (rep["n"], rep["m"]) != (n, m):
            problems.append(f"shape {rep['n']}x{rep['m']} != {n}x{m}")
        if sum(size * count for size, count in hist) != n * m:
            problems.append("histogram does not cover n*m pairs")
        if sum(count for _, count in hist) != rep["x"]:
            problems.append("histogram class count != x")
        if sum(size * (size - 1) * count for size, count in hist) != rep["Q"]:
            problems.append("histogram energy != Q")
        if rep["Q0"] + rep["Q1"] != rep["Q"] or rep["Q0"] > n * m:
            problems.append("Q != Q0 + Q1 or Q0 > nm")
        if rep["x"] * rep["Q"] < (n * m - rep["x"]) ** 2:
            problems.append("Cauchy-Schwarz chain x*Q >= (nm-x)^2 fails")
        if x_expected is not None and rep["x"] != x_expected:
            problems.append(f"x = {rep['x']}, extremal construction gives {x_expected}")
        return problems

    return check


_REDUCE_RE = re.compile(
    r"curves: (\d+) \(gamma>0: (\d+), gamma<0: (\d+)\)\n"
    r"incidences: (\d+) \(on gamma>0: (\d+), on gamma<0: (\d+)\)\n\Z"
)


def _reduce_identities(cfg: str, m: int, gamma_csv: str) -> Callable:
    def check(stdout: str, files: dict, companion) -> list[str]:
        match = _REDUCE_RE.match(stdout)
        if match is None:
            return ["unparseable reduce report"]
        curves, pos, neg, total, on_pos, on_neg = map(int, match.groups())
        problems = []
        if curves != m * (m - 1) or pos != neg or pos + neg != curves:
            problems.append(f"{curves} curves split {pos}/{neg}, expected {m * (m - 1)} split evenly")
        if on_pos + on_neg != total:
            problems.append("per-sign incidences do not sum to the total")
        rows = files[gamma_csv].decode("utf-8").splitlines()
        if rows[0] != "p_idx,q_idx,alpha,beta,gamma" or len(rows) != curves + 1:
            problems.append(f"gamma CSV has {len(rows) - 1} rows for {curves} curves")
        q1 = json.loads(companion(("stats", "--input", cfg, "--json")))["Q1"]
        if q1 != total:
            problems.append(f"stats Q1 = {q1} != reduce incidences = {total}")
        return problems

    return check


_VERIFY_LINE = re.compile(r"(PASS|FAIL|SKIP) [a-z0-9-]+: .*")
_REDUCTION_CHECKS = ("family", "incidence-modes", "incidence-oracle", "bijection", "intersections")


def _verify_identities(reducible: bool) -> Callable:
    def check(stdout: str, files: dict, companion) -> list[str]:
        lines = stdout.splitlines()
        problems = [f"malformed line {ln!r}" for ln in lines if not _VERIFY_LINE.fullmatch(ln)]
        problems += [f"identity failed: {ln}" for ln in lines if ln.startswith("FAIL ")]
        if not reducible:
            skipped = {ln.split(":")[0].split(" ", 1)[1] for ln in lines if ln.startswith("SKIP ")}
            missing = [name for name in _REDUCTION_CHECKS if name not in skipped]
            if missing:
                problems.append(f"non-reducible input ran reduction checks {missing}")
        return problems

    return check


def _sweep_identities(rows_expected: int, sweep_csv: str) -> Callable:
    def check(stdout: str, files: dict, companion) -> list[str]:
        rows = list(csv.DictReader(io.StringIO(files[sweep_csv].decode("utf-8"))))
        problems = []
        if len(rows) != rows_expected:
            problems.append(f"{len(rows)} rows, expected {rows_expected}")
        for row in rows:
            flags = (row["chain_ok"], row["q0_ok"], row["bijection_ok"])
            if row["error"] or flags != ("true", "true", "true"):
                problems.append(f"row n={row['n']} m={row['m']}: error={row['error']!r} flags={flags}")
        return problems

    return check


def _gen_random(n: int, m: int, k: int, seed: int) -> tuple[str, ...]:
    return ("--n", str(n), "--m", str(m), "--k", str(k), "--seed", str(seed))


def stats(index: int) -> Workload:
    return Workload(
        inputs=(
            Input("random.csv", _gen_random(1200, 1200, 2, 1000 + index)),
            Input("cylinder.csv", ("--generator", "cylinder", "--n", "400", "--m", "400", "--offset", "3/2")),
            Input("orthogonal.csv", ("--generator", "orthogonal", "--n", "400", "--m", "400")),
        ),
        ops=(
            Op("random-1200", ("stats", "--input", "random.csv", "--json"), _stats_identities(1200, 1200)),
            Op("cylinder-400", ("stats", "--input", "cylinder.csv", "--json"), _stats_identities(400, 400, 400)),
            Op(
                "orthogonal-400",
                ("stats", "--input", "orthogonal.csv", "--json"),
                _stats_identities(400, 400, 799),
            ),
        ),
    )


REDUCE_SIZE = 64


def reduce(index: int) -> Workload:
    inputs, ops = [], []
    for k in (2, 3):
        cfg, gamma = f"k{k}.csv", f"gamma-k{k}.csv"
        inputs.append(Input(cfg, _gen_random(REDUCE_SIZE, REDUCE_SIZE, k, 2000 + 10 * index + k)))
        ops.append(
            Op(
                f"k{k}-{REDUCE_SIZE}",
                ("reduce", "--input", cfg, "--output", gamma),
                _reduce_identities(cfg, REDUCE_SIZE, gamma),
                outputs=(gamma,),
            )
        )
    return Workload(inputs=tuple(inputs), ops=tuple(ops))


# (n, m, k) of the random verify inputs
VERIFY_SIZES = ((8, 8, 2), (10, 10, 3), (12, 12, 2), (14, 14, 3), (16, 16, 2), (20, 12, 3))
VERIFY_CYLINDER = 150


def verify(index: int) -> Workload:
    inputs, ops = [], []
    for j, (n, m, k) in enumerate(VERIFY_SIZES):
        name = f"random-{n}x{m}-k{k}"
        inputs.append(Input(name + ".csv", _gen_random(n, m, k, 3000 + 10 * index + j)))
        ops.append(Op(name, ("verify", "--input", name + ".csv"), _verify_identities(True)))
    size = str(VERIFY_CYLINDER)
    inputs.append(Input("cylinder.csv", ("--generator", "cylinder", "--n", size, "--m", size)))
    ops.append(Op(f"cylinder-{size}", ("verify", "--input", "cylinder.csv"), _verify_identities(False)))
    inputs.append(Input("radical-line.csv", text=RADICAL_LINE_CONFIG))
    ops.append(Op("radical-line", ("verify", "--input", "radical-line.csv"), _verify_identities(True)))
    return Workload(inputs=tuple(inputs), ops=tuple(ops))


SWEEP_LISTS = ("16,32,64", "16,32,64")


def sweep(index: int) -> Workload:
    n_list, m_list = SWEEP_LISTS
    rows = len(n_list.split(",")) * len(m_list.split(","))
    argv = ("sweep", "--n-list", n_list, "--m-list", m_list, "--seeds", str(index), "--output", "sweep.csv")
    return Workload(
        inputs=(),
        ops=(Op("grid", argv, _sweep_identities(rows, "sweep.csv"), outputs=("sweep.csv",)),),
    )


WORKLOADS = {"stats": stats, "reduce": reduce, "verify": verify, "sweep": sweep}
