"""Exact identity checks, and deterministic experiment sweeps over (n, m, seed) grids.

CHECKS is the one ordered table of exact identities; verify prints it. The
checks look up what they call here, so patching `ddlab.sweep.<name>` reaches
them. Each sweep row generates one source, reads chain, q0-bound and
bijection's Q1 = I off the table, evaluates the float bounds and records the
observed-to-bound ratios. Energy metrics describe the generated source as-is;
the incidence columns are filled only when the source is a coordinate config
already satisfying the c = 1 conditions (the cylinder construction violates
them on purpose, so its incidence columns stay empty). A row whose generator
refuses it (a count below 1, a coord range below n + m, an exhausted draw
budget) carries the reason in its error cell instead; any other exception
escapes the row. Rows are ordered by (n, m, seed) and every cell is formatted
deterministically: the same spec writes byte-identical CSV on every run.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, islice, product
from typing import Iterator

from . import bounds
from .configs import gen_cylinder_extremal, gen_orthogonal_extremal, gen_random
from .energy import check_chain, distance_classes, energy, energy_report
from .errors import DdlabError, IntersectionCheckError, TooLargeError
from .exact import Config, Rational, Source, SqDistMatrix, validate_constraints
from .oracles import QUADRUPLE_GUARD, oracle_incidences, oracle_quadruples
from .records import frozen_record
from .reduction import _ordered_pairs, build_family, incidences, intersection_count

GENERATORS = ("random", "cylinder", "orthogonal")


def check_options(
    generator: str,
    *,
    k: int = 2,
    coord_range: int | None = None,
    offset: Rational | str | None = None,
    c: int | None = None,
) -> None:
    """Raise DdlabError for a k below 2 or an option the generator would ignore.

    A k other than 2, a coord range and a c shape only random configs, and
    an offset only the cylinder; None means the option was not given.
    """
    if k < 2:
        raise DdlabError(f"--k must be at least 2, got {k}")
    for option, given, owner in (
        ("--k other than 2", k != 2, "random"),
        ("--coord-range", coord_range is not None, "random"),
        ("--c", c is not None, "random"),
        ("--offset", offset is not None, "cylinder"),
    ):
        if given and generator != owner:
            raise DdlabError(f"{option} applies only to the {owner} generator, not {generator}")


def generate(
    generator: str,
    n: int,
    m: int,
    *,
    k: int,
    seed: int,
    coord_range: int | None,
    offset: Rational | str = 1,
) -> Config | SqDistMatrix:
    """One source from a named generator; random configs draw from 4(n + m) by default."""
    if generator == "random":
        rng_range = coord_range if coord_range is not None else 4 * (n + m)
        return gen_random(n=n, m=m, k=k, seed=seed, coord_range=rng_range)
    if generator == "cylinder":
        return gen_cylinder_extremal(n=n, m=m, h=offset)
    return gen_orthogonal_extremal(n=n, m=m)


def _once(compute):
    """A thunk for compute(): it runs once, and every call returns its result or raises again."""
    memo: list = []

    def get():
        if not memo:
            try:
                memo.append((compute(), None))
            except Exception as exc:
                memo.append((None, exc))
        if memo[0][1] is not None:
            raise memo[0][1]
        return memo[0][0]

    return get


class Facts:
    """The results that several checks of one source share, each computed at most once."""

    def __init__(self, src: Source) -> None:
        self.src = src
        # columns that repeat a value more than twice, which distances from a line never do
        self.crowded = _once(lambda: 0 if isinstance(src, Config) else sum(
            1 for col in zip(*src.scaled) if max(Counter(col).values()) > 2))
        self.report = _once(lambda: energy_report(src))
        self.reducible = _once(lambda: isinstance(src, Config) and src.m >= 2 and validate_constraints(src, c=1).ok)
        self.family = _once(lambda: build_family(src))
        self.join = _once(lambda: incidences(src.view, self.family()))
        self.per_curve = _once(lambda: oracle_incidences(src))


def _reduced(check):
    """check, run where the reduction applies; any other source SKIPs it."""

    def gated(facts: Facts) -> tuple[str, str]:
        if not facts.reducible():
            return "SKIP", "needs a coordinate config, m >= 2, valid at c = 1"
        return check(facts)

    return gated


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


def _constraints(facts: Facts) -> tuple[str, str]:
    src = facts.src
    if isinstance(src, Config):
        report = validate_constraints(src)
        if report.ok:
            return "PASS", f"multiplicities within c={src.c}"
        return "FAIL", f"{len(report.violations)} violation(s) at c={src.c}"
    if facts.crowded():
        return "FAIL", f"{facts.crowded()} column(s) repeat a value more than twice"
    return "PASS", "no column repeats a value more than twice"


def _class_grouping(facts: Facts) -> tuple[str, str]:
    if facts.report() == energy(facts.src):
        return "PASS", "streamed and materialized grouping agree"
    return "FAIL", "streamed and materialized grouping disagree"


def _energy_oracle(facts: Facts) -> tuple[str, str]:
    try:
        q, q0, q1 = oracle_quadruples(facts.src)
    except TooLargeError as exc:
        return "SKIP", str(exc)
    fast_q = (facts.report().energy, facts.report().energy_same_point, facts.report().energy_cross)
    return "PASS" if (q, q0, q1) == fast_q else "FAIL", f"oracle ({q}, {q0}, {q1}) vs fast {fast_q}"


def _chain(facts: Facts) -> tuple[str, str]:
    report = check_chain(facts.report())
    return "PASS" if report.ok else "FAIL", f"x*Q - (nm-x)^2 = {report.slack}, x<=nm/2: {report.x_le_half}"


def _q0_bound(facts: Facts) -> tuple[str, str]:
    if facts.crowded():
        return "SKIP", "a column repeats a value more than twice"
    q0, nm = facts.report().energy_same_point, facts.src.n * facts.src.m
    return "PASS" if q0 <= nm else "FAIL", f"Q0 = {q0} vs nm = {nm}"


def _family(facts: Facts) -> tuple[str, str]:
    # the per-sign totals are total // 2 because curve (i, j) and its mirror
    # (j, i), of opposite gamma, carry the same incidences: check every pair
    # row i holds curves (i, j), j != i; a 0 on the diagonal makes the rows square
    m = facts.src.m
    per, w = facts.join().per_curve, m - 1
    rows = [per[i * w:i * w + i] + (0,) + per[i * w + i:i * w + w] for i in range(m)]
    if rows == list(zip(*rows)):
        half = len(facts.family()) // 2
        return "PASS", f"{len(facts.family())} curves, sign split {half}/{half}"
    i, j = next((i, j) for i, j in _ordered_pairs(m) if rows[i][j] != rows[j][i])
    return "FAIL", f"curve {(i, j)} has {rows[i][j]} incidences, its mirror {(j, i)} has {rows[j][i]}"


def _incidence_modes(facts: Facts) -> tuple[str, str]:
    # the oracle evaluates every curve at every grid point on the input's own
    # rationals, not on the family it checks
    try:
        oracle = facts.per_curve()
    except TooLargeError:
        return "SKIP", f"n^2*curves = {facts.src.n ** 2 * len(facts.family())} too large"
    status = "PASS" if facts.join().per_curve == oracle else "FAIL"
    return status, f"hash {facts.join().total} vs naive {sum(oracle)}"


def _incidence_oracle(facts: Facts) -> tuple[str, str]:
    try:
        total = sum(facts.per_curve())
    except TooLargeError as exc:
        return "SKIP", str(exc)
    return "PASS" if total == facts.join().total else "FAIL", f"oracle {total} vs fast {facts.join().total}"


def _bijection_identity(facts: Facts) -> tuple[str, str]:
    q1, total = facts.report().energy_cross, facts.join().total
    return "PASS" if total == q1 else "FAIL", f"Q1 = {q1} vs incidences = {total}"


def _bijection(facts: Facts) -> tuple[str, str]:
    # below the guard, every cross quadruple's image must lie on its curve
    src = facts.src
    if src.n * src.m <= QUADRUPLE_GUARD:
        curves: dict = {}  # built as the images reach them
        for quad, (s, t), pair in _quadruple_images(src, distance_classes(src)):
            if pair not in curves:
                curves[pair] = facts.family().curve(*pair)
            if not curves[pair].contains(s, t):
                return "FAIL", f"quadruple {quad} maps to grid point ({s}, {t}) off curve {pair}"
    return _bijection_identity(facts)


def _intersections(facts: Facts) -> tuple[str, str]:
    pairs = list(combinations(islice(facts.family().iter_curves(), 40), 2))
    try:
        for h1, h2 in pairs:  # each call checks its points on both curves
            intersection_count(h1, h2)
    except IntersectionCheckError as exc:
        return "FAIL", str(exc)
    return "PASS", f"{len(pairs)} curve pairs, all meeting at most twice"


CHECKS = (
    ("constraints", _constraints),
    ("class-grouping", _class_grouping),
    ("energy-oracle", _energy_oracle),
    ("chain", _chain),
    ("q0-bound", _q0_bound),
    ("family", _reduced(_family)),
    ("incidence-modes", _reduced(_incidence_modes)),
    ("incidence-oracle", _reduced(_incidence_oracle)),
    ("bijection", _reduced(_bijection)),
    ("intersections", _reduced(_intersections)),
)


def verify_checks(src: Source) -> list[tuple[str, str, str]]:
    """Each check as (name, status, detail), status PASS/FAIL/SKIP/ERROR: one that raises, or
    needs a shared result that raised, reads ERROR with the exception; the later checks still run."""
    facts, results = Facts(src), []
    for name, check in CHECKS:
        try:
            status, detail = check(facts)
        except Exception as exc:  # a bug in this check or in what it needs
            status, detail = "ERROR", f"{type(exc).__name__}: {exc}"
        results.append((name, status, detail))
    return results


@frozen_record
class SweepSpec:
    n_list: tuple[int, ...]
    m_list: tuple[int, ...]
    seeds: tuple[int, ...]
    k: int = 2
    generator: str = "random"
    coord_range: int | None = None
    log_convention: str = "ln-clamped"

    def __post_init__(self) -> None:
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        check_options(self.generator, k=self.k, coord_range=self.coord_range)


@frozen_record
class SweepRow:
    n: int
    m: int
    k: int
    seed: int
    generator: str
    error: str = ""
    x: int | None = None
    Q: int | None = None
    Q0: int | None = None
    Q1: int | None = None
    I: int | None = None
    bound_min: float | None = None
    regime: str | None = None
    ratio_x_over_bound: float | None = None
    ratio_Q_over_expr: float | None = None
    chain_ok: bool | None = None
    q0_ok: bool | None = None
    bijection_ok: bool | None = None


CSV_COLUMNS = SweepRow.__match_args__
_VERDICT = {"PASS": True, "FAIL": False, "SKIP": None}


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def compute_row(spec: SweepSpec, n: int, m: int, seed: int) -> SweepRow:
    base = dict(n=n, m=m, k=spec.k, seed=seed, generator=spec.generator)
    try:
        src = generate(spec.generator, n, m, k=spec.k, seed=seed, coord_range=spec.coord_range)
    except DdlabError as exc:
        return SweepRow(error=str(exc), **base)
    facts = Facts(src)
    rep = facts.report()
    bijection_ok = _VERDICT[_reduced(_bijection_identity)(facts)[0]]
    bound = bounds.distinct_lower_bound(n, m, spec.log_convention)
    return SweepRow(
        x=rep.distinct_count, Q=rep.energy, Q0=rep.energy_same_point, Q1=rep.energy_cross,
        I=None if bijection_ok is None else facts.join().total,
        bound_min=bound.min_value, regime=bound.regime.value,
        ratio_x_over_bound=rep.distinct_count / bound.min_value,
        ratio_Q_over_expr=rep.energy / bounds.energy_upper_expr(n, m, spec.log_convention),
        chain_ok=_VERDICT[_chain(facts)[0]], q0_ok=_VERDICT[_q0_bound(facts)[0]], bijection_ok=bijection_ok, **base,
    )


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    tasks = sorted(product(spec.n_list, spec.m_list, spec.seeds))
    return [compute_row(spec, n, m, seed) for n, m, seed in tasks]


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_cell(getattr(row, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"
