"""Deterministic experiment sweeps over (n, m, seed) grids.

Each row generates one source, runs the exact identities on it, evaluates
the float bounds and records the observed-to-bound ratios. Energy metrics
describe the generated source as-is; the incidence columns are filled only
when the source is a coordinate config already satisfying the c = 1
conditions (the cylinder construction violates them on purpose, so its
incidence columns stay empty). A row whose generator refuses it (a count
below 1, a coord range below n + m, an exhausted draw budget) carries the
reason in its error cell instead. Rows are ordered by (n, m, seed) and every
cell is formatted deterministically: the same spec writes byte-identical
CSV on every run.
"""

from __future__ import annotations

from itertools import product

from . import bounds
from .configs import gen_cylinder_extremal, gen_orthogonal_extremal, gen_random
from .energy import check_chain, energy_report
from .errors import DdlabError
from .exact import Config, Rational, SqDistMatrix, validate_constraints
from .records import frozen_record
from .reduction import build_family, incidences

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
    rep = energy_report(src)
    q0_ok = rep.energy_same_point <= n * m
    inc_total: int | None = None
    bijection_ok: bool | None = None
    if isinstance(src, Config) and m >= 2 and validate_constraints(src, c=1).ok:
        family = build_family(src)
        inc_total = incidences(src.view, family).total
        bijection_ok = inc_total == rep.energy_cross
    bound = bounds.distinct_lower_bound(n, m, spec.log_convention)
    expr = bounds.energy_upper_expr(n, m, spec.log_convention)
    return SweepRow(
        x=rep.distinct_count,
        Q=rep.energy,
        Q0=rep.energy_same_point,
        Q1=rep.energy_cross,
        I=inc_total,
        bound_min=bound.min_value,
        regime=bound.regime.value,
        ratio_x_over_bound=rep.distinct_count / bound.min_value,
        ratio_Q_over_expr=rep.energy / expr,
        chain_ok=check_chain(rep).ok,
        q0_ok=q0_ok,
        bijection_ok=bijection_ok,
        **base,
    )


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    tasks = sorted(product(spec.n_list, spec.m_list, spec.seeds))
    return [compute_row(spec, n, m, seed) for n, m, seed in tasks]


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_cell(getattr(row, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"
