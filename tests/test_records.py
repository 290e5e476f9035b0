"""Frozen records behave like the frozen dataclasses they replaced.

Every record class exported by ddlab is compared with a stdlib
dataclasses.make_dataclass(..., frozen=True) twin built from its
__match_args__, its defaults and its __post_init__: same repr text, same
== and hash, the same errors on assignment and on bad arguments.
"""

from __future__ import annotations

import dataclasses
import typing
from fractions import Fraction

import pytest

import ddlab
from ddlab import (
    CSV_COLUMNS,
    Config,
    DegenerateHyperbolaError,
    Hyperbola,
    Point,
    SqDistMatrix,
    SweepRow,
    SweepSpec,
    build_family,
    check_chain,
    compute_row,
    distance_classes,
    distinct_lower_bound,
    energy_report,
    gen_cylinder_extremal,
    incidences,
    intersection_count,
    prune_general,
    validate_constraints,
)
from ddlab.records import FrozenRecordError, frozen_record
from conftest import RADICAL_LINE

RECORD_NAMES = {
    "BoundReport", "ChainReport", "Config", "DistanceClasses", "EnergyReport",
    "Hyperbola", "HyperbolaFamily", "IncidenceReport", "IntersectionResult",
    "Point", "PrunedConfig", "SqDistMatrix", "SweepRow", "SweepSpec",
    "ValidationReport", "Violation",
}


def _samples() -> dict[str, object]:
    """One instance of every exported record class, made by the library itself."""
    cfg = RADICAL_LINE
    family = build_family(cfg)
    energy = energy_report(cfg)
    spec = SweepSpec(n_list=(4,), m_list=(3,), seeds=(1,))
    found = {
        "Config": cfg,
        "Point": cfg.p2_points[1],
        "HyperbolaFamily": family,
        "Hyperbola": family.curves[1],
        "IncidenceReport": incidences(cfg.view, family),
        "IntersectionResult": intersection_count(family.curves[0], family.curves[1]),
        "DistanceClasses": distance_classes(cfg),
        "EnergyReport": energy,
        "ChainReport": check_chain(energy),
        "BoundReport": distinct_lower_bound(100, 5),
        "ValidationReport": validate_constraints(gen_cylinder_extremal(2, 3), c=1),
        "PrunedConfig": prune_general(cfg),
        "SqDistMatrix": SqDistMatrix.from_config(cfg),
        "SweepSpec": spec,
        "SweepRow": compute_row(spec, 4, 3, 1),
    }
    found["Violation"] = found["ValidationReport"].violations[0]
    return found


SAMPLES = _samples()


def _twin(cls: type) -> type:
    """A stdlib frozen dataclass with the fields, defaults and __post_init__ of cls."""
    spec = []
    for name in cls.__match_args__:
        if name in vars(cls):
            spec.append((name, typing.Any, dataclasses.field(default=vars(cls)[name])))
        else:
            spec.append((name, typing.Any))
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, namespace=namespace)


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__match_args__)


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:  # DistanceClasses holds a dict
        return type(exc)


def test_every_exported_record_is_sampled():
    exported = {
        name for name in ddlab.__all__
        if isinstance(getattr(ddlab, name), type) and "__match_args__" in vars(getattr(ddlab, name))
    }
    assert exported == RECORD_NAMES == set(SAMPLES)
    assert all(type(SAMPLES[name]).__name__ == name for name in RECORD_NAMES)


@pytest.mark.parametrize("name", sorted(RECORD_NAMES))
def test_record_matches_its_dataclass_twin(name):
    record = SAMPLES[name]
    cls = type(record)
    twin_cls = _twin(cls)
    args = _fields(record)
    twin = twin_cls(*args)
    assert tuple(f.name for f in dataclasses.fields(twin_cls)) == cls.__match_args__
    assert repr(record) == repr(twin)
    assert _hash_or_error(record) == _hash_or_error(twin)
    assert _fields(twin) == args

    by_position = cls(*args)
    by_keyword = cls(**dict(zip(cls.__match_args__, args)))
    for copy in (by_position, by_keyword):
        assert copy == record and not copy != record
        assert _hash_or_error(copy) == _hash_or_error(record)
        assert repr(copy) == repr(record)
    assert record != twin and twin != record  # another class: NotImplemented both ways
    assert record.__eq__(twin) is NotImplemented


@pytest.mark.parametrize("name", sorted(RECORD_NAMES))
def test_record_is_frozen(name):
    record = SAMPLES[name]
    field = type(record).__match_args__[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, before)
    with pytest.raises(FrozenRecordError):
        setattr(record, "extra", 1)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", sorted(RECORD_NAMES))
def test_bad_arguments_raise_type_error(name):
    cls = type(SAMPLES[name])
    twin_cls = _twin(cls)
    args = _fields(SAMPLES[name])
    calls = [
        ((), {}),  # every record has a field without a default
        (args, {"no_such_field": 1}),
        ((*args, None), {}),  # one positional too many
        (args[:1], {cls.__match_args__[0]: args[0]}),  # the first field twice
    ]
    for call_args, call_kwargs in calls:
        for make in (cls, twin_cls):
            with pytest.raises(TypeError):
                make(*call_args, **call_kwargs)


def test_defaults_fill_trailing_fields():
    spec = SweepSpec((1,), (2,), (3,))
    assert spec == SweepSpec(n_list=(1,), m_list=(2,), seeds=(3,), k=2, generator="random")
    assert spec.coord_range is None and spec.log_convention == "ln-clamped"
    row = SweepRow(1, 2, 2, 3, "random", error="e")
    assert row.x is None and row.bijection_ok is None
    with pytest.raises(TypeError, match="missing required argument"):
        SweepRow(1, 2, 2, generator="random")


@pytest.mark.parametrize("name", ["Config", "Hyperbola", "Point", "SqDistMatrix", "SweepSpec"])
def test_post_init_runs_for_positional_and_keyword_calls(name, monkeypatch):
    cls = type(SAMPLES[name])
    args = _fields(SAMPLES[name])
    original = cls.__post_init__
    calls = []

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(cls, "__post_init__", counting)
    cls(*args)
    cls(**dict(zip(cls.__match_args__, args)))
    assert len(calls) == 2


def test_post_init_normalizes_and_validates_either_way():
    assert Point((1, "1/2")) == Point(coords=(1, "1/2")) == Point.of(1, "1/2")
    assert all(type(v) is Fraction for v in Point(coords=(1, 2)).coords)
    for make in (lambda: Point((1,)), lambda: Point(coords=(1,))):
        with pytest.raises(ValueError):
            make()
    for make in (lambda: Hyperbola(0, 0, 0, (0, 1)), lambda: Hyperbola(alpha=0, beta=0, gamma=0, src=(0, 1))):
        with pytest.raises(DegenerateHyperbolaError):
            make()
    with pytest.raises(ValueError, match="unknown generator"):
        SweepSpec(n_list=(1,), m_list=(1,), seeds=(1,), generator="nope")
    mat = SqDistMatrix(1, 2, 4, ((2, 6),))
    assert (mat.scale, mat.scaled) == (2, ((1, 3),))


def test_cached_properties_do_not_change_equality():
    k, c, params, points = RADICAL_LINE.k, RADICAL_LINE.c, RADICAL_LINE.p1_params, RADICAL_LINE.p2_points
    cfg, fresh_cfg = Config(k, c, params, points), Config(k, c, params, points)
    text = repr(cfg)
    assert cfg.view and "view" in vars(cfg)
    assert cfg == fresh_cfg and hash(cfg) == hash(fresh_cfg) and repr(cfg) == text

    family, fresh_family = build_family(RADICAL_LINE), build_family(RADICAL_LINE)
    text = repr(family)
    assert family.curves and "curves" in vars(family)
    assert family == fresh_family and hash(family) == hash(fresh_family) and repr(family) == text


def test_match_args_and_csv_columns():
    match Point.of(1, 2):
        case Point(coords):
            assert coords == (1, 2)
    assert CSV_COLUMNS == SweepRow.__match_args__
    assert CSV_COLUMNS[:6] == ("n", "m", "k", "seed", "generator", "error")


def test_equality_reads_the_fields():
    assert Point.of(1, 2) == Point.of(1, 2) and Point.of(1, 2) != Point.of(1, 3)
    assert hash(Point.of(1, 2)) == hash((Point.of(1, 2).coords,))
    assert len({Config.of(2, 1, [0], [(0, 1)]), Config.of(2, 1, [0], [(0, 1)])}) == 1


def test_decorator_on_a_plain_class():
    @frozen_record
    class Pair:
        left: int
        right: str = "r"

    assert repr(Pair(1)) == "test_decorator_on_a_plain_class.<locals>.Pair(left=1, right='r')"
    assert Pair(1) == Pair(left=1, right="r") != Pair(2)
    assert Pair.__match_args__ == ("left", "right")
    with pytest.raises(TypeError, match="got multiple values for argument 'left'"):
        Pair(1, left=2)
    with pytest.raises(TypeError, match="unexpected keyword argument 'middle'"):
        Pair(1, middle=2)
    with pytest.raises(TypeError, match="takes 2 arguments but 3 were given"):
        Pair(1, "a", "b")
