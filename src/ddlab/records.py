"""Frozen records: the package's small immutable value classes.

frozen_record turns a class with annotated fields into a frozen value
type with the behaviour of @dataclass(frozen=True): an __init__ taking the
fields in order (class attributes are the defaults), a call to
__post_init__ when the class has one, field-wise == and hash, the same
repr text, __match_args__, and assignment or deletion raising
FrozenRecordError. Its methods are plain closures, so decorating a class
costs microseconds where dataclasses' generated code costs milliseconds,
and importing this module pulls in neither dataclasses nor inspect.

Records keep an instance __dict__, so object.__setattr__ in __post_init__
and functools.cached_property work; ==, hash and repr read only the fields.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenRecordError(AttributeError):
    """An assignment to, or deletion of, an attribute of a frozen record."""


def frozen_record(cls: type) -> type:
    """Make cls a frozen record of its annotated fields, in order."""
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    count = len(names)
    indexed = tuple(enumerate(names))  # a zip() per call would cost more than a one-field loop
    post_init = hasattr(cls, "__post_init__")
    set_field = object.__setattr__
    if count == 1:
        only = attrgetter(names[0])
        values = lambda self: (only(self),)  # noqa: E731
    else:
        values = attrgetter(*names)

    def bind(args: tuple, kwargs: dict) -> list:
        """The field values of a call that is not exactly one positional per field."""
        if len(args) > count:
            raise TypeError(f"{cls.__qualname__}() takes {count} arguments but {len(args)} were given")
        for name in names[: len(args)]:
            if name in kwargs:
                raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
        bound = list(args)
        missing = []
        for name in names[len(args):]:
            if name in kwargs:
                bound.append(kwargs.pop(name))
            elif name in defaults:
                bound.append(defaults[name])
            else:
                missing.append(repr(name))
        if kwargs:
            raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {next(iter(kwargs))!r}")
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing required argument(s): {', '.join(missing)}")
        return bound

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        for index, name in indexed:
            set_field(self, name, args[index])
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls
