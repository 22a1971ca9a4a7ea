"""The field check the config dataclasses share, and the JSON decoder.

``check_field_types`` tests every field of a config against its annotation,
so a field's type and range are stated once, where it is declared: a range
is a ``Bound`` in ``Annotated[X, Bound(...)]``. Each ``__post_init__`` keeps
only its cross-field rules. A bad value raises ``ValueError`` naming
``Class.field``, so that one given in Python fails where the config is
built, as one in a config document does; ``config_from_dict`` decodes one.
"""

import math
from dataclasses import fields, is_dataclass
from types import UnionType
from typing import Annotated, NamedTuple, get_args, get_origin

_COUNT_WORDS = {2: "two", 3: "three"}


class Bound(NamedTuple):
    """The range a number field, or each entry of a tuple field, lies in.

    ``low_open`` and ``high_open`` leave that end out of the range.
    """

    low: float = -math.inf
    high: float = math.inf
    low_open: bool = False
    high_open: bool = False

    def holds(self, x) -> bool:
        """Whether the number ``x`` lies in the range."""
        return ((self.low < x if self.low_open else self.low <= x)
                and (x < self.high if self.high_open else x <= self.high))

    def __str__(self) -> str:
        """The rule as messages state it: "> 0", ">= 1" or "in (0, 1]"."""
        if self.high == math.inf:
            return f"{'>' if self.low_open else '>='} {self.low:g}"
        return (f"in {'(' if self.low_open else '['}{self.low:g}, "
                f"{self.high:g}{')' if self.high_open else ']'}")


POSITIVE = Bound(0, low_open=True)
NON_NEGATIVE = Bound(0)
UNIT = Bound(0, 1)
POSITIVE_UNIT = Bound(0, 1, low_open=True)


def check_field_types(config) -> None:
    """Raise ``ValueError`` naming the field unless each field of the
    dataclass ``config`` holds a value of its annotation.

    ``int`` takes an int and ``float`` a finite float or any int; a bool is
    neither. ``bool`` and ``str`` take their own type, ``X | None`` takes
    None or an ``X``, and a config dataclass an instance of it.
    ``tuple[X, ...]`` takes a tuple of ``X``; a fixed-length tuple of
    numbers, such as ``tuple[float, float]``, takes a tuple of that length.
    A list is not a tuple. ``Annotated[X, Bound(...)]`` takes an ``X`` that
    lies in the bound, or whose entries do when ``X`` is a tuple; None
    passes the bound of an ``X | None``.
    """
    owner = type(config).__name__
    for f in fields(config):
        value = getattr(config, f.name)
        name = f"{owner}.{f.name}"
        annotation, bound, optional = _unwrap(f.type, name)
        if value is None and optional:
            continue
        _check(annotation, value, name, value, "")
        if bound is None:
            continue
        if isinstance(value, tuple):
            if not all(map(bound.holds, value)):
                raise ValueError(f"{name} entries must be {bound}, got {value!r}")
        elif not bound.holds(value):
            raise ValueError(f"{name} must be {bound}, got {value!r}")


def config_from_dict(cls, doc: dict):
    """Build the config dataclass ``cls`` from its JSON document ``doc``.

    Nested dataclasses, tuples and ``X | None`` fields are rebuilt from the
    field annotations. Fields missing from ``doc`` keep their defaults; an
    unknown key raises ``ValueError`` naming the class and the field, and
    so does a value of the wrong type or out of the field's range, which
    the dataclass refuses (see ``check_field_types``).
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {doc!r}")
    types_by_name = {f.name: f.type for f in fields(cls)}
    for key in doc:
        if key not in types_by_name:
            raise ValueError(f"{cls.__name__} has no field {key!r}")
    return cls(**{key: _from_json(types_by_name[key], value, f"{cls.__name__}.{key}")
                  for key, value in doc.items()})


def _from_json(annotation, value, name: str):
    """``value`` with an object for a dataclass field built into it and an
    array for a tuple field made a tuple; anything else is passed through
    for the dataclass to check."""
    annotation = _unwrap(annotation, name)[0]
    if is_dataclass(annotation) and isinstance(value, dict):
        return config_from_dict(annotation, value)
    if get_origin(annotation) is tuple and isinstance(value, (list, tuple)):
        # Every tuple field holds one element type: tuple[X, ...] or (X, X).
        element = get_args(annotation)[0]
        return tuple(_from_json(element, v, name) for v in value)
    return value


def _unwrap(annotation, name: str):
    """``(X, bound, optional)`` for the field ``name`` annotated ``X``,
    ``X | None`` (``optional``) or either in ``Annotated[..., bound]``;
    ``bound`` is None without one."""
    base, bound = annotation, None
    if get_origin(base) is Annotated:
        base, *marks = get_args(base)
        if len(marks) != 1 or not isinstance(marks[0], Bound):
            raise TypeError(f"{name} has the annotation {annotation!r}, which is not checked")
        (bound,) = marks
    optional = isinstance(base, UnionType)
    if optional:
        (base,) = (a for a in get_args(base) if a is not type(None))
    return base, bound, optional


def _check(annotation, value, name: str, whole, entries: str) -> None:
    """Check ``value`` against ``annotation``. ``whole`` is the field's
    value, which messages quote, and ``entries`` is " entries" when
    ``value`` is an entry of a tuple field."""
    if annotation is float:
        # Only a float goes to isfinite: an int such as 10**400 would overflow.
        if isinstance(value, bool) or not (
                isinstance(value, int) or isinstance(value, float) and math.isfinite(value)):
            raise ValueError(f"{name} must be a finite number, got {whole!r}")
    elif annotation in (int, bool, str) or is_dataclass(annotation):
        if not isinstance(value, annotation) or (
                isinstance(value, bool) and annotation is not bool):
            raise ValueError(f"{name}{entries} must be of type {annotation.__name__}, "
                             f"got {whole!r}")
    elif get_origin(annotation) is tuple:
        args = get_args(annotation)
        if isinstance(value, list):
            # A list where a tuple belongs is not a number, but saying so misleads.
            raise ValueError(f"{name} entries must be tuples, got {whole!r}" if entries
                             else f"{name} must be a tuple, got the list {value!r}")
        if args[-1] is Ellipsis:
            if not isinstance(value, tuple):
                raise ValueError(f"{name}{entries} must be a tuple, got {whole!r}")
            args = args[:1] * len(value)
        elif not (isinstance(value, tuple) and len(value) == len(args)):
            count = _COUNT_WORDS.get(len(args), len(args))
            raise ValueError(f"{name}{entries} must be {count} numbers, got {whole!r}")
        for element, entry in zip(args, value):
            _check(element, entry, name, whole, " entries")
    else:
        raise TypeError(f"{name} has the annotation {annotation!r}, which is not checked")
