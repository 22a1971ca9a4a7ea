"""Field checks the config dataclasses share.

Each raises ``ValueError`` naming ``Class.field``, so that a bad value given
in Python fails where the config is built, as a bad config document does.
"""

import math
from dataclasses import fields
from typing import get_args, get_origin


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    if isinstance(value, tuple):
        return all(_is_finite(v) for v in value)
    if value is None or _is_int(value):
        return True
    if isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except TypeError:
        return False


def _is_tuple_field(config, name: str) -> bool:
    """Whether ``config``'s field ``name`` is annotated as a tuple or an
    optional tuple."""
    (annotation,) = (f.type for f in fields(config) if f.name == name)
    return any(get_origin(a) is tuple for a in (annotation, *get_args(annotation)))


def require_int_fields(config, *names: str) -> None:
    """Raise ``ValueError`` naming the field unless each of ``config``'s
    fields ``names`` holds an int; a bool is not one."""
    for name in names:
        value = getattr(config, name)
        if not _is_int(value):
            raise ValueError(f"{type(config).__name__}.{name} must be of type int, "
                             f"got {value!r}")


def require_int_entries(config, *names: str) -> None:
    """Raise ``ValueError`` naming the field unless every entry of each of
    ``config``'s tuple fields ``names`` is an int; a bool is not one."""
    for name in names:
        value = getattr(config, name)
        if not all(_is_int(v) for v in value):
            raise ValueError(f"{type(config).__name__}.{name} entries must be of type "
                             f"int, got {value!r}")


def require_finite_fields(config, *names: str) -> None:
    """Raise ``ValueError`` naming the field unless each of ``config``'s
    fields ``names`` holds a finite number; a bool is not one. None (an
    optional field left unset) passes, and a tuple field's entries are
    checked one by one. A list given for a tuple field, or for an entry of
    one, is reported as not a tuple."""
    for name in names:
        value = getattr(config, name)
        if _is_finite(value):
            continue
        field_name = f"{type(config).__name__}.{name}"
        if _is_tuple_field(config, name):
            # A list where a tuple belongs is not a number, but saying so misleads.
            if isinstance(value, list):
                raise ValueError(f"{field_name} must be a tuple, got the list {value!r}")
            if isinstance(value, tuple) and any(isinstance(v, list) for v in value):
                raise ValueError(f"{field_name} entries must be tuples, got {value!r}")
        raise ValueError(f"{field_name} must be a finite number, got {value!r}")
