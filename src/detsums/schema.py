"""Field tables for the sections of an experiment config.

A config dataclass declares each field once, with ``json_field``: the
attribute, its JSON key, its JSON kind and its default.  ``JsonFields`` reads
those declarations both ways.  ``to_dict`` writes every field under its key.
``from_dict`` rejects a key the section does not declare, requires every
field without a default, and checks the kind of every value: a boolean is no
number, a number is finite, and null passes only where the default is None.
No value is coerced, so ``to_dict`` gives back, key for key and type for
type, the JSON that ``from_dict`` read.  Range checks stay in each ``__post_init__``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, NamedTuple


class Kind(NamedTuple):
    """A JSON kind: its name in messages, the check of a JSON value, the
    reading of a checked value into an attribute (given the field's path, for
    nested sections) and the writing of an attribute back to JSON."""

    name: str
    check: Callable
    read: Callable = lambda value, path: value
    write: Callable = lambda value: value


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite number: Python's ``json`` reads ``NaN`` and ``Infinity``, and
    ``math.isfinite`` overflows on an integer beyond the float range."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _list_of(test):
    return lambda value: isinstance(value, list) and all(map(test, value))


def _integer_key(key) -> bool:
    """Whether ``key`` is an integer as ``str`` writes it."""
    return (isinstance(key, str) and key.removeprefix("-").isdecimal()
            and str(int(key)) == key)


STRING = Kind("a string", lambda v: isinstance(v, str))
BOOLEAN = Kind("a boolean", lambda v: isinstance(v, bool))
INTEGER = Kind("an integer", _is_integer)
NUMBER = Kind("a number", _is_number)
NUMBERS = Kind("a list of numbers", _list_of(_is_number), lambda v, path: tuple(v), list)
INTEGERS = Kind("a list of integers", _list_of(_is_integer), lambda v, path: tuple(v), list)
OBJECT = Kind("an object", lambda v: isinstance(v, dict), lambda v, path: dict(v), dict)
# Read with integer keys, written in key order.
NUMBER_TABLE = Kind(
    "an object of numbers keyed by integers",
    lambda v: isinstance(v, dict) and all(_integer_key(k) and _is_number(x)
                                          for k, x in v.items()),
    lambda v, path: {int(k): x for k, x in v.items()},
    lambda table: {str(k): x for k, x in sorted(table.items())})


def section(cls) -> Kind:
    """A nested section of the config class ``cls``."""
    return OBJECT._replace(read=cls.from_dict, write=cls.to_dict)


def sections(cls) -> Kind:
    """A list of sections of ``cls``; the j-th one's path is ``path[j]``."""
    return Kind("a list of objects", _list_of(OBJECT.check),
                lambda v, path: tuple(cls.from_dict(doc, f"{path}[{j}]")
                                      for j, doc in enumerate(v)),
                lambda v: [cls.to_dict(job) for job in v])


def json_field(key: str, kind: Kind, **options):
    """A dataclass field stored under the JSON ``key`` as ``kind``; a
    ``default``, ``default_factory`` or ``kw_only`` goes to
    ``dataclasses.field``."""
    return dataclasses.field(metadata={"key": key, "kind": kind}, **options)


class JsonFields:
    """``to_dict`` and ``from_dict`` of a dataclass whose every field is a
    ``json_field``."""

    def to_dict(self) -> dict:
        return {f.metadata["key"]: None if (value := getattr(self, f.name)) is None
                else f.metadata["kind"].write(value) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, doc: dict, path: str = ""):
        """Read the section at ``path`` (empty for the whole config); an
        unknown or missing key, or a value of the wrong JSON kind, is a
        ValueError naming it."""
        where = f" section {path!r}" if path else ""
        if not isinstance(doc, dict):
            raise ValueError(f"experiment config{where} must be an object, got {doc!r}")
        table = {f.metadata["key"]: f for f in dataclasses.fields(cls)}
        unknown = [key for key in doc if key not in table]
        if unknown:
            raise ValueError(f"experiment config{where} has the unknown key {unknown[0]!r}")
        values = {}
        for key, f in table.items():
            if key not in doc:
                if f.default is f.default_factory is dataclasses.MISSING:
                    raise ValueError(f"experiment config{where} lacks the key {key!r}")
            elif doc[key] is None and f.default is None:
                values[f.name] = None
            elif not (kind := f.metadata["kind"]).check(doc[key]):
                # A list's message leads with its key, as the sums' radius checks do.
                lead = (f"{key} must be {kind.name} in an experiment config"
                        if kind.name.startswith("a list") else
                        f"experiment config field {key!r} must be {kind.name}")
                raise ValueError(f"{lead}, got {doc[key]!r}")
            else:
                values[f.name] = kind.read(doc[key], f"{path}.{key}" if path else key)
        return cls(**values)
