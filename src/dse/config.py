"""Typed text values for config dataclass fields.

The config dataclasses are the only schema. One parser turns the text form
of a field (a command-line flag, a ``key=value`` config-file line, or a
checkpoint header line) into the type the field declares, as
``typing.get_type_hints`` reports it.
"""

from __future__ import annotations

from enum import Enum


def parse_value(key: str, typ: type, raw: str) -> object:
    """Parse the text ``raw`` of field ``key`` as ``typ`` (bool, int, float, str or an Enum)."""
    if typ is bool:
        if raw.lower() in ("1", "true", "yes"):
            return True
        if raw.lower() in ("0", "false", "no"):
            return False
        expected = "a boolean"
    elif issubclass(typ, Enum):
        for member in typ:
            if member.value == raw:
                return member
        expected = "one of " + ", ".join(m.value for m in typ)
    else:
        try:
            return typ(raw)
        except ValueError:
            expected = typ.__name__
    raise ValueError(f"field {key!r}: expected {expected}, got {raw!r}")
