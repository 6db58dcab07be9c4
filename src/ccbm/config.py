"""One config schema: a config object is a dataclass whose annotations give its fields'
types and whose setting() metadata gives their bounds. load() walks raw JSON into one,
check_fields() checks one built directly, and a mistake raises ConfigError naming the
field's dotted path and its value. Values are checked, not converted: 1 stays 1."""

from __future__ import annotations

import operator
import sys
from dataclasses import MISSING, field, fields, is_dataclass
from typing import Union, get_args, get_origin, get_type_hints

_NAMES = {int: "an integer", float: "a finite number", str: "a string", dict: "a JSON object"}
_SIGNS = {"least": (">=", operator.ge), "above": (">", operator.gt), "below": ("<", operator.lt)}


class ConfigError(ValueError):
    """A config the program cannot run; ccbm exits with code 2 on it."""


def setting(default=MISSING, *, kw_only=False, **bound):
    """A config field with its default and bound: least (>=), above (>) and
    below (<) for a number or each number of a list, choices, and nonempty."""
    return field(default=default, kw_only=kw_only, metadata=bound)


def _fits(hint, value, bound) -> bool:
    """Whether value has type hint and meets bound; a bool is no number."""
    if get_origin(hint) in (list, tuple):
        return (isinstance(value, (list, tuple)) and (bool(value) or not bound.get("nonempty"))
                and all(_fits(get_args(hint)[0], item, bound) for item in value))
    return (not isinstance(value, bool)
            and isinstance(value, (int, float) if hint is float else hint)
            and (hint is not float or abs(value) <= sys.float_info.max)
            and value in bound.get("choices", [value])
            and all(test(value, bound[key]) for key, (_, test) in _SIGNS.items() if key in bound))


def _describe(hint, bound) -> str:
    """What a value of type hint, not a union, must do to meet bound."""
    signs = " and ".join(f"{s} {bound[k]}" for k, (s, _) in _SIGNS.items() if k in bound)
    if "choices" in bound:
        return "be one of " + ", ".join(map(repr, bound["choices"]))
    if hint is float and signs == "> 0":
        return "be finite and positive"
    if get_origin(hint) in (list, tuple):
        item = _NAMES[get_args(hint)[0]].split(" ", 1)[1]
        return (f"list at least one {item} {signs}" if bound.get("nonempty")
                else f"be a list of {item}s {signs}").rstrip()
    return f"be {_NAMES[hint]} {signs}".rstrip()


def load(hint, value, path: str = "", bound=None):
    """value checked against type hint and bound, naming it path. A JSON object
    for a config dataclass is walked into it, or for a union of them into the
    one whose type field has the object's "type" among its choices."""
    options = get_args(hint) if get_origin(hint) is Union else (hint,)
    if not is_dataclass(options[0]):
        if not any(_fits(option, value, bound or {}) for option in options):
            # null, the default of an Optional field, goes unsaid
            must = " or ".join(_describe(o, bound or {}) for o in options if o is not type(None))
            raise ConfigError(f"{path} must {must}, got {value!r}")
        return value
    if not isinstance(value, dict):
        raise ConfigError(f"{path or 'config'} must be a JSON object, got {value!r}")
    cls = options[0]
    if len(options) > 1:
        kinds = {c: o for o in options for c in o.__dataclass_fields__["type"].metadata["choices"]}
        cls = kinds[load(str, value.get("type"), f"{path}.type", {"choices": list(kinds)})]
    table = {f.name: f for f in fields(cls) if f.init}
    for key in value:
        if key not in table:
            raise ConfigError(f"{path or 'config'} has an unknown field {key!r}; "
                              f"its fields are {', '.join(table)}")
    for key, f in table.items():
        if key not in value and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}.{key} is required".lstrip("."))
    hints = get_type_hints(cls)
    return cls(**{key: load(hints[key], item, f"{path}.{key}".lstrip("."), table[key].metadata)
                  for key, item in value.items()})


def check_fields(obj, path: str):
    """Check every field of obj, a config dataclass, naming it under path; its
    __post_init__ calls this, so one built directly is checked too."""
    hints = get_type_hints(type(obj))
    for f in fields(obj):
        load(hints[f.name], getattr(obj, f.name), f"{path}.{f.name}", f.metadata)
