"""Config trees: the range each field may take, and loading them from JSON.

A field declares its range next to its default with ``ranged(rule,
default)``; ``check`` holds every tree to those declarations, naming the
first bad field by its dotted path.
"""

from __future__ import annotations

import dataclasses
import math
import typing

# the ranges a field may declare, keyed by the words of their messages
RULES = {
    "at least 1": lambda v: v >= 1,
    "non-negative": lambda v: v >= 0,
    "finite and positive": lambda v: math.isfinite(v) and v > 0,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "None or finite and positive": lambda v: v is None or (math.isfinite(v) and v > 0),
}


def ranged(rule, default):
    """A dataclass field holding default whose values must satisfy RULES[rule]."""
    return dataclasses.field(default=default, metadata={"rule": rule})


def check(obj, path):
    """Raise ValueError naming the first field of the dataclass obj, or of a
    dataclass nested in it, that breaks its declared rule or is a
    non-finite float its rule lets through. A nested Config runs its own
    validate, cross-field checks included. path is obj's dotted name ("" for
    a root)."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        dotted = f"{path}.{f.name}" if path else f.name
        if isinstance(value, Config):
            value.validate(dotted)
        elif dataclasses.is_dataclass(value):
            check(value, dotted)
        elif "rule" in f.metadata and not RULES[f.metadata["rule"]](value):
            raise ValueError(f"{dotted} must be {f.metadata['rule']}, got {value}")
        elif isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{dotted} must be finite, got {value}")


class Config:
    """Base of a config tree, named ``tree`` in messages (set with a class
    keyword). The tree checks itself when built, and validate() checks it
    again: a field assigned after construction skips the first check."""

    tree = ""

    def __init_subclass__(cls, tree=None, **kwargs):
        super().__init_subclass__(**kwargs)
        if tree is not None:
            cls.tree = tree

    def __post_init__(self):
        self.validate()

    def validate(self, path=None):
        check(self, self.tree if path is None else path)


def _accepts(kind, value):
    """Whether a JSON scalar fits a field of type kind: an int fits a float
    field, and a bool fits only a bool field."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def from_dict(cls, data, path=""):
    """Build the dataclass ``cls`` from a dict, recursing into dataclass fields.

    Missing keys keep their defaults. An unknown key, a non-object where a
    nested config belongs, or a value of the wrong type raises ValueError
    naming its dotted path. Each tree checks itself when built, so with
    several bad fields the nested trees fail first, in the order the
    document gives them; a nested tree's name is its field's, so a range
    error still names its path from the root.
    """
    if not isinstance(data, dict):
        raise ValueError(f"config {path or 'root'} must be an object, "
                         f"got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        dotted = f"{path}.{key}" if path else key
        if key not in names:
            raise ValueError(f"unknown config key {dotted!r}")
        if dataclasses.is_dataclass(hints[key]):
            value = from_dict(hints[key], value, dotted)
        else:
            kinds = typing.get_args(hints[key]) or (hints[key],)  # X | None -> (X, NoneType)
            if not any(_accepts(kind, value) for kind in kinds):
                expected = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
                raise ValueError(f"config {dotted} must be {expected}, got {value!r}")
        kwargs[key] = value
    return cls(**kwargs)
