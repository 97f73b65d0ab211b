"""Loading nested config dataclasses from their JSON form."""

from __future__ import annotations

import dataclasses
import typing


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
    naming its dotted path.
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
