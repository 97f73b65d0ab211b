"""Loading nested config dataclasses from their JSON form."""

from __future__ import annotations

import dataclasses
import typing


def from_dict(cls, data, path=""):
    """Build the dataclass ``cls`` from a dict, recursing into dataclass fields.

    Missing keys keep their defaults. An unknown key, or a non-object where
    a nested config belongs, raises ValueError naming its dotted path.
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
        kwargs[key] = value
    return cls(**kwargs)
