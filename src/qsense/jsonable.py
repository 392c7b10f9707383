"""Dataclass -> JSON-ready dict conversion shared by every report type."""

from __future__ import annotations

from dataclasses import fields

import numpy as np


def jsonable(value):
    """Arrays become nested lists, numpy scalars Python scalars, and objects
    with a ``to_json_dict`` their dict; containers are converted entrywise."""
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


class JsonFields:
    """Mixin for dataclasses: ``to_json_dict`` over the fields shown in repr.

    A field declared with ``repr=False`` is a bulky or derived payload and is
    left out of the dict.
    """

    def to_json_dict(self):
        return {f.name: jsonable(getattr(self, f.name))
                for f in fields(self) if f.repr}
