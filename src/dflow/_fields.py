"""The one type rule for config values read from outside the program.

A dataclass field's annotation decides which values it takes: ``int`` only
an int (a bool is not a count), ``float`` a finite int or float (one that a
float64 holds), ``bool`` only a bool, ``str`` only a string, and
``X | None`` also ``None``. Other annotations are not checked.
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields

_KINDS = {"int": (int, "an integer"), "float": ((int, float), "a number"),
          "bool": (bool, "true or false"), "str": (str, "a string")}


def check_value(name, value, annotation):
    """ValueError unless ``value`` fits the type ``annotation`` names."""
    kind, *rest = [part.strip() for part in annotation.split("|")]
    if kind not in _KINDS or rest not in ([], ["None"]) or (value is None and rest):
        return
    want, words = _KINDS[kind]
    if not (isinstance(value, want) and isinstance(value, bool) == (kind == "bool")
            and (kind != "float" or abs(value) <= sys.float_info.max)):
        raise ValueError(f"{name} must be {words}, got {json.dumps(value, default=repr)}")


def check_fields(obj):
    """Apply :func:`check_value` to every field of the dataclass ``obj``."""
    for spec in fields(obj):
        check_value(spec.name, getattr(obj, spec.name), spec.type)
