"""The one type rule every config read from outside follows."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import pytest

from dflow._fields import check_fields, check_value


@pytest.mark.parametrize("annotation, value", [
    ("int", 3), ("int", -1), ("float", 0.5), ("float", 2), ("float", -1e308),
    ("bool", True), ("bool", False), ("str", ""), ("str | None", None),
    ("float | None", None), ("float | None", 1.5), ("dict", "anything"), ("object", None),
])
def test_accepted(annotation, value):
    check_value("x", value, annotation)


@pytest.mark.parametrize("annotation, value, message", [
    ("int", True, "x must be an integer, got true"),
    ("int", 2.0, "x must be an integer, got 2.0"),
    ("int", "4", 'x must be an integer, got "4"'),
    ("int", None, "x must be an integer, got null"),
    ("float", False, "x must be a number, got false"),
    ("float", math.nan, "x must be a number, got NaN"),
    ("float", -math.inf, "x must be a number, got -Infinity"),
    ("float", 10 ** 400, "x must be a number, got 1000"),
    ("float", [], "x must be a number, got []"),
    ("bool", 1, "x must be true or false, got 1"),
    ("str", {}, "x must be a string, got {}"),
    ("str | None", 5, "x must be a string, got 5"),
])
def test_rejected_with_one_wording(annotation, value, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        check_value("x", value, annotation)


def test_every_field_is_checked_by_its_annotation():
    @dataclass
    class Config:
        count: int
        rate: float | None = None

    check_fields(Config(2, None))
    with pytest.raises(ValueError, match="rate must be a number, got NaN"):
        check_fields(Config(2, math.nan))
