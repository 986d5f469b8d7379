"""Scalar handling.

All computations run over exact rationals (`fractions.Fraction`) by default.
An optional float mode exists for large demos; wherever the library checks an
identity it funnels the comparison through :func:`scalar_eq` so a tolerance
can be applied uniformly.  Serialized scalars are canonical ``"p/q"`` strings
in exact mode.

On the hot paths exact values are not carried as ``Fraction`` objects: a
table (:class:`colocal.tables.FnTable`) or a measure's weights travel as
Python-int numerators over one common denominator (:func:`numerators`), so
that sums, differences and comparisons run on ints.  ``Fraction`` values are
made only at the API and JSON boundary (:func:`from_numerators`).  Float
mode runs the same code on floats over the denominator 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, float]

#: tolerance used for equality checks in float mode
FLOAT_TOLERANCE = 1e-9


def parse_scalar(text, mode: str = "exact") -> Scalar:
    """Parse ``"p/q"``, ``"p"``, or a JSON number into a scalar."""
    if isinstance(text, str):
        value = Fraction(text)
    elif isinstance(text, (int, Fraction)):
        value = Fraction(text)
    elif isinstance(text, float):
        if mode != "float":
            raise ValueError(f"float literal {text!r} not allowed in exact mode")
        return text
    else:
        raise ValueError(f"cannot parse scalar from {text!r}")
    return float(value) if mode == "float" else value


def format_scalar(x: Scalar) -> Union[str, float]:
    """Canonical serialization: ``"p/q"`` for rationals, plain float otherwise."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return f"{x}/1"
    return float(x)


def scalar_eq(a: Scalar, b: Scalar, tol: float | None = None) -> bool:
    if tol is None:
        return a == b
    return abs(float(a) - float(b)) <= tol


def scalar_is_zero(x: Scalar, tol: float | None = None) -> bool:
    return scalar_eq(x, 0, tol)


def numerators(values, exact: bool) -> tuple[list, int]:
    """Values as Python-int numerators over their least common denominator,
    so that sums, differences and comparisons run on ints; with
    ``exact=False`` floats over the denominator 1."""
    if not exact:
        return [float(v) for v in values], 1
    den = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (den // v.denominator) for v in values], den


def from_numerators(nums, den: int, exact: bool) -> tuple[Scalar, ...]:
    """Inverse of :func:`numerators`; equal numerators share one
    ``Fraction``, and float mode yields floats only (no exact zero)."""
    if not exact:
        return tuple(map(float, nums))
    fractions = {x: Fraction(x, den) for x in set(nums)}
    return tuple(map(fractions.__getitem__, nums))
