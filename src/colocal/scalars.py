"""Scalar handling.

Every computation runs over exact rationals.  On the hot paths values are
not carried as ``Fraction`` objects: a table (:class:`colocal.tables.FnTable`)
or a measure's weights travel as Python-int numerators over one common
denominator (:func:`numerators`), so that sums, differences and comparisons
run on ints.  ``Fraction`` values are made only at the API boundary
(:func:`from_numerators`) and for the JSON scalars outside tables: measure
weights, which every operation reads as int numerators
(:func:`colocal.measure.weight_table`), and cocycle coefficients.  Tables
cross the JSON boundary as numerators: :func:`parse_numerators` reads each
distinct serialized entry once and maps every entry to its numerator, and
:func:`format_numerators` writes one string (or float) per distinct
numerator; :func:`numerator_text` keeps those texts across the tables of
one report that share a denominator.

Floats are an input and output format only.  A float given to a public
constructor, or read from JSON in float mode, is read once by
:func:`exact_scalars` as the simplest rational that rounds to it; float
mode writes ``float()`` of each exact result.  Serialized scalars are
canonical ``"p/q"`` strings in exact mode.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Fraction

#: how far from 1 the weights of a float-mode measure may sum before they
#: are rejected rather than normalised (see ``jsonio``)
FLOAT_TOLERANCE = 1e-9


def exact_scalars(values) -> tuple:
    """The scalars ``values`` with every float replaced by the simplest
    rational that rounds to it: the rational of least denominator in the
    interval of reals that round to the float, so that ``0.6`` reads as
    ``3/5`` and ``float()`` of the result gives the float back.  Other
    values are kept as they are; NaN and infinities raise ValueError."""
    values = tuple(values)
    if not any(isinstance(x, float) for x in values):
        return values
    return tuple(_simplest_rounding_to(x) if isinstance(x, float) else x
                 for x in values)


def _simplest_rounding_to(x: float) -> Fraction:
    """Walk the Stern-Brocot path to the binary value of x, one run (one
    continued-fraction term) at a time: its first node that rounds to x
    is the simplest rational in the interval.  Within a run the nodes
    approach the value from one side, so the first one that rounds to x
    is found by bisection."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {x!r}")
    if x <= 0:
        return -_simplest_rounding_to(-x) if x else Fraction(0)
    n, d = x.as_integer_ratio()
    # the run's nodes are (p0 + j p1) / (q0 + j q1) for j = 1..a
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a, rest = divmod(n, d)
        if (p0 + a * p1) / (q0 + a * q1) == x:   # int division rounds once
            lo, hi = 1, a
            while lo < hi:
                mid = (lo + hi) // 2
                if (p0 + mid * p1) / (q0 + mid * q1) == x:
                    hi = mid
                else:
                    lo = mid + 1
            return Fraction(p0 + lo * p1, q0 + lo * q1)
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        n, d = d, rest


def parse_scalar(text, mode: str = "exact") -> Fraction:
    """Parse ``"p/q"``, ``"p"`` or a JSON number into a Fraction; a JSON
    float is allowed in float mode only, read by :func:`exact_scalars`."""
    if isinstance(text, str):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    if mode != "float" and not isinstance(text, int):
        raise ValueError(f"{text!r} is not an exact scalar; use \"p/q\"")
    return Fraction(*exact_scalars((text,)))


def parse_numerators(raw, mode: str = "exact") -> tuple[list, int]:
    """Parse a sequence of serialized scalars straight into
    :func:`numerators`: each distinct entry is read once by
    :func:`parse_scalar` (so the syntax accepted and the errors raised are
    its own), and every entry then maps to its numerator over the least
    common denominator."""
    # an entry that is not a string is keyed with its type, so that 1, 1.0
    # and True are read apart
    keys = [x if x.__class__ is str else (x.__class__, x) for x in raw]
    try:
        distinct = dict(zip(keys, raw))   # in order of first occurrence
    except TypeError:   # an unhashable entry: raise the first entry's error
        for text in raw:
            parse_scalar(text, mode)
        raise
    nums, den = numerators([parse_scalar(text, mode)
                            for text in distinct.values()])
    if len(distinct) < len(keys):   # else nums is in entry order already
        nums = list(map(dict(zip(distinct, nums)).__getitem__, keys))
    return nums, den


def format_numerators(nums, den: int, mode: str = "exact") -> list:
    """:func:`format_scalar` of every value ``x / den`` (``den`` > 0), made
    once per distinct numerator without a Fraction: ``"p/q"`` in lowest
    terms, or in float mode the correctly rounded ``x / den``, the same
    float as ``float(Fraction(x, den))``."""
    return list(map(_texts(set(nums), den, mode).__getitem__, nums))


def numerator_text(den: int, mode: str = "exact"):
    """The function that maps a list of numerators over ``den`` (> 0) to
    their texts as :func:`format_numerators` does.  It keeps every text it
    makes, so that a numerator met again, in this list or a later one, is
    formatted once."""
    text = {}

    def texts(nums) -> list:
        text.update(_texts(set(nums).difference(text), den, mode))
        return list(map(text.__getitem__, nums))

    return texts


def _texts(distinct, den: int, mode: str) -> dict:
    """numerator -> :func:`format_scalar` of ``x / den``, for each ``x`` of
    ``distinct``."""
    if mode == "float":
        return {x: x / den for x in distinct}
    text = {}
    for x in distinct:
        g = math.gcd(x, den)
        text[x] = f"{x // g}/{den // g}"
    return text


def format_scalar(x, mode: str = "exact") -> Union[str, float]:
    """Canonical serialization of an exact scalar (a Fraction or an int):
    ``"p/q"``, or in float mode the float nearest to it."""
    if mode == "float":
        return float(x)
    return f"{x.numerator}/{x.denominator}"


def numerators(values) -> tuple[list, int]:
    """Values as Python-int numerators over their least common denominator,
    so that sums, differences and comparisons run on ints."""
    den = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (den // v.denominator) for v in values], den


def from_numerators(nums, den: int) -> tuple[Fraction, ...]:
    """Inverse of :func:`numerators`; equal numerators share one
    ``Fraction``."""
    fractions = {x: Fraction(x, den) for x in set(nums)}
    return tuple(map(fractions.__getitem__, nums))
