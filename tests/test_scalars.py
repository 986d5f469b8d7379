"""Property tests of the table-at-a-time scalar boundary of
``colocal.scalars``: ``parse_numerators`` and ``format_numerators`` must
agree with ``parse_scalar`` and ``format_scalar`` applied entry by entry,
in exact and float mode, on tables whose entries are all distinct and on
tables whose entries repeat."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from colocal.scalars import (
    format_numerators,
    format_scalar,
    numerator_text,
    numerators,
    parse_numerators,
    parse_scalar,
)

P = st.integers(-10 ** 6, 10 ** 6)
Q = st.integers(1, 10 ** 6)

# the ways a JSON table may write an exact scalar
EXACT = st.one_of(
    st.builds("{}/{}".format, P, Q),
    st.builds(lambda p, q: f"+{abs(p)}/{q}", P, Q),
    st.builds(" {}/{} ".format, P, Q),
    st.builds(str, P),
    st.builds("{}.{}".format, P, st.integers(0, 999)),
    st.builds("{}e-{}".format, P, st.integers(0, 4)),
    P,
)
FLOAT = st.one_of(EXACT, st.floats(allow_nan=False, allow_infinity=False))


def key(x):
    return type(x), x


@st.composite
def tables(draw):
    """(raw entries, mode): all distinct, all distinct but one, or drawn
    with repeats from a small pool."""
    mode = draw(st.sampled_from(["exact", "float"]))
    entry = EXACT if mode == "exact" else FLOAT
    pool = draw(st.lists(entry, min_size=1, max_size=12, unique_by=key))
    shape = draw(st.sampled_from(["distinct", "one repeat", "repeats"]))
    if shape == "distinct":
        return pool, mode
    if shape == "one repeat":
        return pool + [draw(st.sampled_from(pool))], mode
    return draw(st.lists(st.sampled_from(pool), max_size=40)), mode


@given(tables())
def test_parse_numerators_agrees_with_parse_scalar(case):
    raw, mode = case
    values = [parse_scalar(x, mode) for x in raw]
    nums, den = parse_numerators(raw, mode)
    assert (nums, den) == numerators(values)
    assert [F(x, den) for x in nums] == values


@given(st.lists(st.integers(-10 ** 9, 10 ** 9), max_size=40),
       st.integers(1, 10 ** 6), st.booleans(),
       st.sampled_from(["exact", "float"]))
def test_format_numerators_agrees_with_format_scalar(nums, den, repeat,
                                                      mode):
    if repeat:   # few distinct numerators, many of them sharing factors
        nums = [x % 7 * den // 3 for x in nums]
    out = format_numerators(nums, den, mode)
    assert out == [format_scalar(F(x, den), mode) for x in nums]
    assert all(type(s) is (float if mode == "float" else str) for s in out)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_numerator_text_keeps_its_texts_per_denominator(mode):
    """A formatter reuses the texts it made, and two denominators share
    none: the same numerators read as their own values under each."""
    thirds, fifths = numerator_text(3, mode), numerator_text(5, mode)
    for fmt, den in ((thirds, 3), (fifths, 5), (thirds, 3), (fifths, 5)):
        for nums in ([1, 3, 1], [3, 6, -1, 0], [6, 1]):
            assert fmt(nums) == [format_scalar(F(x, den), mode) for x in nums]


@example(889579385049398832, 67)   # float(x) / den rounds twice
@example(10 ** 400, 3 * 10 ** 399)  # float(x) overflows
@given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30))
def test_float_format_is_float_of_the_fraction(x, den):
    assert format_numerators([x], den, "float") == [float(F(x, den))]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("bad", ["x", "1/0", " -3/0 ", [1], {"a": 1}, None,
                                 1.5])
def test_parse_numerators_raises_what_parse_scalar_raises(mode, bad):
    raw = ["1/2", "1/3", bad, "1/2", "y"]
    with pytest.raises(Exception) as loop:   # the first entry's error
        for x in raw:
            parse_scalar(x, mode)
    with pytest.raises(type(loop.value)) as got:
        parse_numerators(raw, mode)
    assert str(got.value) == str(loop.value)


def test_equal_entries_of_different_types_are_read_apart():
    # 1, True and 1.0 are equal and hash alike; only 1.0 is refused in
    # exact mode
    assert parse_numerators([1, True, "1"]) == ([1, 1, 1], 1)
    for raw in ([1, 1.0], [1.0, 1]):
        with pytest.raises(ValueError, match="not an exact scalar"):
            parse_numerators(raw)
    assert parse_numerators([0.5, 1, "1/3"], "float") == ([3, 6, 2], 6)
    assert parse_numerators(["2/4", "-0/5", " 7/14 "]) == ([1, 0, 1], 2)
