"""The report writer: ``jsonio.write_report`` writes exactly the bytes of
``json.dumps(report, sort_keys=True, indent=2) + "\\n"``."""

import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from colocal.jsonio import JSONText, LazyMapping, write_report

GOLDEN = Path(__file__).parent / "golden"


def written(report) -> str:
    buf = io.StringIO()
    write_report(report, buf)
    return buf.getvalue()


def dumped(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


TEXT = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from(
        ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u00df",
         "\u2028", "\U0001f600", "a", " "])))
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e300, -1e300, math.nan, math.inf,
                     -math.inf, 0.1, 1.0]))
INTS = st.one_of(st.integers(), st.integers(-10 ** 40, 10 ** 40),
                 st.sampled_from([0, -1, 2 ** 64, -(2 ** 63)]))
LEAVES = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT)
# lists of one leaf kind, as reports hold them; a list of strings none of
# which needs an escape takes a fast path
UNIFORM = st.one_of(st.lists(TEXT), st.lists(INTS), st.lists(FLOATS),
                     st.lists(st.booleans()),
                     st.lists(st.text(alphabet=st.sampled_from(
                         ["1", "/", "-", '"', "\\", "\x00", "\x7f", "\x80"]))))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(TEXT, children, max_size=5))


REPORTS = st.recursive(st.one_of(LEAVES, UNIFORM), containers, max_leaves=30)


@settings(max_examples=100)
@given(REPORTS)
def test_write_report_equals_json_dumps(report):
    assert written(report) == dumped(report)


@given(st.dictionaries(TEXT, st.one_of(UNIFORM, st.lists(LEAVES)),
                       min_size=1, max_size=4))
def test_write_report_equals_json_dumps_on_leaf_lists(report):
    assert written(report) == dumped(report)


def test_edge_values():
    report = {"floats": [-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf],
              "mixed": [1, 2.5, None, True, False, "x", -(10 ** 30)],
              "text": ['"q"', "back\\slash", "\x01\n", "\u00e9\u2028"],
              # one character that needs an escape per list of strings
              "escapes": [["1/2", c + "x"] for c in
                          ['"', "\\", "\x00", "\x1f", "\x7f", "\xe9", "\ud800"]],
              "empty": [[], {}, ()], "tuple": (1, ("a",)),
              "nested": {"b": {"z": [], "a": [{}]}}}
    assert written(report) == dumped(report)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.out.json")),
                         ids=lambda p: p.name)
def test_golden_reports_are_rewritten_byte_for_byte(path):
    text = path.read_text(encoding="utf-8")
    assert written(json.loads(text)) == text


@pytest.mark.parametrize("report", [{1: "a"}, {"a": {None: 1}},
                                    [{"a": 1, (1, 2): 2}]],
                         ids=["int", "nested-none", "tuple-in-list"])
def test_non_str_key_raises_type_error(report):
    with pytest.raises(TypeError, match="keys must be str"):
        written(report)


def test_unserializable_value_raises_type_error():
    with pytest.raises(TypeError, match="not JSON serializable"):
        written({"a": [1, {2}]})


@given(st.dictionaries(TEXT, REPORTS, max_size=5))
def test_a_lazy_mapping_is_written_as_its_dict(report):
    """Each value of a LazyMapping is made once, as it is written, and the
    bytes are those of the dict it stands for, also inside a list."""
    reads = []

    def value(key):
        reads.append(key)
        return report[key]

    lazy = LazyMapping(report, value)
    assert written({"a": [lazy], "b": lazy}) == dumped({"a": [report],
                                                        "b": report})
    assert sorted(reads) == sorted(list(report) * 2)
    with pytest.raises(KeyError):
        lazy[object()]


@given(REPORTS)
def test_json_text_is_written_at_the_indent_of_its_line(report):
    """A ``JSONText`` made from the text ``json.dumps`` gives its value at
    the top level is written as that value, at any depth."""
    def make(newline):
        return dumped(report)[:-1].replace("\n", newline)
    text = JSONText(make)
    assert written({"a": [text, {"b": text}], "c": text}) == dumped(
        {"a": [report, {"b": report}], "c": report})
