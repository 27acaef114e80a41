"""The report writer against the standard library's indented encoding.

`session.json_text` writes a list of int records (dicts with one set of
string keys and only int values) from one `%` template and everything
else recursively; either way its text must be
`json.dumps(doc, indent=2, sort_keys=True)`, byte for byte.  The documents
below mix such lists with near misses: a row with a key missing, renamed or
one extra, a bool or another non-int value, int keys, empty rows, keys holding
`%` or non-ASCII characters, record lists nested in records and in
tuples, and ints of any sign and size.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stackdual.session import json_text  # noqa: E402

KEYS = st.sampled_from(["zdeg", "weight", "dim", "%", "%d", "a%%s", "é",
                        "☃", 'q"', "", "\n"]) | st.text(max_size=3)
INTS = st.integers() | st.sampled_from([0, -1, 2 ** 63, -(2 ** 64) - 1, 10 ** 300])
SCALARS = (INTS | st.booleans() | st.none() | st.text(max_size=4)
           | st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def records(draw, values=INTS):
    """A list (or tuple) of dicts over one key set with int values, maybe
    with the last row spoiled so that it is no longer a table of int
    records."""
    keys = draw(st.lists(KEYS, max_size=4, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({k: values for k in keys}),
                         min_size=1, max_size=5))
    row = rows[-1]
    spoil = draw(st.sampled_from(["none", "missing", "extra", "renamed", "bool",
                                  "float", "nested", "int-keys"]))
    if spoil == "missing" and keys:
        del row[keys[0]]
    elif spoil == "renamed" and keys:
        row[draw(KEYS.filter(lambda k: k not in keys))] = row.pop(keys[0])
    elif spoil == "extra":
        row[draw(KEYS.filter(lambda k: k not in keys))] = draw(INTS)
    elif spoil == "bool" and keys:
        row[keys[-1]] = draw(st.booleans())
    elif spoil == "float" and keys:
        row[keys[0]] = draw(st.floats(allow_nan=False, allow_infinity=False))
    elif spoil == "nested" and keys:
        row[keys[0]] = draw(st.lists(st.fixed_dictionaries({"dim": INTS}), max_size=2))
    elif spoil == "int-keys":
        rows = [{i: v for i, v in enumerate(r.values())} for r in rows]
    return tuple(rows) if draw(st.booleans()) else rows


DOCUMENTS = st.recursive(
    SCALARS | records(),
    lambda children: (st.lists(children, max_size=4)
                      | st.tuples(children, children)
                      | st.dictionaries(KEYS, children, max_size=4)
                      | st.dictionaries(st.integers(-3, 3), children, max_size=3)),
    max_leaves=12)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(DOCUMENTS)
def test_json_text_is_the_indented_standard_encoding(doc):
    assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(records(st.booleans() | INTS), st.booleans())
def test_a_table_with_bools_prints_true_and_false(rows, nest):
    doc = {"table": rows} if nest else rows
    assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_a_table_is_written_at_its_depth():
    table = [{"zdeg": -3, "weight": 4, "dim": 10 ** 20}, {"dim": 1, "weight": 0, "zdeg": 0}]
    doc = {"result": {"table": table, "flags": [{"zero": True, "n": 1}]}, "%": table}
    assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)
    assert json_text(doc, "\n    ").replace("\n    ", "\n") == json_text(doc)
