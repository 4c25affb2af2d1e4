import contextlib
import io
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ascdesc import cli
from ascdesc.gq import GQ
from ascdesc.reporting import dumps, envelope, normalize


def test_float_rounding_to_twelve_digits():
    assert normalize(0.1234567890123456789) == 0.123456789012
    assert normalize(1.0) == 1.0


def test_infinities_become_strings():
    assert normalize(math.inf) == "inf"
    assert normalize(-math.inf) == "-inf"
    assert normalize(math.nan) == "nan"


def test_exact_scalars_use_the_text_grammar():
    assert normalize(GQ(Fraction(1, 2), Fraction(3, 4))) == "1/2+3/4i"
    assert normalize(Fraction(-2, 3)) == "-2/3"


def test_nested_structures_and_key_order():
    text = dumps({"b": [1, (2.5, GQ(1))], "a": {"z": None, "y": True}})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


def test_envelope_embeds_tool_and_command():
    obj = envelope(["ascdesc", "analyze", "m.json"], {"asc": 1}, seed=7)
    assert obj["tool"] == "ascdesc" and obj["seed"] == 7
    assert obj["command"][1] == "analyze"


def test_unserializable_values_are_rejected():
    for serialize in (normalize, dumps):
        with pytest.raises(TypeError):
            serialize(object())
        with pytest.raises(TypeError):
            serialize({"a": [1.0, object()]})


# --- the writer against the reference encoder ---------------------------------


def reference(obj) -> str:
    """The report text as it is specified: the normalized tree through json."""
    return json.dumps(normalize(obj), sort_keys=True, indent=2) + "\n"


class Reported:
    """A value that serializes through its to_obj(), as the report classes do."""

    def __init__(self, obj):
        self.obj = obj

    def to_obj(self):
        return self.obj


# Where %.12g and repr switch between fixed and e-notation (both at 1e-4,
# %.12g at 1e12, repr at 1e16), where rounding to 12 digits crosses a power
# of ten, the subnormals, the extremes and the non-finite values.
EDGE_FLOATS = [
    0.0, -0.0, 1e-4, 9.99999999999e-5, 0.000099999999999995, 1e-5,
    1e11, 99999999999.5, 999999999999.0, 999999999999.5, 1e12, 1e13, 1e14,
    1e15, 9999999999999998.0, 1e16, 1e17, 123456789012345.6, 5e-324, 1e-310,
    2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max,
    math.inf, -math.inf, math.nan, 0.1, 1 / 3, -2.5,
]
FLOATS = (
    st.sampled_from(EDGE_FLOATS)
    | st.integers(-(10**17), 10**17).map(float)
    | st.floats(allow_nan=True, allow_infinity=True)
)
FRACTIONS = st.fractions(max_denominator=10**6)
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | st.text()
    | FLOATS
    | FRACTIONS
    | st.builds(GQ, FRACTIONS, FRACTIONS)
    | st.builds(Reported, st.lists(FLOATS, max_size=3))
)
# 1 and "1" (and 0.5 and "0.5") collide after str(); the later value wins.
KEYS = st.sampled_from([0, 1, "1", "a", "é", "", 0.5, "0.5", "B", "\n"])
TREES = st.recursive(
    LEAVES | st.lists(FLOATS, max_size=6),
    lambda kids: (
        st.lists(kids, max_size=4)
        | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(KEYS, kids, max_size=5)
        | st.builds(Reported, kids)
    ),
    max_leaves=20,
)


@given(TREES)
@settings(max_examples=400, deadline=None)
def test_writer_matches_the_reference_encoder(tree):
    assert dumps(tree) == reference(tree)


@pytest.mark.parametrize("x", EDGE_FLOATS, ids=repr)
def test_edge_floats_alone_in_rows_and_in_mixed_lists(x):
    for tree in (x, [x], [1.5, x, 2.0], [x, 1], {"v": (x,)}):
        assert dumps(tree) == reference(tree)


def test_colliding_keys_keep_the_later_value():
    assert json.loads(dumps({1: "int", "1": "str"})) == {"1": "str"}
    assert json.loads(dumps({"1": "str", 1: "int"})) == {"1": "int"}


# Entries from 1e-7 to 1e14, integral ones among them, so that the echoed
# sequence meets both float layouts and the ".0" of integral values.
WIDE_BASE = {
    "rows": 3,
    "cols": 3,
    "field": "f64",
    "entries": [[1e14, 2.0, 3e-7], [1e-7, 5.0, 123456789.0], [0.5, 1e12, -7.0]],
}
WIDE_SEQ = {
    "base": WIDE_BASE,
    "perturbation": {"rule": "scaled", "exponent": 1, "matrix": dict(
        WIDE_BASE, entries=[[1.0, 0.0, 2.5e-7], [0.0, 1e13, 0.0], [3.0, 0.0, 1.0]])},
    "n_range": [10, 200, 10],
}
F64_Y = {"rows": 1, "cols": 3, "field": "f64", "entries": [[1e308, 5e-324, -0.0]]}
F64_Z = {"rows": 2, "cols": 3, "field": "f64", "entries": [[1.0, 1e-7, 0.0], [-1e308, 0.0, 1e14]]}


@pytest.mark.parametrize("argv", [
    ["converge", "seq.json"],
    ["converge", "seq.json", "--probe", "T1", "--lambda", "0"],
    ["converge", "seq.json", "--probe", "ker_upper", "--lambda", "0"],
    ["gap", "y.json", "z.json"],
], ids=" ".join)
def test_cli_reports_match_the_reference_encoder(argv, tmp_path, monkeypatch):
    # Both encoders see the same report object, so the comparison does not
    # depend on the SVD library's last digits.
    monkeypatch.chdir(tmp_path)
    for name, obj in (("seq.json", WIDE_SEQ), ("y.json", F64_Y), ("z.json", F64_Z)):
        (tmp_path / name).write_text(json.dumps(obj), encoding="utf-8")
    seen = []

    def recording_dumps(obj):
        seen.append(obj)
        return dumps(obj)

    monkeypatch.setattr(cli, "dumps", recording_dumps)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) in (0, 3, 4)
    [report] = seen
    assert out.getvalue() == reference(report)
