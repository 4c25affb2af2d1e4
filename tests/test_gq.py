import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascdesc.gq import GQ, format_parts, format_scalar, parse_parts, parse_scalar

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
scalars = st.builds(GQ, rationals, rationals)


@pytest.mark.parametrize(
    "text,re,im",
    [
        ("0", 0, 0),
        ("5", 5, 0),
        ("-3", -3, 0),
        ("1/2", Fraction(1, 2), 0),
        ("1/2+3/4i", Fraction(1, 2), Fraction(3, 4)),
        ("-1/2-3/4i", Fraction(-1, 2), Fraction(-3, 4)),
        ("3/4i", 0, Fraction(3, 4)),
        ("i", 0, 1),
        ("-i", 0, -1),
        ("2i", 0, 2),
        ("+2i", 0, 2),
    ],
)
def test_parse_scalar(text, re, im):
    v = parse_scalar(text)
    assert v.re == Fraction(re) and v.im == Fraction(im)


@pytest.mark.parametrize(
    "text,parts",
    [
        ("2/4", (1, 2, 0, 1)),
        ("-0/7", (0, 1, 0, 1)),
        ("+3", (3, 1, 0, 1)),
        ("6/4-10/15i", (3, 2, -2, 3)),
        ("-i", (0, 1, -1, 1)),
        ("+12/-", None),
    ],
)
def test_parse_parts_in_lowest_terms(text, parts):
    if parts is None:
        with pytest.raises(ValueError):
            parse_parts(text)
    else:
        assert parse_parts(text) == parts
        assert format_parts(*parts) == format_scalar(parse_scalar(text))


@pytest.mark.parametrize(
    "bad", ["", "i2", "1//2", "3/-4", "1+2", "x", "1/0", "1_0", "\u0661", "1/2_0"]
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


# README grammar, after surrounding whitespace and spaces are dropped:
# <rat>, <rat>i or <rat>(+|-)<rat>i, where a unit imaginary part may be
# written as a bare i
_UNSIGNED = r"[0-9]+(/[0-9]+)?"
_GRAMMAR = re.compile(rf"[+-]?{_UNSIGNED}|([+-]?{_UNSIGNED}[+-]|[+-]?)({_UNSIGNED})?i")
_LITERAL_CHARS = "0123456789+-/i _\t\u0661\u00b2x."


@given(st.one_of(st.text(), st.text(alphabet=_LITERAL_CHARS, max_size=12)))
@settings(max_examples=400)
def test_parse_accepts_only_the_readme_grammar(text):
    try:
        parse_scalar(text)
    except ValueError:
        return
    assert _GRAMMAR.fullmatch(text.strip().replace(" ", ""))


@given(scalars)
def test_format_round_trip(v):
    assert parse_scalar(format_scalar(v)) == v


@given(scalars, scalars)
def test_addition_exact(a, b):
    assert (a + b) - b == a


@given(scalars, scalars)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(scalars, scalars)
def test_division_inverts(a, b):
    if b:
        assert (a / b) * b == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GQ(1) / GQ(0)


def test_lowest_terms_fields():
    v = GQ(Fraction(2, 4), Fraction(-6, 9))
    assert (v.re_num, v.re_den) == (1, 2)
    assert (v.im_num, v.im_den) == (-2, 3)
    assert v.re_den > 0 and v.im_den > 0


def test_immutability_and_hash():
    v = GQ(1, 1)
    with pytest.raises(AttributeError):
        v.re = Fraction(2)
    assert hash(GQ(1, 1)) == hash(v)
