from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperlat import (
    DivisionByZero,
    RationalParseError,
    format_rational,
    parse_rational,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50)


def test_parse_examples():
    assert parse_rational("-3/6") == F(-1, 2)
    assert parse_rational("7") == F(7)
    with pytest.raises(DivisionByZero):
        parse_rational("1/0")


@pytest.mark.parametrize("bad, offset", [
    ("", 0),
    ("1/2/3", 3),
    ("a", 0),
    ("1.5", 1),
    ("1/-2", 2),
    ("-", 1),
    (" 1", 0),
    ("2 ", 1),
])
def test_parse_rejects_malformed(bad, offset):
    with pytest.raises(RationalParseError) as err:
        parse_rational(bad)
    assert err.value.offset == offset


@given(rationals)
def test_format_parse_round_trip(a):
    assert parse_rational(format_rational(a)) == a


def test_format_beyond_the_int_str_digit_limit():
    # expected strings are built without converting a long int to str
    assert format_rational(F(10**5000 + 7, 3)) == "1" + "0" * 4999 + "7" + "/3"
    assert format_rational(F(-(10**8600), 7)) == "-1" + "0" * 8600 + "/7"
    digits = "9" + "1234567890" * 1000
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10**len(chunk) + int(chunk)
    # value ends in a single 0, so the fraction reduces by 10
    assert format_rational(F(-value, 10**4400)) == "-" + digits[:-1] + "/1" + "0" * 4399


@given(rationals, rationals)
def test_canonical_form(a, b):
    for value in (a + b, a - b, a * b):
        assert value.denominator > 0
        from math import gcd
        assert gcd(abs(value.numerator), value.denominator) == 1


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(rationals, rationals)
def test_exact_cancellation(a, b):
    assert (a + b) - b == a
