import random
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperlat import (
    DivisionByZero,
    GridFunction,
    HalfInt,
    ParseDiagnostic,
    QQuadraticLattice,
    QuadraticLattice,
    RationalParseError,
    Window,
    adjoint_coeffs,
    format_rational,
    parse_problem,
    parse_rational,
    pearson_weight,
    solve,
)
from hyperlat.identities import IdentityResult, _Ctx
from hyperlat.problem import _Token
from tests.conftest import quad_b

DEMOS = Path(__file__).resolve().parent.parent / "demos"

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


# every value class of the library (``numerics.Record``), one value each
RECORDS = {
    "HalfInt": lambda: HalfInt(8),
    "Window": lambda: Window(HalfInt(8), 3),
    "GridFunction": lambda: GridFunction(HalfInt(1), [F(1), F(2, 3)]),
    "QQuadraticLattice": lambda: QQuadraticLattice(F(3, 2), F(1), F(-1, 2), F(0)),
    "QuadraticLattice": lambda: QuadraticLattice(F(1), F(2), F(1)),
    "HyperEquation": quad_b,
    "PearsonWeight": lambda: pearson_weight(quad_b(), Window(HalfInt(4), 5), HalfInt(4)),
    "AdjointCoefficients": lambda: adjoint_coeffs(quad_b(), Window(HalfInt(4), 5)),
    "SolutionReport": lambda: solve(quad_b(), 1, Window(HalfInt(4), 2)),
    "ParseDiagnostic": lambda: ParseDiagnostic(3, 5, "bad value for 'n'"),
    "ProblemSpec": lambda: parse_problem((DEMOS / "quadratic.spec").read_text()),
    "_Token": lambda: _Token("num", "1/2", 7),
    "IdentityResult": lambda: IdentityResult("mean-shift", False, "off by 1"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_frozen_values(name):
    """Equal constructions are equal with equal hashes and reprs; a record
    equals no object of another class; no attribute can be assigned or
    deleted, a field or not."""
    a, b = RECORDS[name](), RECORDS[name]()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert repr(a).startswith(f"{name}(")
    assert a.__eq__(object()) is NotImplemented
    for other, make in RECORDS.items():
        if other != name:
            assert a != make()
    for field in (*vars(a), "unknown"):
        with pytest.raises(FrozenInstanceError):
            setattr(a, field, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(a, field)
    assert a == b


def test_records_of_equal_fields_and_other_classes_differ():
    token, result = _Token("num", "1/2", 7), IdentityResult("num", "1/2", 7)
    assert (token.kind, token.text, token.column) == (result.name, result.passed, result.detail)
    assert token != result and result != token


def test_half_integers_sort_by_twice():
    assert sorted([HalfInt(5), HalfInt(-3), HalfInt(0), HalfInt(-4)]) == [
        HalfInt(-4), HalfInt(-3), HalfInt(0), HalfInt(5)]
    assert HalfInt(1) < HalfInt(2) <= HalfInt(2) and not HalfInt(2) < HalfInt(2)
    assert HalfInt(3) > HalfInt(2) >= HalfInt(2) and not HalfInt(2) > HalfInt(2)
    assert HalfInt(1).__lt__(2) is NotImplemented
    with pytest.raises(TypeError):
        HalfInt(1) < 2


def test_record_reprs_are_the_field_texts():
    assert repr(Window(HalfInt(8), 3)) == "Window(start=HalfInt(twice=8), length=3)"
    assert repr(QQuadraticLattice(F(3, 2), F(1), F(-1, 2), F(0))) == (
        "QQuadraticLattice(p=Fraction(3, 2), c1=Fraction(1, 1), c2=Fraction(-1, 2), "
        "c3=Fraction(0, 1))")
    assert repr(quad_b()) == (
        "HyperEquation(lattice=QuadraticLattice(ct1=Fraction(1, 1), ct2=Fraction(2, 1), "
        "ct3=Fraction(1, 1)), sigma_t=(Fraction(1, 1), Fraction(1, 1), Fraction(0, 1)), "
        "tau_t=(Fraction(1, 1), Fraction(-1, 1)), lam=Fraction(0, 1))")
    assert repr(RECORDS["SolutionReport"]()) == (
        "SolutionReport(kind='polynomial', n=1, lam_n=Fraction(1, 1), "
        "solution=GridFunction(start=HalfInt(twice=4), values=(Fraction(-8, 1), "
        "Fraction(-15, 1))), residual=GridFunction(start=HalfInt(twice=4), "
        "values=(Fraction(0, 1), Fraction(0, 1))), residual_lam=Fraction(1, 1), "
        "inadmissible_m=None, sum_base=None, poly=None)")


def test_the_identity_context_stays_mutable():
    spec = RECORDS["ProblemSpec"]()
    ctx = _Ctx(spec, spec.equation(), random.Random(1))
    ctx.extra = 1
    del ctx.extra
    assert not hasattr(ctx, "extra")
