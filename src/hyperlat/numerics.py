"""Exact rational scalars: parsing, canonical text and integer forms.

Every value in this library is an exact rational, and every identity is an
algebraic one, so "zero" means literally ``== 0``.  ``Rational`` (and its
alias ``Scalar``) is ``fractions.Fraction``, which already keeps values in
canonical form (reduced, positive denominator) after every operation.

Polynomials are interpolated in one place (``monomial_coefficients``), and
an ``IntegerForm`` keeps such an interpolant, or a Laurent polynomial, as
integer coefficients over one denominator, so that each of its values is
one integer Horner pass and one normalization.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import lcm

from .errors import DivisionByZero, RationalParseError

Rational = Fraction
Scalar = Fraction


def parse_rational(text: str) -> Rational:
    """Parse ``num`` or ``num/den`` (ASCII digits, optional leading ``-``).

    No whitespace is accepted inside the literal.  Raises
    ``RationalParseError`` with the byte offset of the first bad character
    (or of a digit run longer than the interpreter converts to ``int``), or
    ``DivisionByZero`` for a zero denominator.
    """
    if not text:
        raise RationalParseError("empty rational literal", 0)

    def scan_int(pos: int) -> int:
        if pos < len(text) and text[pos] == "-":
            pos += 1
        start = pos
        while pos < len(text) and text[pos].isascii() and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise RationalParseError("expected digits", start)
        return pos

    def to_int(start: int, end: int) -> int:
        try:
            return int(text[start:end])
        except ValueError:  # beyond sys.get_int_max_str_digits()
            raise RationalParseError("too many digits", start) from None

    pos = scan_int(0)
    num = to_int(0, pos)
    if pos == len(text):
        return Fraction(num)
    if text[pos] != "/":
        raise RationalParseError("unexpected character in rational literal", pos)
    den_start = pos + 1
    pos = scan_int(den_start)
    if pos != len(text):
        raise RationalParseError("trailing characters after rational literal", pos)
    if text[den_start] == "-":
        raise RationalParseError("denominator must be unsigned", den_start)
    den = to_int(den_start, pos)
    if den == 0:
        raise DivisionByZero("zero denominator in rational literal")
    return Fraction(num, den)


def _int_text(value: int) -> str:
    """Decimal text of ``value``, also beyond the interpreter's int->str
    digit limit, without changing that limit."""
    # Python 3.10 releases before 3.10.7 have no digit limit (and no getter)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # a digit carries log2(10) > 3 bits: under 3*limit bits is under limit digits
    if limit == 0 or value.bit_length() < 3 * limit:
        return str(value)
    rest, chunks = abs(value), []
    base = 10 ** limit
    while rest:
        rest, chunk = divmod(rest, base)
        chunks.append(chunk)
    head = str(chunks.pop())
    body = "".join(str(chunk).zfill(limit) for chunk in reversed(chunks))
    return ("-" if value < 0 else "") + head + body


def format_rational(value: Rational) -> str:
    """Canonical text form: ``num`` or ``num/den``, at any size."""
    if value.denominator == 1:
        return _int_text(value.numerator)
    return f"{_int_text(value.numerator)}/{_int_text(value.denominator)}"


#: The name the CLI and callers outside the library format values through.
format_scalar = format_rational


def monomial_coefficients(xs: list, ys) -> list:
    """Monomial coefficients in x (low order first) of the interpolant
    through samples at pairwise distinct abscissae: the Newton divided
    differences, expanded by nested multiplication."""
    c = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - j])
    coeffs = [c[-1]]
    for xi, ci in zip(reversed(xs[:-1]), reversed(c[:-1])):
        # coeffs * (x - xi) + ci
        coeffs = [ci - xi * coeffs[0],
                  *(a - xi * b for a, b in zip(coeffs, coeffs[1:])), coeffs[-1]]
    return coeffs


class IntegerForm:
    """The Laurent polynomial sum_k coeffs[k] v^(k - shift) / den in one
    variable v, with integer coefficients over one positive denominator.

    At v = a/b (integers, b != 0, and a != 0 if shift > 0) its value is

        sum_k coeffs[k] a^k b^(m-k) / (den a^shift b^(m-shift)),   m = len(coeffs) - 1,

    one integer Horner pass, homogeneous in (a, b), normalized once.
    """

    __slots__ = ("coeffs", "den", "shift")

    def __init__(self, coeffs: tuple, den: int, shift: int = 0):
        self.coeffs, self.den, self.shift = coeffs, den, shift

    @classmethod
    def through(cls, vs: list, ys, shift: int = 0) -> "IntegerForm":
        """The form through the samples y at pairwise distinct v: the
        interpolant of v^shift y, cleared to integers over the least common
        denominator of its coefficients."""
        coeffs = monomial_coefficients(vs, [v ** shift * y for v, y in zip(vs, ys)])
        den = lcm(*(c.denominator for c in coeffs))
        return cls(tuple(c.numerator * (den // c.denominator) for c in coeffs), den, shift)

    def at(self, a: int, b: int) -> Fraction:
        """The value at v = a/b."""
        coeffs = self.coeffs
        acc, power = coeffs[-1], 1
        for c in coeffs[-2::-1]:
            power *= b
            acc = acc * a + c * power
        return Fraction(acc, self.den * a ** self.shift * b ** (len(coeffs) - 1 - self.shift))
