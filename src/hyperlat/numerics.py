"""Exact rational scalars: parsing, canonical text and integer forms.

Every value in this library is an exact rational, and every identity is an
algebraic one, so "zero" means literally ``== 0``.  ``Rational`` (and its
alias ``Scalar``) is ``fractions.Fraction``, which already keeps values in
canonical form (reduced, positive denominator) after every operation.

An ``IntegerForm`` keeps a Laurent polynomial in one variable as integer
coefficients over one denominator, so that each of its values is one
integer Horner pass (``IntegerForm.evaluated``, a numerator and a
denominator) and one normalization: one gcd into the reduced pair that a
``lattice.FormTable`` keeps, or the ``Fraction`` of ``IntegerForm.at``.
Forms are built by exact integer algebra (sums, products, rational
scalings and moves of the variable), and interpolated in one place
(``IntegerForm.through``).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm

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


class IntegerForm:
    """The Laurent polynomial sum_k coeffs[k] v^(k - shift) / den in one
    variable v, 0 <= shift < len(coeffs), with integer coefficients over one
    positive denominator that no prime divides together with all of them,
    so that each polynomial has one form on a given span of powers.

    At v = a/b (integers, b != 0, and a != 0 if shift > 0) its value is

        sum_k coeffs[k] a^k b^(m-k) / (den a^shift b^(m-shift)),   m = len(coeffs) - 1,

    one integer Horner pass, homogeneous in (a, b), normalized once.

    Forms add, subtract and multiply with each other and with rationals,
    divide by a rational, and move the variable: ``translated(k)`` is the
    form of f(v + k) and ``dilated(r)`` that of f(r v).  Each result is
    reduced once, on integers, and its span ends at its outermost nonzero
    coefficients, or at v^0.
    """

    __slots__ = ("coeffs", "den", "shift")

    def __init__(self, coeffs: tuple, den: int, shift: int = 0):
        self.coeffs, self.den, self.shift = coeffs, den, shift

    @classmethod
    def reduced(cls, coeffs: list, den: int, shift: int = 0) -> "IntegerForm":
        """The one form of sum_k coeffs[k] v^(k - shift) / den (den != 0)."""
        while len(coeffs) - 1 > shift and coeffs[-1] == 0:
            coeffs.pop()
        while shift and coeffs[0] == 0:
            del coeffs[0]
            shift -= 1
        g = gcd(den, *coeffs)
        if den < 0:
            g = -g
        return cls(tuple(c // g for c in coeffs), den // g, shift)

    @classmethod
    def of(cls, coeffs, shift: int = 0) -> "IntegerForm":
        """The form with the rational coefficients ``coeffs`` of the powers
        v^-shift, v^(1-shift), ..."""
        den = lcm(*(Fraction(c).denominator for c in coeffs))
        return cls.reduced([c.numerator * (den // c.denominator) for c in map(Fraction, coeffs)],
                           den, shift)

    @classmethod
    def through(cls, vs: list, ys) -> "IntegerForm":
        """The interpolant of the samples y at pairwise distinct rational v,
        each a ``Fraction`` or an integer pair (num, den), den > 0, as the
        lattice tables keep them.  With v_i = u_i / q over a common
        denominator q, the Newton divided differences in u = q v run on
        integer numerators with one denominator per column: column j
        multiplies each numerator by the lcm of the column's gaps
        u_i - u_{i-j} over its own gap, and the denominator by that lcm.
        Nested multiplication by u - u_i gives integer coefficients in u,
        the k-th times q^k the one in v, and one gcd reduces them."""
        vs = [v if isinstance(v, tuple) else (v.numerator, v.denominator) for v in vs]
        q = lcm(*(d for _, d in vs))
        us = [a * (q // d) for a, d in vs]
        den = lcm(*(y.denominator for y in ys))
        col = [y.numerator * (den // y.denominator) for y in ys]
        dens = [den]
        for j in range(1, len(us)):
            gaps = [b - a for a, b in zip(us, us[j:])]
            scale = lcm(*gaps)
            for i in range(len(us) - 1, j - 1, -1):
                col[i] = (col[i] - col[i - 1]) * (scale // gaps[i - j])
            dens.append(dens[-1] * scale)
        den = dens[-1]
        coeffs = [col[-1]]
        for i in range(len(us) - 2, -1, -1):
            # coeffs * (u - u_i) + col[i], all over den
            u = us[i]
            coeffs = [col[i] * (den // dens[i]) - u * coeffs[0],
                      *(a - u * b for a, b in zip(coeffs, coeffs[1:])), coeffs[-1]]
        coeffs = [c * q ** k for k, c in enumerate(coeffs)]
        g = gcd(den, *coeffs)
        return cls(tuple(c // g for c in coeffs), den // g)

    def evaluated(self, a: int, b: int) -> tuple[int, int]:
        """The value at v = a/b as integers (num, den), den != 0, not
        reduced: one Horner pass."""
        coeffs = self.coeffs
        acc, power = coeffs[-1], 1
        for c in coeffs[-2::-1]:
            power *= b
            acc = acc * a + c * power
        return acc, self.den * a ** self.shift * b ** (len(coeffs) - 1 - self.shift)

    def at(self, a: int, b: int) -> Fraction:
        """The value at v = a/b."""
        return Fraction(*self.evaluated(a, b))

    # ring operations: the other operand is a form, an int or a Fraction
    @staticmethod
    def _form(value) -> "IntegerForm":
        if isinstance(value, IntegerForm):
            return value
        return IntegerForm((value.numerator,), value.denominator)

    def __add__(self, other) -> "IntegerForm":
        other = self._form(other)
        shift = max(self.shift, other.shift)
        top = max(len(self.coeffs) - self.shift, len(other.coeffs) - other.shift)
        den = lcm(self.den, other.den)
        coeffs = [0] * (shift + top)
        for form in (self, other):
            scale, low = den // form.den, shift - form.shift
            for k, c in enumerate(form.coeffs, low):
                coeffs[k] += c * scale
        return IntegerForm.reduced(coeffs, den, shift)

    __radd__ = __add__

    def __neg__(self) -> "IntegerForm":
        return IntegerForm(tuple(-c for c in self.coeffs), self.den, self.shift)

    def __sub__(self, other) -> "IntegerForm":
        return self + -self._form(other)

    def __mul__(self, other) -> "IntegerForm":
        if not isinstance(other, IntegerForm):
            return IntegerForm.reduced([c * other.numerator for c in self.coeffs],
                                       self.den * other.denominator, self.shift)
        coeffs = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            for j, d in enumerate(other.coeffs):
                coeffs[i + j] += c * d
        return IntegerForm.reduced(coeffs, self.den * other.den, self.shift + other.shift)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "IntegerForm":
        """Division by a nonzero rational."""
        return IntegerForm.reduced([c * other.denominator for c in self.coeffs],
                                   self.den * other.numerator, self.shift)

    def translated(self, k: int) -> "IntegerForm":
        """The form of f(v + k), for a polynomial f (shift 0): a Taylor
        shift by repeated synthetic division.  It is invertible over the
        integers, so the result stays reduced."""
        coeffs = list(self.coeffs)
        for i in range(len(coeffs) - 1):
            for j in range(len(coeffs) - 2, i - 1, -1):
                coeffs[j] += k * coeffs[j + 1]
        return IntegerForm(tuple(coeffs), self.den, self.shift)

    def dilated(self, r: Fraction) -> "IntegerForm":
        """The form of f(r v), r = u/w != 0: the coefficient of v^j gains
        r^j, and over the common factor u^shift w^(m - shift) the k-th
        coefficient is multiplied by u^k w^(m - k)."""
        u, w = r.numerator, r.denominator
        m = len(self.coeffs) - 1
        return IntegerForm.reduced([c * u ** k * w ** (m - k) for k, c in enumerate(self.coeffs)],
                                   self.den * u ** self.shift * w ** (m - self.shift), self.shift)
