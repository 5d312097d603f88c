"""Exact rational scalars: parsing and canonical text.

Every value in this library is an exact rational, and every identity is an
algebraic one, so "zero" means literally ``== 0``.  ``Rational`` (and its
alias ``Scalar``) is ``fractions.Fraction``, which already keeps values in
canonical form (reduced, positive denominator) after every operation.
"""

from __future__ import annotations

import sys
from fractions import Fraction

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
