"""Rational-preserving JSON encoding shared by the file formats and the CLI.

Rationals serialize as plain integers when the denominator is 1 and as
"num/den" strings otherwise, so exactness survives a round trip.  A
Python int is written as it is and a JSON integer is read back as one;
a "num" or "num/den" string is read as a Fraction.
"""

from __future__ import annotations

import re
from fractions import Fraction

_INT = re.compile(r"-?[0-9]+")
_NUM_DEN = re.compile(r"-?[0-9]+(/[0-9]+)?")


def encode_rational(q: Fraction | int):
    if type(q) is int:
        return q
    q = Fraction(q)
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


def decode_rational(v) -> Fraction | int:
    """A JSON integer as an int; a "num" or "num/den" string as a Fraction."""
    if isinstance(v, bool):
        raise ValueError("expected a rational, got a boolean")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        # only "num" or "num/den" in decimal digits: Fraction would also
        # read exponents, and "1e99999999" builds a 10^8-digit integer
        if not _NUM_DEN.fullmatch(v):
            raise ValueError(f"expected an integer or a 'num/den' string of decimal digits, got {v!r}")
        num, _, den = v.partition("/")
        try:
            return Fraction(int(num), int(den or 1))
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {v!r}") from exc
    if isinstance(v, float):
        raise ValueError(f"refusing inexact float {v!r}; use int or 'num/den'")
    raise ValueError(f"cannot parse rational from {v!r}")


def decode_int(v) -> int:
    """An integer field such as d: an int or a string of decimal digits with
    an optional minus sign.  Booleans and floats are refused rather than
    truncated, and so are the other strings int() reads: "1_0", " 2 ",
    "+2" and non-ASCII digits."""
    if isinstance(v, int) and not isinstance(v, bool) or isinstance(v, str) and _INT.fullmatch(v):
        return int(v)
    raise ValueError(f"expected an integer, got {v!r}")
