"""Rational-preserving JSON encoding shared by the file formats and the CLI.

Rationals serialize as plain integers when the denominator is 1 and as
"num/den" strings otherwise, so exactness survives a round trip.
"""

from __future__ import annotations

import re
from fractions import Fraction

_NUM_DEN = re.compile(r"-?[0-9]+(/[0-9]+)?")


def encode_rational(q: Fraction | int):
    q = Fraction(q)
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


def decode_rational(v) -> Fraction:
    if isinstance(v, bool):
        raise ValueError("expected a rational, got a boolean")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        # only "num" or "num/den" in decimal digits: Fraction would also
        # read exponents, and "1e99999999" builds a 10^8-digit integer
        if not _NUM_DEN.fullmatch(v):
            raise ValueError(f"expected an integer or a 'num/den' string of decimal digits, got {v!r}")
        try:
            return Fraction(v)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {v!r}") from exc
    if isinstance(v, float):
        raise ValueError(f"refusing inexact float {v!r}; use int or 'num/den'")
    raise ValueError(f"cannot parse rational from {v!r}")


def decode_int(v) -> int:
    """An integer field such as d: an int or a decimal string; booleans and
    floats are refused rather than truncated."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)
