"""Canonical rational strings.

Every scalar in the package is a fractions.Fraction. This module pins the
interchange format: an integer is written "p", anything else "p/q" with
q >= 2 and gcd(|p|, q) = 1. parse_rational accepts exactly those strings,
so parse(format(x)) == x and format(parse(s)) == s.
"""

import re
from fractions import Fraction
from math import gcd

_CANONICAL = re.compile(r"^(0|-?[1-9][0-9]*)(?:/([1-9][0-9]*))?$")


def parse_rational(text: str) -> Fraction:
    """Parse a canonical rational string, rejecting non-canonical spellings."""
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {type(text).__name__}")
    m = _CANONICAL.match(text)
    if m is None:
        raise ValueError(f"not a canonical rational: {text!r}")
    num = int(m.group(1))
    if m.group(2) is None:
        return Fraction(num)
    den = int(m.group(2))
    if den == 1:
        raise ValueError(f"not a canonical rational (explicit /1): {text!r}")
    if gcd(abs(num), den) != 1:
        raise ValueError(f"not a canonical rational (not reduced): {text!r}")
    return Fraction(num, den)


def format_rational(value) -> str:
    return str(Fraction(value))
