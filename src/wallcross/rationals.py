"""Exact scalars and their canonical strings.

No scalar in the package is ever a float. Coefficients of polynomials
follow one rule, kept by `canonical`: an integral coefficient is an int and
any other a fractions.Fraction with denominator >= 2. A branch series
(a plain tuple of coefficients) that the package solves holds ints, since
it is solved over Z. Other exact scalars, such as
points, slopes, weights and frame entries, are Fractions on the public
objects (`PointedCurve.point`, `OneParamSubgroup.weights`,
`FrameChange.mx`, mu values and `Polynomial.evaluate`'s result), but the
kernels that compute with them (mu, evaluation, frame moves, affine
charts) work on their canonical values, so integral ones multiply as ints.
mu in particular is evaluated in integers over one common denominator, the
lcm of the subgroup's weight denominators times that of the slope, and
only its final value is built as one Fraction. An int and the equal
Fraction compare and hash alike, and format_rational writes both the same
way.

The integer form of a rational vector has one copy here: `cleared` scales
it by the least positive integer that makes every entry integral, and
`primitive` divides that by the gcd of the entries. Subgroups, frame
matrices, points, the rows of an elimination and the coefficients of a
polynomial are made integral through these two.

This module also pins the interchange format: an integer is written "p",
anything else "p/q" with q >= 2 and gcd(|p|, q) = 1. parse_rational
accepts exactly those strings, so parse(format(x)) == x and
format(parse(s)) == s.
"""

import re
from fractions import Fraction
from math import gcd, lcm

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


def canonical(value):
    """value as an int when it is integral, else as a Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def quotient(a, b):
    """a / b exactly, under the rule of `canonical`; never a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return canonical(Fraction(a, b))


def ratio(t):
    """(numerator, denominator) of a slope: an int or a Fraction is read as
    it is, anything else through Fraction."""
    if not isinstance(t, (int, Fraction)):
        t = Fraction(t)
    return t.numerator, t.denominator


def cleared(values):
    """(den, ints): den the least positive integer for which every one of
    the ints and Fractions in values times den is an integer, and ints
    those products, read off numerators and denominators."""
    den = lcm(*[v.denominator for v in values])
    return den, tuple([v.numerator * (den // v.denominator) for v in values])


def primitive(values):
    """values scaled by a positive constant to coprime integers: direction
    and signs are kept, and the zero vector comes back as int zeros."""
    ints = cleared(values)[1]
    g = gcd(*ints) or 1
    return tuple([i // g for i in ints])
