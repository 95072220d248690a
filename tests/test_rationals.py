import random
from fractions import Fraction

import pytest

from wallcross.rationals import cleared, format_rational, parse_rational, primitive


def test_parse_basic():
    assert parse_rational("0") == 0
    assert parse_rational("7/4") == Fraction(7, 4)
    assert parse_rational("-3/2") == Fraction(-3, 2)
    assert parse_rational("12") == 12


def test_parse_rejects_noncanonical():
    for bad in ["2/4", "4/2", "1/-2", "-0", "+1", "1/1", " 1", "1.5", "", "a/b", "0/3"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_format_canonical():
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(-8, 2)) == "-4"
    assert format_rational(Fraction(5)) == "5"


def test_round_trip_random():
    rng = random.Random(7)
    for _ in range(300):
        q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert parse_rational(format_rational(q)) == q


def test_cleared_is_the_least_integral_multiple():
    F = Fraction
    for values, den, ints in [
        ((3, -4, 0), 1, (3, -4, 0)),
        ((F(1, 2), F(-1, 3), F(5, 6)), 6, (3, -2, 5)),
        ((2, F(-3, 4)), 4, (8, -3)),
        ((0, 0, 0), 1, (0, 0, 0)),
        ((F(0), F(0)), 1, (0, 0)),
        ((F(-7, 9),), 9, (-7,)),
        ((-5,), 1, (-5,)),
        ((F(-1, 4), F(-1, 6)), 12, (-3, -2)),
    ]:
        got = cleared(values)
        assert got == (den, ints) and all(type(x) is int for x in got[1]), values
    rng = random.Random(11)
    for _ in range(200):
        values = [F(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(rng.randint(1, 4))]
        den, ints = cleared(values)
        assert den >= 1 and list(ints) == [v * den for v in values]
        assert all(any((v * k).denominator != 1 for v in values) for k in range(1, den))


def test_primitive_keeps_direction_and_signs():
    F = Fraction
    assert primitive((F(1, 2), F(-1, 3), F(5, 6))) == (3, -2, 5)
    assert primitive((-4, -6, 10)) == (-2, -3, 5)
    assert primitive((F(-7, 9),)) == (-1,)
    assert primitive((0, 0)) == (0, 0)
