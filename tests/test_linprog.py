import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from wallcross import linprog
from wallcross.linprog import _hull, lp_max

SQUARE = ((1, 1), (-1, 1), (-1, -1), (1, -1))
HEXAGON = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
ORIGIN = [(0, 0)]


def _mu(points, monomials, t, r):
    return (min(t * (a * r[0] + b * r[1]) for a, b in points)
            - max(a * r[0] + b * r[1] for a, b in monomials))


def _in_box(box, r):
    if box is SQUARE:
        return abs(r[0]) <= 1 and abs(r[1]) <= 1
    return abs(r[0]) <= 1 and abs(r[1]) <= 1 and abs(r[0] + r[1]) <= 1


def test_box_vertex_is_lexicographic():
    # mu = r0: the whole face r0 = 1 is optimal, the tie-break must return
    # its lexicographically largest point
    assert lp_max([(1, 0)], ORIGIN, 1, SQUARE) == (1, (1, 1))
    assert lp_max([(1, 0)], ORIGIN, 1, HEXAGON) == (1, (1, 0))


def test_tilted_objective():
    assert lp_max([(2, -3)], ORIGIN, 1, SQUARE) == (1, (1, -1))
    assert lp_max([(2, -3)], ORIGIN, 1, HEXAGON) == (1, (1, -1))


def test_fractional_optimum():
    # mu = min(3 r0 + r1, -3 r0 + 3 r1) peaks where its tie line r1 = 3 r0
    # leaves the box, at a point off the lattice
    monomials = [(-3, -1), (3, -3)]
    sign, r = lp_max(ORIGIN, monomials, 1, SQUARE)
    assert (sign, r) == (1, (Fraction(1, 3), 1))
    assert _mu(ORIGIN, monomials, 1, r) == 2


def test_hexagon_and_square_boxes():
    monomials = [(-3, -1), (3, -3)]
    assert lp_max(ORIGIN, monomials, 1, HEXAGON) == (
        1, (Fraction(1, 4), Fraction(3, 4)))
    # corners must run counterclockwise around an interior origin
    for box in (HEXAGON[::-1], ((0, 0), (1, 0), (0, 1)), ((1, 0), (2, 1), (1, 1))):
        with pytest.raises(ValueError):
            lp_max(ORIGIN, monomials, 1, box)


def test_zero_set_wedge():
    # mu = min(0, -r0, r1) vanishes exactly on the wedge r0 <= 0 <= r1:
    # the +r0 probe reaches nothing positive, the -r0 probe reaches the
    # face r0 = -1, whose lexicographically largest point is returned
    monomials = [(0, 0), (1, 0), (0, -1)]
    assert lp_max(ORIGIN, monomials, 1, SQUARE) == (0, (-1, 1))
    assert lp_max(ORIGIN, monomials, 1, HEXAGON) == (0, (-1, 1))
    # narrowed to 0 <= r1 <= -r0 / 2, the wedge meets the face r0 = -1 in
    # a segment ending where the tie line r0 + 2 r1 = 0 leaves the box
    monomials.append((1, 2))
    assert lp_max(ORIGIN, monomials, 1, SQUARE) == (0, (-1, Fraction(1, 2)))
    assert lp_max(ORIGIN, monomials, 1, HEXAGON) == (0, (-1, Fraction(1, 2)))


def test_zero_set_ray_and_origin():
    # mu = -|r0| vanishes on the r1 axis only: the +r1 probe finds (0, 1)
    assert lp_max(ORIGIN, [(1, 0), (-1, 0)], 1, SQUARE) == (0, (0, 1))
    # mu = -max(|r0|, |r1|) vanishes at the origin alone
    monomials = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    assert lp_max(ORIGIN, monomials, 1, SQUARE) == (-1, None)


def test_random_feasible_points_never_beat_optimum():
    rng = random.Random(41)
    for _ in range(150):
        box = rng.choice((SQUARE, HEXAGON))
        points = [(rng.randint(-2, 2), rng.randint(-2, 2))
                  for _ in range(rng.randint(1, 3))]
        monomials = [(rng.randint(-4, 4), rng.randint(-4, 4))
                     for _ in range(rng.randint(1, 6))]
        t = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        sign, r = lp_max(points, monomials, t, box)
        if sign < 0:
            assert r is None
            best = Fraction(0)
        else:
            assert _in_box(box, r) and r != (0, 0)
            best = _mu(points, monomials, t, r)
            assert (best > 0) if sign > 0 else (best == 0)
        # random rational points of the box never beat the optimum; at sign
        # +1 none that ties it is lexicographically larger, at sign -1 mu is
        # negative away from the origin
        for _ in range(40):
            pt = (Fraction(rng.randint(-8, 8), 8), Fraction(rng.randint(-8, 8), 8))
            if not _in_box(box, pt) or pt == (0, 0):
                continue
            v = _mu(points, monomials, t, pt)
            assert v <= best
            if sign > 0 and v == best:
                assert pt <= r
            if sign < 0:
                assert v < 0


def _lp_max_all_ties(points, monomials, t, box):
    """Oracle: the candidate solve on Fractions, with the exit points of
    the tie lines of every pair of forms, not only of hull neighbours."""
    t = Fraction(t)
    edges = []
    for (x0, y0), (x1, y1) in zip(box, box[1:] + box[:1]):
        n = (y1 - y0, x0 - x1)
        edges.append((n, n[0] * x0 + n[1] * y0))
    directions = set(box)
    for forms in (points, monomials):
        for a, b in combinations(set(forms), 2):
            n0, n1 = a[0] - b[0], a[1] - b[1]
            g = gcd(n0, n1)
            directions.update(((-n1 // g, n0 // g), (n1 // g, -n0 // g)))
    values = {(Fraction(0), Fraction(0)): Fraction(0)}
    for d in directions:
        s = min(Fraction(c, n[0] * d[0] + n[1] * d[1])
                for n, c in edges if n[0] * d[0] + n[1] * d[1] > 0)
        values[(s * d[0], s * d[1])] = s * _mu(points, monomials, t, d)
    best = max(values.values())
    if best > 0:
        return 1, max(r for r, v in values.items() if v == best)
    zero_set = [r for r, v in values.items() if v == 0]
    for axis, sense in ((0, 1), (0, -1), (1, 1), (1, -1)):
        reach = max(sense * r[axis] for r in zero_set)
        if reach > 0:
            return 0, max(r for r in zero_set if sense * r[axis] == reach)
    return -1, None


def test_matches_the_solve_over_all_tie_lines():
    # the hull-neighbour tie lines and the integer evaluation over one
    # common denominator give the answers of the plain Fraction solve;
    # slopes on a coarse grid make zero maxima common
    rng = random.Random(59)
    signs = {1: 0, 0: 0, -1: 0}
    for _ in range(1500):
        d = rng.randint(1, 6)
        if rng.random() < 0.5:
            box = HEXAGON
            points = rng.sample([(1, 0), (0, 1), (-1, -1)], rng.randint(1, 3))
            forms = [(i - k, j - k) for i in range(d + 1) for j in range(d + 1 - i)
                     for k in (d - i - j,)]
        else:
            box = SQUARE
            points = rng.sample([(-1, -1), (-1, 1), (1, -1), (1, 1)], rng.choice((1, 1, 2, 4)))
            forms = [(2 * i - d, 2 * j - d) for i in range(d + 1) for j in range(d + 1)]
        monomials = rng.sample(forms, rng.randint(1, min(len(forms), rng.choice((2, 3, 6, 30)))))
        t = Fraction(rng.randint(-4, 12), rng.choice((1, 2, 3)))
        sign, r = lp_max(points, monomials, t, box)
        assert (sign, r) == _lp_max_all_ties(points, monomials, t, box)
        assert r is None or all(type(x) is Fraction for x in r)
        signs[sign] += 1
    assert min(signs.values()) > 50


def test_interior_test_fires_exactly_when_the_solve_finds_mu_negative(monkeypatch):
    # the interior test before the solve answers -1 on exactly the programs
    # on which the full candidate solve, with the test off, answers -1, and
    # every other program gets the full solve's answer; half the form sets
    # are those of plane and quadric curves, half arbitrary pairs
    rng = random.Random(73)
    cases = []
    for i in range(2400):
        box = (SQUARE, HEXAGON)[i % 2]
        if i % 4 < 2:
            d = rng.randint(1, 6)
            if box is HEXAGON:
                pool = [(1, 0), (0, 1), (-1, -1)]
                forms = [(a - (d - a - b), b - (d - a - b))
                         for a in range(d + 1) for b in range(d + 1 - a)]
            else:
                pool = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
                forms = [(2 * a - d, 2 * b - d) for a in range(d + 1) for b in range(d + 1)]
            points = rng.sample(pool, rng.choice((1, 1, 2, len(pool))))
            monomials = rng.sample(forms, rng.randint(1, min(len(forms), 12)))
        else:
            points = [(rng.randint(-2, 2), rng.randint(-2, 2))
                      for _ in range(rng.choice((1, 1, 2, 3, 4)))]
            monomials = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(1, 12))]
        t = Fraction(rng.randint(-8, 48), rng.randint(1, 8))
        cases.append((points, monomials, t, box))
    answers = [lp_max(*case) for case in cases]
    fires = [linprog._negative_everywhere(_hull(p), _hull(m), t.numerator, t.denominator)
             for p, m, t, _ in cases]
    monkeypatch.setattr(linprog, "_negative_everywhere", lambda *args: False)
    counts = {}
    for case, answer, fire in zip(cases, answers, fires):
        full = lp_max(*case)
        assert full == answer and (full[0] == -1) == fire, case
        key = (fire, len(set(case[0])) > 1)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 4 and min(counts.values()) > 100, counts
