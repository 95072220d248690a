import random
from fractions import Fraction

import pytest

from wallcross.curves import PointedCurve, Surface, affine_chart
from wallcross.inflection import local_branch
from wallcross.polynomials import Polynomial, constant, variable
from wallcross.rationals import canonical
from wallcross.series import pivot_orders, series_substitute

from oracles import constant_plus, gauss_jordan, homogeneous_branch, substitute, windowed_branch


def test_series_arithmetic_window():
    s = (0, 1, 0, 0, 0)
    x, y = variable(2, 0), variable(2, 1)
    one = constant(2, 1)
    assert series_substitute((one + x) ** 3, (s, s)) == (1, 3, 3, 1, 0)
    assert series_substitute(x ** 5, (s, s)) == (0,) * 5
    assert series_substitute(x ** 2 * y, (s, s)) == (0, 0, 0, 1, 0)
    # (1 + s + s^2)(1 - s + s^2) = 1 + s^2 + s^4, cut to the window of 3
    assert series_substitute(x * y, ((1, 1, 1), (1, -1, 1))) == (1, 0, 1)
    with pytest.raises(ValueError):
        series_substitute(x * y, ((0, 1), (0, 1, 0)))
    with pytest.raises(ValueError):
        series_substitute(x, ((), ()))


def test_series_substitute_matches_evaluate():
    # on Fraction coefficients too, checked by value
    rng = random.Random(3)
    for i in range(60):
        pick = (lambda: rng.randint(-2, 2)) if i % 2 else \
            (lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        poly = Polynomial(
            2,
            {(rng.randint(0, 3), rng.randint(0, 3)): pick() for _ in range(4)},
        )
        a = [pick() for _ in range(3)]
        b = [pick() for _ in range(3)]
        # composite degree is at most 2*(3+3) = 12, so 13 coefficients suffice
        branch = (tuple(a + [0] * 10), tuple(b + [0] * 10))
        out = series_substitute(poly, branch)
        for t in (0, 1, 2, Fraction(1, 3)):
            xval = sum(c * t ** i for i, c in enumerate(a))
            yval = sum(c * t ** i for i, c in enumerate(b))
            sval = sum(c * t ** i for i, c in enumerate(out))
            assert sval == poly.evaluate((xval, yval))


def _naive_orders(rows):
    """Realized vanishing orders of a row span, by brute force over the
    span's one-dimensional pieces: order k is realized when the span
    restricted to the first k columns loses rank."""
    n = len(rows)
    ncols = len(rows[0])

    def rank(cols):
        mat = [[Fraction(r[c]) for c in cols] for r in rows]
        piv, _ = pivot_orders(mat) if cols else ([], 0)
        return len(piv)

    orders = []
    prev = 0
    for k in range(ncols):
        cur = rank(range(k + 1))
        if cur > prev:
            orders.extend([k] * (cur - prev))
        prev = cur
    return orders, n - prev


def test_pivot_orders_examples():
    assert pivot_orders([[1, 0, 0], [0, 0, 1]]) == ([0, 2], 0)
    assert pivot_orders([[0, 1, 2], [0, 2, 4]]) == ([1], 1)
    assert pivot_orders([[0, 0], [0, 0]]) == ([], 2)
    with pytest.raises(ValueError):
        pivot_orders([])


def test_pivot_orders_against_naive_span():
    rng = random.Random(19)
    for _ in range(150):
        n = rng.randint(1, 4)
        ncols = rng.randint(1, 6)
        rows = [
            [rng.choice([0, 0, 1, -1, 2, Fraction(1, 2)]) for _ in range(ncols)]
            for _ in range(n)
        ]
        pivots, deficiency = pivot_orders(rows)
        naive, naive_def = _naive_orders(rows)
        assert pivots == naive
        assert deficiency == naive_def


def test_pivot_orders_row_operations_invariance():
    rng = random.Random(5)
    for _ in range(40):
        rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)]
        base = pivot_orders(rows)
        # an invertible row mix keeps the span, hence the orders
        mixed = [
            [rows[0][c] + 2 * rows[1][c] for c in range(5)],
            [rows[1][c] for c in range(5)],
            [rows[2][c] - rows[0][c] for c in range(5)],
        ]
        rng.shuffle(mixed)
        assert pivot_orders(mixed) == base


# -- coefficient representation ---------------------------------------------


def test_series_coefficients_are_ints():
    # int polynomials on int series, and the branches local_branch solves
    # over Z, stay in ints
    rng = random.Random(13)
    x, y = variable(2, 0), variable(2, 1)
    for _ in range(30):
        n = rng.randint(1, 7)
        a, b = (tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(2))
        polys = [x + y, x - y, -x, x * y, 2 * x, x ** 3, constant(2, 6), Polynomial(2)]
        polys.append(Polynomial(2, {
            (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-3, 3) for _ in range(4)
        }))
        for poly in polys:
            assert all(type(c) is int for c in series_substitute(poly, (a, b)))
    for _ in range(10):
        surface = rng.choice((Surface.P2, Surface.QUADRIC))
        d = rng.randint(3, 4)
        curve = _curve_with_tangent_coefficient(rng, surface, d)
        branch, _, powers = local_branch(curve, 2 * d + 1)
        for series in (*branch, *powers):
            assert all(type(c) is int for c in series), series


def _branch_by_full_substitutions(curve, N):
    """local_branch as first written: every Newton step substitutes the
    whole length-N series to read one coefficient. The oracle, with the
    windowed solve, for the online one."""
    f, free, shifts = affine_chart(curve.surface, curve.equation, curve.point)
    fu = f.terms.get((1, 0), 0)
    fv = f.terms.get((0, 1), 0)
    s = (0, 1) + (0,) * (N - 2)
    solved = [0] * N
    if fv != 0:
        pair, slope = (lambda w: (s, w)), fv
    else:
        pair, slope = (lambda w: (w, s)), fu
    for k in range(1, N):
        e = series_substitute(f, pair(tuple(solved)))[k]
        if e:
            solved[k] = canonical(Fraction(-e, slope))
    aff = dict(zip(free, pair(tuple(solved))))
    return tuple(
        constant_plus(shifts[i], aff[i]) if i in aff else constant_plus(1, (0,) * N)
        for i in range(curve.surface.nvars)
    )


def _curve_with_tangent_coefficient(rng, surface, d):
    """A plane or quadric curve through a rational point whose chart at the
    point has linear terms with coefficients 2 or 3 along u, along v or
    both (with none along v, df/dv = 0 and the branch is solved for u),
    and random integer terms of order 2 to d. The point is (1 : a : b) on
    the plane and ((1 : a), (1 : b)) on the quadric, so the chart sets x0
    (and y0) to 1 and u, v are the shifted x1, x2 (resp. x1, y1)."""
    a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    b = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    directions = rng.choice(("u", "v", "uv"))
    n = surface.nvars
    x = [variable(n, i) for i in range(n)]
    if surface is Surface.P2:
        linear = {"u": (d - 1, 1, 0), "v": (d - 1, 0, 1)}
        exps = [(d - i - j, i, j) for i in range(d + 1) for j in range(d + 1 - i)]
        point = (1, a, b)
        shift = [x[0], x[1] - a * x[0], x[2] - b * x[0]]
    else:
        linear = {"u": (d - 1, 1, d, 0), "v": (d, 0, d - 1, 1)}
        exps = [(d - i, i, d - j, j) for i in range(d + 1) for j in range(d + 1)]
        point = (1, a, 1, b)
        shift = [x[0], x[1] - a * x[0], x[2], x[3] - b * x[2]]
    higher = [e for e in exps if e[1] + e[-1] >= 2]
    terms = {linear[axis]: rng.choice((2, 3)) for axis in directions}
    for _ in range(rng.randint(2, 6)):
        terms[rng.choice(higher)] = rng.choice((-3, -2, -1, 1, 2, 3))
    eq = substitute(Polynomial(n, terms), shift)
    return PointedCurve(surface, d, tuple(Fraction(c) for c in point), eq)


def _is_rescaling(new, old):
    """Is new[i][k] == lam * mu^k * old[i][k] for one lam and one mu, for
    every coordinate i and order k?"""
    i = next(i for i, series in enumerate(old) if series[0])
    lam = Fraction(new[i][0]) / old[i][0]
    i = next(i for i, series in enumerate(old) if series[1])
    mu = Fraction(new[i][1]) / (lam * old[i][1])
    return all(
        a == lam * mu ** k * b for n, o in zip(new, old) for k, (a, b) in enumerate(zip(n, o))
    )


def test_local_branch_matches_full_substitution_solve():
    # the integer solve against the windowed and the full-substitution
    # ones in Fractions, on both surfaces and in both solve directions: the
    # same branch up to one constant and a reparametrisation s -> mu * s
    rng = random.Random(31)
    fractional = 0
    directions = set()
    for i in range(40):
        surface = (Surface.P2, Surface.QUADRIC)[i % 2]
        d = rng.randint(3, 5)
        curve = _curve_with_tangent_coefficient(rng, surface, d)
        chart, _, _ = affine_chart(surface, curve.equation, curve.point)
        directions.add((surface, (0, 1) in chart.terms))
        for N in (2, 4, 2 * d + 1):
            branch = homogeneous_branch(curve, N)
            assert all(type(c) is int for series in branch for c in series)
            old = windowed_branch(curve, N)
            assert old == _branch_by_full_substitutions(curve, N)
            assert _is_rescaling(branch, old)
            fractional += any(type(c) is Fraction for series in old for c in series)
    assert len(directions) == 4
    assert fractional  # the rescaling clears denominators


def test_pivot_orders_match_gauss_jordan():
    # the forward elimination of pivot_orders against Gauss-Jordan pivots
    rng = random.Random(61)
    deficient = 0
    for _ in range(400):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        fractional = rng.random() < 0.5
        rows = []
        for _ in range(nrows):
            if rows and rng.random() < 0.2:
                # a combination of earlier rows, so the rank drops
                a, b = rng.choice(rows), rng.choice(rows)
                k = rng.randint(-2, 2)
                rows.append([x + k * y for x, y in zip(a, b)])
                continue
            row = [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(ncols)]
            if fractional:
                row = [Fraction(x, rng.randint(1, 6)) for x in row]
            rows.append(row)
        pivots, deficiency = pivot_orders(rows)
        _, expected, _ = gauss_jordan(rows)
        assert (pivots, deficiency) == (expected, nrows - len(expected))
        deficient += len(pivots) < min(nrows, ncols)
    assert deficient > 20
