import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction
from operator import mul

import pytest

from wallcross.curves import (
    IDENTITY_FRAMES,
    FrameChange,
    PointedCurve,
    Surface,
    WitnessKind,
    _translation,
    adjugate,
    affine_chart,
    all_exponents,
    apply_frame,
    checked,
    contact_ge,
    curve_from_json,
    curve_to_json,
    local_geometry,
    make_witness,
    mat_vec,
    normalize_frame,
    restrict,
    validate,
)
from wallcross.criterion import OneParamSubgroup, mu_min
from wallcross.polynomials import Polynomial, constant, variable

from oracles import explicit_chart_coordinates, explicit_exponents, frame_inverse, substitute


def _p2(d, terms, point):
    return PointedCurve(Surface.P2, d, tuple(Fraction(c) for c in point), Polynomial(3, terms))


def mat_mul(a, b):
    n = len(b[0])
    return tuple(
        tuple(sum(ra[k] * b[k][j] for k in range(len(b))) for j in range(n))
        for ra in a
    )


def compose(outer, inner):
    """The frame doing inner first, then outer."""
    if outer.surface is not inner.surface:
        raise ValueError("surface mismatch")
    if outer.surface is Surface.P2:
        return FrameChange(outer.surface, mat_mul(outer.mx, inner.mx))
    if not inner.swap:
        return FrameChange(
            outer.surface,
            mat_mul(outer.mx, inner.mx),
            mat_mul(outer.my, inner.my),
            swap=outer.swap,
        )
    return FrameChange(
        outer.surface,
        mat_mul(outer.my, inner.mx),
        mat_mul(outer.mx, inner.my),
        swap=not outer.swap,
    )


def _rand_frame(surface, rng):
    while True:
        if surface is Surface.P2:
            m = tuple(
                tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3)
            )
            try:
                return FrameChange(surface, m)
            except ValueError:
                continue
        mx = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
        my = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
        try:
            return FrameChange(surface, mx, my, swap=bool(rng.getrandbits(1)))
        except ValueError:
            continue


def test_validate_violations():
    good = make_witness(WitnessKind.P2_FLEX, 3)
    assert validate(good) is None
    assert "degree" in validate(_p2(2, {(0, 2, 0): 1, (1, 0, 1): 1}, (0, 0, 1)))
    assert "lie on" in validate(_p2(3, {(3, 0, 0): 1, (0, 3, 0): 1}, (1, 0, 0)))
    assert "homogeneous" in validate(_p2(3, {(1, 0, 0): 1}, (0, 0, 1)))
    assert "zero vector" in validate(_p2(3, {(0, 3, 0): 1, (1, 0, 2): 1}, (0, 0, 0)))
    bad_q = PointedCurve(
        Surface.QUADRIC,
        3,
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
        Polynomial(4, {(1, 2, 0, 3): 1}),
    )
    assert "second factor" in validate(bad_q)
    bad_bideg = PointedCurve(
        Surface.QUADRIC,
        3,
        (Fraction(0), Fraction(1), Fraction(0), Fraction(1)),
        Polynomial(4, {(1, 1, 0, 3): 1}),
    )
    assert "bidegree" in validate(bad_bideg)
    # refused by `checked`, as every curve document is
    for curve, message in (
        (PointedCurve("p3", 3, good.point, good.equation), "^surface must be p2 or quadric$"),
        (PointedCurve(Surface.P2, 3, good.point, Polynomial(4, {(0, 3, 0, 0): 1})),
         "^equation has arity 4, expected 3$"),
    ):
        with pytest.raises(ValueError, match=message):
            checked(curve)


def test_all_exponents_counts():
    for d in (3, 4, 5):
        assert len(all_exponents(Surface.P2, d)) == (d + 1) * (d + 2) // 2
        assert len(all_exponents(Surface.QUADRIC, d)) == (d + 1) ** 2
    for exp in all_exponents(Surface.QUADRIC, 3):
        assert exp[0] + exp[1] == 3 and exp[2] + exp[3] == 3


def test_witnesses_validate():
    for kind in WitnessKind:
        d = 4 if kind is WitnessKind.P2_HYPERFLEX else 3
        w = make_witness(kind, d)
        assert validate(w) is None
    with pytest.raises(ValueError):
        make_witness(WitnessKind.P2_HYPERFLEX, 3)
    with pytest.raises(ValueError):
        make_witness(WitnessKind.P2_FLEX, 2)


def test_frame_inverse_round_trip():
    rng = random.Random(2)
    for kind in (WitnessKind.P2_S, WitnessKind.QUADRIC_S):
        c = make_witness(kind, 3)
        for _ in range(10):
            g = _rand_frame(c.surface, rng)
            moved = apply_frame(c, g)
            assert validate(moved) is None
            back = apply_frame(moved, frame_inverse(g))
            assert back.point == c.point
            assert back.equation == c.equation


def test_frames_compare_by_their_canonical_entries():
    # a frame keeps canonical entries, so int, Fraction and list matrices
    # give one frame: equal, of one hash and one repr; the integer data the
    # moves read takes part in none of them
    for surface, mats, swap in (
        (Surface.P2, [((1, 2, 0), (0, 1, 0), (3, 0, Fraction(1, 2)))], False),
        (Surface.QUADRIC, [((2, Fraction(1, 3)), (0, 1)), ((0, 1), (1, 0))], True),
    ):
        frames = [
            FrameChange(surface, *mats, swap=swap),
            FrameChange(surface, *[[[Fraction(x) for x in row] for row in m] for m in mats], swap=swap),
            FrameChange(surface, *[[list(row) for row in m] for m in mats], swap=swap),
        ]
        assert len(set(frames)) == 1 and len({repr(f) for f in frames}) == 1
        entries = [x for f in frames for m in (f.mx, f.my) if m for row in m for x in row]
        assert all(type(x) is int or (type(x) is Fraction and x.denominator > 1) for x in entries)
        frame, other = frames[0], replace(frames[0])
        object.__setattr__(other, "_integer", None)
        assert other == frame and hash(other) == hash(frame) and repr(other) == repr(frame)
        assert "_integer" not in repr(frame)


def test_frames_refuse_malformed_matrices():
    # a Surface, a bool swap, one matrix per factor of the surface, each
    # square of its factor's size and invertible, and a swap only with two
    # factors
    i2, i3 = IDENTITY_FRAMES[Surface.QUADRIC].mx, IDENTITY_FRAMES[Surface.P2].mx
    singular3 = ((1, 2, 3), (2, 4, 6), (0, 0, 1))
    for surface, mx, my, swap, message in (
        ("p2", i3, None, False, "surface must be p2 or quadric"),
        (None, i3, None, False, "surface must be p2 or quadric"),
        (Surface.QUADRIC, i2, i2, "yes", "swap must be True or False"),
        (Surface.QUADRIC, i2, i2, 1, "swap must be True or False"),
        (Surface.P2, i3, None, None, "swap must be True or False"),
        (Surface.P2, i3, i3, False, "one matrix per factor"),
        (Surface.P2, None, None, False, "one matrix per factor"),
        (Surface.QUADRIC, i2, None, False, "one matrix per factor"),
        (Surface.QUADRIC, None, i2, False, "one matrix per factor"),
        (Surface.P2, i3, None, True, "exchange"),
        (Surface.P2, i2, None, False, "3x3"),
        (Surface.P2, (*i3[:2], (0, 1)), None, False, "3x3"),
        (Surface.QUADRIC, i2, i3, False, "2x2"),
        (Surface.P2, singular3, None, False, "singular"),
        (Surface.QUADRIC, i2, ((1, 2), (Fraction(1, 2), 1)), True, "singular"),
    ):
        with pytest.raises(ValueError, match=message):
            FrameChange(surface, mx, my, swap)
    # a frame or a subgroup of the other surface is refused
    c = make_witness(WitnessKind.P2_FLEX, 3)
    with pytest.raises(ValueError, match="surface mismatch"):
        apply_frame(c, IDENTITY_FRAMES[Surface.QUADRIC])
    with pytest.raises(ValueError, match="different surfaces"):
        mu_min(c, OneParamSubgroup(Surface.QUADRIC, (1, 1)), 2)


def test_apply_frame_composes():
    rng = random.Random(8)
    for kind in (WitnessKind.P2_FLEX, WitnessKind.QUADRIC_X0):
        c = make_witness(kind, 3)
        for _ in range(10):
            g1 = _rand_frame(c.surface, rng)
            g2 = _rand_frame(c.surface, rng)
            a = apply_frame(apply_frame(c, g1), g2)
            b = apply_frame(c, compose(g2, g1))
            assert a.point == b.point
            assert a.equation == b.equation


def test_local_geometry_smooth_and_singular():
    # nodal cubic x0*x1*x2 - x1^3 - ... keep it simple: x2*(x0^2 - x1^2) + x1^3
    nodal = _p2(3, {(2, 0, 1): 1, (0, 2, 1): -1, (0, 3, 0): 1}, (0, 0, 1))
    geo = local_geometry(nodal)
    assert not geo.smooth_at_p
    assert geo.multiplicity == 2
    flex = make_witness(WitnessKind.P2_FLEX, 3)
    geo = local_geometry(flex)
    assert geo.smooth_at_p and geo.multiplicity == 1
    assert geo.tangent == (1, 0, 0)
    cusp = make_witness(WitnessKind.P2_CUSPIDAL_X0, 4)
    assert local_geometry(cusp).multiplicity == 1  # p is the smooth flex


def test_quadric_ruling_contacts():
    tangent = make_witness(WitnessKind.QUADRIC_RULING_TANGENT, 3)
    geo = local_geometry(tangent)
    assert geo.smooth_at_p
    c0, c1 = geo.ruling_contacts
    assert contact_ge(c0, 2) or contact_ge(c1, 2)
    assert not (contact_ge(c0, 2) and contact_ge(c1, 2))
    generic = PointedCurve(
        Surface.QUADRIC,
        3,
        (Fraction(0), Fraction(1), Fraction(0), Fraction(1)),
        Polynomial(4, {(1, 2, 0, 3): 1, (0, 3, 1, 2): 1, (3, 0, 3, 0): 1}),
    )
    assert local_geometry(generic).ruling_contacts == (1, 1)


def _ruling_contact_oracle(curve, factor):
    """Contact order at p of the ruling through p in the given factor
    (0 = constant x, 1 = constant y), read off an independent
    parametrization of that ruling by a line through p; None if the
    ruling is a component."""
    p = curve.point
    fixed_slots, moving_slots = ((0, 1), (2, 3)) if factor == 0 else ((2, 3), (0, 1))
    m0, m1 = (p[s] for s in moving_slots)
    if m1 != 0:
        param = (constant(1, m0) + variable(1, 0), constant(1, m1))
    else:
        param = (constant(1, m0), variable(1, 0))
    subs = [None] * 4
    for s in fixed_slots:
        subs[s] = constant(1, p[s])
    subs[moving_slots[0]], subs[moving_slots[1]] = param
    g = substitute(curve.equation, subs)
    if g.is_zero():
        return None
    return min(e[0] for e in g.terms)


def _random_quadric_curve(rng, d):
    """A random curve through ((0, 1), (0, 1)) of bidegree (d, d), or of
    bidegree (d + 1, d + 1) when it contains a ruling through that point as
    a component, which about a third do."""
    exps = [(a, d - a, b, d - b) for a in range(d + 1) for b in range(d + 1)]
    exps.remove((0, d, 0, d))
    terms = {e: rng.choice([-2, -1, 1, 3]) for e in rng.sample(exps, rng.randint(2, 6))}
    eq = Polynomial(4, terms)
    kind = rng.randrange(3)
    if kind == 1:
        eq = eq * Polynomial(4, {(1, 0, 0, 1): 1})  # x0*y1: the ruling {x0 = 0}
    elif kind == 2:
        eq = eq * Polynomial(4, {(0, 1, 1, 0): 1})  # x1*y0: the ruling {y0 = 0}
    point = tuple(Fraction(c) for c in (0, 1, 0, 1))
    return PointedCurve(Surface.QUADRIC, d + (kind > 0), point, eq)


def test_ruling_contacts_match_line_parametrization():
    rng = random.Random(41)
    components = 0
    for _ in range(60):
        c = _random_quadric_curve(rng, rng.randint(3, 4))
        assert validate(c) is None
        for frame in (None, _rand_frame(Surface.QUADRIC, rng)):
            moved = c if frame is None else apply_frame(c, frame)
            expected = (_ruling_contact_oracle(moved, 0), _ruling_contact_oracle(moved, 1))
            assert local_geometry(moved).ruling_contacts == expected
            components += None in expected
    assert components > 0


def _canonical(coeffs):
    """Is every coefficient an int, or a Fraction with denominator >= 2?"""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in coeffs)


def test_local_geometry_restricts_the_equation():
    # the chart's lines through p are what `restrict` gives on the form the
    # chart substitutes, the equation with its coefficients as given, also
    # where some of them are fractions
    rng = random.Random(52)
    lines = fractional = 0
    for i in range(120):
        surface = (Surface.P2, Surface.QUADRIC)[i % 2]
        d = rng.randint(3, 5)
        curve = _random_curve_through_point(rng, surface, d)
        if curve.equation.is_zero():
            continue
        fractional += any(type(c) is Fraction for c in curve.equation.terms.values())
        for line in local_geometry(curve).restrictions:
            restricted = restrict(curve.equation, line.base, line.direction, d)
            assert restricted == line and _canonical(restricted.coeffs), curve
            lines += 1
    assert lines >= 100 and fractional >= 20


def test_local_geometry_reads_the_tangent_off_the_chart():
    # the tangent read off the chart's linear part, with Euler's relation
    # for the fixed coordinate, is the gradient at p, at points of every
    # zero pattern, so the chart fixes each of x0, x1 and x2
    rng = random.Random(67)
    fixed, smooth = set(), 0
    for pattern in _zero_patterns(Surface.P2):
        for _ in range(20):
            d = rng.randint(3, 5)
            scales = (Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3)) for _ in pattern)
            p = tuple(map(mul, pattern, scales))
            l = next(i for i in range(3) if p[i])
            terms = {
                e: Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
                for e in rng.sample(all_exponents(Surface.P2, d), rng.randint(2, 6))
            }
            g = Polynomial(3, terms)
            # g minus g(p) times x_l^d / p_l^d passes through p
            equation = g - g.evaluate(p) / p[l] ** d * variable(3, l) ** d
            if equation.is_zero():
                continue
            curve = PointedCurve(Surface.P2, d, p, equation)
            gradient = tuple(equation.partial_derivative(i).evaluate(p) for i in range(3))
            geo = local_geometry(curve)
            if geo.smooth_at_p:
                assert geo.tangent == gradient, curve
                fixed.add(l)
                smooth += 1
            else:
                assert geo.tangent is None and not any(gradient), curve
    assert fixed == {0, 1, 2} and smooth >= 100


def test_adjugate_matches_leibniz_and_inverts():
    # the adjugate is the one determinant and inverse of the package
    rng = random.Random(43)
    singular = 0
    for n in (2, 3):
        perms = list(itertools.permutations(range(n)))
        for _ in range(200):
            m = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n))
            leibniz = sum(
                _perm_sign(perm) * math.prod(m[i][perm[i]] for i in range(n))
                for perm in perms
            )
            adj, det = adjugate(m)
            assert det == leibniz
            singular += det == 0
            scalar = tuple(tuple(det * (i == j) for j in range(n)) for i in range(n))
            assert mat_mul(adj, m) == mat_mul(m, adj) == scalar
    assert singular > 0


def _perm_sign(perm):
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def test_normalize_frame_postconditions_plane():
    rng = random.Random(13)
    base = make_witness(WitnessKind.P2_FLEX, 4)
    for _ in range(8):
        c = apply_frame(base, _rand_frame(Surface.P2, rng))
        g, moved = normalize_frame(c)
        assert moved.point == (0, 0, 1)
        grad = tuple(
            moved.equation.partial_derivative(i).evaluate(moved.point)
            for i in range(3)
        )
        assert grad[1] == 0 and grad[2] == 0 and grad[0] != 0
        # the returned frame does exactly that move
        again = apply_frame(c, g)
        assert again.point == moved.point
        assert again.equation == moved.equation


def test_normalize_frame_postconditions_quadric():
    rng = random.Random(17)
    base = make_witness(WitnessKind.QUADRIC_RULING_TANGENT, 3)
    for _ in range(8):
        c = apply_frame(base, _rand_frame(Surface.QUADRIC, rng))
        g, moved = normalize_frame(c)
        assert moved.point == (0, 1, 0, 1)
        cx, cy = local_geometry(moved).ruling_contacts
        assert contact_ge(cy, 2)
        assert not contact_ge(cx, 2)


def test_translation_sends_the_vector_to_the_last_coordinate_point():
    # for every l with v_l != 0: the others e_a - (v_a / v_l) e_l, a != l in
    # order, lie on the line v . x = 0, and with e_l / v_l last they form a
    # frame sending v to the last unit vector; every entry is canonical
    rng = random.Random(36)
    tried = 0
    for n in (2, 3):
        unit = tuple(int(i == n - 1) for i in range(n))
        for _ in range(40):
            ints = [rng.choice((0, rng.randint(-6, 6))) for _ in range(n)]
            fracs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
            for v in (ints, fracs):
                for l in (i for i in range(n) if v[i] != 0):
                    others, last = _translation(v, l)
                    assert len(others) == n - 1
                    for a, row in zip((i for i in range(n) if i != l), others):
                        assert all(row[i] == (i == a) for i in range(n) if i != l)
                    assert all(sum(map(mul, row, v)) == 0 for row in others)
                    assert mat_vec((*others, last), v) == unit
                    assert all(_canonical(row) for row in (*others, last)), (v, l)
                    tried += 1
    assert tried > 200


def _normalize_frame_two_moves(curve):
    """Oracle: the normalizing frame as two moves. First p goes to the
    coordinate point; then, read off the moved curve, the plane frame
    turns the gradient at (0, 0, 1) into the first row, and the quadric
    frame swaps the factors when only the constant-x ruling is tangent.
    Returns (the composed frame, the curve moved twice)."""
    p = curve.point
    smooth = local_geometry(curve).smooth_at_p
    if curve.surface is Surface.P2:
        l0 = next(i for i in range(3) if p[i] != 0)
        rows = []
        for a in (i for i in range(3) if i != l0):
            row = [Fraction(0)] * 3
            row[a], row[l0] = Fraction(1), -Fraction(p[a]) / p[l0]
            rows.append(row)
        last = [Fraction(0)] * 3
        last[l0] = 1 / Fraction(p[l0])
        g = FrameChange(Surface.P2, rows + [last])
        moved = apply_frame(curve, g)
        if smooth:
            grad = tuple(
                moved.equation.partial_derivative(i).evaluate(moved.point)
                for i in range(3)
            )
            if grad[1] != 0 or grad[2] != 0:
                mid = (0, 1, 0) if grad[0] != 0 else (1, 0, 0)
                g2 = FrameChange(Surface.P2, (grad, mid, (0, 0, 1)))
                g, moved = compose(g2, g), apply_frame(moved, g2)
        return g, moved

    def factor(c0, c1):
        c0, c1 = Fraction(c0), Fraction(c1)
        return ((1, -c0 / c1), (0, 1 / c1)) if c1 != 0 else ((0, 1), (1 / c0, 0))

    g = FrameChange(Surface.QUADRIC, factor(p[0], p[1]), factor(p[2], p[3]))
    moved = apply_frame(curve, g)
    if smooth:
        cx, cy = local_geometry(moved).ruling_contacts
        if contact_ge(cx, 2) and not contact_ge(cy, 2):
            identity = ((1, 0), (0, 1))
            flip = FrameChange(Surface.QUADRIC, identity, identity, swap=True)
            g, moved = compose(flip, g), apply_frame(moved, flip)
    return g, moved


def _random_curve_through_point(rng, surface, d):
    """A random curve of degree d, or bidegree (d, d), through a random
    point with fractional coordinates. About half are a line (plane) or a
    ruling (quadric) through the point times a random form, so the point
    is singular, or a ruling through it is a component."""
    n = surface.nvars
    p = (0,) * n
    while not (any(p) if surface is Surface.P2 else any(p[:2]) and any(p[2:])):
        p = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
    lx = next(i for i in range(n) if p[i] != 0)
    factor, rest = constant(n, 1), d
    if rng.random() < 0.5:
        rest = d - 1
        if surface is Surface.P2:
            a, b = (i for i in range(3) if i != lx)
            ca, cb = rng.randint(-2, 2), rng.randint(-2, 2)
            lc = -(ca * p[a] + cb * p[b]) / p[lx]
            factor = ca * variable(3, a) + cb * variable(3, b) + lc * variable(3, lx)
        else:
            # the ruling with constant x, or with constant y, times a form
            # of the other factor
            s0, s1, o0, o1 = (0, 1, 2, 3) if rng.random() < 0.5 else (2, 3, 0, 1)
            ruling = p[s1] * variable(4, s0) - p[s0] * variable(4, s1)
            factor = ruling * (rng.randint(-2, 2) * variable(4, o0) + variable(4, o1))
    exps = all_exponents(surface, rest)
    g = Polynomial(n, {e: rng.choice([-2, -1, 1, 3])
                       for e in rng.sample(exps, rng.randint(1, 5))})
    if rest == d or rng.random() < 0.5:
        # let the random form pass through p too, by subtracting a multiple
        # of a monomial that does not vanish there
        anchor = [0] * n
        anchor[lx] = rest
        if surface is Surface.QUADRIC:
            anchor[2 if p[2] != 0 else 3] = rest
        at_p = Polynomial(n, {tuple(anchor): 1}).evaluate(p)
        g = g - Polynomial(n, {tuple(anchor): g.evaluate(p) / at_p})
    return PointedCurve(surface, d, p, factor * g)


def test_normalize_frame_matches_two_moves():
    rng = random.Random(53)
    curves = []
    for kind in WitnessKind:
        for d in range(3, 7):
            if kind is not WitnessKind.P2_HYPERFLEX or d > 3:
                curves.append(make_witness(kind, d))
    curves += [apply_frame(c, _rand_frame(c.surface, rng)) for c in list(curves)]
    for surface in (Surface.P2, Surface.QUADRIC):
        for _ in range(150):
            c = _random_curve_through_point(rng, surface, rng.randint(3, 4))
            if validate(c) is None:
                curves.append(c)
    turned = swapped = singular = components = 0
    for c in curves:
        g, moved = normalize_frame(c)
        expected_g, expected = _normalize_frame_two_moves(c)
        assert g == expected_g
        assert moved.point == expected.point
        assert moved.equation == expected.equation
        geo = local_geometry(c)
        turned += geo.tangent is not None and g.mx[0] == geo.tangent
        swapped += g.swap
        singular += not geo.smooth_at_p
        components += c.surface is Surface.QUADRIC and None in geo.ruling_contacts
    fractional = sum(any(Fraction(x).denominator > 1 for x in c.point) for c in curves)
    assert len(curves) > 300 and fractional > 150
    assert turned > 100 and swapped > 20 and singular > 80 and components > 50


def test_identity_normalizing_frame_moves_nothing():
    # a curve in standard position already is its own moved curve, and a
    # curve moved off it is moved back
    for kind in (WitnessKind.P2_FLEX, WitnessKind.QUADRIC_S, WitnessKind.QUADRIC_X0):
        for d in range(3, 7):
            c = make_witness(kind, d)
            g, moved = normalize_frame(c)
            assert g is IDENTITY_FRAMES[c.surface]
            assert moved is c
            shifted = apply_frame(c, _rand_frame(c.surface, random.Random(d)))
            g, moved = normalize_frame(shifted)
            assert moved is not shifted and moved.point == apply_frame(shifted, g).point


def test_multiplicity_is_frame_invariant():
    rng = random.Random(29)
    nodal = _p2(3, {(2, 0, 1): 1, (0, 2, 1): -1, (0, 3, 0): 1}, (0, 0, 1))
    for _ in range(10):
        moved = apply_frame(nodal, _rand_frame(Surface.P2, rng))
        assert local_geometry(moved).multiplicity == 2


def test_json_round_trip():
    for kind in WitnessKind:
        d = 4 if kind is WitnessKind.P2_HYPERFLEX else 3
        w = make_witness(kind, d)
        doc = curve_to_json(w)
        back = curve_from_json(doc)
        assert back.surface is w.surface
        assert back.degree == w.degree
        assert back.point == w.point
        assert back.equation == w.equation


def test_json_rejections():
    doc = curve_to_json(make_witness(WitnessKind.P2_FLEX, 3))
    for mutate in [
        lambda d: d.pop("surface"),
        lambda d: d.update(surface="p3"),
        lambda d: d.update(extra=1),
        lambda d: d["terms"][0].update(coeff="2/4"),
        lambda d: d["terms"][0].update(coeff="0"),
        lambda d: d["terms"].append(dict(d["terms"][0])),
        lambda d: d.update(point=["1", "1", "0"]),
        lambda d: d["terms"][0].update(exp=[1, 1, 0]),
        lambda d: d["terms"][0].update(exp=[1, -1, 3]),
    ]:
        bad = curve_to_json(make_witness(WitnessKind.P2_FLEX, 3))
        mutate(bad)
        with pytest.raises(ValueError):
            curve_from_json(bad)


def test_exponents_match_the_explicit_enumeration():
    # the order too: vanishing sequences and claim replays list them so
    for d in range(9):
        assert all_exponents(Surface.P2, d) == explicit_exponents(Surface.P2, (d,))
        assert all_exponents(Surface.QUADRIC, d) == explicit_exponents(Surface.QUADRIC, (d, d))


def _zero_patterns(surface):
    """A point for every set of zero coordinates that leaves each factor a
    nonzero coordinate, its other coordinates nonzero rationals."""
    values = (Fraction(2), Fraction(-3, 2), Fraction(5, 3), Fraction(-1, 4))
    for zeros in itertools.product((False, True), repeat=surface.nvars):
        point = tuple(Fraction(0) if z else v for z, v in zip(zeros, values))
        if all(any(point[i] for i in b) for b in surface.blocks):
            yield point


def test_chart_coordinates_match_the_explicit_charts_at_every_zero_pattern():
    # and the chart is the form with shifts[i] + u (or + v) put in for each
    # free coordinate and 1 for each fixed one, term by term, for integral
    # and Fraction forms of degree 2 and 3
    for surface in Surface:
        n = surface.nvars
        points = list(_zero_patterns(surface))
        assert len(points) == (7 if surface is Surface.P2 else 9)
        for d in (2, 3):
            exps = all_exponents(surface, d)
            forms = (Polynomial(n, {e: 1 for e in exps}),
                     Polynomial(n, {e: Fraction(2 * k - 7, 1 + k % 3) for k, e in enumerate(exps)}))
            for form, point in itertools.product(forms, points):
                f, free, shifts = affine_chart(surface, form, point)
                assert (free, shifts) == explicit_chart_coordinates(surface, point)
                subs = [constant(2, 1)] * n
                for k, i in enumerate(free):
                    subs[i] = constant(2, shifts[i]) + variable(2, k)
                assert f == substitute(form, subs), (form, point)
                assert _canonical(f.terms.values()), (form, point)


def test_validate_messages():
    def q(terms, point):
        return PointedCurve(
            Surface.QUADRIC, 3, tuple(Fraction(c) for c in point), Polynomial(4, terms)
        )

    assert validate(_p2(3, {(0, 3, 0): 1}, (0, 0, 0))) == "point is the zero vector"
    assert validate(q({(1, 2, 0, 3): 1}, (0, 0, 1, 0))) == "point has zero first factor"
    assert validate(q({(1, 2, 0, 3): 1}, (1, 0, 0, 0))) == "point has zero second factor"
    assert validate(q({(1, 2, 0, 3): 1}, (0, 0, 0, 0))) == "point has zero first factor"
    # the first offending term in the order of the equation, whichever
    # factor it is off on
    assert validate(_p2(3, {(1, 2, 0): 1, (1, 0, 0): 1, (0, 0, 2): 1}, (0, 0, 1))) == (
        "term (1, 0, 0) is not homogeneous of degree 3"
    )
    curve = q({(1, 2, 1, 2): 1, (1, 2, 0, 2): 1, (1, 1, 0, 3): 1}, (0, 1, 0, 1))
    assert validate(curve) == "term (1, 2, 0, 2) does not have bidegree (3, 3)"
    curve = q({(1, 2, 1, 2): 1, (1, 1, 0, 3): 1, (1, 2, 0, 2): 1}, (0, 1, 0, 1))
    assert validate(curve) == "term (1, 1, 0, 3) does not have bidegree (3, 3)"
