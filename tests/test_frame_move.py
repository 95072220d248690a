"""The frame move through the integer adjugate, against the g^-1
substitution it replaced, on random plane and quadric frames: integer and
fractional, with and without the exchange of the rulings."""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from wallcross.curves import (  # noqa: E402
    FrameChange,
    PointedCurve,
    Surface,
    adjugate,
    all_exponents,
    apply_frame,
    move_curve,
)
from wallcross.polynomials import Polynomial  # noqa: E402

from oracles import frame_inverse, frame_point  # noqa: E402


def _inverse_substitution(curve, frame):
    """Oracle: the frame move as C o g^-1, substituting the rows of g^-1
    computed by Gauss-Jordan inversion, and p' = g(p)."""
    inv = frame_inverse(frame)
    n = curve.surface.nvars

    def linear(slots, row):
        return Polynomial(n, {
            tuple(int(k == s) for k in range(n)): c for s, c in zip(slots, row) if c
        })

    if curve.surface is Surface.P2:
        subs = [linear((0, 1, 2), row) for row in inv.mx]
    elif frame.swap:
        # g(x, y) = (my y, mx x): the old x are forms in the new y, by the
        # rows of mx^-1, which the inverse frame holds as its my
        subs = [linear((2, 3), row) for row in inv.my] + [linear((0, 1), row) for row in inv.mx]
    else:
        subs = [linear((0, 1), row) for row in inv.mx] + [linear((2, 3), row) for row in inv.my]
    return curve.equation.substitute(subs), frame_point(frame, curve.point)


def _rationals(draw, n, nonzero=False):
    """n rationals: integers in [-3, 3] over one drawn denominator."""
    den = draw(st.sampled_from((1, 1, 2, 3)))
    ints = st.sampled_from((-3, -2, -1, 1, 2, 3)) if nonzero else st.integers(-3, 3)
    nums = draw(st.lists(ints, min_size=n, max_size=n))
    return [Fraction(a, den) for a in nums]


def _matrix(draw, n):
    entries = _rationals(draw, n * n)
    return [entries[i:i + n] for i in range(0, n * n, n)]


@st.composite
def _curves_and_frames(draw):
    surface = draw(st.sampled_from(list(Surface)))
    d = draw(st.integers(3, 4))
    exps = draw(st.lists(
        st.sampled_from(all_exponents(surface, d)), min_size=1, max_size=8, unique=True
    ))
    coeffs = _rationals(draw, len(exps), nonzero=True)
    point = tuple(_rationals(draw, surface.nvars))
    if surface is Surface.P2:
        assume(any(point))
        mx = _matrix(draw, 3)
        assume(adjugate(mx)[1] != 0)
        frame = FrameChange(surface, mx)
    else:
        assume(any(point[:2]) and any(point[2:]))
        mx, my = _matrix(draw, 2), _matrix(draw, 2)
        assume(adjugate(mx)[1] != 0 and adjugate(my)[1] != 0)
        frame = FrameChange(surface, mx, my, swap=draw(st.booleans()))
    curve = PointedCurve(surface, d, point, Polynomial(surface.nvars, dict(zip(exps, coeffs))))
    return curve, frame


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_curves_and_frames())
def test_move_through_the_adjugate_matches_the_inverse_substitution(case):
    curve, frame = case
    exact = apply_frame(curve, frame)
    equation, point = _inverse_substitution(curve, frame)
    assert exact.equation == equation and exact.point == point
    # the unscaled move, which the frame search uses, has the support and
    # the point zero pattern of the exact move, and its scalar restores it
    moved, scale = move_curve(curve, frame.mx, frame.my, frame.swap)
    assert set(moved.equation.terms) == set(exact.equation.terms)
    assert [c != 0 for c in moved.point] == [c != 0 for c in exact.point]
    assert moved.equation * scale == exact.equation
    integral = (
        all(type(c) is int for c in curve.equation.terms.values())
        and all(x.denominator == 1 for row in frame.mx + (frame.my or ()) for x in row)
    )
    if integral:
        assert all(type(c) is int for c in moved.equation.terms.values())


def test_apply_frame_point_is_the_frame_image():
    # apply_frame reads g(p) off the integer image M p of move_curve; on
    # the curves and frames of the torus corpus, and on the inverse frames
    # (fractional matrices) and the points they move, it is g(p) by the matrices
    from test_torus_corpus import _frame, cases

    rng = random.Random(20261)
    seen = set()
    curves = {id(curve): curve for _, curve, _ in cases(rng.randrange(10 ** 6))}
    for curve in curves.values():
        frame = _frame(curve.surface, rng)
        inverse = frame_inverse(frame)
        for c in (curve, apply_frame(curve, inverse)):
            for g in (frame, inverse):
                point = apply_frame(c, g).point
                assert point == frame_point(g, c.point)
                assert all(type(x) is Fraction for x in point)
                seen.add((c.surface, g.swap, any(x.denominator > 1 for x in c.point)))
    assert {(s, w) for s, w, _ in seen} >= {
        (Surface.P2, False), (Surface.QUADRIC, False), (Surface.QUADRIC, True)
    }
    assert any(frac for _, _, frac in seen)
