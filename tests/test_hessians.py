import itertools
import re
from fractions import Fraction

import pytest

from wallcross.curves import Surface
from wallcross.hessians import (
    DivisorClass,
    analyzed_slopes,
    h2prime_class,
    relative_hessian_class,
    symmetrized_class_quadric,
    wall_slope,
)

from oracles import (
    explicit_analyzed_slopes,
    explicit_class_components,
    explicit_h0_excess,
    explicit_symmetrized_components,
    explicit_wall_slope,
)


def test_plane_first_order_class_table():
    # (A, B) with A = (n+1)m + C(n+1,2)(d-3), n+1 = number of sections
    for d in range(3, 7):
        cls = relative_hessian_class(Surface.P2, d, 1)
        assert cls.components == (3 * (d - 2), 3)


def test_plane_second_order_class():
    for d in range(3, 7):
        cls = relative_hessian_class(Surface.P2, d, 2)
        assert cls.components == (15 * d - 33, 15)
        assert h2prime_class(d).components == (12 * d - 27, 12)


def test_quadric_classes():
    for d in range(3, 7):
        c01 = relative_hessian_class(Surface.QUADRIC, d, (0, 1))
        assert c01.components == (d - 2, d, 1)
        sym01 = symmetrized_class_quadric(d, 0, 1)
        assert sym01.components == (2 * (d - 1), 2 * (d - 1), 2)
        c11 = relative_hessian_class(Surface.QUADRIC, d, (1, 1))
        assert c11.components == (6 * d - 8, 6 * d - 8, 6)
        assert symmetrized_class_quadric(d, 1, 1).components == c11.components
        assert symmetrized_class_quadric(d, 1, 1).components == (
            2 * (3 * d - 4),
            2 * (3 * d - 4),
            6,
        )


def test_wall_slopes_from_class_ratios():
    for d in range(3, 7):
        assert wall_slope(relative_hessian_class(Surface.P2, d, 1)) == Fraction(d - 2)
        assert wall_slope(h2prime_class(d)) == Fraction(4 * d - 9, 4)
        assert wall_slope(symmetrized_class_quadric(d, 0, 1)) == Fraction(d - 1)
        assert wall_slope(symmetrized_class_quadric(d, 1, 1)) == Fraction(3 * d - 4, 3)


def test_wall_slope_rejects_asymmetric_quadric_class():
    cls = relative_hessian_class(Surface.QUADRIC, 4, (0, 1))
    with pytest.raises(ValueError):
        wall_slope(cls)


def test_analyzed_slopes():
    for d in range(3, 7):
        lo, hi = analyzed_slopes(Surface.P2, d)
        assert (lo, hi) == (Fraction(4 * d - 9, 4), Fraction(d - 2))
        lo, hi = analyzed_slopes(Surface.QUADRIC, d)
        assert (lo, hi) == (Fraction(3 * d - 4, 3), Fraction(d - 1))


def test_order_bounds_rejected():
    with pytest.raises(ValueError):
        relative_hessian_class(Surface.P2, 3, 3)
    with pytest.raises(ValueError):
        relative_hessian_class(Surface.QUADRIC, 3, (0, 3))
    with pytest.raises(ValueError):
        relative_hessian_class(Surface.QUADRIC, 3, (0, 0))
    with pytest.raises(ValueError):
        relative_hessian_class(Surface.P2, 3, 0)


def test_class_shapes():
    p = relative_hessian_class(Surface.P2, 5, 1)
    assert p.surface is Surface.P2 and len(p.components) == 2
    q = relative_hessian_class(Surface.QUADRIC, 5, (1, 2))
    assert q.surface is Surface.QUADRIC and len(q.components) == 3


def test_class_formula_matches_the_explicit_formulas():
    # one formula over the factors against the plane and quadric formulas
    # written out, at every valid bundle degree
    for d in range(3, 16):
        for m in range(1, d):
            cls = relative_hessian_class(Surface.P2, d, m)
            assert cls.components == explicit_class_components(Surface.P2, d, m)
            assert cls.description == f"osculation class for forms of degree {m}"
            assert wall_slope(cls) == explicit_wall_slope(Surface.P2, cls.components)
        for m1, m2 in itertools.product(range(d), repeat=2):
            if (m1, m2) == (0, 0):
                continue
            cls = relative_hessian_class(Surface.QUADRIC, d, (m1, m2))
            assert cls.components == explicit_class_components(Surface.QUADRIC, d, (m1, m2))
            assert cls.description == f"osculation class for forms of bidegree {(m1, m2)}"
            want = explicit_wall_slope(Surface.QUADRIC, cls.components)
            if want is None:
                with pytest.raises(ValueError, match="class is not symmetric between the rulings"):
                    wall_slope(cls)
            else:
                assert wall_slope(cls) == want
            sym = symmetrized_class_quadric(d, m1, m2)
            assert sym.components == explicit_symmetrized_components(d, m1, m2)
            assert wall_slope(sym) == explicit_wall_slope(Surface.QUADRIC, sym.components)
        for surface in Surface:
            assert analyzed_slopes(surface, d) == explicit_analyzed_slopes(surface, d)


def _raises(message, *args):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        relative_hessian_class(*args)


def test_class_errors_keep_their_messages():
    for d in (2, 0, -1, 3.0, "3", None):
        _raises("degree must be an integer >= 3", Surface.P2, d, 1)
        _raises("degree must be an integer >= 3", Surface.QUADRIC, d, (1, 1))
    for m in (0, -1, True, False, 1.5, "1", (1,), None):
        _raises("bundle degree must be a positive integer", Surface.P2, 4, m)
    bad = "bidegree must be a pair of non-negative integers"
    for m in (2, (1,), (1, 1, 1), (-1, 2), (1.5, 1), (True, 1), (1, False), "11", None):
        _raises(bad, Surface.QUADRIC, 4, m)
    _raises("bidegree (0, 0) carries no sections to osculate", Surface.QUADRIC, 4, (0, 0))
    for d in range(3, 7):
        for m in range(d, d + 4):
            h0 = explicit_h0_excess(Surface.P2, d, m)
            _raises(
                f"bundle degree {m} >= curve degree {d}: the rank correction "
                f"h0 = {h0} is nonzero and the class formula breaks",
                Surface.P2, d, m,
            )
        for m in itertools.product(range(d + 3), repeat=2):
            if max(m) >= d:
                h0 = explicit_h0_excess(Surface.QUADRIC, d, m)
                _raises(
                    f"bidegree {m} reaches the curve degree {d}: the rank "
                    f"correction h0 = {h0} applies and the class formula breaks",
                    Surface.QUADRIC, d, m,
                )
