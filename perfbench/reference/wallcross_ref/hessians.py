"""Divisor classes of osculation degeneracy loci, and the slopes they give.

The class of the locus where sections of a degree-m (resp. bidegree-(m1,m2))
bundle osculate the curve to excess order is linear in two generators: the
marked-point part and the curve-family part. Only the ratio of the two
components matters downstream; those ratios are the critical slopes of the
whole analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .curves import Surface


@dataclass(frozen=True)
class DivisorClass:
    """components: (A, B) on the plane, meaning A*(point part) + B*(family
    part); (A1, A2, B) on the quadric, with one point part per ruling."""

    surface: Surface
    components: tuple
    description: str = ""


def _h0_excess(surface, d, m):
    """Rank correction term h0 of the twist by the inverse curve bundle.
    Zero exactly in the regime the pushforward formula is valid."""
    if surface is Surface.P2:
        return comb(m - d + 2, 2) if m >= d else 0
    m1, m2 = m
    if m1 >= d and m2 >= d:
        return (m1 - d + 1) * (m2 - d + 1)
    return 0


def relative_hessian_class(surface, d, m):
    """Class of the locus where the full space of degree-m forms meets the
    curve at the marked point with total order above the generic one.

    Plane: m is an integer, class ((n+1)m + C(n+1,2)(d-3), C(n+1,2)) with
    n+1 = C(m+2,2). Quadric: m = (m1, m2), and the two point components are
    (n+1)mi + C(n+1,2)(d-2) with n+1 = (m1+1)(m2+1). Requires m < d so the
    pushforward whose degeneracy is being measured has constant rank."""
    if not isinstance(d, int) or d < 3:
        raise ValueError("degree must be an integer >= 3")
    if surface is Surface.P2:
        if not isinstance(m, int) or m < 1:
            raise ValueError("bundle degree must be a positive integer")
        excess = _h0_excess(surface, d, m)
        if m >= d:
            raise ValueError(
                f"bundle degree {m} >= curve degree {d}: the rank correction "
                f"h0 = {excess} is nonzero and the class formula breaks"
            )
        n1 = comb(m + 2, 2)
        pairs = comb(n1, 2)
        a = n1 * m + pairs * (d - 3)
        return DivisorClass(
            surface, (a, pairs), description=f"osculation class for forms of degree {m}"
        )
    m1, m2 = m
    if not isinstance(m1, int) or not isinstance(m2, int) or m1 < 0 or m2 < 0:
        raise ValueError("bidegree must be a pair of non-negative integers")
    if (m1, m2) == (0, 0):
        raise ValueError("bidegree (0, 0) carries no sections to osculate")
    if m1 >= d or m2 >= d:
        excess = _h0_excess(surface, d, (m1, m2))
        raise ValueError(
            f"bidegree {(m1, m2)} reaches the curve degree {d}: the rank "
            f"correction h0 = {excess} applies and the class formula breaks"
        )
    n1 = (m1 + 1) * (m2 + 1)
    pairs = comb(n1, 2)
    a1 = n1 * m1 + pairs * (d - 2)
    a2 = n1 * m2 + pairs * (d - 2)
    return DivisorClass(
        surface,
        (a1, a2, pairs),
        description=f"osculation class for forms of bidegree {(m1, m2)}",
    )


def symmetrized_class_quadric(d, m1, m2):
    """The ruling-exchange-invariant class attached to a bidegree.

    For m1 == m2 the plain class is already invariant and is returned as is;
    otherwise the classes of (m1, m2) and (m2, m1) are added componentwise."""
    if m1 == m2:
        return relative_hessian_class(Surface.QUADRIC, d, (m1, m2))
    c1 = relative_hessian_class(Surface.QUADRIC, d, (m1, m2))
    c2 = relative_hessian_class(Surface.QUADRIC, d, (m2, m1))
    comps = tuple(x + y for x, y in zip(c1.components, c2.components))
    return DivisorClass(
        Surface.QUADRIC,
        comps,
        description=f"symmetrized osculation class for bidegrees {(m1, m2)} and {(m2, m1)}",
    )


def h2prime_class(d):
    """Residual second-order class on the plane: degree-2 class minus the
    degree-1 class, componentwise. Works out to (12d - 27, 12)."""
    w2 = relative_hessian_class(Surface.P2, d, 2)
    w1 = relative_hessian_class(Surface.P2, d, 1)
    comps = tuple(a - b for a, b in zip(w2.components, w1.components))
    return DivisorClass(Surface.P2, comps, description="residual second-order class")


def wall_slope(cls):
    """Ratio of point part to family part; the slope where the locus with
    this class flips. Quadric classes must be symmetric."""
    if cls.surface is Surface.P2:
        a, b = cls.components
        return Fraction(a, b)
    a1, a2, b = cls.components
    if a1 != a2:
        raise ValueError("class is not symmetric between the rulings")
    return Fraction(a1, b)


def analyzed_slopes(surface, d):
    """(wall, edge) for the flip analysis: the wall from the second-order
    class, the edge from the first-order one."""
    if surface is Surface.P2:
        wall = wall_slope(h2prime_class(d))
        edge = wall_slope(relative_hessian_class(surface, d, 1))
    else:
        wall = wall_slope(symmetrized_class_quadric(d, 1, 1))
        edge = wall_slope(symmetrized_class_quadric(d, 0, 1))
    return wall, edge
