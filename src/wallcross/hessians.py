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
from functools import lru_cache
from math import comb, prod

from .curves import Surface, _bundle_degrees


@dataclass(frozen=True)
class DivisorClass:
    """components: (A, B) on the plane, meaning A*(point part) + B*(family
    part); (A1, A2, B) on the quadric, with one point part per ruling."""

    surface: Surface
    components: tuple
    description: str = ""


def relative_hessian_class(surface, d, m):
    """Class of the locus where the full space of forms of degree m (an
    int on the plane, a bidegree (m1, m2) on the quadric) meets the curve
    at the marked point with total order above the generic one.

    A factor P^k of degree m_i has C(m_i + k, k) sections and canonical
    degree k + 1: with n+1 = prod C(m_i + k_i, k_i), point part i is
    (n+1)m_i + C(n+1,2)(d - k_i - 1) and the family part C(n+1,2). Requires
    every m_i < d so the pushforward whose degeneracy is being measured has
    constant rank; past that, the rank correction h0 = prod C(m_i - d + k_i,
    k_i) applies when every m_i >= d."""
    if not isinstance(d, int) or d < 3:
        raise ValueError("degree must be an integer >= 3")
    ms = _bundle_degrees(surface, m)
    # the factor with coordinates b is P^k, k = len(b) - 1
    ks = [len(b) - 1 for b in surface.blocks]
    plane = len(ms) == 1
    if max(ms) >= d:
        h0 = prod(comb(mi - d + k, k) for mi, k in zip(ms, ks)) if min(ms) >= d else 0
        if plane:
            raise ValueError(
                f"bundle degree {m} >= curve degree {d}: the rank correction "
                f"h0 = {h0} is nonzero and the class formula breaks"
            )
        raise ValueError(
            f"bidegree {ms} reaches the curve degree {d}: the rank "
            f"correction h0 = {h0} applies and the class formula breaks"
        )
    n1 = prod(comb(mi + k, k) for mi, k in zip(ms, ks))
    pairs = comb(n1, 2)
    points = tuple(n1 * mi + pairs * (d - k - 1) for mi, k in zip(ms, ks))
    forms = f"degree {m}" if plane else f"bidegree {ms}"
    return DivisorClass(
        surface, points + (pairs,), description=f"osculation class for forms of {forms}"
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
    this class flips. The point parts, one per factor, must be equal, so
    quadric classes must be symmetric."""
    *points, b = cls.components
    if len(set(points)) != 1:
        raise ValueError("class is not symmetric between the rulings")
    return Fraction(points[0], b)


def analyzed_slopes(surface, d):
    """(wall, edge) for the flip analysis: the wall from the second-order
    class, the edge from the first-order one, built once per surface and
    degree, as every verdict reads them."""
    return _analyzed_slopes(surface, d)


@lru_cache(maxsize=32)
def _analyzed_slopes(surface, d):
    if surface is Surface.P2:
        wall = wall_slope(h2prime_class(d))
        edge = wall_slope(relative_hessian_class(surface, d, 1))
    else:
        wall = wall_slope(symmetrized_class_quadric(d, 1, 1))
        edge = wall_slope(symmetrized_class_quadric(d, 0, 1))
    return wall, edge
