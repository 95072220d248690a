"""Exact maximization of the torus program in the two weights.

The program maximizes

    mu(r) = min_l t * <p_l, r>  -  max_e <m_e, r>

over a convex polygon of weights r = (r0, r1) around the origin, where the
p_l are the point-weight forms and the m_e the monomial-weight forms of a
pointed curve. mu is concave, positively homogeneous and piecewise linear,
and it changes slope only on lines through the origin where two point
forms or two monomial forms tie. Hence every vertex of the set where mu is
maximal, and, when the maximum is 0, every vertex of the zero set, lies in
a finite candidate set: the origin, the polygon's corners, and the points
where a tie line leaves the polygon. Evaluating mu on the candidates is an
exact solve of this fixed-dimension linear program (Megiddo 1983, Seidel
1991). No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

# Probes for a zero certificate, in order: +r0, -r0, +r1, -r1.
_PROBES = ((0, 1), (0, -1), (1, 1), (1, -1))


def _edges(corners):
    """Outward (normal, offset) pairs, normal . r <= offset, of the polygon
    with these corners in counterclockwise order around the origin."""
    edges = []
    for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1]):
        n = (y1 - y0, x0 - x1)
        c = n[0] * x0 + n[1] * y0
        if c <= 0:
            raise ValueError(
                "box corners must run counterclockwise around the origin"
            )
        edges.append((n, c))
    return edges


def _tie_directions(forms):
    """Primitive directions of the lines through the origin on which two
    of the forms take the same value, one per line."""
    lines = set()
    for a, b in combinations(set(forms), 2):
        n0, n1 = a[0] - b[0], a[1] - b[1]
        g = gcd(n0, n1)
        n0, n1 = n0 // g, n1 // g
        if n0 < 0 or (n0 == 0 and n1 < 0):
            n0, n1 = -n0, -n1
        lines.add((-n1, n0))
    return lines


def _exit_scale(d, edges):
    """The s > 0 at which the ray from the origin along d leaves the
    polygon, at the point s * d."""
    return min(Fraction(c, n[0] * d[0] + n[1] * d[1])
               for n, c in edges if n[0] * d[0] + n[1] * d[1] > 0)


def lp_max(point_forms, monomial_forms, t, box):
    """Maximize mu over the polygon `box` exactly.

    point_forms and monomial_forms are integer pairs (a, b) standing for the
    forms a*r0 + b*r1; box lists the integer corners of a convex polygon
    counterclockwise, with the origin in its interior. Returns (sign, r):

    - (1, r) when max mu > 0, r the lexicographically largest maximizer;
    - (0, r) when max mu = 0 and the zero set {mu = 0} leaves the origin:
      r is taken on the first probe face, in the order +r0, -r0, +r1, -r1,
      on which the zero set reaches a positive probe value, as the
      lexicographically largest point of that face;
    - (-1, None) when mu < 0 away from the origin.
    """
    t = Fraction(t)
    edges = _edges(list(box))
    # The candidates other than the origin are exit points of rays: towards
    # the corners and both ways along every tie line.
    directions = set(box)
    for forms in (point_forms, monomial_forms):
        for d in _tie_directions(forms):
            directions.update((d, (-d[0], -d[1])))

    def mu(d):
        # on an integer direction, so only t and the result are fractions
        return (min(t * (a * d[0] + b * d[1]) for a, b in point_forms)
                - max(a * d[0] + b * d[1] for a, b in monomial_forms))

    zero = Fraction(0)
    values = {(zero, zero): zero}
    for d in directions:
        s = _exit_scale(d, edges)
        # mu is positively homogeneous: mu(s * d) = s * mu(d)
        values[(s * d[0], s * d[1])] = s * mu(d)
    best = max(values.values())
    if best > 0:
        return 1, max(r for r, v in values.items() if v == best)
    zero_set = [r for r, v in values.items() if v == 0]
    for axis, sense in _PROBES:
        reach = max(sense * r[axis] for r in zero_set)
        if reach > 0:
            return 0, max(r for r in zero_set if sense * r[axis] == reach)
    return -1, None
