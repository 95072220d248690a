"""Exact maximization of the torus program in the two weights.

The program maximizes

    mu(r) = min_l t * <p_l, r>  -  max_e <m_e, r>

over a convex polygon of weights r = (r0, r1) around the origin, where the
p_l are the point-weight forms and the m_e the monomial-weight forms of a
pointed curve. mu is concave, positively homogeneous and piecewise linear,
and it changes slope only on lines through the origin where two point
forms or two monomial forms tie. Of those lines only the ties of two
adjacent vertices of the convex hull of the point forms, or of the
monomial forms, count: a linear form's extreme over a finite set is taken
at a hull vertex, and the vertex taking it changes only across the normal
of a hull edge. Hence every vertex of the set where mu is maximal, and,
when the maximum is 0, every vertex of the zero set, lies in a finite
candidate set: the origin, the polygon's corners, and the points where
such a tie line leaves the polygon. Evaluating mu on the candidates is an
exact solve of this fixed-dimension linear program (Megiddo 1983, Seidel
1991). The evaluation runs in integers over one common denominator; no
floating point anywhere.

Most programs of a frame search have mu < 0 away from the origin. With
t = tn / tq, tq * mu(r) = -max <tq * m_e - tn * p_l, r>, so that holds
exactly when the origin is strictly inside the hull of those points (the
support-function form; Mumford, Fogarty and Kirwan, GIT, 2.1), which is
tested before any candidate is built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

# Probes for a zero certificate, in order: +r0, -r0, +r1, -r1.
_PROBES = ((0, 1), (0, -1), (1, 1), (1, -1))


@lru_cache(maxsize=2)
def _edges(corners):
    """Outward (normal, offset) pairs, normal . r <= offset, of the polygon
    with these corners, a tuple in counterclockwise order around the
    origin; kept for the two boxes the torus check uses."""
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


def _hull(forms):
    """Vertices of the convex hull of integer pairs, in counterclockwise
    order, without collinear points (Andrew's monotone chain)."""
    points = sorted(set(forms))
    if len(points) <= 2:
        return points

    def chain(seq):
        out = []
        for x, y in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (y - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (x - out[-2][0])
            ) <= 0:
                out.pop()
            out.append((x, y))
        return out[:-1]

    return chain(points) + chain(reversed(points))


def _tie_directions(hull):
    """Primitive directions of the lines through the origin on which two
    adjacent hull vertices take the same value, one per line."""
    lines = set()
    for a, b in zip(hull, hull[1:] + hull[:1]):
        if a == b:
            continue
        n0, n1 = a[0] - b[0], a[1] - b[1]
        g = gcd(n0, n1)
        n0, n1 = n0 // g, n1 // g
        if n0 < 0 or (n0 == 0 and n1 < 0):
            n0, n1 = -n0, -n1
        lines.add((-n1, n0))
    return lines


def _negative_everywhere(point_hull, monomial_hull, tn, tq):
    """Whether mu < 0 at every r != 0 for t = tn / tq, from the `_hull`s of
    the point and the monomial forms: whether the origin is strictly inside
    the hull of the tq * m - tn * p, to the left of each counterclockwise
    edge. With one point form p, that is whether tn * p is strictly inside
    tq times the monomial hull."""
    if len(point_hull) == 1:
        ((p0, p1),) = point_hull
        hull, s, q0, q1 = monomial_hull, tq, tn * p0, tn * p1
    else:
        hull = _hull([(tq * a - tn * p0, tq * b - tn * p1)
                      for a, b in monomial_hull for p0, p1 in point_hull])
        s, q0, q1 = 1, 0, 0
    edges = zip(hull, hull[1:] + hull[:1])
    return len(hull) > 2 and all(
        (b0 - a0) * (q1 - s * a1) > (b1 - a1) * (q0 - s * a0) for (a0, a1), (b0, b1) in edges
    )


def _exit_scale(d, edges):
    """(c, k), k > 0: the ray from the origin along d leaves the polygon
    at the point (c / k) * d. Scales are compared by cross-multiplication."""
    best_c, best_k = None, None
    for n, c in edges:
        k = n[0] * d[0] + n[1] * d[1]
        if k > 0 and (best_k is None or c * best_k < best_c * k):
            best_c, best_k = c, k
    return best_c, best_k


class _Program:
    """The half of a torus program that does not depend on the slope: the
    `_edges` of the box, the `_hull`s of the point and the monomial forms
    and, built on the first read of `exits`, only when the sign test does
    not answer, the exit points of the candidate rays."""

    def __init__(self, point_forms, monomial_forms, box):
        self.box, self.edges = box, _edges(box)
        self.points, self.monomials = _hull(point_forms), _hull(monomial_forms)

    @cached_property
    def exits(self):
        """(L, [(d, c, k)]): the candidates other than the origin are exit
        points of rays, towards the corners and both ways along every tie
        line of hull neighbours; the ray along d leaves the box at
        (c / k) * d, and L is the lcm of the k. Kept once complete."""
        directions = set(self.box)
        for forms in (self.points, self.monomials):
            for d in _tie_directions(forms):
                directions.update((d, (-d[0], -d[1])))
        exits = [(d, *_exit_scale(d, self.edges)) for d in directions]
        return lcm(*(k for _, _, k in exits)), exits


@lru_cache(maxsize=1)
def _program(point_forms, monomial_forms, box):
    """The `_Program` of the last forms and box asked: the frame that a
    verdict solves is solved again at the next slope of the same curve."""
    return _Program(point_forms, monomial_forms, box)


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
    - (-1, None) when mu < 0 away from the origin, which
      `_negative_everywhere` answers right after the two hulls.

    The solve runs in integers over one common denominator: with
    t = tn / tq and L the lcm of the exit denominators, every candidate is
    kept as L times the point and every value as L * tq * mu there, both
    integers, which order exactly as the points and values themselves. Only
    the returned r is made of Fractions. The slope-free half, the hulls and
    the exits, is kept for the last forms and box (`_program`).
    """
    if not isinstance(t, (int, Fraction)):
        t = Fraction(t)
    tn, tq = t.numerator, t.denominator
    program = _program(tuple(point_forms), tuple(monomial_forms), tuple(box))
    point_forms, monomial_forms = program.points, program.monomials
    if _negative_everywhere(point_forms, monomial_forms, tn, tq):
        return -1, None
    den, exits = program.exits
    values = {(0, 0): 0}
    for (d0, d1), c, k in exits:
        # tq * mu(d) is an integer on the integer direction d, and mu is
        # positively homogeneous: mu(s * d) = s * mu(d)
        tq_mu = (min(tn * (a * d0 + b * d1) for a, b in point_forms)
                 - tq * max(a * d0 + b * d1 for a, b in monomial_forms))
        f = den // k * c
        values[(f * d0, f * d1)] = f * tq_mu
    best = max(values.values())
    if best > 0:
        r = max(r for r, v in values.items() if v == best)
        return 1, (Fraction(r[0], den), Fraction(r[1], den))
    zero_set = [r for r, v in values.items() if v == 0]
    for axis, sense in _PROBES:
        reach = max(sense * r[axis] for r in zero_set)
        if reach > 0:
            r = max(r for r in zero_set if sense * r[axis] == reach)
            return 0, (Fraction(r[0], den), Fraction(r[1], den))
    return -1, None
