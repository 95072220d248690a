"""Local invariants of a pointed curve at its marked point.

Branch expansion at a smooth point, vanishing sequences of line-bundle
sections along the branch, inflection weights, and exact recognition of
two special global shapes: the multiple-line-plus-tangent-conic
configuration (called S here) and the cuspidal-plus-repeated-tangent-line
configuration with its marked flex (called X0), together with their
quadric analogues.

The sequence of lines on the plane needs no branch: its orders are 0, 1
and the contact of the tangent, which `curves.local_geometry` reads off
the affine chart. Only the sequences of conics and of (1, 1)-forms solve
a branch, in that chart, online and over Z (`local_branch`), and their
section rows are the solve's own powers of the unknown series, shifted,
with no substitution (`vanishing_sequence`).

Membership in S and X0 first reads the local geometry at p: each
configuration fixes the contact there (the tangent's 2 for S and 3 for X0
on the plane, the rulings' (1, 1), (1, 2) or (2, 1) on the quadric), so
at most one is allowed (`_allowed_configuration`), and where none is, the
curve is in neither. Every later test reads a form restricted to a line
(a `curves.Restriction`) with one test for a power of a linear form
(`_power_point`). On a member, the factor through p meets each line
through p only at p, so the curve on it, which `local_geometry` reads off
its chart, is a power of p's root times a power whose root is where the
line meets the multiple line or ruling. That point gives the multiple
line (by a gradient on the plane, directly on the quadric), and one exact
division leaves the conic, cubic or (a, b)-form, which `curves.restrict`
puts on lines: the line touches the conic where the conic on it is a
square, the cubic is cuspidal when it is a cube on the harmonic polar of
its flex p, then its cusp line (`_cusp_line`), and a fibre of the (2, 1)-
or (1, 2)-form is tangent where the form on it is a square. Smoothness is a determinant
(`curves.adjugate`). No gcd, squarefree split or root search runs, so
the membership is always decided.

Computed orders at or past the truncation are reported as lower bounds,
never as exact values; that is enough for every comparison made here,
because a section vanishing that far must contain the branch's component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

from .curves import (
    Surface,
    _bundle_degrees,
    _Move,
    _translation,
    adjugate,
    contact_ge,
    local_geometry,
    normalizing_frame,
    restrict,
)
from .errors import InternalError
from .polynomials import (
    exact_divide,
    exact_quotient,
    linear_form,
    primitive_normalized,
    zero,
)
from .rationals import quotient
from .series import _mul, pivot_orders, series_substitute


# -- branch expansion -------------------------------------------------------


def local_branch(curve, N, geometry=None):
    """Power-series branch of the curve at its marked point in the affine
    chart of its `local_geometry`, truncated at order N, solved over Z.
    A caller that holds the geometry passes it, so the chart is not built
    again. Requires a smooth marked point.

    Returns (branch, solved, powers): the chart coordinates (u(s), v(s)) as
    two tuples of N ints; the index, 1 for v and 0 for u, of the one that
    is c * W(s), the other being c^2 s; and the lists of the N coefficients
    of W^b, for b up to the degree of the chart in that coordinate.

    The branch is solved over Z (Eisenstein's theorem): with the chart
    primitive and c its tangent coefficient, g(s, w) = f(c^2 s, c w) / c^2
    has the integer coefficients c_ab * c^(2a + b - 2) and dg/dw(0, 0) = 1,
    so the solve W(s) never divides, and (c^2 s, c W(s)) is the branch of f
    at the parameter c^2 s, which scales coefficient k by c^(2k) and moves
    no vanishing order."""
    if N < 2:
        raise ValueError("truncation must be at least 2")
    geo = local_geometry(curve) if geometry is None else geometry
    if not geo.smooth_at_p:
        raise ValueError("marked point is singular on the curve")
    f = primitive_normalized(geo.chart[0])
    # f = sum c_ab s^a w^b, with w the chart coordinate solved for: v when
    # df/dv != 0, else u
    solved = int((0, 1) in f.terms)
    c = f.terms[(0, 1) if solved else (1, 0)]
    terms = [(a, b, x) if solved else (b, a, x) for (a, b), x in f.terms.items()]
    rest = [(a, b, x * c ** (2 * a + b - 2)) for a, b, x in terms if (a, b) != (0, 1)]
    # online solve (van der Hoeven 2002) of g(s, W) = 0: powers[b] holds the
    # coefficients of W^b, extended by one per step. Since W_0 = 0, [s^k] W^b
    # for b >= 2 needs only W_1 .. W_(k-1), so the unknown W_k enters
    # coefficient k of g along the branch only as W_k itself
    top = max(b for _, b, _ in terms)
    powers = [[1] + [0] * (N - 1)] + [[0] * N for _ in range(top)]
    w = powers[1]
    for k in range(1, N):
        for b in range(2, min(top, k) + 1):
            lower = powers[b - 1]
            powers[b][k] = sum(w[j] * lower[k - j] for j in range(1, k - b + 2))
        w[k] = -sum(x * powers[b][k - a] for a, b, x in rest if a <= k)
    pair = ((0, c * c) + (0,) * (N - 2), tuple(c * x for x in w))
    branch = pair if solved else pair[::-1]
    value = series_substitute(f, branch)
    residual = next((k for k, x in enumerate(value) if x), None)
    if residual is not None:
        raise InternalError(
            f"branch solve at {curve.point} left a residual of order {residual}"
        )
    return branch, solved, powers


# -- vanishing sequences ----------------------------------------------------


@dataclass(frozen=True)
class VanishingSequence:
    """Orders of vanishing realized by a space of sections on the branch.

    orders holds the exact values; deficiency counts the directions whose
    order reached the truncation and is only known to be >= truncation."""

    orders: tuple
    deficiency: int
    truncation: int

    def labels(self):
        out = [str(o) for o in self.orders]
        out.extend(f">={self.truncation}" for _ in range(self.deficiency))
        return out

    def top_at_least(self, k):
        """Is the largest order at least k (true lower-bound semantics)?"""
        if self.deficiency:
            return self.truncation >= k
        return bool(self.orders) and self.orders[-1] >= k


def vanishing_sequence(curve, bundle, geometry=None):
    """Vanishing orders at p of the full space of degree-`bundle` forms,
    restricted to the branch of the curve. bundle is an integer m on the
    plane and a pair (m1, m2) on the quadric. The branch is truncated one
    past the intersection number d * (m1 + m2) (d * m on the plane) of the
    curve with a form of that degree, which bounds every finite order.
    `geometry` is the curve's `local_geometry` when the caller holds it.

    The orders depend only on the span of the sections on the branch
    (Eisenbud and Harris, "Limit linear series", 1986). The chart takes the
    forms onto the polynomials in (u, v) of degree at most m (at most m1 in
    u and m2 in v on the quadric), a space its translation keeps, so the
    span is that of the u^a v^b, each a constant times s^a W^b along v and
    s^b W^a along u, with W^b from the solve (`local_branch`)."""
    ms = _bundle_degrees(curve.surface, bundle)
    N = curve.degree * sum(ms) + 1
    _, solved, powers = local_branch(curve, N, geometry)
    # the (s, W) exponents of u^a v^b: a + b <= m, or a <= m1 and b <= m2
    exps = [(a, b) if solved else (b, a) for a in range(ms[0] + 1)
            for b in range(ms[-1] + 1) if len(ms) == 2 or a + b <= ms[0]]
    while len(powers) <= max(b for _, b in exps):
        powers.append(_mul(powers[-1], powers[1]))
    pivots, deficiency = pivot_orders([[0] * a + list(powers[b][: N - a]) for a, b in exps])
    return VanishingSequence(tuple(pivots), deficiency, N)


def inflection_weight(seq):
    """Sum of (order_i - i). Returns (weight, is_lower_bound); flagged
    entries contribute their truncation, so the weight is a lower bound
    whenever any direction ran past the window."""
    w = sum(o - i for i, o in enumerate(seq.orders))
    base = len(seq.orders)
    for j in range(seq.deficiency):
        w += seq.truncation - (base + j)
    return w, seq.deficiency > 0


# -- special configurations -------------------------------------------------


@dataclass
class SpecialLocus:
    in_s: bool
    in_x0: bool
    details: dict = field(default_factory=dict)


def _proj_equal(p, q):
    return all(
        p[i] * q[j] == p[j] * q[i] for i in range(len(p)) for j in range(i + 1, len(p))
    )


def _conic_is_smooth(conic):
    """Whether the conic is smooth: the integer matrix of 2 * conic, with
    2 c_ii on the diagonal and c_ij off it, is invertible."""
    m = [[0] * 3 for _ in range(3)]
    for exp, c in conic.terms.items():
        i, j = (k for k, e in enumerate(exp) for _ in range(e))
        m[i][j] += c
        m[j][i] += c
    return bool(adjugate(m)[1])


def _line_points(lc):
    """Two independent points spanning the line a*x0+b*x1+c*x2 = 0: the
    others of its coefficients' `_translation`."""
    return _translation(lc, next(i for i in range(3) if lc[i] != 0))[0]


def _power_point(line, k):
    """The root of the form on the line (a `curves.Restriction`) past its
    root s = 0 of order k, when the form is s^k times a nonzero m-th power,
    m >= 1 its degree less k; else None. On the curve's line of contact k,
    that is where the rest of the curve meets the line. The point is in the
    surface's coordinates, up to scale, and on the quadric only in the
    factor the line moves in.

    With q_j the coefficient k + j, Q = sum q_j s^j t^(m - j) is such a
    power c * l^m exactly when, for q_0 != 0 (as when k is the contact), it
    is q_0 (mu s + t)^m with mu = q_1 / (m q_0), which one comparison per
    coefficient decides; its root (s : t) = (1 : -mu) is the point
    direction - mu * base, returned times m * q_0. For q_0 = 0 it must be
    q_m s^m, with q_m alone nonzero, and its root is base."""
    q = line.coeffs[k:]
    m = len(q) - 1
    if not q[0]:
        return line.base if q[m] and not any(q[1:m]) else None
    mu = quotient(q[1], m * q[0])
    if any(c != q[0] * comb(m, j) * mu**j for j, c in enumerate(q)):
        return None
    return tuple(m * q[0] * e - q[1] * b for b, e in zip(line.base, line.direction))


def _s_on_plane(line, conic):
    """The details of S for this line and conic: {} unless the conic is
    smooth and the line touches it at a single point q (the conic on the
    line is a square, `_power_point`). The gate of `_p2_special` puts p on
    the conic, off the line and apart from q."""
    if not _conic_is_smooth(conic):
        return {}
    q = _power_point(restrict(conic, *_line_points(line), 2), 0)
    # at a smooth p of contact 2, L(p) = 0 makes p singular or L the tangent
    return {} if q is None else {"line": line, "conic": conic, "tangency": q}


def _cusp_line(cubic, p):
    """The primitive coefficients of the cusp line of the cubic when it is
    cuspidal, else None. p must be a smooth flex of the cubic, and the
    cubic must have no rational linear factor, so no rational line, H
    included, restricts it to zero; a flex division that is not exact
    raises InternalError.

    Let T be the tangent at p, with the gradient of C at p as coefficients,
    and P = sum p_i dC/dx_i the polar conic of p. For v on T, P(p + s v) =
    s^2 P(v), and P(v) is the second-order term of C along T; so T divides
    P exactly when p is a flex. Then P = T * H with H(p) != 0, and H, the
    harmonic polar of p, meets C in its singular points and in the smooth
    points other than p whose tangent passes through p. Over an algebraic
    closure an irreducible cubic is smooth, nodal or cuspidal, and its
    smooth points form a group with the flex p as zero, three points
    summing to zero when collinear: an elliptic curve, the multiplicative
    or the additive group. The tangent at q meets C again in -2q, so it
    passes through p when 2q = 0: at three points other than p, at one, or
    at none. As H meets C three times, C restricted to H has three simple
    roots on a smooth cubic, a double root at the node and a simple one on
    a nodal cubic, and a triple root at the cusp on a cuspidal cubic, where
    H is then the doubled line of the tangent cone. A cubic irreducible
    over Q but not over its closure is three conjugate lines, on which no
    rational point is smooth. So the flex division and the cube test
    decide, and no singular point is searched for: C on H is a cube
    exactly when `_power_point` finds its root. On y^2 z = x^3 at p =
    (0 : 1 : 0), P = 2yz, H = y and C on H is -x^3.

    The answer is that of the elimination test this replaces: the cusp is
    the one rational singular point, its tangent cone a double line that
    does not divide C, p a smooth flex, and that line is returned."""
    grads = [cubic.partial_derivative(i) for i in range(3)]
    tangent = [g.evaluate(p) for g in grads]
    polar = sum((x * g for x, g in zip(p, grads) if x), zero(3))
    h = exact_quotient(polar, linear_form(3, (0, 1, 2), tangent), "the tangent at the flex")
    h = primitive_normalized(h)
    h = tuple(h.terms.get(e, 0) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    if _power_point(restrict(cubic, *_line_points(h), 3), 0) is None:
        return None
    return h


def _p2_special(curve, geometry, config):
    """Membership of a plane curve in config, "S" or "X0", the one
    configuration its tangent contact k allows, read off the curve's
    restriction to the tangent T.

    A member is R * L^m, m = d - k, with R the conic (k = 2) or the
    cuspidal cubic (k = 3) through p and L a line off p
    (`_allowed_configuration`). T meets R only at p, as the contact k is
    the degree of R, and meets L at one point r != p. So C on T is (p's
    root)^k times an m-th power whose root is r (`_power_point`). With
    D_p = sum p_i d/dx_i, D_p L = L(p), so every term of D_p^(m-1) (R L^m)
    has L^2 as a factor but one, m! L(p)^(m-1) R L. Its gradient at r,
    where L vanishes, is m! L(p)^(m-1) R(r) L, nonzero as p is off L and r
    off R. So L is that gradient, scaled so that its first nonzero entry is
    1, and one division C / L^m leaves R, for the S test (`_s_on_plane`)
    or the X0 test (`_cusp_line`, and L must be the cusp line). For X0, R
    has contact 3 with T at p, so p is a flex of R, and R has no rational
    linear factor: a line through p would be T, and a line off p would
    leave a conic with contact 3. A curve in neither configuration fails
    one of these steps."""
    d, p = curve.degree, curve.point
    k = geometry.tangent_contact
    m = d - k
    rest, line = curve.equation, None
    if m:
        (tangent,) = geometry.restrictions
        r = _power_point(tangent, k)
        if r is None:
            return SpecialLocus(False, False)
        polar = curve.equation
        for _ in range(m - 1):
            polar = sum(
                (x * polar.partial_derivative(i) for i, x in enumerate(tangent.base) if x),
                zero(3),
            )
        grad = [polar.partial_derivative(i).evaluate(r) for i in range(3)]
        lead = next((x for x in grad if x), None)
        if lead is None:
            return SpecialLocus(False, False)
        line = tuple(quotient(x, lead) for x in grad)
        rest = exact_divide(curve.equation, linear_form(3, (0, 1, 2), line) ** m)
        if rest is None:
            return SpecialLocus(False, False)
    if config == "S":
        details = _s_on_plane(line, primitive_normalized(rest))
        return SpecialLocus(bool(details), False, details)
    cusp = _cusp_line(rest, p)
    in_x0 = cusp is not None and (line is None or _proj_equal(line, cusp))
    return SpecialLocus(False, in_x0)


def _ruling_point(v):
    """A point (a : b) of P^1 as (u, 1), or as (1, 0) when b = 0; the
    ruling over a point (u, v) is the zero set of v x0 - u x1 (of v y0 -
    u y1 on the second factor)."""
    return (quotient(v[0], v[1]), 1) if v[1] else (1, 0)


def _s_on_quadric(gamma, q):
    """The details of S for this (1, 1)-form and crossing point q of the
    two rulings: {} unless gamma is smooth (its 2x2 matrix is invertible)
    and passes through q. The gate of `_quadric_special` puts p on gamma,
    apart from q."""
    a = gamma.terms.get((1, 0, 1, 0), 0)
    b = gamma.terms.get((1, 0, 0, 1), 0)
    c = gamma.terms.get((0, 1, 1, 0), 0)
    e = gamma.terms.get((0, 1, 0, 1), 0)
    # at contacts (1, 1) a ruling through p is a (d - 1)-fold component
    if a * e == b * c or gamma.evaluate(q):
        return {}
    return {"gamma": gamma, "crossing": q}


def _coprime_quadratics(f, g):
    """Whether two binary quadratic forms, given by their coefficient
    triples (a0, a1, a2) and (b0, b1, b2), a_i that of x0^(2 - i) x1^i,
    have no common root: their resultant (a0 b2 - a2 b0)^2 - (a0 b1 - a1
    b0) (a1 b2 - a2 b1) is nonzero."""
    (a0, a1, a2), (b0, b1, b2) = f, g
    return (a0 * b2 - a2 * b0) ** 2 != (a0 * b1 - a1 * b0) * (a1 * b2 - a2 * b1)


def _x0_quadric_oriented(gamma, k, q, p):
    """Is this the cuspidal-analogue shape whose fibres move in factor k:
    gamma, of degree 2 in factor k and 1 in the other, smooth, its fibre
    through the crossing point q of the two rulings tangent to it at q,
    and the marked point a second point where a fibre is tangent to it.

    gamma = sum z * g_z over the two coordinates z of the other factor,
    with g_z binary quadratics in factor k, and it is smooth when they are
    coprime; g_z is gamma on the line from e_z + (the first unit vector of
    factor k) along the second. The fibre through a point r, the line
    along (-r_1, r_0) in factor k, is tangent to gamma at r exactly when
    gamma vanishes at r and is a nonzero square on it (`_power_point`)."""
    moving, held = Surface.QUADRIC.blocks[k], Surface.QUADRIC.blocks[1 - k]

    def unit(*slots):
        return tuple(int(i in slots) for i in range(4))

    triples = [restrict(gamma, unit(moving[0], z), unit(moving[1]), 2).coeffs for z in held]
    if not _coprime_quadratics(*triples):
        return False
    # a ruling through p is multiple or the contact-1 ruling as a component
    for r in (q, p):
        direction = [0] * 4
        direction[moving[0]], direction[moving[1]] = -r[moving[1]], r[moving[0]]
        fibre = restrict(gamma, r, direction, 2)
        if fibre.coeffs[0] or _power_point(fibre, 0) is None:
            return False
    return True


def _quadric_special(curve, geometry, config):
    """Membership of a quadric curve in config, "S", "X0" (the (2, 1)-form)
    or "X0 swapped" (the (1, 2)-form), the one configuration its ruling
    contacts (cx, cy) allow, read off the curve's restrictions to the two
    rulings through p.

    A member is gamma * X^(d - cy) * Y^(d - cx), with X an x-ruling and Y
    a y-ruling crossing at q, and gamma of bidegree (cy, cx) through p,
    which lies off X and Y (`_allowed_configuration`). The ruling through
    p with constant x meets gamma only at p, cx times, as cx is the degree
    of gamma in y, misses X and meets Y at q. So C on it is (p's root)^cx
    times a (d - cx)-th power whose root is the y-coordinate of q
    (`_power_point`), and the ruling with constant y gives the
    x-coordinate of q from a (d - cy)-th power. One division then leaves
    gamma, for the S test (`_s_on_quadric`) or the X0 test of its
    orientation (`_x0_quadric_oriented`). A curve in neither configuration
    fails one of these steps."""
    d, p = curve.degree, curve.point
    cx, cy = geometry.ruling_contacts
    on_x, on_y = geometry.restrictions
    yq, xq = _power_point(on_x, cx), _power_point(on_y, cy)
    if xq is None or yq is None:
        return SpecialLocus(False, False)
    xq, yq = _ruling_point(xq[:2]), _ruling_point(yq[2:])
    rulings = (
        linear_form(4, (0, 1), (xq[1], -xq[0])) ** (d - cy)
        * linear_form(4, (2, 3), (yq[1], -yq[0])) ** (d - cx)
    )
    gamma = exact_divide(curve.equation, rulings)
    if gamma is None:
        return SpecialLocus(False, False)
    gamma = primitive_normalized(gamma)
    if config == "S":
        details = _s_on_quadric(gamma, xq + yq)
        return SpecialLocus(bool(details), False, details)
    in_x0 = _x0_quadric_oriented(gamma, 0 if config == "X0" else 1, xq + yq, p)
    return SpecialLocus(False, in_x0)


# The one configuration the local data at the marked point allows, keyed by
# the tangent's contact on the plane and by the ruling contacts on the
# quadric (see `_allowed_configuration`)
_ALLOWED = {
    Surface.P2: {2: "S", 3: "X0"},
    Surface.QUADRIC: {(1, 1): "S", (1, 2): "X0", (2, 1): "X0 swapped"},
}


def _allowed_configuration(surface, geometry):
    """The name of the one configuration, "S", "X0" or (on the quadric)
    "X0 swapped", that a curve with this `LocalGeometry` at its marked
    point can be in, or None when it can be in neither.

    On the plane, S is a smooth conic Q times a line L to the d - 2
    touching it at a point other than p, and X0 a cuspidal cubic with its
    flex at p times its cusp line to the d - 3. On the quadric, S is a
    smooth (1, 1)-form times an x-ruling and a y-ruling to the d - 1,
    crossing on it at a point other than p, and X0 a smooth (2, 1)-form
    times an x-ruling to the d - 2 and a y-ruling to the d - 1, crossing at
    a point of the form where the y-ruling is tangent to it, with p a
    second point of tangency of the y-fibration; X0 swapped is the same
    with the factors exchanged.

    Intersection numbers add over components, and a line meets a smooth
    conic or an irreducible cubic at most that many times (Fulton,
    Algebraic Curves, 1969, 3.3). Plane S: p lies on the smooth conic Q
    and off the line L, so the tangent T has contact I_p(T, Q) + (d - 2)
    I_p(T, L) = 2 + 0. Plane X0: with P = T * H the polar conic of the
    flex (`_cusp_line`), the gradient of P at p is 2T != 0, so H(p) != 0
    and p lies off the cusp line; the contact is that of the flex, 3.
    Quadric S: a smooth (1, 1)-form is the graph of an isomorphism, so
    each ruling through p meets it only at p, simply, and the rulings
    through the crossing miss p: contacts (1, 1). Quadric X0 with the
    (2, 1)-form: the constant-y ruling through p is its double fibre,
    contact 2, and the constant-x ruling meets it once, contact 1: (1, 2),
    and (2, 1) with the factors swapped. So a singular point, a contact of
    4 or more, and a tangent or ruling that is a component allow none."""
    if not geometry.smooth_at_p:
        return None
    if surface is Surface.P2:
        return _ALLOWED[surface].get(geometry.tangent_contact)
    return _ALLOWED[surface].get(geometry.ruling_contacts)


def special_locus_membership(curve, geometry=None):
    """Membership of the pointed curve in the two special configurations.

    The local data at p decides first which configuration the curve can
    be in (`_allowed_configuration`); a caller that holds the curve's
    `local_geometry` passes it as `geometry`, so it is not computed again.
    When it allows none, the curve is in neither. Otherwise that one
    configuration is read off the curve's restrictions to the lines
    through p, which the local geometry carries: the tangent on the plane
    (`_p2_special`), the two rulings on the quadric (`_quadric_special`).
    There is no search that can give up, so both memberships are always
    decided."""
    geo = local_geometry(curve) if geometry is None else geometry
    config = _allowed_configuration(curve.surface, geo)
    if config is None:
        return SpecialLocus(False, False)
    if curve.surface is Surface.P2:
        return _p2_special(curve, geo, config)
    return _quadric_special(curve, geo, config)


# -- the combined local report ----------------------------------------------


class InflectionReport:
    """Everything the stability analysis needs to know about the marked
    point: flex data and divisor-class memberships.

    Plane: in_h1 is the flex-degeneration class, in_h2prime the higher
    (second-order) one. Quadric: in_h1 is the tangent-ruling class and
    in_h2prime the higher osculation class; the flex/hyperflex fields mirror
    those memberships there.

    The report is bound to its curve and computes each fact the first time
    it is read, then keeps it for the life of the report: the local
    geometry (`geometry`), the special locus (`special`), the vanishing
    sequences (`seq1` and `seq2` of lines and conics on the plane, `seq11`
    of (1, 1)-forms on the quadric) and the fields derived from them, all
    read off the geometry's one affine chart. So a caller pays only for the
    fields it reads: smooth_at_p, multiplicity, ruling_contacts and in_h1
    need the geometry alone, as seq1 is read off the tangent's contact;
    in_h2prime needs seq2 or seq11, the only sequences that solve a
    branch; in_s and in_x0 need the special locus, which tests a
    configuration only where the geometry allows one (`configuration`).
    At a singular marked point in_h1 = in_h2prime = True, no sequence is
    computed and the special locus is empty without a test. Every
    membership is decided; the constant below keeps the flag of the
    `inflect` document, which is always false.

    The report is also what a verdict keeps of its curve across slopes:
    `normal` is the `curves._Move` of the normalizing frame, read off the
    geometry, which the frame search and every certificate in that frame
    read."""

    undecided = False

    def __init__(self, curve):
        self.curve = curve
        self.surface = curve.surface

    @cached_property
    def geometry(self):
        return local_geometry(self.curve)

    @cached_property
    def normal(self):
        return _Move(self.curve, normalizing_frame(self.curve, self.geometry))

    @cached_property
    def configuration(self):
        """The one special configuration the local geometry allows, "S",
        "X0" or "X0 swapped", or None (`_allowed_configuration`)."""
        return _allowed_configuration(self.surface, self.geometry)

    @cached_property
    def special(self):
        return special_locus_membership(self.curve, self.geometry)

    @cached_property
    def seq1(self):
        """The orders of lines at a smooth plane point: 0, 1 and the
        contact of the tangent, which is at most d by Bezout, so exact at
        the truncation d + 1 of `vanishing_sequence`; when the tangent is
        a component, its order is past any truncation."""
        k = self.geometry.tangent_contact
        N = self.curve.degree + 1
        if k is None:
            return VanishingSequence((0, 1), 1, N)
        return VanishingSequence((0, 1, k), 0, N)

    @cached_property
    def seq2(self):
        return vanishing_sequence(self.curve, 2, self.geometry)

    @cached_property
    def seq11(self):
        return vanishing_sequence(self.curve, (1, 1), self.geometry)

    @property
    def _plane(self):
        return self.surface is Surface.P2

    @property
    def smooth_at_p(self):
        return self.geometry.smooth_at_p

    @property
    def multiplicity(self):
        return self.geometry.multiplicity

    @property
    def ruling_contacts(self):
        if self._plane or not self.smooth_at_p:
            return None
        return self.geometry.ruling_contacts

    @cached_property
    def _weight(self):
        """(weight, is_lower_bound) of seq1 on the plane and of seq11 on
        the quadric; (None, False) at a singular point."""
        if not self.smooth_at_p:
            return None, False
        return inflection_weight(self.seq1 if self._plane else self.seq11)

    @property
    def weight(self):
        return self._weight[0]

    @property
    def weight_is_lower_bound(self):
        return self._weight[1]

    @cached_property
    def in_h1(self):
        if not self.smooth_at_p:
            return True
        if self._plane:
            return self.weight > 0
        cx, cy = self.ruling_contacts
        return contact_ge(cx, 2) or contact_ge(cy, 2)

    @cached_property
    def in_h2prime(self):
        if not self.smooth_at_p:
            return True
        if self._plane:
            return inflection_weight(self.seq2)[0] > self.weight
        return self.seq11.top_at_least(4)

    @property
    def flex(self):
        return self.smooth_at_p and self.in_h1

    @property
    def hyperflex(self):
        if not self.smooth_at_p:
            return False
        return self.seq1.top_at_least(4) if self._plane else self.in_h2prime

    @property
    def in_s(self):
        return self.special.in_s

    @property
    def in_x0(self):
        return self.special.in_x0

    @cached_property
    def sequences(self):
        if not self.smooth_at_p:
            return {}
        if self._plane:
            return {"o1": self.seq1, "o2": self.seq2}
        return {"o11": self.seq11}

    @cached_property
    def notes(self):
        notes = []
        if not self.smooth_at_p:
            notes.append("marked point is singular; memberships follow")
        elif any(s.deficiency for s in self.sequences.values()):
            notes.append(
                "a section contains the branch; weights use truncation lower bounds"
            )
        return notes


def inflection_report(curve):
    """The inflection report of a pointed curve, bound to it and computed
    field by field as the fields are read (see `InflectionReport`)."""
    return InflectionReport(curve)
