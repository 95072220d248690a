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
a branch, online (van der Hoeven, "Relax, but don't be too lazy", 2002):
each step extends the coefficient lists of the powers of the
unknown series by one, which costs O(N^2 * degree) for N coefficients, and
one full substitution re-checks the result. It is solved over Z at a
rescaled parameter (`local_branch`), so every series is a tuple of ints.
Membership in S and X0 first reads the local geometry at p: each
configuration fixes the contact there (the tangent's 2 for S and 3 for X0
on the plane, the rulings' (1, 1), (1, 2) or (2, 1) on the quadric), so
at most one is allowed (`_allowed_configuration`), and where none is, the
curve is in neither with no decomposition and no root search. So a report
is undecided only where the local data allows a configuration, as only
there does a root search run. Then the multiplicity -> degree map of the
squarefree decomposition is compared with the map of the allowed
configuration; a curve that does not fit it is in neither, and only the
others are searched for rational components and tested for that one
configuration. Lines and rulings come from one search (`_linear_factors`):
a linear form in two variables divides a form exactly when it divides
every coefficient form, the binary form that multiplies one monomial in
the other variables, so the candidates are the rational roots of the gcd
of those forms. On the plane, X0 needs no singular point: the marked
point is a flex exactly when its tangent divides its polar conic, and the
other factor, the harmonic polar, meets the cubic in a single point
exactly when the cubic is cuspidal; it is then the cusp line
(`_cusp_line`).

Computed orders at or past the truncation are reported as lower bounds,
never as exact values; that is enough for every comparison made here,
because a section vanishing that far must contain the branch's component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import lcm

from .curves import (
    Surface,
    _bundle_degrees,
    _exponents,
    adjugate,
    affine_chart,
    contact_ge,
    local_geometry,
)
from .errors import InternalError
from .polynomials import (
    Polynomial,
    binary_form_roots,
    constant,
    exact_divide,
    exact_quotient,
    linear_form,
    monomial,
    poly_gcd,
    primitive_normalized,
    squarefree_decompose,
    variable,
    zero,
)
from .series import pivot_orders, series_substitute


class UndecidedError(Exception):
    """An exact search (rational roots of large integers) was aborted."""


# -- branch expansion -------------------------------------------------------


def local_branch(curve, N):
    """Power-series branch of the curve at its marked point, truncated at
    order N, in the original homogeneous coordinates: one tuple of N ints
    per coordinate. Requires a smooth marked point.

    The branch is solved over Z (Eisenstein's theorem): with the chart
    primitive and c its tangent coefficient, g(s, w) = f(c^2 s, c w) / c^2
    has the integer coefficients c_ab * c^(2a + b - 2) and dg/dw(0, 0) = 1,
    so the solve W(s) never divides, and (c^2 s, c W(s)) is the branch of f
    at the parameter c^2 s. All coordinates are then scaled by one
    constant, the lcm D of the denominators of the point in the chart: the
    coordinates the chart sets to 1 come back as the constant D, the others
    as D times their shifted series. Neither step moves a vanishing order:
    s -> c^2 s scales coefficient k by c^(2k), and the constant scales every
    form of one degree alike."""
    if N < 2:
        raise ValueError("truncation must be at least 2")
    f, free, shifts = affine_chart(curve.surface, curve.equation, curve.point)
    if min(sum(e) for e in f.terms) != 1:
        raise ValueError("marked point is singular on the curve")
    f = primitive_normalized(f)
    # f = sum c_ab s^a w^b, with w the chart coordinate solved for: v when
    # df/dv != 0, else u
    along_v = (0, 1) in f.terms
    c = f.terms[(0, 1) if along_v else (1, 0)]
    terms = [(a, b, x) if along_v else (b, a, x) for (a, b), x in f.terms.items()]
    rest = [(a, b, x * c ** (2 * a + b - 2)) for a, b, x in terms if (a, b) != (0, 1)]
    # online solve (van der Hoeven 2002) of g(s, W) = 0: powers[b] holds the
    # coefficients of W^b, extended by one per step. Since W_0 = 0, [s^k] W^b
    # for b >= 2 needs only W_1 .. W_(k-1), so the unknown W_k enters
    # coefficient k of g along the branch only as W_k itself
    top = max(b for _, b, _ in terms)
    powers = [[1] + [0] * (N - 1)] + [[0] * N for _ in range(top)]
    solved = powers[1]
    for k in range(1, N):
        for b in range(2, min(top, k) + 1):
            lower = powers[b - 1]
            powers[b][k] = sum(solved[j] * lower[k - j] for j in range(1, k - b + 2))
        solved[k] = -sum(x * powers[b][k - a] for a, b, x in rest if a <= k)
    s = (0, c * c) + (0,) * (N - 2)
    w = tuple(c * x for x in solved)
    branch = (s, w) if along_v else (w, s)
    value = series_substitute(f, branch)
    residual = next((k for k, x in enumerate(value) if x), None)
    if residual is not None:
        raise InternalError(
            f"branch solve at {curve.point} left a residual of order {residual}"
        )
    scale = lcm(*(x.denominator for x in shifts.values()))
    aff = dict(zip(free, branch))
    return tuple(
        (shifts[i].numerator * (scale // shifts[i].denominator),)
        + tuple(scale * x for x in aff[i][1:])
        if i in aff
        else (scale,) + (0,) * (N - 1)
        for i in range(curve.surface.nvars)
    )


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


def vanishing_sequence(curve, bundle):
    """Vanishing orders at p of the full space of degree-`bundle` forms,
    restricted to the branch of the curve. bundle is an integer m on the
    plane and a pair (m1, m2) on the quadric. The branch is truncated one
    past the intersection number d * (m1 + m2) (d * m on the plane) of the
    curve with a form of that degree, which bounds every finite order."""
    ms = _bundle_degrees(curve.surface, bundle)
    basis = _exponents(curve.surface, ms)
    N = curve.degree * sum(ms) + 1
    branch = local_branch(curve, N)
    n = curve.surface.nvars
    rows = [series_substitute(monomial(n, e), branch) for e in basis]
    pivots, deficiency = pivot_orders(rows)
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


# -- rational component extraction -----------------------------------------


def _require(roots, what):
    if roots is None:
        raise UndecidedError(f"rational root search aborted while {what}")
    return roots


def _linear_factors(f, slots, what):
    """The linear forms v*x_a - u*x_b in the variables slots = (a, b) that
    divide f, as the pairs (u, v) of `binary_form_roots`.

    Such a form divides f exactly when it divides every coefficient form of
    f, the binary form in x_a, x_b that multiplies one monomial in the other
    variables; so the candidates are the roots of the gcd of those forms."""
    a, b = slots
    rest = [i for i in range(f.nvars) if i not in slots]
    groups = {}
    for e, c in f.terms.items():
        groups.setdefault(tuple(e[i] for i in rest), {})[e[a], e[b]] = c
    g = None
    # highest powers of the other variables first: on the plane these are
    # the forms of least degree, whose gcds are the cheapest
    for key in sorted(groups, reverse=True):
        form = Polynomial._raw(2, groups[key])
        g = form if g is None else poly_gcd(g, form)
        if not g.variables():
            return []
    coeffs = [0] * (g.total_degree() + 1)
    for (i, _), c in g.terms.items():
        coeffs[i] = c
    return [
        (u, v)
        for u, v in _require(binary_form_roots(coeffs), what)
        if exact_divide(f, linear_form(f.nvars, slots, (v, -u))) is not None
    ]


def rational_lines(f):
    """All rational lines dividing a squarefree homogeneous 3-variable form.

    Returns a list of coefficient tuples (a, b, c) meaning a*x0 + b*x1 +
    c*x2, scaled so that the first nonzero entry is 1: (0, 0, 1), (0, 1, c)
    or (1, b, c). Raises UndecidedError if an exact root search has to give
    up (huge integer divisors)."""
    x2 = monomial(3, (0, 0, 1))
    rest = exact_divide(f, x2)
    if rest is not None:
        return rational_lines(rest) + [(Fraction(0), Fraction(0), Fraction(1))]
    found = [
        (Fraction(0), Fraction(1), -u)
        for u, _ in _linear_factors(f, (1, 2), "searching lines through (1,0,0)")
    ]
    # a line x0 + b*x1 + c*x2 meets x2 = 0 in a root of f(x0, x1, 0), which
    # is nonzero as x2 does not divide f; x0 -> x0 - b*x1 moves it to x0 + c*x2
    border = [0] * (f.total_degree() + 1)
    for (i, _, k), c in f.terms.items():
        if not k:
            border[i] = c
    slopes = _require(binary_form_roots(border), "searching line slopes")
    for b in sorted(-u for u, v in slopes if v):
        shear = (linear_form(3, (0, 1), (1, -b)), variable(3, 1), variable(3, 2))
        found.extend(
            (Fraction(1), b, -u)
            for u, _ in _linear_factors(
                f.substitute(shear), (0, 2), f"searching lines with slope {b}"
            )
        )
    return found


# -- special configurations -------------------------------------------------


@dataclass
class SpecialLocus:
    in_s: bool
    in_x0: bool
    undecided: bool
    notes: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


def _proj_equal(p, q):
    return all(
        p[i] * q[j] == p[j] * q[i] for i in range(len(p)) for j in range(i + 1, len(p))
    )


def _conic_matrix(q):
    m = [[Fraction(0)] * 3 for _ in range(3)]
    for exp, c in q.terms.items():
        idx = [i for i, e in enumerate(exp) for _ in range(e)]
        i, j = idx[0], idx[1]
        if i == j:
            m[i][i] = c
        else:
            m[i][j] += Fraction(c, 2)
            m[j][i] += Fraction(c, 2)
    return m


def _line_points(lc):
    """Two independent points spanning the line a*x0+b*x1+c*x2 = 0."""
    i0 = next(i for i in range(3) if lc[i] != 0)
    pts = []
    for a in range(3):
        if a == i0:
            continue
        v = [Fraction(0)] * 3
        v[a] = Fraction(1)
        v[i0] = -Fraction(lc[a]) / Fraction(lc[i0])
        pts.append(tuple(v))
    return pts


def _line_conic_tangency(lc, q):
    """If the line touches the conic at a single (double) rational point,
    return that point, else None."""
    v, w = _line_points(lc)
    alpha = q.evaluate(v)
    gamma = q.evaluate(w)
    both = q.evaluate([a + b for a, b in zip(v, w)])
    beta = both - alpha - gamma
    if alpha == 0 and beta == 0 and gamma == 0:
        return None
    if beta * beta - 4 * alpha * gamma != 0:
        return None
    if alpha != 0:
        s, t = -beta, 2 * alpha
    else:
        # beta = 0 here, so the double root is t = 0
        s, t = Fraction(1), Fraction(0)
    return tuple(s * a + t * b for a, b in zip(v, w))


def _degrees(surface, f):
    """The degree of a form on each factor of the surface: (total degree,)
    on the plane, the bidegree on the quadric."""
    return tuple(max(sum(e[b[0] : b[-1] + 1]) for e in f.terms) for b in surface.blocks)


def _squarefree_on_chart(surface, eq):
    """squarefree_decompose(eq) for a plane or quadric form, computed on a
    2-variable affine chart.

    The powers of the coordinates set to 1 are split off first; every other
    factor is the rehomogenization of a chart factor to its own degree in
    each block. Each multiplicity group is unique up to a constant, which
    primitive_normalized fixes, so the list equals the direct decomposition;
    for the same reason the chart is made primitive first, so the gcds run
    on ints.
    """
    n = surface.nvars
    # per factor, the coordinates kept as chart variables and the last one,
    # set to 1: the chart is F(x0, x1, 1) on the plane and F(x0, 1, y0, 1)
    # on the quadric, as curves.affine_chart builds it at (0:0:1) and
    # ((0:1), (0:1)); remapping the exponents is cheaper
    blocks = [(b[:-1], b[-1]) for b in surface.blocks]
    free = [i for kept, _ in blocks for i in kept]
    terms = ((tuple(e[i] for i in free), c) for e, c in eq.terms.items())
    chart = primitive_normalized(Polynomial(2, terms))
    groups = {}
    for factor, mult in squarefree_decompose(chart):
        exps = []
        for u in factor.terms:
            e = [0] * n
            for i, x in zip(free, u):
                e[i] = x
            exps.append(e)
        for kept, one in blocks:
            deg = max(sum(e[i] for i in kept) for e in exps)
            for e in exps:
                e[one] = deg - sum(e[i] for i in kept)
        groups[mult] = Polynomial(n, zip(map(tuple, exps), factor.terms.values()))
    for _, one in blocks:
        k = min(e[one] for e in eq.terms)
        if k:
            groups[k] = groups.get(k, constant(n, 1)) * variable(n, one)
    return [(primitive_normalized(groups[m]), m) for m in sorted(groups)]


def _p2_components(groups):
    lines = []
    leftovers = []
    for f, mult in groups:
        ls = rational_lines(f)
        w = f
        for lc in ls:
            w = exact_quotient(w, linear_form(3, (0, 1, 2), lc), f"splitting off the line {lc}")
            lines.append((lc, mult))
        if w.variables():
            leftovers.append((primitive_normalized(w), mult))
    return lines, leftovers


def _cusp_line(cubic, p):
    """The primitive coefficients of the cusp line of the cubic when it is
    cuspidal and p is its flex, else None. The cubic must have no rational
    linear factor, as no leftover of `_p2_components` has one; it is then
    irreducible over Q, and no rational line lies on it.

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
    decide, and no singular point is searched for. On y^2 z = x^3 at p =
    (0 : 1 : 0), P = 2yz, H = y and C on H is -x^3.

    The answer is that of the elimination test this replaces: the cusp is
    the one rational singular point, its tangent cone a double line that
    does not divide C, p a smooth flex, and that line is returned."""
    grads = [cubic.partial_derivative(i) for i in range(3)]
    tangent = [g.evaluate(p) for g in grads]
    if cubic.evaluate(p) or not any(tangent):
        return None
    polar = sum((x * g for x, g in zip(p, grads) if x), zero(3))
    h = exact_divide(polar, linear_form(3, (0, 1, 2), tangent))
    if h is None:
        return None
    h = primitive_normalized(h)
    h = tuple(h.terms.get(e, 0) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    v, w = _line_points(h)
    on_h = cubic.substitute([linear_form(2, (0, 1), pair) for pair in zip(v, w)])
    a0, a1, a2, a3 = (on_h.terms.get((3 - k, k), 0) for k in range(4))
    # a binary cubic is c * l^3 exactly when its Hessian covariant vanishes
    if a1 * a1 != 3 * a0 * a2 or a2 * a2 != 3 * a1 * a3 or a1 * a2 != 9 * a0 * a3:
        return None
    return h


def _p2_special(curve, groups, configs):
    """Membership of a plane curve in the configurations named in configs,
    "S" and "X0", from its squarefree groups."""
    details = {}
    try:
        lines, leftovers = _p2_components(groups)
    except UndecidedError as e:
        return SpecialLocus(False, False, True, [str(e)], {})
    d = curve.degree
    p = curve.point
    in_s = False
    in_x0 = False
    single_line = len(lines) == 1
    single_left = len(leftovers) == 1 and leftovers[0][1] == 1
    if (
        "S" in configs
        and single_left
        and leftovers[0][0].total_degree() == 2
        and single_line
        and lines[0][1] == d - 2
    ):
        conic = leftovers[0][0]
        lc = lines[0][0]
        if adjugate(_conic_matrix(conic))[1]:
            q = _line_conic_tangency(lc, conic)
            if q is not None:
                on_conic = conic.evaluate(p) == 0
                off_line = linear_form(3, (0, 1, 2), lc).evaluate(p) != 0
                if on_conic and off_line and not _proj_equal(p, q):
                    in_s = True
                    details["line"] = lc
                    details["conic"] = conic
                    details["tangency"] = q
    lines_fit = (d == 3 and not lines) or (
        d > 3 and single_line and lines[0][1] == d - 3
    )
    if (
        "X0" in configs
        and single_left
        and leftovers[0][0].total_degree() == 3
        and lines_fit
    ):
        line = _cusp_line(leftovers[0][0], p)
        in_x0 = line is not None and (d == 3 or _proj_equal(lines[0][0], line))
    return SpecialLocus(in_s, in_x0, False, [], details)


def _quadric_components(groups):
    rx, ry = [], []
    leftovers = []
    for f, mult in groups:
        for slots, name, found in (((0, 1), "x", rx), ((2, 3), "y", ry)):
            for u, v in _linear_factors(f, slots, "splitting off rulings"):
                line = linear_form(4, slots, (v, -u))
                f = exact_quotient(f, line, f"splitting off the {name}-ruling {(u, v)}")
                found.append(((u, v), mult))
        if f.variables():
            leftovers.append((primitive_normalized(f), mult))
    return rx, ry, leftovers


def _binary_disc(coeffs):
    a = coeffs.get(2, Fraction(0))
    b = coeffs.get(1, Fraction(0))
    c = coeffs.get(0, Fraction(0))
    return b * b - 4 * a * c


def _fiber_in_x(gamma, y_pt):
    """gamma restricted to y = y_pt, as {x0-power: coeff}."""
    subs = [
        variable(2, 0),
        variable(2, 1),
        constant(2, y_pt[0]),
        constant(2, y_pt[1]),
    ]
    g = gamma.substitute(subs)
    out = {}
    for exp, c in g.terms.items():
        out[exp[0]] = out.get(exp[0], Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def _swap_vars(f):
    return f.substitute(
        [variable(4, 2), variable(4, 3), variable(4, 0), variable(4, 1)]
    )


def _x0_quadric_oriented(d, gamma, rx, ry, p):
    """Is this the (2,1)-oriented cuspidal-analogue shape: gamma smooth of
    bidegree (2,1), the y-ruling tangent at the crossing point q, the marked
    point a second tangency point of the y-fibration."""
    if _degrees(Surface.QUADRIC, gamma) != (2, 1):
        return False
    if not (len(rx) == 1 and rx[0][1] == d - 2 and len(ry) == 1 and ry[0][1] == d - 1):
        return False
    q0 = gamma.coefficient_in(2, 1)
    q1 = gamma.coefficient_in(3, 1)
    if q0.is_zero() or q1.is_zero() or poly_gcd(q0, q1).variables():
        return False
    # A ruling entry (u, v) is the fiber over the point (u, v) of its factor,
    # so the two rulings cross where both coordinates hit those directions.
    (u, v), _ = rx[0]
    xq = (u, v)
    (uy, vy), _ = ry[0]
    yq = (uy, vy)
    q = (xq[0], xq[1], yq[0], yq[1])
    if gamma.evaluate(q) != 0:
        return False
    fq = _fiber_in_x(gamma, yq)
    if not fq or _binary_disc(fq) != 0:
        return False
    if gamma.evaluate(p) != 0:
        return False
    if _proj_equal(p[:2], xq) and _proj_equal(p[2:], yq):
        return False
    fp = _fiber_in_x(gamma, p[2:])
    if not fp or _binary_disc(fp) != 0:
        return False
    # p lies on gamma and the fiber has a unique (double) root, so the
    # fiber through p is automatically tangent exactly at p
    return True


def _quadric_special(curve, groups, configs):
    """Membership of a quadric curve in the configurations named in
    configs, "S", "X0" (the (2, 1)-form) and "X0 swapped" (the (1, 2)-form),
    from its squarefree groups."""
    details = {}
    try:
        rx, ry, leftovers = _quadric_components(groups)
    except UndecidedError as e:
        return SpecialLocus(False, False, True, [str(e)], {})
    d = curve.degree
    p = tuple(Fraction(x) for x in curve.point)
    in_s = False
    in_x0 = False
    if len(leftovers) != 1 or leftovers[0][1] != 1:
        return SpecialLocus(False, False, False, [], details)
    gamma = leftovers[0][0]
    if "S" in configs and _degrees(Surface.QUADRIC, gamma) == (1, 1):
        if len(rx) == 1 and rx[0][1] == d - 1 and len(ry) == 1 and ry[0][1] == d - 1:
            a = gamma.terms.get((1, 0, 1, 0), Fraction(0))
            b = gamma.terms.get((1, 0, 0, 1), Fraction(0))
            c = gamma.terms.get((0, 1, 1, 0), Fraction(0))
            e = gamma.terms.get((0, 1, 0, 1), Fraction(0))
            if a * e - b * c != 0:
                (u, v), _ = rx[0]
                (uy, vy), _ = ry[0]
                q = (u, v, uy, vy)
                if gamma.evaluate(q) == 0 and gamma.evaluate(p) == 0:
                    same = _proj_equal(p[:2], q[:2]) and _proj_equal(p[2:], q[2:])
                    if not same:
                        in_s = True
                        details["gamma"] = gamma
                        details["crossing"] = q
    if "X0" in configs:
        in_x0 = _x0_quadric_oriented(d, gamma, rx, ry, p)
    if "X0 swapped" in configs:
        in_x0 = in_x0 or _x0_quadric_oriented(
            d, _swap_vars(gamma), ry, rx, p[2:] + p[:2]
        )
    return SpecialLocus(in_s, in_x0, False, [], details)


def _special_shapes(surface, d):
    """The multiplicity -> degree map of the squarefree decomposition of
    every degree-d curve in each configuration, by its name; a degree is
    (total degree,) on the plane and the bidegree on the quadric.

    Each configuration is a product of factors of fixed degrees and
    multiplicities (a factor of multiplicity 0 is absent): on the plane, S
    is a conic times a line to the d - 2 and X0 a cuspidal cubic times a
    line to the d - 3; on the quadric, S is a (1, 1)-form times one ruling
    of each family to the d - 1, and X0 a (2, 1)-form times an x-ruling to
    the d - 2 and a y-ruling to the d - 1, or the same with the factors
    swapped. Distinct factors of one multiplicity share a group, so their
    degrees add."""
    if surface is Surface.P2:
        products = {
            "S": (((2,), 1), ((1,), d - 2)),
            "X0": (((3,), 1), ((1,), d - 3)),
        }
    else:
        products = {
            "S": (((1, 1), 1), ((1, 0), d - 1), ((0, 1), d - 1)),
            "X0": (((2, 1), 1), ((1, 0), d - 2), ((0, 1), d - 1)),
            "X0 swapped": (((1, 2), 1), ((0, 1), d - 2), ((1, 0), d - 1)),
        }
    shapes = {}
    for name, factors in products.items():
        shape = {}
        for deg, mult in factors:
            if mult > 0:
                have = shape.get(mult, (0,) * len(deg))
                shape[mult] = tuple(a + b for a, b in zip(have, deg))
        shapes[name] = shape
    return shapes


# The one configuration the local data at the marked point allows, keyed by
# the tangent's contact on the plane and by the ruling contacts on the
# quadric (see `_allowed_configuration`)
_ALLOWED = {
    Surface.P2: {2: "S", 3: "X0"},
    Surface.QUADRIC: {(1, 1): "S", (1, 2): "X0", (2, 1): "X0 swapped"},
}


def _allowed_configuration(surface, geometry):
    """The name of the one configuration, of those `_special_shapes` lists,
    that a curve with this `LocalGeometry` at its marked point can be in,
    or None when it can be in neither.

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
    When it allows none, the curve is in neither, with no decomposition
    and no root search. Otherwise the squarefree decomposition is
    computed once; if its multiplicity -> degree map is not the one that
    configuration has (`_special_shapes`), the curve is in neither, and
    no root search runs; otherwise the groups are split into rational
    lines or rulings and the leftover factors, and only that
    configuration is tested.

    Exact and conservative: when a root search aborts, the result carries
    undecided=True and each flag that search would have set stays False."""
    surface = curve.surface
    geo = local_geometry(curve) if geometry is None else geometry
    config = _allowed_configuration(surface, geo)
    if config is None:
        return SpecialLocus(False, False, False, [], {})
    groups = _squarefree_on_chart(surface, curve.equation)
    shape = {m: _degrees(surface, f) for f, m in groups}
    if shape != _special_shapes(surface, curve.degree)[config]:
        return SpecialLocus(False, False, False, [], {})
    if surface is Surface.P2:
        return _p2_special(curve, groups, (config,))
    return _quadric_special(curve, groups, (config,))


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
    of (1, 1)-forms on the quadric) and the fields derived from them. So a
    caller pays only for the fields it reads: smooth_at_p, multiplicity,
    ruling_contacts and in_h1 need the geometry alone, as seq1 is read off
    the tangent's contact; in_h2prime needs seq2 or seq11, the only
    sequences that solve a branch; in_s, in_x0 and undecided need the
    special locus, which runs a search only where the geometry allows a
    configuration (`configuration`). At a singular marked point in_h1 =
    in_h2prime = True, no sequence is computed and the special locus is
    empty without a search."""

    def __init__(self, curve):
        self.curve = curve
        self.surface = curve.surface

    @cached_property
    def geometry(self):
        return local_geometry(self.curve)

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
        return vanishing_sequence(self.curve, 2)

    @cached_property
    def seq11(self):
        return vanishing_sequence(self.curve, (1, 1))

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

    @property
    def undecided(self):
        return self.special.undecided

    @cached_property
    def sequences(self):
        if not self.smooth_at_p:
            return {}
        if self._plane:
            return {"o1": self.seq1, "o2": self.seq2}
        return {"o11": self.seq11}

    @cached_property
    def notes(self):
        notes = list(self.special.notes)
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
