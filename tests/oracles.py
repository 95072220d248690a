"""Oracles that only the tests use: independent routes to quantities the
package computes another way."""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace

import random

from wallcross.criterion import (
    ClaimCheck,
    _adapted_frames,
    _random_frame,
    monomial_weight,
    mu_min,
    point_weight,
    torus_verdict,
)
from wallcross.curves import (
    IDENTITY_FRAMES,
    FrameChange,
    PointedCurve,
    Surface,
    affine_chart,
    apply_frame,
    contact_ge,
    local_geometry,
    move_curve,
    normalize_frame,
)
from wallcross.inflection import (
    InflectionReport,
    _cusp_line,
    _proj_equal,
    _s_on_plane,
    _s_on_quadric,
    _x0_quadric_oriented,
    inflection_weight,
    local_branch,
    special_locus_membership,
    vanishing_sequence,
)
from wallcross.polynomials import (
    Polynomial,
    constant,
    exact_divide,
    exact_quotient,
    linear_form,
    monomial,
    poly_det,
    poly_gcd,
    primitive_normalized,
    rational_roots,
    resultant,
    squarefree_decompose,
    variable,
)
from wallcross.rationals import canonical
from wallcross.series import series_substitute


def intersection_multiplicity(curve, aux, N=None):
    """Order of vanishing of an auxiliary form along the branch at p.

    Returns (value, exact). exact=False means the form vanishes through the
    whole window, so the multiplicity is >= value (the branch lies on a
    component of the auxiliary curve)."""
    if aux.is_zero():
        raise ValueError("auxiliary form is zero")
    if curve.surface is Surface.P2:
        total = aux.total_degree() * curve.degree
    else:
        e1 = max(e[0] + e[1] for e in aux.terms)
        e2 = max(e[2] + e[3] for e in aux.terms)
        total = (e1 + e2) * curve.degree
    if N is None:
        N = total + 1
    val = series_substitute(aux, homogeneous_branch(curve, N))
    o = next((k for k, c in enumerate(val) if c), None)
    if o is None:
        return N, False
    return o, True


def homogeneous_branch(curve, N):
    """The chart branch of `inflection.local_branch` in the homogeneous
    coordinates: one tuple of N ints per coordinate. All coordinates are
    scaled by one constant, the lcm D of the denominators of the point in
    the chart: the coordinates the chart sets to 1 come back as the
    constant D, the others as D times their shifted series. The constant
    scales every form of one degree alike, so it moves no vanishing
    order."""
    branch, _, _ = local_branch(curve, N)
    _, free, shifts = affine_chart(curve.surface, curve.equation, curve.point)
    scale = math.lcm(*(x.denominator for x in shifts.values()))
    aff = dict(zip(free, branch))
    return tuple(
        (shifts[i].numerator * (scale // shifts[i].denominator),)
        + tuple(scale * x for x in aff[i][1:])
        if i in aff
        else (scale,) + (0,) * (N - 1)
        for i in range(curve.surface.nvars)
    )


def windowed_branch(curve, N):
    """local_branch by the windowed Newton solve: step k substitutes the
    whole chart polynomial into the first k + 1 coefficients of the branch
    to read coefficient k, which is O(terms * N^3) in all."""
    f, free, shifts = affine_chart(curve.surface, curve.equation, curve.point)
    fu = f.terms.get((1, 0), 0)
    fv = f.terms.get((0, 1), 0)
    if fv != 0:
        pair, slope = (lambda s, w: (s, w)), fv
    else:
        pair, slope = (lambda s, w: (w, s)), fu
    solved = [0] * N
    for k in range(1, N):
        s = (0, 1) + (0,) * (k - 1)
        e = series_substitute(f, pair(s, tuple(solved[: k + 1])))[k]
        if e:
            solved[k] = canonical(Fraction(-e, slope))
    aff = dict(zip(free, pair((0, 1) + (0,) * (N - 2), tuple(solved))))
    return tuple(
        constant_plus(shifts[i], aff[i]) if i in aff else constant_plus(1, (0,) * N)
        for i in range(curve.surface.nvars)
    )


def constant_plus(c, series):
    """The series c + series, added coefficient by coefficient."""
    const = (c,) + (0,) * (len(series) - 1)
    return tuple(canonical(a + b) for a, b in zip(const, series))


# -- the special locus by a component search ---------------------------------
# The reference that `inflection.special_locus_membership` replaced: a
# squarefree split on a chart, and a rational-root search for the lines and
# rulings in each group, which gives up on huge integers. The tests of the
# configuration it hands the components to are the package's own.


class SearchAborted(Exception):
    """A rational-root search of the component search gave up on huge
    integer divisors."""


@dataclass
class ReferenceLocus:
    """The memberships the component search finds, with the fields of
    `inflection.SpecialLocus`, and whether it gave up (undecided), in
    which case both memberships read False."""

    in_s: bool
    in_x0: bool
    undecided: bool
    details: dict = field(default_factory=dict)


def binary_form_roots(coeffs):
    """Rational projective roots of a binary form sum(coeffs[i] * u^i * v^(n-i)).

    Returns a list of (u, v) with v == 1, plus (1, 0) when v divides the form.
    None means the underlying rational-root search aborted.
    """
    cs = [Fraction(c) for c in coeffs]
    if all(c == 0 for c in cs):
        raise ValueError("zero form")
    n = len(cs) - 1
    top = max(i for i, c in enumerate(cs) if c != 0)
    out = []
    if top < n:
        out.append((Fraction(1), Fraction(0)))
    rr = rational_roots(cs[: top + 1]) if top > 0 else []
    if rr is None:
        return None
    out.extend((r, Fraction(1)) for r in rr)
    return out


def _require(roots, what):
    if roots is None:
        raise SearchAborted(f"rational root search aborted while {what}")
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
    or (1, b, c). Raises SearchAborted if an exact root search has to give
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
                substitute(f, shear), (0, 2), f"searching lines with slope {b}"
            )
        )
    return found


def degrees(surface, f):
    """The degree of a form on each factor of the surface: (total degree,)
    on the plane, the bidegree on the quadric."""
    return tuple(max(sum(e[b[0] : b[-1] + 1]) for e in f.terms) for b in surface.blocks)


def squarefree_on_chart(surface, eq):
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


def p2_components(groups):
    """The rational lines of each squarefree group, with the group's
    multiplicity, and the primitive leftover factor of each group."""
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


def quadric_components(groups):
    """The rational x- and y-rulings of each squarefree group, as
    ((u, v), multiplicity), and the primitive leftover factor of each."""
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


def special_shapes(surface, d):
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


def reference_cusp_line(cubic, p):
    """`inflection._cusp_line` on any cubic with no rational linear factor:
    None unless p is a smooth flex of it, which that function requires."""
    if cubic.evaluate(p):
        return None
    geo = local_geometry(PointedCurve(Surface.P2, 3, p, cubic))
    return _cusp_line(cubic, p) if geo.tangent_contact == 3 else None


def p2_special(curve, groups, configs):
    """Membership of a plane curve in the configurations named in configs,
    "S" and "X0", from its squarefree groups."""
    try:
        lines, leftovers = p2_components(groups)
    except SearchAborted:
        return ReferenceLocus(False, False, True)
    d, p = curve.degree, curve.point
    single_left = len(leftovers) == 1 and leftovers[0][1] == 1
    details = {}
    if (
        "S" in configs
        and single_left
        and leftovers[0][0].total_degree() == 2
        and len(lines) == 1
        and lines[0][1] == d - 2
    ):
        line, conic = lines[0][0], leftovers[0][0]
        details = _s_on_plane(line, conic)
        # with no gate, p must be tested: on the conic, off the line, apart from the tangency
        off_line = linear_form(3, (0, 1, 2), line).evaluate(p)
        if details and (conic.evaluate(p) or not off_line or _proj_equal(p, details["tangency"])):
            details = {}
    lines_fit = (d == 3 and not lines) or (d > 3 and len(lines) == 1 and lines[0][1] == d - 3)
    in_x0 = False
    if "X0" in configs and single_left and leftovers[0][0].total_degree() == 3 and lines_fit:
        line = reference_cusp_line(leftovers[0][0], p)
        in_x0 = line is not None and (d == 3 or _proj_equal(lines[0][0], line))
    return ReferenceLocus(bool(details), in_x0, False, details)


def quadric_special(curve, groups, configs):
    """Membership of a quadric curve in the configurations named in
    configs, "S", "X0" (the (2, 1)-form) and "X0 swapped" (the (1, 2)-form),
    from its squarefree groups."""
    try:
        rx, ry, leftovers = quadric_components(groups)
    except SearchAborted:
        return ReferenceLocus(False, False, True)
    d = curve.degree
    p = tuple(Fraction(x) for x in curve.point)
    # every configuration has one x-ruling and one y-ruling
    if len(leftovers) != 1 or leftovers[0][1] != 1 or len(rx) != 1 or len(ry) != 1:
        return ReferenceLocus(False, False, False)
    gamma = leftovers[0][0]
    bidegree = degrees(Surface.QUADRIC, gamma)

    def single(rulings, mult):
        return len(rulings) == 1 and rulings[0][1] == mult

    # with no gate, p must be tested: apart from the crossing q, and on gamma for S
    q = rx[0][0] + ry[0][0]
    apart = not (_proj_equal(p[:2], q[:2]) and _proj_equal(p[2:], q[2:]))
    details = {}
    if "S" in configs and bidegree == (1, 1) and single(rx, d - 1) and single(ry, d - 1):
        if apart and not gamma.evaluate(p):
            details = _s_on_quadric(gamma, q)
    in_x0 = False
    if "X0" in configs and bidegree == (2, 1) and single(rx, d - 2) and single(ry, d - 1):
        in_x0 = apart and _x0_quadric_oriented(gamma, 0, q, p)
    if "X0 swapped" in configs and bidegree == (1, 2) and single(ry, d - 2) and single(rx, d - 1):
        in_x0 = in_x0 or (apart and _x0_quadric_oriented(gamma, 1, q, p))
    return ReferenceLocus(bool(details), in_x0, False, details)


def ungated_special_locus(curve):
    """The special locus by the component search, with no local-data gate
    and no squarefree-shape gate: the rational components are searched on
    every curve, and every configuration is tested. Undecided where a root
    search aborts."""
    groups = squarefree_on_chart(curve.surface, curve.equation)
    configs = tuple(special_shapes(curve.surface, curve.degree))
    if curve.surface is Surface.P2:
        return p2_special(curve, groups, configs)
    return quadric_special(curve, groups, configs)


# -- X0 on the plane by elimination ------------------------------------------


def elimination_cusp_line(cubic, p):
    """The cusp line of a cubic with no rational linear factor at its flex
    p, by the search that `inflection._cusp_line` replaced: the rational
    singular points from resultants of the partials, one of them a double
    point whose tangent cone is a double line not dividing the cubic, and p
    a smooth flex of positive inflection weight. The primitive coefficients
    of that line, else None; raises SearchAborted when a root search
    aborts."""
    sing = rational_singular_points(cubic)
    if len(sing) != 1:
        return None
    line = _tangent_cone_double_line(cubic, sing[0])
    if line is None or exact_divide(cubic, linear_form(3, (0, 1, 2), line)) is not None:
        return None
    if cubic.evaluate(p) != 0:
        return None
    probe = PointedCurve(Surface.P2, 3, tuple(Fraction(x) for x in p), cubic)
    if not local_geometry(probe).smooth_at_p:
        return None
    weight, _ = inflection_weight(vanishing_sequence(probe, 1))
    return line if weight > 0 else None


def rational_singular_points(curve_poly):
    """All rational singular points of a plane curve (common zeros of the
    partials), from the Sylvester resultant of two partials in the first of
    three elimination orders that does not vanish."""
    parts = [curve_poly.partial_derivative(i) for i in range(3)]
    pts = []

    def record(pt):
        if all(x == 0 for x in pt):
            return
        if all(g.evaluate(pt) == 0 for g in parts):
            if not any(_proj_equal(known, pt) for known in pts):
                pts.append(tuple(Fraction(x) for x in pt))

    for i in range(3):
        record(tuple(Fraction(int(i == k)) for k in range(3)))
    for z, f1, f2, dirs in ((2, 0, 1, (0, 1)), (1, 0, 2, (0, 2)), (0, 1, 2, (1, 2))):
        r = resultant(parts[f1], parts[f2], z)
        if r.is_zero():
            continue
        coeffs = [Fraction(0)] * (r.total_degree() + 1)
        for exp, c in r.terms.items():
            coeffs[exp[dirs[0]]] += c
        for u, v in _require(binary_form_roots(coeffs), "locating singular points"):
            # solve the remaining coordinate z along this direction
            pt = [None] * 3
            pt[dirs[0]], pt[dirs[1]] = u, v
            subs = [variable(1, 0) if i == z else constant(1, pt[i]) for i in range(3)]
            restr = [uni for uni in (substitute(g, subs) for g in parts) if not uni.is_zero()]
            if not restr:
                continue
            deg = restr[0].degree_in(0)
            uni = [restr[0].terms.get((k,), Fraction(0)) for k in range(deg + 1)]
            for t in _require(rational_roots(uni), "solving for a singular point"):
                pt[z] = t
                record(tuple(pt))
        return pts
    raise SearchAborted("all eliminations degenerated")


def _tangent_cone_double_line(curve_poly, q):
    """If the curve has multiplicity 2 at q with a rank-one tangent cone,
    the primitive coefficients of the doubled line, else None."""
    aff, frees, _ = affine_chart(Surface.P2, curve_poly, q)
    (l0,) = set(range(3)) - set(frees)
    if min(sum(e) for e in aff.terms) != 2:
        return None
    alpha = aff.terms.get((2, 0), Fraction(0))
    beta = aff.terms.get((1, 1), Fraction(0))
    gamma = aff.terms.get((0, 2), Fraction(0))
    if beta * beta - 4 * alpha * gamma != 0:
        return None
    if alpha != 0:
        lam, mu = alpha, Fraction(beta, 2)
    elif gamma != 0:
        lam, mu = Fraction(0), gamma
    else:
        return None
    # affine line lam*u + mu*v through q, rehomogenized
    coeffs = [Fraction(0)] * 3
    a, b = frees
    coeffs[a] += lam * Fraction(q[l0])
    coeffs[l0] -= lam * Fraction(q[a])
    coeffs[b] += mu * Fraction(q[l0])
    coeffs[l0] -= mu * Fraction(q[b])
    line = primitive_normalized(linear_form(3, (0, 1, 2), coeffs))
    return tuple(line.terms.get(e, 0) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def classical_hessian(poly):
    """Determinant of the matrix of second partials of a ternary form."""
    if poly.nvars != 3:
        raise ValueError("expected a 3-variable form")
    rows = [
        [poly.partial_derivative(i).partial_derivative(j) for j in range(3)]
        for i in range(3)
    ]
    return poly_det(rows)


def gauss_jordan(rows):
    """Gauss-Jordan elimination on Fractions, (reduced, pivots, det) with
    det the signed product of the pivots."""
    mat = [[Fraction(x) for x in r] for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    det = Fraction(1)
    r = 0
    for col in range(ncols):
        if r == len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            mat[r], mat[pivot] = mat[pivot], mat[r]
            det = -det
        det *= mat[r][col]
        mat[r] = [x / mat[r][col] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return mat, pivots, det


def _matrix_inverse(m):
    n = len(m)
    aug = [list(m[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    reduced, pivots, _ = gauss_jordan(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def substitute(f, subs):
    """f with the polynomial subs[i] plugged in for each variable i, term by
    term: the sum of c * prod(subs[i] ** e[i]) in Polynomial arithmetic."""
    if len(subs) != f.nvars:
        raise ValueError("need one substitution per variable")
    m = subs[0].nvars
    out = Polynomial(m)
    for exp, c in f.terms.items():
        term = constant(m, c)
        for s, e in zip(subs, exp):
            term = term * s ** e
        out = out + term
    return out


def frame_inverse(frame):
    """The inverse frame, its matrices inverted by Gauss-Jordan elimination
    rather than through the adjugate."""
    inv = _matrix_inverse
    if frame.surface is Surface.P2:
        return FrameChange(frame.surface, inv(frame.mx))
    if not frame.swap:
        return FrameChange(frame.surface, inv(frame.mx), inv(frame.my))
    return FrameChange(frame.surface, inv(frame.my), inv(frame.mx), swap=True)


def frame_point(frame, p):
    """g(p) by the Fraction matrices of the frame: the x and y blocks, in
    the other order when the frame exchanges the factors."""
    def image(m, v):
        return tuple(sum(Fraction(a) * x for a, x in zip(row, v)) for row in m)

    if frame.surface is Surface.P2:
        return image(frame.mx, p)
    u, v = image(frame.mx, p[:2]), image(frame.my, p[2:])
    return v + u if frame.swap else u + v


def mu_term(surface, lam, t, label, exp):
    """mu restricted to one point coordinate and one monomial."""
    lw = _fraction_literal_weights(lam)
    return Fraction(t) * point_weight(surface, lw, label) - monomial_weight(lw, exp)


def full_move_search(curve, t, budget=500, seed=0):
    """criterion.destabilizer_search with every frame but the normalizing
    one and the identity moved in full by `move_curve`, the equation's
    whole support read, and no corner test."""
    report = InflectionReport(curve)
    g0, moved0 = normalize_frame(curve, report.geometry)
    frames = [(g0, moved0), (IDENTITY_FRAMES[curve.surface], curve)]
    frames += [(frame, None) for frame in _adapted_frames(curve, report)]
    rng = random.Random(seed)
    seen = set()
    tried = 0
    while tried < budget:
        frame, exact = frames.pop(0) if frames else (_random_frame(curve.surface, rng), None)
        if frame in seen:
            continue
        seen.add(frame)
        tried += 1
        moved = exact if exact is not None else move_curve(curve, frame)[0]
        sign, lam = torus_verdict(moved, t)
        if sign > 0:
            mu, _ = mu_min(apply_frame(curve, frame), lam, t)
            return frame, lam, mu
    return None


# The public fields of an inflection report, in the order a reader meets
# them in the `inflect` document.
REPORT_FIELDS = (
    "surface", "smooth_at_p", "multiplicity", "weight", "weight_is_lower_bound",
    "flex", "hyperflex", "in_h1", "in_h2prime", "in_s", "in_x0", "undecided",
    "ruling_contacts", "sequences", "notes",
)


def eager_report(curve):
    """The inflection report computed in full up front, field by field as
    `wallcross.inflection.inflection_report` defines them."""
    geo = local_geometry(curve)
    special = special_locus_membership(curve)
    rep = SimpleNamespace(
        surface=curve.surface,
        smooth_at_p=geo.smooth_at_p,
        multiplicity=geo.multiplicity,
        weight=None,
        weight_is_lower_bound=False,
        flex=False,
        hyperflex=False,
        in_h1=False,
        in_h2prime=False,
        in_s=special.in_s,
        in_x0=special.in_x0,
        undecided=False,
        ruling_contacts=None,
        sequences={},
        notes=[],
    )
    if not geo.smooth_at_p:
        rep.in_h1 = True
        rep.in_h2prime = True
        rep.notes.append("marked point is singular; memberships follow")
        return rep
    if curve.surface is Surface.P2:
        seq1 = vanishing_sequence(curve, 1)
        seq2 = vanishing_sequence(curve, 2)
        w1, lb1 = inflection_weight(seq1)
        w2, lb2 = inflection_weight(seq2)
        rep.weight = w1
        rep.weight_is_lower_bound = lb1
        rep.flex = w1 > 0
        rep.hyperflex = seq1.top_at_least(4)
        rep.in_h1 = rep.flex
        rep.in_h2prime = w2 > w1
        if lb1 or lb2:
            rep.notes.append(
                "a section contains the branch; weights use truncation lower bounds"
            )
        rep.sequences = {"o1": seq1, "o2": seq2}
    else:
        cx, cy = geo.ruling_contacts
        rep.ruling_contacts = (cx, cy)
        seq11 = vanishing_sequence(curve, (1, 1))
        w11, lb11 = inflection_weight(seq11)
        rep.weight = w11
        rep.weight_is_lower_bound = lb11
        rep.in_h1 = contact_ge(cx, 2) or contact_ge(cy, 2)
        rep.in_h2prime = seq11.top_at_least(4)
        rep.flex = rep.in_h1
        rep.hyperflex = rep.in_h2prime
        if lb11:
            rep.notes.append(
                "a section contains the branch; weights use truncation lower bounds"
            )
        rep.sequences = {"o11": seq11}
    return rep


# -- Fraction-only copies of the integer kernels -----------------------------
# criterion and polynomials compute mu and values on canonical scalars, ints
# where they are integral; these copies keep every scalar a Fraction.


def fraction_evaluate(poly, point):
    """Polynomial.evaluate with every coefficient and coordinate a Fraction."""
    total = Fraction(0)
    for exp, c in poly.terms.items():
        v = Fraction(c)
        for x, e in zip(point, exp):
            v *= Fraction(x) ** e
        total += v
    return total


def _fraction_literal_weights(lam):
    ws = [Fraction(w) for w in lam.weights]
    if lam.surface is Surface.P2:
        return ws
    r0, r1 = ws
    return [-r0, r0, -r1, r1]


def _fraction_point_weight(surface, lw, label):
    if surface is Surface.P2:
        return lw[label]
    l, m = label
    return lw[l] + lw[2 + m]


def _fraction_monomial_weight(lw, exp):
    return sum((Fraction(e) * w for e, w in zip(exp, lw)), Fraction(0))


def fraction_primitive(entries):
    """rationals.primitive in Fractions, by another route: divide by the
    absolute value of the first nonzero entry, so one entry is +-1, then
    clear the denominators, which leaves coprime integers."""
    fracs = [Fraction(e) for e in entries]
    lead = next((abs(f) for f in fracs if f), None)
    if lead is None:
        return tuple(0 for _ in fracs)
    unit = [f / lead for f in fracs]
    mult = math.lcm(*(f.denominator for f in unit))
    return tuple(int(f * mult) for f in unit)


def fraction_mu_min(curve, lam, t):
    """criterion.mu_min in Fractions: (value, (point label, exponent)), the
    label of least t * weight, then of least weight, then the least label;
    the monomial of largest weight, then the lexicographically least."""
    t = Fraction(t)
    lw = _fraction_literal_weights(lam)
    p = curve.point
    if curve.surface is Surface.P2:
        labels = [l for l in range(3) if p[l] != 0]
    else:
        labels = [(l, m) for l in range(2) if p[l] != 0 for m in range(2) if p[2 + m] != 0]
    weights = [(_fraction_point_weight(curve.surface, lw, lb), lb) for lb in labels]
    low, _, label = min((t * w, w, lb) for w, lb in weights)
    high, _, exp = max(
        (_fraction_monomial_weight(lw, e), tuple(-c for c in e), e)
        for e in curve.equation.terms
    )
    return low - high, (label, exp)


def fraction_interval_mu_claim(surface, lam, labels, exponents, t_spec, strictness=">0"):
    """criterion.interval_mu_claim in Fractions, for valid specs."""
    check = ClaimCheck(passed=True)
    points = [Fraction(t) for t in t_spec[1:]]
    lw = _fraction_literal_weights(lam)
    for label in labels:
        pw = _fraction_point_weight(surface, lw, label)
        for exp in exponents:
            mw = _fraction_monomial_weight(lw, exp)
            values = [t * pw - mw for t in points]
            for t, v in zip(points, values):
                if v == 0:
                    check.equalities.append((label, exp, t))
            if len(points) == 2:
                bad = min(values) < 0 or (strictness == ">0" and all(v == 0 for v in values))
            else:
                bad = values[0] <= 0 if strictness == ">0" else values[0] < 0
            if bad:
                worst = min(zip(values, points))
                check.counterexamples.append((label, exp, worst[1], worst[0]))
                check.passed = False
    return check


# -- the per-surface code that reading Surface.blocks replaced ---------------
# Written out once for the plane and once for the quadric, as the package
# had them before it read the factors off `Surface.blocks`.


def explicit_exponents(surface, degrees):
    """Every exponent vector of degree degrees on the plane, of bidegree
    degrees = (m1, m2) on the quadric, in lex order."""
    if surface is Surface.P2:
        (m,) = degrees
        return [(i, j, m - i - j) for i in range(m + 1) for j in range(m - i + 1)]
    m1, m2 = degrees
    return [(a, m1 - a, b, m2 - b) for a in range(m1 + 1) for b in range(m2 + 1)]


def explicit_chart_coordinates(surface, point):
    """The (free, shifts) of `curves.affine_chart` at the point: the first
    nonzero coordinate of each factor is set to 1."""
    if surface is Surface.P2:
        l0 = next(i for i in range(3) if point[i] != 0)
        charts = [(l0, [i for i in range(3) if i != l0])]
    else:
        lx = 0 if point[0] != 0 else 1
        ly = 2 if point[2] != 0 else 3
        charts = [(lx, [i for i in (0, 1) if i != lx]), (ly, [i for i in (2, 3) if i != ly])]
    free = [i for _, fs in charts for i in fs]
    shifts = {i: Fraction(point[i]) / Fraction(point[fixed]) for fixed, fs in charts for i in fs}
    return free, shifts


def explicit_point_labels(surface, point):
    """Indices l of the nonzero coordinates on the plane, pairs (l, m) of
    nonzero x_l and y_m on the quadric."""
    if surface is Surface.P2:
        return [l for l in range(3) if point[l] != 0]
    xs = [l for l in range(2) if point[l] != 0]
    ys = [m for m in range(2) if point[2 + m] != 0]
    return [(l, m) for l in xs for m in ys]


def explicit_h0_excess(surface, d, m):
    """The rank correction h0 of the twist by the inverse curve bundle."""
    if surface is Surface.P2:
        return math.comb(m - d + 2, 2) if m >= d else 0
    m1, m2 = m
    return (m1 - d + 1) * (m2 - d + 1) if m1 >= d and m2 >= d else 0


def explicit_class_components(surface, d, m):
    """The components of the osculation class, for m < d: ((n+1)m +
    C(n+1,2)(d-3), C(n+1,2)) with n+1 = C(m+2,2) on the plane, and
    ((n+1)m1 + C(n+1,2)(d-2), (n+1)m2 + C(n+1,2)(d-2), C(n+1,2)) with n+1
    = (m1+1)(m2+1) on the quadric."""
    if surface is Surface.P2:
        n1 = math.comb(m + 2, 2)
        pairs = math.comb(n1, 2)
        return (n1 * m + pairs * (d - 3), pairs)
    m1, m2 = m
    n1 = (m1 + 1) * (m2 + 1)
    pairs = math.comb(n1, 2)
    return (n1 * m1 + pairs * (d - 2), n1 * m2 + pairs * (d - 2), pairs)


def explicit_symmetrized_components(d, m1, m2):
    c1 = explicit_class_components(Surface.QUADRIC, d, (m1, m2))
    if m1 == m2:
        return c1
    c2 = explicit_class_components(Surface.QUADRIC, d, (m2, m1))
    return tuple(x + y for x, y in zip(c1, c2))


def explicit_wall_slope(surface, components):
    """Point part over family part; None for a quadric class whose two
    point parts differ."""
    if surface is Surface.P2:
        a, b = components
        return Fraction(a, b)
    a1, a2, b = components
    return Fraction(a1, b) if a1 == a2 else None


def explicit_analyzed_slopes(surface, d):
    """(wall, edge): on the plane from the second-order class minus the
    first-order one and from the first-order class, on the quadric from
    the symmetrized classes of (1, 1) and (0, 1)."""
    if surface is Surface.P2:
        w1 = explicit_class_components(surface, d, 1)
        w2 = explicit_class_components(surface, d, 2)
        wall = explicit_wall_slope(surface, tuple(a - b for a, b in zip(w2, w1)))
        return wall, explicit_wall_slope(surface, w1)
    return (
        explicit_wall_slope(surface, explicit_symmetrized_components(d, 1, 1)),
        explicit_wall_slope(surface, explicit_symmetrized_components(d, 0, 1)),
    )
