"""Oracles that only the tests use: independent routes to quantities the
package computes another way."""

import math
from fractions import Fraction
from types import SimpleNamespace

import random

from wallcross import polynomials
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
    IDENTITY_MATRICES,
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
    UndecidedError,
    _p2_special,
    _proj_equal,
    _quadric_special,
    _require,
    _special_shapes,
    _squarefree_on_chart,
    inflection_weight,
    local_branch,
    special_locus_membership,
    vanishing_sequence,
)
from wallcross.polynomials import (
    binary_form_roots,
    constant,
    exact_divide,
    exact_quotient,
    linear_form,
    poly_det,
    poly_gcd,
    primitive_normalized,
    rational_roots,
    resultant,
    variable,
    zero,
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
    val = series_substitute(aux, local_branch(curve, N))
    o = next((k for k, c in enumerate(val) if c), None)
    if o is None:
        return N, False
    return o, True


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


def ungated_special_locus(curve):
    """special_locus_membership without the local-data gate and the
    squarefree-shape gate: the rational components are searched on every
    curve, and every configuration is tested."""
    groups = _squarefree_on_chart(curve.surface, curve.equation)
    configs = tuple(_special_shapes(curve.surface, curve.degree))
    if curve.surface is Surface.P2:
        return _p2_special(curve, groups, configs)
    return _quadric_special(curve, groups, configs)


# -- X0 on the plane by elimination ------------------------------------------


def elimination_cusp_line(cubic, p):
    """The cusp line of a cubic with no rational linear factor at its flex
    p, by the search that `inflection._cusp_line` replaced: the rational
    singular points from resultants of the partials, one of them a double
    point whose tangent cone is a double line not dividing the cubic, and p
    a smooth flex of positive inflection weight. The primitive coefficients
    of that line, else None; raises UndecidedError when a root search
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
            restr = [uni for uni in (g.substitute(subs) for g in parts) if not uni.is_zero()]
            if not restr:
                continue
            deg = restr[0].degree_in(0)
            uni = [restr[0].terms.get((k,), Fraction(0)) for k in range(deg + 1)]
            for t in _require(rational_roots(uni), "solving for a singular point"):
                pt[z] = t
                record(tuple(pt))
        return pts
    raise UndecidedError("all eliminations degenerated")


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


def recursive_squarefree_decompose(f):
    """polynomials.squarefree_decompose without its modular certificate:
    with c = gcd(f, all partials), the characteristic-zero recursion peels
    off the primes of each multiplicity in turn."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    if not f.variables():
        return []
    c = f
    for i in sorted(f.variables()):
        c = poly_gcd(c, f.partial_derivative(i))
    w = primitive_normalized(exact_quotient(f, c, "squarefree: f by gcd(f, partials)"))
    out = []
    i = 1
    while w.variables():
        y = poly_gcd(w, c)
        a = primitive_normalized(exact_quotient(w, y, f"squarefree part {i}"))
        if a.variables():
            out.append((a, i))
        c = primitive_normalized(exact_quotient(c, y, f"squarefree cofactor {i}"))
        w = y
        i += 1
    return out


def prs_poly_gcd(f, g):
    """polynomials.poly_gcd by the content split and the subresultant PRS
    alone, contents included: no modular image and no one-term shortcut."""
    if f.is_zero():
        return primitive_normalized(g)
    if g.is_zero():
        return primitive_normalized(f)
    common = f.variables() & g.variables()
    if not common:
        return constant(f.nvars, 1)
    v = min(common, key=lambda i: (max(f.degree_in(i), g.degree_in(i)), i))
    (cf, pf), (cg, pg) = (_prs_content_split(h, v) for h in (f, g))
    return primitive_normalized(prs_poly_gcd(cf, cg) * polynomials._prs_gcd(pf, pg, v))


def _prs_content_split(f, v):
    cont = zero(f.nvars)
    for k in range(f.degree_in(v) + 1):
        c = f.coefficient_in(v, k)
        if c:
            cont = prs_poly_gcd(cont, c)
    return cont, exact_quotient(f, cont, f"content in variable {v}")


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
    lw = lam.literal_weights()
    return Fraction(t) * point_weight(surface, lw, label) - monomial_weight(lw, exp)


def full_move_search(curve, t, budget=500, seed=0, report=None):
    """criterion.destabilizer_search with every frame but the normalizing
    one and the identity moved in full by `move_curve`, the equation's
    whole support read, and no corner test."""
    if report is None:
        report = InflectionReport(curve)
    g0, moved0 = normalize_frame(curve, report.geometry)
    frames = [((g0.mx, g0.my, g0.swap), moved0), (IDENTITY_MATRICES[curve.surface], curve)]
    frames += [(key, None) for key in _adapted_frames(curve, report)]
    rng = random.Random(seed)
    seen = set()
    tried = 0
    while tried < budget:
        key, exact = frames.pop(0) if frames else (_random_frame(curve.surface, rng), None)
        if key in seen:
            continue
        seen.add(key)
        tried += 1
        moved = exact if exact is not None else move_curve(curve, *key)[0]
        sign, lam = torus_verdict(moved, t)
        if sign > 0:
            frame = FrameChange(curve.surface, *key)
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
        undecided=special.undecided,
        ruling_contacts=None,
        sequences={},
        notes=list(special.notes),
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
