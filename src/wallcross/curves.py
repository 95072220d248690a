"""Pointed curves on the plane and on the smooth quadric surface.

Both surfaces are products of projective spaces: the plane is P^2, with
coordinates x0, x1, x2, and the quadric P^1 x P^1, with coordinates
(x0, x1; y0, y1), numbered 0..3. `Surface.blocks` lists the coordinates
of each factor, and what differs between the surfaces only in the number
of factors reads it: a curve is an equation of degree d on every factor
together with a marked point on it, a frame is one matrix per factor,
and an affine chart sets one coordinate per factor to 1. Frame changes
act projectively; on the quadric they may also exchange the two rulings,
since the two factors carry the same degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm, prod

from .polynomials import Polynomial, constant, linear_form, variable
from .rationals import canonical, format_rational, parse_rational, quotient


class Surface(str, Enum):
    """A surface with the coordinates of each projective factor, in order,
    as `blocks`, and their number as `nvars`."""

    P2 = ("p2", ((0, 1, 2),))
    QUADRIC = ("quadric", ((0, 1), (2, 3)))

    def __new__(cls, value, blocks):
        member = str.__new__(cls, value)
        member._value_ = value
        member.blocks = blocks
        member.nvars = sum(map(len, blocks))
        return member


@dataclass(frozen=True)
class PointedCurve:
    surface: Surface
    degree: int
    point: tuple
    equation: Polynomial


@lru_cache(maxsize=32)
def _exponents(surface, degrees):
    """Every exponent vector of degree degrees[k] on the k-th factor, in lex
    order: the product over the factors of the vectors of that degree in
    their variables. Claim replays and vanishing sequences ask for the same
    few again and again."""
    exps = [()]
    for b, m in zip(surface.blocks, degrees):
        # (prefix, degree left) over the factor's variables but its last
        heads = [((), m)]
        for _ in b[1:]:
            heads = [(h + (i,), r - i) for h, r in heads for i in range(r + 1)]
        exps = [e + h + (r,) for e in exps for h, r in heads]
    return tuple(exps)


def _bundle_degrees(surface, m):
    """The degree on each factor of the bundle m, an int on the plane and a
    pair (m1, m2) on the quadric: one non-negative int per factor, not a
    bool, and not all 0, else ValueError."""
    if len(surface.blocks) == 1:
        if not _is_int(m) or m < 1:
            raise ValueError("bundle degree must be a positive integer")
        return (m,)
    ms = tuple(m) if isinstance(m, (tuple, list)) else ()
    if len(ms) != len(surface.blocks) or not all(_is_int(x) and x >= 0 for x in ms):
        raise ValueError("bidegree must be a pair of non-negative integers")
    if not any(ms):
        raise ValueError("bidegree (0, 0) carries no sections to osculate")
    return ms


def all_exponents(surface, d):
    """Every exponent vector of a degree-d (resp. bidegree-(d,d)) monomial."""
    return list(_exponents(surface, (d,) * len(surface.blocks)))


def validate(curve):
    """Return None if the curve is well-formed, else a short violation report."""
    if not isinstance(curve.surface, Surface):
        return "surface must be p2 or quadric"
    d = curve.degree
    if not isinstance(d, int) or d < 3:
        return f"degree must be an integer >= 3, got {d!r}"
    p = curve.point
    n = curve.surface.nvars
    if len(p) != n:
        return f"point has {len(p)} coordinates, expected {n}"
    factors = [slice(b[0], b[-1] + 1) for b in curve.surface.blocks]
    for k, f in enumerate(factors):
        if not any(p[f]):
            if len(factors) == 1:
                return "point is the zero vector"
            return f"point has zero {('first', 'second')[k]} factor"
    eq = curve.equation
    if eq.nvars != n:
        return f"equation has arity {eq.nvars}, expected {n}"
    if eq.is_zero():
        return "equation is zero"
    # the first term, in the order of the equation, of another degree on
    # some factor
    terms = list(eq.terms)
    off = [k for f in factors for k, e in enumerate(terms) if sum(e[f]) != d]
    if off:
        exp = terms[min(off)]
        if len(factors) == 1:
            return f"term {exp} is not homogeneous of degree {d}"
        return f"term {exp} does not have bidegree ({d}, {d})"
    if eq.evaluate(p) != 0:
        return "marked point does not lie on the curve"
    return None


def checked(curve):
    ping = validate(curve)
    if ping is not None:
        raise ValueError(ping)
    return curve


# -- exact little matrices ------------------------------------------------
# Frames are 2x2 and 3x3 matrices, and `adjugate` is their one determinant
# and inverse: a matrix is invertible when det != 0, with inverse adj / det.
# Vanishing orders come from the elimination in `series.pivot_orders`.


def mat_vec(m, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in m)


def _denominator(m):
    """The least positive integer c for which c * m is an integer matrix,
    for a matrix of ints and Fractions."""
    return lcm(*(x.denominator for row in m for x in row))


def _cleared(m):
    """(c, M): c = _denominator(m) and the integer matrix M = c * m."""
    c = _denominator(m)
    return c, tuple(tuple(x.numerator * (c // x.denominator) for x in row) for row in m)


def adjugate(m):
    """(adj, det) of a 2x2 or 3x3 matrix, adj * m = m * adj = det * I, in
    the arithmetic of its entries: an integer matrix stays in ints."""
    if len(m) == 2:
        (a, b), (c, d) = m
        return ((d, -b), (-c, a)), a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = m
    adj = (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )
    return adj, a * adj[0][0] + b * adj[1][0] + c * adj[2][0]


def _exact(m):
    """A matrix with canonical entries (rationals.canonical)."""
    return tuple(tuple(canonical(x) for x in row) for row in m)


def _freeze(m):
    return tuple(tuple(Fraction(x) for x in row) for row in m)


# The matrices (mx, my, swap) of the identity frame of each surface, as
# ints; they compare and hash equal to the Fraction matrices a FrameChange
# built from them holds.
IDENTITY_MATRICES = {
    Surface.P2: (((1, 0, 0), (0, 1, 0), (0, 0, 1)), None, False),
    Surface.QUADRIC: (((1, 0), (0, 1)), ((1, 0), (0, 1)), False),
}


@dataclass(frozen=True)
class FrameChange:
    """A coordinate change of the ambient surface.

    On the plane: one invertible 3x3 matrix. On the quadric: a pair of
    invertible 2x2 matrices plus an optional exchange of the two factors,
    applied after the linear maps.

    The matrices are kept as Fractions; the singularity check computes on
    their canonical entries, in ints where they are integral.
    """

    surface: Surface
    mx: tuple
    my: tuple = None
    swap: bool = False

    def __post_init__(self):
        if self.surface is Surface.P2:
            if self.my is not None or self.swap:
                raise ValueError("plane frames have a single matrix and no swap")
            mats = [_exact(self.mx)]
            if len(mats[0]) != 3 or any(len(r) != 3 for r in mats[0]):
                raise ValueError("plane frame needs a 3x3 matrix")
        else:
            if self.my is None:
                raise ValueError("quadric frames need two matrices")
            mats = [_exact(self.mx), _exact(self.my)]
            for m in mats:
                if len(m) != 2 or any(len(r) != 2 for r in m):
                    raise ValueError("quadric frame needs 2x2 matrices")
        if any(not adjugate(m)[1] for m in mats):
            raise ValueError("frame matrix is singular")
        object.__setattr__(self, "mx", _freeze(mats[0]))
        if self.my is not None:
            object.__setattr__(self, "my", _freeze(mats[1]))


def _integer_frame(surface, mx, my, swap):
    """The integer data of the frame with matrices (mx, my, swap), shared
    by `move_curve` and `corners_vanish`: per factor of the surface, in the
    order of the old coordinates, (c, M, adj(M), det M, slots) with
    c * g = M the integer matrix of that factor and slots the new
    coordinates that its old ones become forms in."""
    # g(x, y) = (mx x, my y), or (my y, mx x) with the swap, so the old x
    # coordinates are forms in the new coordinates of the factor that mx x
    # lands on; on the plane, zip stops at its one factor
    factors = []
    for m, slots in zip((mx, my), surface.blocks[::-1] if swap else surface.blocks):
        c, m = _cleared(m)
        adj, det = adjugate(m)
        if not det:
            raise ValueError("frame matrix is singular")
        factors.append((c, m, adj, det, slots))
    return factors


def move_curve(curve, mx, my=None, swap=False):
    """Move a pointed curve by the frame g given by its matrices (as in
    FrameChange), up to nonzero constants, through the integer adjugate.

    With c * g = M an integer matrix, g^-1 = c * adj(M) / det(M), so
    substituting the integer linear forms of adj(M) into the equation gives
    C o g^-1 divided by the constant (c / det M)^d; on the quadric each
    factor has its own such constant. An integer equation stays in ints.

    Returns (moved, scale): moved carries the equation C o adj(M) and the
    point M p, for p with its denominators cleared, which is a multiple of
    g(p) (per factor on the quadric), so the support of the curve and the
    zero pattern of the point are those of the exact move; and
    scale * moved.equation == C o g^-1, with scale an int when it is
    integral.
    """
    factors = _integer_frame(curve.surface, mx, my, swap)
    n, d = curve.surface.nvars, curve.degree
    _, (p,) = _cleared((curve.point,))
    parts = [[p[i] for i in b] for b in curve.surface.blocks]
    images = [mat_vec(m, q) for (_, m, _, _, _), q in zip(factors, parts)]
    if swap:
        images.reverse()
    subs = [linear_form(n, slots, row) for _, _, adj, _, slots in factors for row in adj]
    scale = canonical(prod(quotient(c, det) ** d for c, _, _, det, _ in factors))
    moved = PointedCurve(curve.surface, d, sum(images, ()), curve.equation.substitute(subs))
    return moved, scale


def corners_vanish(curve, mx, my=None, swap=False):
    """Whether a corner coefficient of `move_curve`'s moved equation is 0.

    A corner is a monomial of degree d in one coordinate per factor: y_j^d
    on the plane, the product of the d-th powers of one coordinate of each
    factor on the quadric. Setting that coordinate of each factor to 1 and
    the others to 0 in C o adj(M) leaves its coefficient, so it is C at
    the matching columns of the adjugates: column j of adj(M) on the
    plane, column a of adj(M_x) and column b of adj(M_y) on the quadric.
    """
    factors = _integer_frame(curve.surface, mx, my, swap)
    columns = [tuple(zip(*adj)) for _, _, adj, _, _ in factors]
    evaluate = curve.equation.evaluate
    return any(not evaluate(sum(corner, ())) for corner in product(*columns))


def apply_frame(curve, frame):
    """Move a pointed curve to new coordinates: p' = g(p), C' = C o g^{-1},
    computed as the integer move of `move_curve` times its scalar. The
    moved point M p of `move_curve` is c * D * g(p), with D the denominator
    of the point and c that of the matrix of each factor."""
    if frame.surface is not curve.surface:
        raise ValueError("surface mismatch")
    moved, scale = move_curve(curve, frame.mx, frame.my, frame.swap)
    den = _denominator((curve.point,))
    mats = (frame.mx, frame.my)
    divisors = [(den * _denominator(m),) * len(b) for m, b in zip(mats, curve.surface.blocks)]
    if frame.swap:
        divisors.reverse()
    new_p = tuple(map(Fraction, moved.point, sum(divisors, ())))
    return PointedCurve(curve.surface, curve.degree, new_p, moved.equation * scale)


# -- local geometry at the marked point ------------------------------------


@dataclass(frozen=True)
class Restriction:
    """The curve on a line through its marked point p, inside the factor
    the line moves in: in that factor's coordinates the line's points are
    t * base + s * direction, with p at s = 0, and the equation there is
    sum(coeffs[j] * s^j * t^(d - j)) for j = 0..d."""

    base: tuple
    direction: tuple
    coeffs: tuple

    @property
    def contact(self):
        """The intersection number of the line with the curve at p, the
        order of the root s = 0; None when the line is a component."""
        return next((j for j, c in enumerate(self.coeffs) if c), None)


@dataclass(frozen=True)
class LocalGeometry:
    """The multiplicity at p and, on the lines through p that the verdicts
    read, the curve's `restrictions` and the contacts read off them: the
    tangent at a smooth plane point, and on the quadric the ruling with
    constant x, then the one with constant y."""

    smooth_at_p: bool
    multiplicity: int
    tangent: tuple = None
    tangent_contact: int = None
    ruling_contacts: tuple = None
    restrictions: tuple = ()


def affine_chart(surface, form, point):
    """Dehomogenize a form in an affine chart centred at a point.

    Returns (f, free, shifts): f is the 2-variable polynomial in the chart
    coordinates (u, v), which vanish at the point; free lists the two
    homogeneous coordinates they replace, and shifts maps each of those to
    its value at the point, an int when it is integral. The other
    coordinates are fixed to 1: the first nonzero coordinate of the point on
    each factor.
    """
    charts = []
    for b in surface.blocks:
        fixed = next(i for i in b if point[i] != 0)
        charts.append((fixed, [i for i in b if i != fixed]))
    free = [i for _, fs in charts for i in fs]
    point = [canonical(x) for x in point]
    shifts = {i: quotient(point[i], point[fixed]) for fixed, fs in charts for i in fs}
    if not any(shifts.values()):
        # a coordinate point: dropping the fixed exponents is injective on
        # a form homogeneous in each block, so no substitution is needed
        chart = Polynomial(2, ((tuple(e[i] for i in free), c) for e, c in form.terms.items()))
        return chart, free, shifts
    subs = [None] * surface.nvars
    for fixed, fs in charts:
        subs[fixed] = constant(2, 1)
        for i in fs:
            subs[i] = constant(2, shifts[i]) + variable(2, free.index(i))
    return form.substitute(subs), free, shifts


def local_geometry(curve):
    """Multiplicity of the curve at its marked point, read off the affine
    chart there, and the curve's restrictions to the lines through p that
    the verdicts read, with their contacts.

    In the chart f(u, v) the point is base + u e_u + v e_v, where base is p
    with the coordinate each factor sets to 1 at 1. On the plane, at a
    smooth point: the tangent T (the gradient at p), through p in the
    chart direction (b, -a), with a, b the linear coefficients of f; so C
    on T is f(s b, -s a) = sum_m s^m f_m(b, -a), and the contact is the
    least m with f_m(b, -a) != 0. On the quadric: the ruling with constant
    x is {u = 0}, where C is f(0, s), and the one with constant y is
    {v = 0}, where C is f(s, 0)."""
    p = curve.point
    d = curve.degree
    f, free, shifts = affine_chart(curve.surface, curve.equation, p)
    mult = min(sum(e) for e in f.terms)
    base = [shifts.get(i, 1) for i in range(curve.surface.nvars)]
    if curve.surface is Surface.P2:
        if mult != 1:
            return LocalGeometry(False, mult)
        tangent = tuple(
            curve.equation.partial_derivative(i).evaluate(p) for i in range(3)
        )
        a, b = f.terms.get((1, 0), 0), f.terms.get((0, 1), 0)
        along = [0] * (d + 1)
        for (i, j), c in f.terms.items():
            along[i + j] += c * b**i * (-a) ** j
        direction = [0] * 3
        direction[free[0]], direction[free[1]] = b, -a
        line = Restriction(tuple(base), tuple(direction), tuple(along))
        return LocalGeometry(
            True, 1, tangent=tangent, tangent_contact=line.contact, restrictions=(line,)
        )
    lines = []
    for k in (0, 1):
        block = curve.surface.blocks[1 - k]
        coeffs = [0] * (d + 1)
        for e, c in f.terms.items():
            if e[k] == 0:
                coeffs[e[1 - k]] = c
        direction = tuple(int(i == free[1 - k]) for i in block)
        lines.append(Restriction(tuple(base[i] for i in block), direction, tuple(coeffs)))
    contacts = tuple(line.contact for line in lines)
    return LocalGeometry(mult == 1, mult, ruling_contacts=contacts, restrictions=tuple(lines))


def contact_ge(contact, k):
    """Compare a ruling contact order with a bound; None means the ruling
    lies on the curve, which counts as unbounded contact."""
    return contact is None or contact >= k


# -- canonical frames -------------------------------------------------------


def normalize_frame(curve, geometry=None):
    """Frame change putting the marked point, and at a smooth point its
    tangent, into standard position, read off `local_geometry` and applied
    in one move. A caller that holds the curve's local geometry already
    passes it as `geometry`, so it is not computed again.

    Plane: p goes to (0, 0, 1). With l0 the first nonzero coordinate of p,
    o0 < o1 the other two, and r0, r1, r2 the rows of the translation
    x_oi - (p_oi / p_l0) x_l0, x_l0 / p_l0, the frame is (r0, r1, r2),
    unless p is smooth with tangent T (the gradient at p) and T_o1 != 0:
    then it is (T, r_mid, r2) with r_mid = r1 if T_o0 != 0 else r0, so the
    tangent line becomes {x0 = 0}. Quadric: p goes to ((0, 1), (0, 1)),
    factor by factor; if exactly one ruling through p is tangent to the
    curve, read from the ruling contacts at p before the move (a frame
    without swap keeps them), the factors are swapped so that ruling
    becomes {y0 = 0}.

    Returns (frame, moved curve). When the frame is the identity, as for a
    curve already in standard position, the moved curve is the curve
    itself.
    """
    geo = local_geometry(curve) if geometry is None else geometry
    p = [canonical(x) for x in curve.point]
    if curve.surface is Surface.P2:
        l0 = next(i for i in range(3) if p[i] != 0)
        o0, o1 = [i for i in range(3) if i != l0]
        rows = []
        for a in (o0, o1):
            row = [0] * 3
            row[a] = 1
            row[l0] = quotient(-p[a], p[l0])
            rows.append(tuple(row))
        last = [0] * 3
        last[l0] = quotient(1, p[l0])
        rows.append(tuple(last))
        # T . p = 0 (Euler's relation), so T = T_o0 r0 + T_o1 r1: the
        # translation alone moves the tangent to (T_o0, T_o1, 0), which is
        # {x0 = 0} already when T_o1 == 0
        tangent = geo.tangent
        if tangent is not None and tangent[o1] != 0:
            rows = [tangent, rows[1] if tangent[o0] != 0 else rows[0], rows[2]]
        g = FrameChange(Surface.P2, tuple(rows))
    else:
        # at a singular point both contacts are at least 2, so no swap
        cx, cy = geo.ruling_contacts
        g = FrameChange(
            Surface.QUADRIC,
            _factor_frame(p[0], p[1]),
            _factor_frame(p[2], p[3]),
            swap=contact_ge(cx, 2) and not contact_ge(cy, 2),
        )
    if (g.mx, g.my, g.swap) == IDENTITY_MATRICES[curve.surface]:
        return g, curve
    return g, apply_frame(curve, g)


def _factor_frame(c0, c1):
    """2x2 matrix sending (c0, c1) to (0, 1), for canonical c0 and c1."""
    if c1 != 0:
        return ((1, quotient(-c0, c1)), (0, quotient(1, c1)))
    return ((0, 1), (quotient(1, c0), 0))


# -- fixed example curves ---------------------------------------------------


class WitnessKind(str, Enum):
    P2_S = "p2-s"
    P2_CUSPIDAL_X0 = "p2-cuspidal-x0"
    P2_HYPERFLEX = "p2-hyperflex"
    P2_FLEX = "p2-flex"
    P2_NONFLEX = "p2-nonflex"
    QUADRIC_S = "quadric-s"
    QUADRIC_X0 = "quadric-x0"
    QUADRIC_RULING_TANGENT = "quadric-ruling-tangent"


def make_witness(kind, d):
    """A fixed representative pointed curve of each special shape.

    These are small exact curves used over and over in tests and on the
    command line: the multiple-line-plus-tangent-conic shape, the cuspidal
    shapes with their repeated tangent lines, flex and non-flex smooth
    points, and their quadric analogues.
    """
    kind = WitnessKind(kind)
    if not isinstance(d, int) or d < 3:
        raise ValueError("degree must be an integer >= 3")
    F = Fraction
    if kind is WitnessKind.P2_S:
        eq = Polynomial(3, {(1, 0, d - 1): 1, (0, 2, d - 2): -1})
        point = (F(1), F(1), F(1))
        curve = PointedCurve(Surface.P2, d, point, eq)
    elif kind is WitnessKind.P2_CUSPIDAL_X0:
        eq = Polynomial(3, {(d - 3, 3, 0): 1, (d - 1, 0, 1): 1})
        curve = PointedCurve(Surface.P2, d, (F(1), F(0), F(0)), eq)
    elif kind is WitnessKind.P2_HYPERFLEX:
        if d < 4:
            raise ValueError("a hyperflex needs degree >= 4")
        eq = Polynomial(3, {(1, 0, d - 1): 1, (0, 4, d - 4): 1})
        curve = PointedCurve(Surface.P2, d, (F(0), F(0), F(1)), eq)
    elif kind is WitnessKind.P2_FLEX:
        eq = Polynomial(3, {(0, 3, d - 3): 1, (1, 0, d - 1): 1})
        curve = PointedCurve(Surface.P2, d, (F(0), F(0), F(1)), eq)
    elif kind is WitnessKind.P2_NONFLEX:
        eq = Polynomial(
            3,
            {(0, 1, d - 1): 1, (2, 0, d - 2): 1, (d, 0, 0): 1, (0, d, 0): 1},
        )
        curve = PointedCurve(Surface.P2, d, (F(0), F(0), F(1)), eq)
    elif kind is WitnessKind.QUADRIC_S:
        eq = Polynomial(
            4,
            {
                (1, d - 1, 0, d): 1,
                (0, d, 1, d - 1): -1,
            },
        )
        curve = PointedCurve(
            Surface.QUADRIC, d, (F(0), F(1), F(0), F(1)), eq
        )
    elif kind is WitnessKind.QUADRIC_X0:
        eq = Polynomial(
            4,
            {
                (2, d - 2, 0, d): 1,
                (0, d, 1, d - 1): 1,
            },
        )
        curve = PointedCurve(
            Surface.QUADRIC, d, (F(0), F(1), F(0), F(1)), eq
        )
    else:  # QUADRIC_RULING_TANGENT
        eq = Polynomial(
            4,
            {
                (1, d - 1, 0, d): 1,
                (0, d, 2, d - 2): 1,
            },
        )
        curve = PointedCurve(
            Surface.QUADRIC, d, (F(0), F(1), F(0), F(1)), eq
        )
    return checked(curve)


# -- JSON interchange -------------------------------------------------------


def curve_to_json(curve):
    terms = [
        {"exp": list(exp), "coeff": format_rational(c)}
        for exp, c in sorted(curve.equation.terms.items())
    ]
    return {
        "surface": curve.surface.value,
        "degree": curve.degree,
        "point": [format_rational(c) for c in curve.point],
        "terms": terms,
    }


def _is_int(x):
    # JSON true and false load as bools, which are ints to isinstance
    return isinstance(x, int) and not isinstance(x, bool)


def curve_from_json(data):
    if not isinstance(data, dict):
        raise ValueError("curve document must be a JSON object")
    extra = set(data) - {"surface", "degree", "point", "terms"}
    if extra:
        raise ValueError(f"unknown keys in curve document: {sorted(extra)}")
    try:
        surface = Surface(data["surface"])
    except (KeyError, ValueError):
        raise ValueError("surface must be 'p2' or 'quadric'") from None
    d = data.get("degree")
    if not _is_int(d):
        raise ValueError("degree must be an integer")
    pt = data.get("point")
    if not isinstance(pt, list):
        raise ValueError("point must be a list of canonical rationals")
    point = tuple(parse_rational(c) for c in pt)
    terms = data.get("terms")
    if not isinstance(terms, list) or not terms:
        raise ValueError("terms must be a non-empty list")
    acc = {}
    n = surface.nvars
    for t in terms:
        if not isinstance(t, dict) or set(t) != {"exp", "coeff"}:
            raise ValueError("each term needs exactly 'exp' and 'coeff'")
        exp = t["exp"]
        if (
            not isinstance(exp, list)
            or len(exp) != n
            or any(not _is_int(e) or e < 0 for e in exp)
        ):
            raise ValueError(f"bad exponent {exp!r}")
        key = tuple(exp)
        if key in acc:
            raise ValueError(f"duplicate exponent {key}")
        c = parse_rational(t["coeff"])
        if c == 0:
            raise ValueError(f"zero coefficient at {key}")
        acc[key] = c
    curve = PointedCurve(surface, d, point, Polynomial(n, acc))
    return checked(curve)


def frame_to_json(frame):
    def rows(m):
        return [[format_rational(x) for x in row] for row in m]

    if frame.surface is Surface.P2:
        return {"matrix": rows(frame.mx)}
    return {
        "x_matrix": rows(frame.mx),
        "y_matrix": rows(frame.my),
        "swap": frame.swap,
    }
