"""Pointed curves on the plane and on the smooth quadric surface.

Both surfaces are products of projective spaces: the plane is P^2, with
coordinates x0, x1, x2, and the quadric P^1 x P^1, with coordinates
(x0, x1; y0, y1), numbered 0..3. `Surface.blocks` lists the coordinates
of each factor, and what differs between the surfaces only in the number
of factors reads it: a curve is an equation of degree d on every factor
together with a marked point on it, a frame is one matrix per factor,
and an affine chart sets one coordinate per factor to 1. Frame changes
act projectively; on the quadric they may also exchange the two rulings,
since the two factors carry the same degree. A chart off a coordinate
point is a translation frame's move, and `restrict` is a series product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, product, repeat
from math import prod
from operator import mul

from .polynomials import Polynomial
from .rationals import canonical, cleared, format_rational, parse_rational, quotient
from .series import series_substitute


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
def _exponents(surface, d):
    """Every exponent vector of degree d on each factor, in lex order: the
    product over the factors of the vectors of degree d in their
    variables. Claim replays ask for the same few again and again."""
    exps = [()]
    for b in surface.blocks:
        # (prefix, degree left) over the factor's variables but its last
        heads = [((), d)]
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
    return list(_exponents(surface, d))


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


@dataclass(frozen=True)
class FrameChange:
    """A coordinate change of the ambient surface, the one form of a frame.

    On the plane: one invertible 3x3 matrix. On the quadric: a pair of
    invertible 2x2 matrices plus an optional exchange of the two factors,
    applied after the linear maps.

    The matrices keep canonical entries (`rationals.canonical`), ints where
    they are integral, so frames built from ints, Fractions or lists compare
    and hash alike. The validation also builds `_integer`, which the moves
    compute on and ==, the hash and repr ignore: per factor of the surface,
    in the order of the old coordinates, (c, M, adj(M), det M, slots), with
    c * g = M the integer matrix of that factor and slots the new
    coordinates that its old ones become forms in; det M is the
    singularity test.
    """

    surface: Surface
    mx: tuple
    my: tuple = None
    swap: bool = False
    _integer: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.surface, Surface):
            raise ValueError("a frame's surface must be p2 or quadric")
        if type(self.swap) is not bool:
            raise ValueError("a frame's swap must be True or False")
        blocks = self.surface.blocks
        n = len(blocks)
        given = (self.mx, self.my)
        if None in given[:n] or given[n:] != (None,) * (2 - n):
            raise ValueError(f"a {self.surface.value} frame needs one matrix per factor, {n}")
        if self.swap and n == 1:
            raise ValueError("only a frame with two factors can exchange them")
        # g(x, y) = (mx x, my y), or (my y, mx x) with the swap, so the old x
        # coordinates are forms in the new coordinates of the factor that mx x
        # lands on; on the plane, zip stops at its one factor
        integer = []
        for name, m, slots in zip(("mx", "my"), given, blocks[::-1] if self.swap else blocks):
            k = len(slots)
            if len(m) != k or any(len(r) != k for r in m):
                raise ValueError(f"a {self.surface.value} frame needs {k}x{k} matrices")
            m = tuple([tuple([canonical(x) for x in row]) for row in m])
            c, ints = cleared([x for row in m for x in row])
            # canonical entries over the denominator 1 are the ints already
            ints = m if c == 1 else tuple(ints[i:i + k] for i in range(0, k * k, k))
            adj, det = adjugate(ints)
            if not det:
                raise ValueError("frame matrix is singular")
            object.__setattr__(self, name, m)
            integer.append((c, ints, adj, det, slots))
        object.__setattr__(self, "_integer", tuple(integer))


# The identity frame of each surface, one shared constant: `_Move` and the
# frame search tell the identity apart by `is`, and `normalizing_frame`
# returns it for a curve in standard position.
IDENTITY_FRAMES = {
    s: FrameChange(s, *[[[int(i == j) for j in b] for i in b] for b in s.blocks]) for s in Surface
}


def _translation(v, l):
    """(others, last) for a vector v with v[l] != 0: the rows
    e_a - (v_a / v_l) e_l for each a != l, in order, which lie on the line
    v . x = 0, and the row e_l / v_l, with canonical entries. The frame
    (*others, last) sends v to the last coordinate point. The normalizing
    frames, the plane's adapted frame, the chart's translation and the
    points spanning a line are built from these rows."""
    n = len(v)
    others = []
    for a in range(n):
        if a != l:
            row = [0] * n
            row[a] = 1
            row[l] = quotient(-v[a], v[l])
            others.append(tuple(row))
    last = [0] * n
    last[l] = quotient(1, v[l])
    return others, tuple(last)


@lru_cache(maxsize=32)
def _chart_digits(surface, d):
    """(u, v, pairs): u, v the coordinates but the last of each factor, and
    (e[u] + (d + 1) * e[v], e) for every exponent e of `all_exponents`."""
    u, v = [i for b in surface.blocks for i in b[:-1]]
    return u, v, tuple((e[u] + (d + 1) * e[v], e) for e in all_exponents(surface, d))


def move_curve(curve, frame):
    """Move a pointed curve by the FrameChange g, up to nonzero constants,
    through the integer adjugate the frame keeps per factor: with c * g = M
    an integer matrix, g^-1 = c * adj(M) / det(M), so the integer linear
    forms of adj(M) substituted into C, its denominators cleared, give
    C o g^-1 up to a constant per factor.

    The substitution is one evaluation at big integers (Kronecker
    substitution; Harvey 2009, "Faster polynomial multiplication via
    multipoint Kronecker substitution", J. Symb. Comput.). The move is
    homogeneous of degree d on each factor, so it loses nothing when each
    factor's last coordinate is 1, and the coordinates u, v left pack an
    exponent into the digit e_u + (d + 1) * e_v (`_chart_digits`): at
    u = X, v = X^(d + 1), X = 2^B, the value has the moved coefficients
    as its base-X digits. None exceeds (sum of the |c|) times, per factor,
    (the largest row 1-norm of adj(M))^d; B is that bound's bit length
    plus 2, in whole bytes, so each digit lies in (-X/2, X/2), and with
    X/2 added to each, one `to_bytes` reads them off.

    Returns (moved, scale): moved carries the integer equation and the
    point M p, for p with its denominators cleared, a multiple of g(p)
    (per factor on the quadric), so its support and the zero pattern of
    its point are those of the exact move; scale * moved.equation is
    C o g^-1, scale an int when it is integral (`exact_move`).
    """
    factors = frame._integer
    d = curve.degree
    p = cleared(curve.point)[1]
    parts = [[p[i] for i in b] for b in curve.surface.blocks]
    images = [mat_vec(m, q) for (_, m, _, _, _), q in zip(factors, parts)]
    if frame.swap:
        images.reverse()
    exponents = curve.equation.terms
    cden, coeffs = cleared(list(exponents.values()))
    scale = quotient(prod(quotient(c, det) ** d for c, _, _, det, _ in factors), cden)
    norms = [max(sum(map(abs, row)) for row in adj) ** d for _, _, adj, _, _ in factors]
    width = (prod(norms, start=sum(map(abs, coeffs))).bit_length() + 9) // 8
    x = 1 << 8 * width
    u, v, digits = _chart_digits(curve.surface, d)
    at = [1] * curve.surface.nvars
    at[u], at[v] = x, x ** (d + 1)
    # each old coordinate at those ints, and its powers up to the highest
    values = [sum(a * at[s] for a, s in zip(row, slots)) for _, _, adj, _, slots in factors for row in adj]
    powers = [list(accumulate(repeat(y, max(e)), mul, initial=1))
              for y, e in zip(values, zip(*exponents))]
    total = sum(prod((pw[k] for pw, k in zip(powers, e)), start=c) for c, e in zip(coeffs, exponents))
    # plus (X/2) (X^K - 1) / (X - 1), X/2 at each of the K = (d + 1)^2 digits
    count = (d + 1) ** 2
    total += int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    buf, half = total.to_bytes(width * count, "little"), x >> 1
    terms = {e: c for i, e in digits if (c := int.from_bytes(buf[i * width:(i + 1) * width], "little") - half)}
    equation = Polynomial._raw(curve.surface.nvars, terms)
    return PointedCurve(curve.surface, d, sum(images, ()), equation), scale


def corners_vanish(curve, frame):
    """Whether a corner coefficient of `move_curve`'s moved equation is 0.

    A corner is a monomial of degree d in one coordinate per factor: y_j^d
    on the plane, the product of the d-th powers of one coordinate of each
    factor on the quadric. Setting that coordinate of each factor to 1 and
    the others to 0 in C o adj(M) leaves its coefficient, so it is C at
    the matching columns of the adjugates: column j of adj(M) on the
    plane, column a of adj(M_x) and column b of adj(M_y) on the quadric.
    """
    columns = [tuple(zip(*adj)) for _, _, adj, _, _ in frame._integer]
    evaluate = curve.equation.evaluate
    return any(not evaluate(sum(corner, ())) for corner in product(*columns))


def exact_move(curve, moved, scale, frame):
    """p' = g(p) and C' = C o g^-1 from `move_curve`'s (moved, scale) for
    the frame g: C' is scale times the moved equation, and the moved point
    M p is c * D * g(p), with D the denominator of the point and c that of
    the matrix of each factor."""
    den = cleared(curve.point)[0]
    divisors = [(den * c,) * len(slots) for c, _, _, _, slots in frame._integer]
    if frame.swap:
        divisors.reverse()
    new_p = tuple(map(Fraction, moved.point, sum(divisors, ())))
    return PointedCurve(curve.surface, curve.degree, new_p, moved.equation * scale)


class _Move:
    """The curve moved by a frame, the one path from a frame to a moved
    curve. Built, it holds the frame and `move_curve`'s (moved, scale),
    which the torus check reads: the curve itself and 1 at the shared
    identity frame IDENTITY_FRAMES[surface], told apart by `is`, the one
    identity test. Its exact move (`exact`, by `exact_move`, the curve
    itself at the identity), which a certificate names, is built on its
    first read and kept once built."""

    def __init__(self, curve, frame):
        self.curve, self.frame = curve, frame
        if frame is IDENTITY_FRAMES[curve.surface]:
            self.moved, self.scale = curve, 1
        else:
            self.moved, self.scale = move_curve(curve, frame)

    @cached_property
    def exact(self):
        if self.moved is self.curve:
            return self.curve
        return exact_move(self.curve, self.moved, self.scale, self.frame)


def apply_frame(curve, frame):
    """Move a pointed curve to new coordinates: p' = g(p), C' = C o g^{-1},
    by `_Move`; at the shared identity frame the moved curve is the curve
    itself."""
    if frame.surface is not curve.surface:
        raise ValueError("surface mismatch")
    return _Move(curve, frame).exact


# -- local geometry at the marked point ------------------------------------


@dataclass(frozen=True)
class Restriction:
    """A form on a line: in the surface's coordinates the line's points are
    t * base + s * direction, and the form there is sum(coeffs[j] * s^j *
    t^(m - j)) for j = 0..m, times a power of t on the quadric, where the
    line moves in one factor and holds the other at base (direction is 0
    there). On the curve's own lines through p (`local_geometry`), p is at
    s = 0 and m = d."""

    base: tuple
    direction: tuple
    coeffs: tuple

    @property
    def contact(self):
        """The intersection number of the line with the curve at p, the
        order of the root s = 0; None when the line is a component."""
        return next((j for j, c in enumerate(self.coeffs) if c), None)


def restrict(form, base, direction, degree):
    """The `Restriction` of a form to the line t * base + s * direction,
    with the coefficients of s^0..s^degree, degree being that of the form
    in the factor the line moves in: at t = 1 they are the series of the
    form at base + s * direction, which stops at s^degree."""
    line = [(b, e) + (0,) * (degree - 1) for b, e in zip(base, direction)]
    coeffs = tuple(map(canonical, series_substitute(form, line)))
    return Restriction(tuple(base), tuple(direction), coeffs)


@dataclass(frozen=True)
class LocalGeometry:
    """The multiplicity at p and, on the lines through p that the verdicts
    read, the curve's `restrictions` and the contacts read off them: the
    tangent at a smooth plane point, and on the quadric the ruling with
    constant x, then the one with constant y, read off `chart`, the
    `affine_chart` at p, which the branch solve reads too and == ignores."""

    smooth_at_p: bool
    multiplicity: int
    chart: tuple = field(default=None, compare=False, repr=False)
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
    each factor. Off a coordinate point the form is moved first, by the
    frame with row e_i - shifts[i] * e_fixed for each free i and e_fixed
    for the fixed one; then f drops the fixed exponents of its terms.
    """
    charts = []
    for b in surface.blocks:
        fixed = next(i for i in b if point[i] != 0)
        charts.append((fixed, [i for i in b if i != fixed]))
    free = [i for _, fs in charts for i in fs]
    point = [canonical(x) for x in point]
    shifts = {i: quotient(point[i], point[fixed]) for fixed, fs in charts for i in fs}
    if any(shifts.values()):
        frame = []
        for b, (fixed, _) in zip(surface.blocks, charts):
            # the point with its fixed coordinate 1; e_fixed keeps its row,
            # as the chart reads the old numbering
            k = b.index(fixed)
            rows, unit = _translation([shifts.get(i, 1) for i in b], k)
            rows.insert(k, unit)
            frame.append(rows)
        # the degree on each factor: d on the plane, (d, d) on the quadric
        degree = sum(next(iter(form.terms))) // len(surface.blocks)
        curve = PointedCurve(surface, degree, tuple(point), form)
        form = _Move(curve, FrameChange(surface, *frame)).exact.equation
    chart = Polynomial._raw(2, {tuple(e[i] for i in free): c for e, c in form.terms.items()})
    return chart, free, shifts


def _chart_line(f, d, base, free, u, v):
    """The curve's `Restriction` to the line through p along the chart
    direction (u, v): on it C is f(s u, s v) = sum_m s^m f_m(u, v), with
    f_m the part of degree m of the chart f."""
    coeffs = [0] * (d + 1)
    for (i, j), c in f.terms.items():
        # on a ruling u or v is 0, and every term of degree past d vanishes
        if i + j <= d:
            coeffs[i + j] += c * u**i * v**j
    direction = [0] * len(base)
    direction[free[0]], direction[free[1]] = u, v
    return Restriction(tuple(base), tuple(direction), tuple(coeffs))


def local_geometry(curve):
    """Multiplicity of the curve at its marked point, read off the affine
    chart there, and the curve's restrictions to the lines through p that
    the verdicts read, with their contacts.

    In the chart f(u, v) the point is base + u e_u + v e_v, where base is p
    with the coordinate each factor sets to 1 at 1, and the line through p
    along (u, v) has direction u e_u + v e_v (`_chart_line`). On the plane,
    at a smooth point: the tangent T, along (b, -a), with a, b the linear
    coefficients of f, whose contact is the least m with f_m(b, -a) != 0;
    T is the gradient at p, p_l^(d - 1) times a and b at the free
    coordinates, and at the fixed one l what Euler's relation T . p = 0
    leaves. On the quadric: the rulings along (0, 1) and (1, 0)."""
    p = curve.point
    d = curve.degree
    chart = f, free, shifts = affine_chart(curve.surface, curve.equation, p)
    mult = min(sum(e) for e in f.terms)
    base = [shifts.get(i, 1) for i in range(curve.surface.nvars)]
    if curve.surface is Surface.P2:
        if mult != 1:
            return LocalGeometry(False, mult, chart)
        a, b = f.terms.get((1, 0), 0), f.terms.get((0, 1), 0)
        (i, j), l = free, next(k for k in range(3) if k not in shifts)
        grad = {i: a, j: b, l: -shifts[i] * a - shifts[j] * b}
        tangent = tuple(Fraction(canonical(p[l]) ** (d - 1) * grad[k]) for k in range(3))
        line = _chart_line(f, d, base, free, b, -a)
        return LocalGeometry(
            True, 1, chart, tangent=tangent, tangent_contact=line.contact, restrictions=(line,)
        )
    lines = tuple(_chart_line(f, d, base, free, u, v) for u, v in ((0, 1), (1, 0)))
    contacts = tuple(line.contact for line in lines)
    return LocalGeometry(mult == 1, mult, chart, ruling_contacts=contacts, restrictions=lines)


def contact_ge(contact, k):
    """Compare a ruling contact order with a bound; None means the ruling
    lies on the curve, which counts as unbounded contact."""
    return contact is None or contact >= k


# -- canonical frames -------------------------------------------------------


def normalizing_frame(curve, geometry=None):
    """The frame change putting the marked point, and at a smooth point its
    tangent, into standard position, read off `local_geometry`: the shared
    IDENTITY_FRAMES[surface], with no frame built, when its rows are the
    identity's. A caller that holds the curve's local geometry already
    passes it as `geometry`, so it is not computed again.

    Plane: p goes to (0, 0, 1). With l0 the first nonzero coordinate of p,
    o0 < o1 the other two, and r0, r1, r2 the rows of its `_translation`,
    x_oi - (p_oi / p_l0) x_l0, x_l0 / p_l0, the frame is (r0, r1, r2),
    unless p is smooth with tangent T (the gradient at p) and T_o1 != 0:
    then it is (T, r_mid, r2) with r_mid = r1 if T_o0 != 0 else r0, so the
    tangent line becomes {x0 = 0}. Quadric: p goes to ((0, 1), (0, 1)),
    factor by factor, by the `_translation` at the factor's last nonzero
    coordinate; if exactly one ruling through p is tangent to the
    curve, read from the ruling contacts at p before the move (a frame
    without swap keeps them), the factors are swapped so that ruling
    becomes {y0 = 0}.
    """
    geo = local_geometry(curve) if geometry is None else geometry
    p = [canonical(x) for x in curve.point]
    if curve.surface is Surface.P2:
        l0 = next(i for i in range(3) if p[i] != 0)
        o0, o1 = [i for i in range(3) if i != l0]
        others, last = _translation(p, l0)
        # T . p = 0 (Euler's relation), so T = T_o0 r0 + T_o1 r1: the
        # translation alone moves the tangent to (T_o0, T_o1, 0), which is
        # {x0 = 0} already when T_o1 == 0
        tangent = geo.tangent
        if tangent is not None and tangent[o1] != 0:
            others = [tangent, others[1] if tangent[o0] != 0 else others[0]]
        mats, swap = [(*others, last)], False
    else:
        # at a singular point both contacts are at least 2, so no swap
        cx, cy = geo.ruling_contacts
        swap = contact_ge(cx, 2) and not contact_ge(cy, 2)
        mats = []
        for c in (p[:2], p[2:]):
            others, last = _translation(c, 1 if c[1] != 0 else 0)
            mats.append((*others, last))
    identity = IDENTITY_FRAMES[curve.surface]
    if not swap and mats == [identity.mx, identity.my][:len(mats)]:
        return identity
    return FrameChange(curve.surface, *mats, swap=swap)


def normalize_frame(curve, geometry=None):
    """(frame, moved curve) for `normalizing_frame`. For a curve already in
    standard position nothing is built: the frame is the shared constant
    IDENTITY_FRAMES[surface], the moved curve the curve."""
    move = _Move(curve, normalizing_frame(curve, geometry))
    return move.frame, move.exact


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


# kind -> (surface, point, terms as a function of d)
_WITNESSES = {
    WitnessKind.P2_S: (Surface.P2, (1, 1, 1), lambda d: {(1, 0, d - 1): 1, (0, 2, d - 2): -1}),
    WitnessKind.P2_CUSPIDAL_X0: (Surface.P2, (1, 0, 0), lambda d: {(d - 3, 3, 0): 1, (d - 1, 0, 1): 1}),
    WitnessKind.P2_HYPERFLEX: (Surface.P2, (0, 0, 1), lambda d: {(1, 0, d - 1): 1, (0, 4, d - 4): 1}),
    WitnessKind.P2_FLEX: (Surface.P2, (0, 0, 1), lambda d: {(0, 3, d - 3): 1, (1, 0, d - 1): 1}),
    WitnessKind.P2_NONFLEX: (
        Surface.P2, (0, 0, 1),
        lambda d: {(0, 1, d - 1): 1, (2, 0, d - 2): 1, (d, 0, 0): 1, (0, d, 0): 1},
    ),
    WitnessKind.QUADRIC_S: (Surface.QUADRIC, (0, 1, 0, 1), lambda d: {(1, d - 1, 0, d): 1, (0, d, 1, d - 1): -1}),
    WitnessKind.QUADRIC_X0: (Surface.QUADRIC, (0, 1, 0, 1), lambda d: {(2, d - 2, 0, d): 1, (0, d, 1, d - 1): 1}),
    WitnessKind.QUADRIC_RULING_TANGENT: (
        Surface.QUADRIC, (0, 1, 0, 1), lambda d: {(1, d - 1, 0, d): 1, (0, d, 2, d - 2): 1},
    ),
}


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
    if kind is WitnessKind.P2_HYPERFLEX and d < 4:
        raise ValueError("a hyperflex needs degree >= 4")
    surface, point, terms = _WITNESSES[kind]
    eq = Polynomial(surface.nvars, terms(d))
    return checked(PointedCurve(surface, d, tuple(map(Fraction, point)), eq))


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
        acc[key] = canonical(c)
    curve = PointedCurve(surface, d, point, Polynomial._raw(n, acc))  # checked terms
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
