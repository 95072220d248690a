"""Numerical stability of pointed curves for a one-parameter family of
linearizations indexed by a slope t.

Convention: mu(curve, lam, t) is minimized over the coordinates supporting
the marked point and maximized over the monomials supporting the equation,
and the pointed curve is stable when mu < 0 for every nontrivial lam. The
torus check maximizes mu, piecewise linear in the two weights of the
subgroup, exactly over a polygon of weights in the plane; conjugating by
frames extends it to a search over maximal tori.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import product
from operator import mul

from .curves import (
    IDENTITY_MATRICES,
    Surface,
    _frame_of,
    _translation,
    adjugate,
    corners_vanish,
    exact_move,
    move_curve,
    normalizing_matrices,
)
from .errors import InternalError
from .hessians import analyzed_slopes
from .inflection import inflection_report
from .linprog import lp_max
from .rationals import canonical, cleared, primitive, quotient, ratio


@dataclass(frozen=True)
class OneParamSubgroup:
    """Diagonal one-parameter subgroup in a fixed frame.

    On the plane, weights are the three coordinate weights and must sum to
    zero. On the quadric, weights are the encoding (r0, r1), standing for
    literal coordinate weights (-r0, r0, -r1, r1).

    `weights` keeps Fractions. The literal weights are made canonical once,
    when the subgroup is built, and kept as `_scaled`, their
    `rationals.cleared` form (den, the literal weights times den), which
    the kernels of mu compute with."""

    surface: Surface
    weights: tuple
    _scaled: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ws = tuple(canonical(w) for w in self.weights)
        object.__setattr__(self, "weights", tuple(map(Fraction, ws)))
        if self.surface is Surface.P2:
            if len(ws) != 3:
                raise ValueError("plane subgroup needs three weights")
            if sum(ws) != 0:
                raise ValueError("plane weights must sum to zero")
            lw = ws
        else:
            if len(ws) != 2:
                raise ValueError("quadric subgroup needs the two-weight encoding")
            r0, r1 = ws
            lw = (-r0, r0, -r1, r1)
        object.__setattr__(self, "_scaled", cleared(lw))

    def is_trivial(self):
        return not any(self._scaled[1])


# Recorded claim ids backing each region of the analyzed range, per surface.
CITATIONS = {
    Surface.P2: {
        "edge": ["4.2"],
        "chamber": ["4.3-flex", "4.3-singular", "4.3-S"],
        "wall": ["4.4-singular", "4.4-flexwall", "4.4-hyperflex"],
    },
    Surface.QUADRIC: {
        "edge": ["5.2"],
        "chamber": ["5.3-H01", "5.3-S"],
        "wall": ["5.4-H01wall", "5.4-perturbed"],
    },
}


def _point_labels(curve):
    """Coordinate labels supporting the marked point, a nonzero coordinate
    per factor numbered within it: l on the plane, (l, m) on the quadric."""
    p = curve.point
    nonzero = [[i - b[0] for i in b if p[i] != 0] for b in curve.surface.blocks]
    if len(nonzero) == 1:
        return nonzero[0]
    return list(product(*nonzero))


def point_weight(surface, lw, label):
    """Weight of the coordinate (pair) carrying the marked point, for a
    subgroup with literal weights lw."""
    if surface is Surface.P2:
        return lw[label]
    l, m = label
    return lw[l] + lw[2 + m]


def monomial_weight(lw, exp):
    """Weight of a monomial, for a subgroup with literal weights lw."""
    return sum(map(mul, exp, lw))


def _mu(curve, lam, tn, tq, labels):
    """mu_min at t = tn / tq over the point labels `labels` of the curve, in
    integers: (num, den, pair) with mu = num / den. With W = D * w the
    literal weights times their common denominator D, t * w orders as
    tn * W, and mu = (tn * W_point - tq * W_monomial) / (tq * D) at the
    minimizing label and the heaviest monomial."""
    den, lw = lam._scaled
    surface = curve.surface
    weights = [(point_weight(surface, lw, lb), lb) for lb in labels]
    low, _, best_label = min((tn * w, w, lb) for w, lb in weights)
    monomials = {e: monomial_weight(lw, e) for e in curve.equation.terms}
    high = max(monomials.values())
    best_exp = min(e for e, w in monomials.items() if w == high)
    return low - tq * high, tq * den, (best_label, best_exp)


def mu_min(curve, lam, t):
    """Minimal mu over the support of the pointed curve.

    Returns (value, (point_label, exponent)) where the pair achieves the
    minimum; ties break to the label of smallest weight, then the smallest
    label, and to the lexicographically smallest exponent. The minimum is
    found in integers (`_mu`), and the value is its one Fraction."""
    if lam.surface is not curve.surface:
        raise ValueError("subgroup and curve live on different surfaces")
    num, den, pair = _mu(curve, lam, *ratio(t), _point_labels(curve))
    return Fraction(num, den), pair


# Weight boxes in (r0, r1), corners in counterclockwise order: |r0|, |r1|,
# |r0 + r1| <= 1 on the plane, |r0|, |r1| <= 1 on the quadric.
_HEXAGON = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
_SQUARE = ((1, 1), (-1, 1), (-1, -1), (1, -1))


def _weight_forms(curve, labels):
    """Point-weight and monomial-weight forms of the curve, with point
    labels `labels`, as integer pairs (a, b) standing for a*r0 + b*r1, and
    the weight box of its surface."""
    if curve.surface is Surface.P2:
        coord = {0: (1, 0), 1: (0, 1), 2: (-1, -1)}
        points = [coord[l] for l in labels]
        monomials = [(i - k, j - k) for i, j, k in curve.equation.terms]
        return points, monomials, _HEXAGON
    points = [(1 if l else -1, 1 if m else -1) for l, m in labels]
    monomials = [(i1 - i0, j1 - j0) for i0, i1, j0, j1 in curve.equation.terms]
    return points, monomials, _SQUARE


def _subgroup_from_box(surface, r0, r1):
    """The primitive integer subgroup along the box weights (r0, r1); on
    the plane (r0, r1, -r0 - r1) has the same content as (r0, r1)."""
    a, b = primitive((r0, r1))
    if surface is Surface.P2:
        return OneParamSubgroup(surface, (a, b, -a - b))
    return OneParamSubgroup(surface, (a, b))


def torus_verdict(curve, t):
    """Best sign of mu over the diagonal torus of the current frame.

    Returns (sign, lam): sign +1 with a subgroup of positive mu, 0 with a
    nontrivial subgroup of zero mu, or -1 (lam None) when mu < 0 for every
    nontrivial subgroup. Certificates are primitive integer subgroups and
    are re-verified against mu_min's integer kernel before returning; the
    point labels are read once for the solve and the re-check."""
    labels = _point_labels(curve)
    points, monomials, box = _weight_forms(curve, labels)
    sign, r = lp_max(points, monomials, t, box)
    if sign < 0:
        return -1, None
    lam = _subgroup_from_box(curve.surface, *r)
    num, den, _ = _mu(curve, lam, *ratio(t), labels)
    if (num <= 0) if sign > 0 else (num != 0 or lam.is_trivial()):
        raise InternalError(
            f"torus certificate {lam.weights} of sign {sign} has mu {Fraction(num, den)} at t = {t}"
        )
    return sign, lam


def _random_frame(surface, rng):
    """The matrices (mx, my, swap) of a random invertible integer frame,
    entries in [-3, 3]: one matrix per factor, redrawn together until all
    are invertible, then the swap bit; my is None, swap False on the plane."""
    while True:
        mats = [tuple(tuple(rng.randint(-3, 3) for _ in b) for _ in b) for b in surface.blocks]
        if all(adjugate(m)[1] for m in mats):
            break
    if len(mats) == 1:
        return mats[0], None, False
    return mats[0], mats[1], bool(rng.getrandbits(1))


def _adapted_frames(curve, report):
    """The matrices (mx, my, swap) of the frames suggested by the
    special-locus geometry of the curve, read from its inflection report.
    These align the destabilizing flag with coordinate data so the diagonal
    torus of the new frame can see it. Only S has them, so the special
    locus is read only when the local geometry allows S. A curve in S has
    every detail of it, and on the plane its line, as S there is a conic
    times the line to the d - 2 >= 1."""
    if report.configuration != "S" or not report.special.in_s:
        return []
    det = report.special.details
    if curve.surface is Surface.P2:
        # the rows send the line to x0 = 0 and q to (0 : 0 : 1): the last
        # is that of q's `_translation` at its first nonzero coordinate, the
        # middle the first of its others that keeps the frame invertible
        line, q = det["line"], det["tangency"]
        others, last = _translation(q, next(i for i in range(3) if q[i] != 0))
        for row in others:
            mx = (line, row, last)
            if adjugate(mx)[1]:
                return [(mx, None, False)]
        return []
    q, p = det["crossing"], curve.point
    # Columns (q | p) per factor; the inverse, the adjugate over the
    # determinant, sends q to (1, 0) and p to (0, 1) so the degeneration
    # flag becomes coordinate data.
    pairs = [adjugate(tuple((q[i], p[i]) for i in rows)) for rows in ((0, 1), (2, 3))]
    if not all(d for _, d in pairs):
        return []
    mx, my = (tuple(tuple(quotient(a, d) for a in row) for row in adj) for adj, d in pairs)
    return [(mx, my, False)]


def _move(curve, key):
    """`move_curve`'s (moved, scale) for the matrices key; (curve, 1) at the identity."""
    if key == IDENTITY_MATRICES[curve.surface]:
        return curve, 1
    return move_curve(curve, *key)


def _hit(curve, key, moved, scale):
    """(FrameChange, exact move) for `_move`'s (moved, scale) of a hit."""
    exact = curve if moved is curve else exact_move(curve, moved, scale, *key)
    return _frame_of(curve.surface, key), exact


class _Analysis:
    """What a verdict reads of its curve that does not depend on the slope:
    the inflection `report`, itself computed field by field, the matrices
    and `_move` of the normalizing frame (`normal`) and its `_hit` (`hit`),
    which a certificate in that frame reads, a search's hit or a zero
    certificate. Each of the last two is computed on the first read
    and kept once it returns, so an interrupted read keeps nothing.
    Frames other than the normalizing one are not kept, so a search of any
    budget keeps as much."""

    def __init__(self, curve):
        self.curve = curve
        self.report = inflection_report(curve)

    @cached_property
    def normal(self):
        """(key, moved, scale): the normalizing frame's matrices and move."""
        key = normalizing_matrices(self.curve, self.report.geometry)
        return (key, *_move(self.curve, key))

    @cached_property
    def hit(self):
        """(FrameChange, exact move) of the normalizing frame."""
        return _hit(self.curve, *self.normal)


def _certificate(analysis, key, moved, scale, sign, lam, t):
    """The certificate {"frame", "lambda", "mu"} of a torus answer (sign,
    lam), sign >= 0, in the frame with matrices key and `_move` (moved,
    scale): its FrameChange and exact move are the analysis's kept `hit`
    for the normalizing frame and `_hit` for any other, and mu is
    re-checked by `mu_min` on that exact move, the curve the certificate
    names: InternalError unless mu > 0 for sign 1 and mu = 0 for sign 0."""
    if key == analysis.normal[0]:
        frame, exact = analysis.hit
    else:
        frame, exact = _hit(analysis.curve, key, moved, scale)
    mu, _ = mu_min(exact, lam, t)
    if (mu <= 0) if sign > 0 else mu != 0:
        raise InternalError(f"certificate {lam.weights} of sign {sign} has mu {mu} at t = {t}")
    return {"frame": frame, "lambda": lam, "mu": mu}


_kept = []  # the analysis of the last curve asked


def _analysis(curve):
    """The `_Analysis` of the last curve asked, kept while the curves asked
    equal it: a sweep of one curve across slopes computes each field once.
    Curves are compared, not hashed: a point may be given as a list, and
    a comparison costs about a tenth of hashing a point of Fractions."""
    for kept in _kept:
        if kept.curve == curve:
            return kept
    kept = _Analysis(curve)
    _kept[:] = [kept]
    return kept


def destabilizer_search(curve, t, budget=500, seed=0):
    """Search frames for a torus destabilizer with mu > 0 at slope t.

    Frames are tried in a fixed order: the normalizing frame of the curve,
    the identity, frames adapted to the special-locus geometry, then random
    integer frames from the given seed. Returns (frame, lam, mu) for the
    first success, or None once the budget of frames is spent; no frame is
    drawn past the budget.

    The adapted frames come from the special locus of the curve's
    inflection report and the normalizing frame from its local geometry,
    both read off the curve's `_analysis`, which also keeps the normalizing
    frame's move and hit: a verdict and the search it runs, and the
    verdicts of one curve at several slopes, compute each of them once.

    The torus check reads only the zero pattern of the moved point and the
    convex hull of the moved support (Mumford, Fogarty and Kirwan, GIT,
    2.1), so every frame but the identity, the curve itself, is moved up
    to constants through the integer adjugate (`move_curve`). Frames are
    keyed by their canonical matrices, so an identity normalizing frame
    (`normalizing_matrices`) is solved once for both. Any other frame for
    0 < t < d first asks whether a corner coefficient of its moved
    equation vanishes (`corners_vanish`, on the equation cleared of
    denominators once per search). If none does, no subgroup destabilizes
    there. Let w be the largest weight of a coordinate on the plane, of a
    pair of coordinates, one per factor, on the quadric; w > 0 for a
    nontrivial subgroup. The point weighs at most w and the corner of that
    coordinate (pair) weighs d * w, so mu <= (t - d) * w < 0. Such a frame
    counts as tried and gets no torus solve. Past the normalizing frame,
    every search `stability_verdict` runs has 0 < t < d: it answers t <= 0
    without one, and the normalizing frame hits at every t >= d, since on
    the plane lambda = (-1, -1, 2) there has mu >= 2t - (2d - 3), a hit
    above d - 3/2, and on the quadric r = (1, 1) has mu >= 2t - (2d - 2),
    a hit above d - 1. Only a hit builds its FrameChange and its exact
    move, the integer move scaled (`exact_move`), on which `_certificate`
    re-checks its mu; an exhausted search builds neither."""
    analysis = _analysis(curve)

    def candidates():
        # (canonical matrices, which are the `seen` key, and the curve the
        # corner test reads, or None for no test): past the identity and
        # below t = d, the curve with its denominators cleared
        yield analysis.normal[0], None
        yield IDENTITY_MATRICES[curve.surface], None
        den = cleared(list(curve.equation.terms.values()))[0]
        integral = curve if den == 1 else replace(curve, equation=curve.equation * den)
        corners = integral if 0 < t < curve.degree else None
        for key in _adapted_frames(curve, analysis.report):
            yield key, corners
        rng = random.Random(seed)
        while True:
            yield _random_frame(curve.surface, rng), corners

    frames = candidates()
    tried = 0
    seen = set()
    while tried < budget:
        key, corners = next(frames)
        if key in seen:
            continue
        seen.add(key)
        tried += 1
        if corners is not None and not corners_vanish(corners, *key):
            continue
        # the analysis keeps the normalizing frame's move
        moved, scale = analysis.normal[1:] if key == analysis.normal[0] else _move(curve, key)
        sign, lam = torus_verdict(moved, t)
        if sign > 0:
            cert = _certificate(analysis, key, moved, scale, sign, lam, t)
            return cert["frame"], lam, cert["mu"]
    return None


@dataclass
class ClaimCheck:
    """Outcome of checking a sign claim for mu over a family of monomials,
    point labels and slopes."""

    passed: bool
    counterexamples: list = field(default_factory=list)
    equalities: list = field(default_factory=list)


def interval_mu_claim(surface, lam, labels, exponents, t_spec, strictness=">0"):
    """Check the sign of mu for each (label, exponent) across a slope spec.

    t_spec is ("point", t) for a single slope or ("open", lo, hi) for an
    open interval. mu is affine in t, so on an open interval the claim
    "mu > 0" holds exactly when mu >= 0 at both endpoints and they do not
    both vanish; "mu >= 0" needs only the endpoint signs. Equality records
    list where mu vanishes at a checked slope."""
    if strictness not in (">0", ">=0"):
        raise ValueError("strictness must be '>0' or '>=0'")
    check = ClaimCheck(passed=True)
    if t_spec[0] == "point":
        points = [Fraction(t_spec[1])]
        open_interval = False
    elif t_spec[0] == "open":
        points = [Fraction(t_spec[1]), Fraction(t_spec[2])]
        if points[0] >= points[1]:
            raise ValueError("empty interval")
        open_interval = True
    else:
        raise ValueError("t_spec must be ('point', t) or ('open', lo, hi)")
    # weights scaled by the lcm of their denominators, so that for t = n/q
    # the sign of mu = t * pw - mw is that of the integer n * pw - q * mw
    den, lw = lam._scaled
    weighted = [(exp, monomial_weight(lw, exp)) for exp in exponents]
    for label in labels:
        pw = point_weight(surface, lw, label)
        for exp, mw in weighted:
            nums = [t.numerator * pw - t.denominator * mw for t in points]
            for t, v in zip(points, nums):
                if not v:
                    check.equalities.append((label, exp, t))
            if open_interval:
                bad = min(nums) < 0 or (strictness == ">0" and not any(nums))
            elif strictness == ">0":
                bad = nums[0] <= 0
            else:
                bad = nums[0] < 0
            if bad:
                values = [Fraction(v, t.denominator * den) for t, v in zip(points, nums)]
                worst = min(zip(values, points))
                check.counterexamples.append((label, exp, worst[1], worst[0]))
                check.passed = False
    return check


@dataclass
class StabilityVerdict:
    status: str
    t: Fraction
    certificate: dict | None = None
    citations: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    # every membership a rule reads is decided; the constant keeps the
    # flag of the `verdict` document, which is always false
    undecided = False


def _attach_zero_certificate(verdict, analysis, t):
    """Attach the `_certificate` of the torus of the analysis's normalizing
    frame, solved on its integer move. If that torus unexpectedly shows
    mu > 0 the verdict flips to Unstable, since an exact positive
    certificate beats any membership reasoning."""
    key, moved, scale = analysis.normal
    sign, lam = torus_verdict(moved, t)
    if sign < 0:
        verdict.notes.append("no zero certificate exhibited in the normalizing frame")
        return
    verdict.certificate = _certificate(analysis, key, moved, scale, sign, lam, t)
    if sign > 0:
        verdict.status = "Unstable"
        verdict.notes.append(
            "torus destabilizer found despite the boundary classification"
        )


def wall_stratum(report):
    """Stratum of the wall stratification read off an inflection report:
    "not_semistable" (the locus removed at the wall), "x0" (the exchanged
    closed orbit), "x_minus" (the flipped locus, first-order contact
    without the higher excess) or "common" (untouched by the crossing)."""
    if (report.in_h1 and report.in_h2prime) or report.in_s:
        return "not_semistable"
    if report.in_x0:
        return "x0"
    if report.in_h1:
        return "x_minus"
    return "common"


# Notes of the strictly semistable verdicts, by wall stratum or region.
_SEMISTABLE_NOTES = {
    "x0": "closed orbit exchanged at the wall",
    "x_minus": "first-order contact without the second-order excess: "
    "semistable exactly at the wall",
    "edge": "every curve smooth at the marked point degenerates at the edge",
}


def _region_rule(region, report):
    """(status, note) of a curve in one region of the analyzed range.
    Status None leaves the verdict to the destabilizer search, with the
    note as the reason to expect a destabilizer, if there is one."""
    if region == "edge":
        if report.in_h1:
            return None, "first-order locus is destabilized at the edge"
        return "StrictlySemistable", _SEMISTABLE_NOTES["edge"]
    if region == "chamber":
        if report.in_h1:
            return None, "marked point lies on the first-order locus"
        if report.in_s:
            return None, "curve is the swept boundary configuration"
        return "Stable", (
            "between the wall and the edge, stability needs only avoiding "
            "the first-order locus and the swept configuration"
        )
    stratum = wall_stratum(report)
    if stratum == "not_semistable":
        return None, (
            "curve is the boundary configuration swept at the wall"
            if report.in_s
            else "marked point carries second-order contact above first"
        )
    if stratum == "common":
        return "Stable", None
    return "StrictlySemistable", _SEMISTABLE_NOTES[stratum]


def stability_verdict(curve, t, budget=500, seed=0):
    """Classify the pointed curve at slope t inside the analyzed range.

    Status is one of Stable, StrictlySemistable, Unstable, Unknown. Unstable
    always carries an exact certificate (frame, lam, mu > 0); strict
    semistability carries a zero certificate when the torus of the
    normalizing frame exhibits one. Slopes outside the analyzed range fall
    back to a bare destabilizer search."""
    t = Fraction(t)
    wall, edge = analyzed_slopes(curve.surface, curve.degree)
    verdict = StabilityVerdict(status="Unknown", t=t)

    def destabilize(reason=None):
        found = destabilizer_search(curve, t, budget=budget, seed=seed)
        if found is not None:
            frame, lam, mu = found
            verdict.status = "Unstable"
            verdict.certificate = {"frame": frame, "lambda": lam, "mu": mu}
        else:
            verdict.notes.append(
                "no destabilizer found within budget {}".format(budget)
            )
        if reason:
            verdict.notes.append(reason)

    if t <= 0:
        verdict.notes.append("slope must be positive to polarize the family")
        return verdict
    if t < wall or t > edge:
        destabilize("slope outside the analyzed range [{} , {}]".format(wall, edge))
        if verdict.status == "Unknown":
            verdict.notes.append("outside analyzed slopes")
        return verdict
    analysis = _analysis(curve)
    region = "wall" if t == wall else "edge" if t == edge else "chamber"
    verdict.citations = list(CITATIONS[curve.surface][region])
    status, note = _region_rule(region, analysis.report)
    if status is None:
        destabilize(note)
        return verdict
    verdict.status = status
    if note:
        verdict.notes.append(note)
    if status == "StrictlySemistable":
        _attach_zero_certificate(verdict, analysis, t)
    return verdict


def stabilizer_dimension(curve):
    """Dimension of the diagonal stabilizer of the pointed curve, with a
    primitive generator when the dimension is one.

    Requires the marked point to be fixed by the full torus (one nonzero
    coordinate on each factor), so the stabilizer is cut out by the
    equation support alone: the subgroups (r0, r1) of `_weight_forms` on
    which every monomial weighs the same."""
    p = curve.point
    if any(sum(1 for i in b if p[i] != 0) != 1 for b in curve.surface.blocks):
        raise ValueError("marked point is not a coordinate point")
    _, (base, *forms), _ = _weight_forms(curve, _point_labels(curve))
    rows = [(a - base[0], b - base[1]) for a, b in forms]
    # The rank and kernel of two-column rows: none of them nonzero, one
    # that spans them all, or two independent ones.
    x, y = next((r for r in rows if any(r)), (0, 0))
    if not (x or y):
        return 2, None
    if any(x * b - y * a for a, b in rows):
        return 0, None
    # the generator is primitive with its first nonzero weight positive;
    # on the plane its weights begin with r0, r1, not both 0
    r0, r1 = primitive((-y, x))
    if (r0 or r1) < 0:
        r0, r1 = -r0, -r1
    return 1, _subgroup_from_box(curve.surface, r0, r1)
