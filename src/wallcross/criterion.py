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
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .curves import (
    IDENTITY_MATRICES,
    FrameChange,
    Surface,
    adjugate,
    apply_frame,
    corners_vanish,
    move_curve,
    normalize_frame,
)
from .errors import InternalError
from .hessians import analyzed_slopes
from .inflection import InflectionReport, inflection_report
from .linprog import lp_max
from .rationals import canonical


def _primitive(entries):
    """Scale a rational vector by a positive constant to coprime integers.
    Direction is preserved; the zero vector is returned unchanged."""
    fracs = [Fraction(e) for e in entries]
    if all(f == 0 for f in fracs):
        return tuple(0 for _ in fracs)
    mult = lcm(*(f.denominator for f in fracs))
    ints = [int(f * mult) for f in fracs]
    g = gcd(*(abs(i) for i in ints))
    return tuple(i // g for i in ints)


@dataclass(frozen=True)
class OneParamSubgroup:
    """Diagonal one-parameter subgroup in a fixed frame.

    On the plane, weights are the three coordinate weights and must sum to
    zero. On the quadric, weights are the encoding (r0, r1), standing for
    literal coordinate weights (-r0, r0, -r1, r1)."""

    surface: Surface
    weights: tuple

    def __post_init__(self):
        ws = tuple(Fraction(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if self.surface is Surface.P2:
            if len(ws) != 3:
                raise ValueError("plane subgroup needs three weights")
            if sum(ws) != 0:
                raise ValueError("plane weights must sum to zero")
        else:
            if len(ws) != 2:
                raise ValueError("quadric subgroup needs the two-weight encoding")

    def literal_weights(self):
        """The coordinate weights, each an int when it is integral
        (rationals.canonical), so the weights of mu are integer dot
        products for an integral subgroup; `weights` keeps Fractions."""
        ws = tuple(canonical(w) for w in self.weights)
        if self.surface is Surface.P2:
            return ws
        r0, r1 = ws
        return (-r0, r0, -r1, r1)

    def is_trivial(self):
        return all(w == 0 for w in self.weights)


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
    """Coordinate labels supporting the marked point: indices l on the
    plane, pairs (l, m) on the quadric."""
    if curve.surface is Surface.P2:
        return [l for l in range(3) if curve.point[l] != 0]
    xs = [l for l in range(2) if curve.point[l] != 0]
    ys = [m for m in range(2) if curve.point[2 + m] != 0]
    return [(l, m) for l in xs for m in ys]


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


def mu_min(curve, lam, t):
    """Minimal mu over the support of the pointed curve.

    Returns (value, (point_label, exponent)) where the pair achieves the
    minimum; ties break to the label of smallest weight, then the smallest
    label, and to the lexicographically smallest exponent."""
    if lam.surface is not curve.surface:
        raise ValueError("subgroup and curve live on different surfaces")
    t = Fraction(t)
    lw = lam.literal_weights()
    weights = [(point_weight(curve.surface, lw, lb), lb) for lb in _point_labels(curve)]
    low, _, best_label = min((t * w, w, lb) for w, lb in weights)
    monomials = {e: monomial_weight(lw, e) for e in curve.equation.terms}
    high = max(monomials.values())
    best_exp = min(e for e, w in monomials.items() if w == high)
    return low - high, (best_label, best_exp)


# Weight boxes in (r0, r1), corners in counterclockwise order: |r0|, |r1|,
# |r0 + r1| <= 1 on the plane, |r0|, |r1| <= 1 on the quadric.
_HEXAGON = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
_SQUARE = ((1, 1), (-1, 1), (-1, -1), (1, -1))


def _weight_forms(curve):
    """Point-weight and monomial-weight forms of the curve as integer pairs
    (a, b) standing for a*r0 + b*r1, and the weight box of its surface."""
    if curve.surface is Surface.P2:
        coord = {0: (1, 0), 1: (0, 1), 2: (-1, -1)}
        points = [coord[l] for l in _point_labels(curve)]
        monomials = [(i - k, j - k) for i, j, k in curve.equation.terms]
        return points, monomials, _HEXAGON
    points = [(1 if l else -1, 1 if m else -1) for l, m in _point_labels(curve)]
    monomials = [(i1 - i0, j1 - j0) for i0, i1, j0, j1 in curve.equation.terms]
    return points, monomials, _SQUARE


def _subgroup_from_box(surface, r0, r1):
    if surface is Surface.P2:
        return OneParamSubgroup(surface, _primitive((r0, r1, -r0 - r1)))
    return OneParamSubgroup(surface, _primitive((r0, r1)))


def torus_verdict(curve, t):
    """Best sign of mu over the diagonal torus of the current frame.

    Returns (sign, lam): sign +1 with a subgroup of positive mu, 0 with a
    nontrivial subgroup of zero mu, or -1 (lam None) when mu < 0 for every
    nontrivial subgroup. Certificates are primitive integer subgroups and
    are re-verified against mu_min before returning."""
    points, monomials, box = _weight_forms(curve)
    sign, r = lp_max(points, monomials, t, box)
    if sign < 0:
        return -1, None
    lam = _subgroup_from_box(curve.surface, *r)
    mu, _ = mu_min(curve, lam, t)
    if (mu <= 0) if sign > 0 else (mu != 0 or lam.is_trivial()):
        raise InternalError(
            f"torus certificate {lam.weights} of sign {sign} has mu {mu} at t = {t}"
        )
    return sign, lam


def _random_frame(surface, rng):
    """The matrices (mx, my, swap) of a random invertible integer frame,
    entries in [-3, 3]; my is None and swap False on the plane."""
    if surface is Surface.P2:
        while True:
            mx = tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3))
            if adjugate(mx)[1]:
                return mx, None, False
    while True:
        mx = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
        my = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
        if adjugate(mx)[1] and adjugate(my)[1]:
            return mx, my, bool(rng.getrandbits(1))


def _adapted_frames(curve, report):
    """The matrices (mx, my, swap) of the frames suggested by the
    special-locus geometry of the curve, read from its inflection report.
    These align the destabilizing flag with coordinate data so the diagonal
    torus of the new frame can see it."""
    frames = []
    special = report.special
    det = special.details
    if curve.surface is Surface.P2 and special.in_s:
        line = det.get("line")
        q = det.get("tangency")
        if line is not None and q is not None:
            c = next(i for i in range(3) if q[i] != 0)
            row0 = tuple(Fraction(a) for a in line)
            row2 = tuple(
                Fraction(1, Fraction(q[c])) if i == c else Fraction(0)
                for i in range(3)
            )
            for mid in range(3):
                row1 = tuple(Fraction(1 if i == mid else 0) for i in range(3))
                mx = (row0, row1, row2)
                if adjugate(mx)[1]:
                    frames.append((mx, None, False))
                    break
    if curve.surface is Surface.QUADRIC and special.in_s:
        q = det.get("crossing")
        if q is not None:
            p = curve.point
            # Columns (q | p) per factor; the inverse, the adjugate over the
            # determinant, sends q to (1, 0) and p to (0, 1) so the
            # degeneration flag becomes coordinate data.
            pairs = [
                adjugate(tuple((Fraction(q[i]), Fraction(p[i])) for i in rows))
                for rows in ((0, 1), (2, 3))
            ]
            if all(d for _, d in pairs):
                mx, my = (tuple(tuple(a / d for a in row) for row in adj) for adj, d in pairs)
                frames.append((mx, my, False))
    return frames


def destabilizer_search(curve, t, budget=500, seed=0, report=None):
    """Search frames for a torus destabilizer with mu > 0 at slope t.

    Frames are tried in a fixed order: the normalizing frame of the curve,
    the identity, frames adapted to the special-locus geometry, then random
    integer frames from the given seed. Returns (frame, lam, mu) for the
    first success, or None once the budget of frames is spent.

    The adapted frames come from the special locus of `report`, the
    curve's lazy InflectionReport (a fresh one when none is given), and
    the normalizing frame from its local geometry, so a caller that
    already holds one computes each of them once.

    The torus check reads only the zero pattern of the moved point and the
    convex hull of the moved support (Mumford, Fogarty and Kirwan, GIT,
    2.1). The normalizing frame reuses the curve `normalize_frame` moved,
    and the identity the curve itself. Any other frame for 0 < t < d first
    asks whether a corner coefficient of its moved equation vanishes
    (`corners_vanish`). If none does, no subgroup destabilizes there. Let
    w be the largest weight of a coordinate on the plane, of a pair of
    coordinates, one per factor, on the quadric; w > 0 for a nontrivial
    subgroup. The point weighs at most w and the corner of that coordinate
    (pair) weighs d * w, so mu <= (t - d) * w < 0. Such a frame counts as
    tried and gets no torus solve. Past the normalizing frame, every
    search `stability_verdict` runs has 0 < t < d: it answers t <= 0
    without one, and the normalizing frame hits at every t >= d, since on
    the plane lambda = (-1, -1, 2) there has mu >= 2t - (2d - 3), a hit
    above d - 3/2, and on the quadric r = (1, 1) has mu >= 2t - (2d - 2),
    a hit above d - 1. Any other frame moves the whole equation, up to
    constants, through the integer adjugate (`move_curve`). Only a hit
    builds its FrameChange, and its mu is re-checked on the exact move."""
    if report is None:
        report = InflectionReport(curve)
    tried = 0
    seen = set()
    below = 0 < t < curve.degree

    def candidates():
        # (matrices, the exactly moved curve or None)
        g0, moved0 = normalize_frame(curve, report.geometry)
        yield (g0.mx, g0.my, g0.swap), moved0
        yield IDENTITY_MATRICES[curve.surface], curve
        for key in _adapted_frames(curve, report):
            yield key, None
        rng = random.Random(seed)
        while True:
            yield _random_frame(curve.surface, rng), None

    for key, exact in candidates():
        if tried >= budget:
            return None
        if key in seen:
            continue
        seen.add(key)
        tried += 1
        moved = exact
        if moved is None:
            if below and not corners_vanish(curve, *key):
                continue
            moved = move_curve(curve, *key)[0]
        sign, lam = torus_verdict(moved, t)
        if sign > 0:
            frame = FrameChange(curve.surface, *key)
            if exact is None:
                exact = apply_frame(curve, frame)
            mu, _ = mu_min(exact, lam, t)
            if mu <= 0:
                raise InternalError(
                    f"destabilizer {lam.weights} has mu {mu} at t = {t}"
                )
            return frame, lam, mu
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
    lw = lam.literal_weights()
    den = lcm(*(w.denominator for w in lw))
    lw = [w.numerator * (den // w.denominator) for w in lw]
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
    undecided: bool = False


def _attach_zero_certificate(verdict, report, t):
    """Attach a zero-mu certificate from the normalizing frame of the
    report's curve. If that torus unexpectedly shows mu > 0 the verdict
    flips to Unstable, since an exact positive certificate beats any
    membership reasoning."""
    frame, moved = normalize_frame(report.curve, report.geometry)
    sign, lam = torus_verdict(moved, t)
    if sign > 0:
        mu, _ = mu_min(moved, lam, t)
        verdict.status = "Unstable"
        verdict.certificate = {"frame": frame, "lambda": lam, "mu": mu}
        verdict.notes.append(
            "torus destabilizer found despite the boundary classification"
        )
        return
    if sign == 0:
        verdict.certificate = {"frame": frame, "lambda": lam, "mu": Fraction(0)}
    else:
        verdict.notes.append("no zero certificate exhibited in the normalizing frame")


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
    """(status, note, unsettled) of a curve in one region of the analyzed
    range. Status None leaves the verdict to the destabilizer search, with
    the note as the reason to expect a destabilizer, if there is one.
    unsettled is True when the rule read in_s or in_x0, the flags a report
    can leave unsettled, of a report that left them so."""
    if region == "edge":
        # only the first-order flag matters and it is always exact
        if report.in_h1:
            return None, "first-order locus is destabilized at the edge", False
        return "StrictlySemistable", _SEMISTABLE_NOTES["edge"], False
    if region == "chamber":
        if report.in_h1:
            return None, "marked point lies on the first-order locus", False
        if report.in_s:
            return None, "curve is the swept boundary configuration", report.undecided
        if report.undecided:
            return None, None, True
        return "Stable", (
            "between the wall and the edge, stability needs only avoiding "
            "the first-order locus and the swept configuration"
        ), False
    stratum = wall_stratum(report)
    if stratum == "not_semistable":
        return None, (
            "curve is the boundary configuration swept at the wall"
            if report.in_s
            else "marked point carries second-order contact above first"
        ), report.undecided and not (report.in_h1 and report.in_h2prime)
    if report.undecided:
        return None, None, True
    if stratum == "common":
        return "Stable", None, False
    return "StrictlySemistable", _SEMISTABLE_NOTES[stratum], False


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

    def destabilize(reason=None, report=None):
        found = destabilizer_search(curve, t, budget=budget, seed=seed, report=report)
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
    report = inflection_report(curve)
    region = "wall" if t == wall else "edge" if t == edge else "chamber"
    verdict.citations = list(CITATIONS[curve.surface][region])
    status, note, unsettled = _region_rule(region, report)
    if unsettled:
        verdict.undecided = True
        verdict.notes.append(
            "boundary-configuration membership undecided: flags are lower bounds"
        )
    if status is None:
        destabilize(note, report)
        return verdict
    verdict.status = status
    if note:
        verdict.notes.append(note)
    if status == "StrictlySemistable":
        _attach_zero_certificate(verdict, report, t)
    return verdict


def stabilizer_dimension(curve):
    """Dimension of the diagonal stabilizer of the pointed curve, with a
    primitive generator when the dimension is one.

    Requires the marked point to be fixed by the full torus (a coordinate
    point on the plane, a per-factor coordinate point on the quadric), so
    the stabilizer is cut out by the equation support alone."""
    if curve.surface is Surface.P2:
        if sum(1 for c in curve.point if c != 0) != 1:
            raise ValueError("marked point is not a coordinate point")
        basis = ((1, 0, -1), (0, 1, -1))

        def weight_row(delta):
            return tuple(
                sum(d * w for d, w in zip(delta, b)) for b in basis
            )
    else:
        if (sum(1 for c in curve.point[:2] if c != 0) != 1
                or sum(1 for c in curve.point[2:] if c != 0) != 1):
            raise ValueError("marked point is not a coordinate point")

        def weight_row(delta):
            return (delta[1] - delta[0], delta[3] - delta[2])

    exps = sorted(curve.equation.terms)
    base = exps[0]
    rows = [weight_row(tuple(a - b for a, b in zip(e, base))) for e in exps[1:]]
    # The rank and kernel of two-column rows: none of them nonzero, one
    # that spans them all, or two independent ones.
    x, y = next((r for r in rows if any(r)), (0, 0))
    if not (x or y):
        return 2, None
    if any(x * b - y * a for a, b in rows):
        return 0, None
    coeffs = _primitive((-y, x))
    if curve.surface is Surface.P2:
        vec = tuple(
            coeffs[0] * b1 + coeffs[1] * b2
            for b1, b2 in zip((1, 0, -1), (0, 1, -1))
        )
        vec = _primitive(vec)
    else:
        vec = coeffs
    first = next(w for w in vec if w != 0)
    if first < 0:
        vec = tuple(-w for w in vec)
    return 1, OneParamSubgroup(curve.surface, vec)
