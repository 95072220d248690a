"""Golden certificates of the torus program.

`fixtures/torus_corpus.json` holds a seed and, for every case the seeded
generator below produces, the sign and certificate weights that
`torus_verdict` returned when the torus program was still solved by a
general two-phase simplex. The test regenerates the cases from the seed
and requires the current solver to reproduce every sign and every
certificate exactly.

Cases: random curves on both surfaces for d = 3..5, sparse with the
marked point at a coordinate point, sparse through a point with several
nonzero coordinates, or sparse and moved by a random frame; each seen in
the identity frame, its normalizing frame and a random frame, at a
wall/edge/chamber or below-wall slope and a random slope. Then every
witness curve in the same three frames at its wall, chamber midpoint,
edge and a slope above the edge.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from wallcross.criterion import torus_verdict
from wallcross.curves import (
    FrameChange,
    PointedCurve,
    Surface,
    WitnessKind,
    adjugate,
    all_exponents,
    apply_frame,
    make_witness,
    normalize_frame,
)
from wallcross.hessians import analyzed_slopes
from wallcross.polynomials import Polynomial
from wallcross.rationals import format_rational

FIXTURE = Path(__file__).parent / "fixtures" / "torus_corpus.json"
DEGREES = (3, 4, 5)
CURVES_PER_DEGREE = 9


def _frame(surface, rng):
    while True:
        if surface is Surface.P2:
            mx = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
            if adjugate(mx)[1] != 0:
                return FrameChange(surface, mx)
        else:
            mx = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            my = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            if adjugate(mx)[1] != 0 and adjugate(my)[1] != 0:
                return FrameChange(surface, mx, my, swap=bool(rng.getrandbits(1)))


def _sparse_curve(surface, d, rng):
    exps = list(all_exponents(surface, d))
    base = (0, 0, d) if surface is Surface.P2 else (0, d, 0, d)
    exps.remove(base)  # keeps the marked point on the curve
    support = rng.sample(exps, rng.randint(2, 7))
    terms = {e: rng.choice([-2, -1, 1, 2, 3]) for e in support}
    point = (0, 0, 1) if surface is Surface.P2 else (0, 1, 0, 1)
    return PointedCurve(
        surface, d, tuple(Fraction(c) for c in point), Polynomial(surface.nvars, terms)
    )


def _sparse_curve_through_general_point(surface, d, rng):
    """A sparse curve through a point with several nonzero coordinates, so
    that the point-weight forms tie along lines of their own."""
    n = surface.nvars
    while True:
        point = tuple(Fraction(rng.choice((0, 1, -1, 2))) for _ in range(n))
        if surface is Surface.P2:
            ok = sum(1 for c in point if c) >= 2
        else:
            ok = any(point[:2]) and any(point[2:]) and sum(1 for c in point if c) >= 3
        if ok:
            break
    exps = all_exponents(surface, d)
    support = rng.sample(exps, rng.randint(2, 6))
    terms = {e: Fraction(rng.choice([-2, -1, 1, 2, 3])) for e in support}
    # cancel the value at the point through one monomial not vanishing there
    value = Polynomial(n, terms).evaluate(point)
    fix = rng.choice([e for e in exps if Polynomial(n, {e: 1}).evaluate(point) != 0])
    terms[fix] = terms.get(fix, 0) - value / Polynomial(n, {fix: 1}).evaluate(point)
    return PointedCurve(surface, d, point, Polynomial(n, terms))


def _views(curve, rng):
    """The curve in the identity, normalizing and a random frame."""
    yield "identity", curve
    try:
        yield "normalizing", normalize_frame(curve)[1]
    except ValueError:
        pass
    yield "random", apply_frame(curve, _frame(curve.surface, rng))


def cases(seed):
    """Yield (label, curve, t) for every corpus case, deterministically."""
    rng = random.Random(seed)
    for surface in (Surface.P2, Surface.QUADRIC):
        for d in DEGREES:
            wall, edge = analyzed_slopes(surface, d)
            structural = (wall, edge, (wall + edge) / 2, wall - Fraction(1, 2))
            for i in range(CURVES_PER_DEGREE):
                if i % 3 == 1:
                    curve = _sparse_curve_through_general_point(surface, d, rng)
                else:
                    curve = _sparse_curve(surface, d, rng)
                if i % 3 == 2:
                    curve = apply_frame(curve, _frame(surface, rng))
                for view, moved in _views(curve, rng):
                    slopes = (
                        rng.choice(structural),
                        Fraction(rng.randint(1, 4 * (d + 1)), rng.randint(1, 4)),
                    )
                    for t in slopes:
                        yield f"{surface.value} d={d} #{i} {view} t={t}", moved, t
    for kind in WitnessKind:
        for d in DEGREES:
            if kind is WitnessKind.P2_HYPERFLEX and d < 4:
                continue
            curve = make_witness(kind, d)
            wall, edge = analyzed_slopes(curve.surface, d)
            for view, moved in _views(curve, rng):
                for t in (wall, (wall + edge) / 2, edge, edge + 1):
                    yield f"{kind.value} d={d} {view} t={t}", moved, t


def outcome(curve, t):
    """One corpus entry: the sign, then the certificate weights if any."""
    sign, lam = torus_verdict(curve, t)
    if lam is None:
        return str(sign)
    return f"{sign}:" + ",".join(format_rational(w) for w in lam.weights)


def test_torus_certificates_match_the_recorded_corpus():
    doc = json.loads(FIXTURE.read_text())
    generated = list(cases(doc["seed"]))
    assert len(generated) == len(doc["expected"])
    mismatches = [
        (label, want, got)
        for (label, curve, t), want in zip(generated, doc["expected"])
        if (got := outcome(curve, t)) != want
    ]
    assert not mismatches, mismatches[:5]
    signs = {entry.split(":")[0] for entry in doc["expected"]}
    assert signs == {"1", "0", "-1"}
