import json
import math
import random
import sys
import threading
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from wallcross import criterion, curves, inflection, linprog
from wallcross.cli import _certificate_json
from wallcross.criterion import (
    OneParamSubgroup,
    destabilizer_search,
    interval_mu_claim,
    mu_min,
    stability_verdict,
    stabilizer_dimension,
    torus_verdict,
)
from wallcross.curves import (
    FrameChange,
    PointedCurve,
    Surface,
    WitnessKind,
    all_exponents,
    apply_frame,
    corners_vanish,
    curve_from_json,
    frame_to_json,
    make_witness,
    mat_vec,
    move_curve,
    normalize_frame,
)
from wallcross.errors import InternalError
from wallcross.hessians import analyzed_slopes
from wallcross.inflection import inflection_report
from wallcross.polynomials import Polynomial
from wallcross.rationals import primitive

from oracles import explicit_point_labels, full_move_search, gauss_jordan, mu_term
from test_cli import ADAPTED_CURVES
from test_curves import _zero_patterns
from test_inflection import _rational_frame


def _p2(d, terms, point):
    return PointedCurve(
        Surface.P2, d, tuple(Fraction(c) for c in point), Polynomial(3, terms)
    )


def test_subgroup_encoding_and_validation():
    lam = OneParamSubgroup(Surface.QUADRIC, (1, 2))
    assert lam.literal_weights() == (-1, 1, -2, 2)
    lam3 = OneParamSubgroup(Surface.P2, (5, -1, -4))
    assert lam3.literal_weights() == (5, -1, -4)
    with pytest.raises(ValueError):
        OneParamSubgroup(Surface.P2, (1, 1, 1))
    with pytest.raises(ValueError):
        OneParamSubgroup(Surface.P2, (1, -1))
    with pytest.raises(ValueError):
        OneParamSubgroup(Surface.QUADRIC, (1, 2, 3))
    assert OneParamSubgroup(Surface.P2, (0, 0, 0)).is_trivial()
    prim = OneParamSubgroup(Surface.P2, (Fraction(1), Fraction(-1, 5), Fraction(-4, 5)))
    assert primitive(prim.weights) == (5, -1, -4)


def test_mu_min_plane_example():
    # x1^3 + x0*x2^2 at (0,0,1); weights (-1,0,1): the point carries weight
    # t, the worst monomial is x0*x2^2 with weight 1, so mu = t - 1
    c = make_witness(WitnessKind.P2_FLEX, 3)
    lam = OneParamSubgroup(Surface.P2, (-1, 0, 1))
    for t in (Fraction(3, 4), 1, Fraction(5, 2)):
        value, (label, exp) = mu_min(c, lam, t)
        assert value == Fraction(t) - 1
        assert label == 2 and exp == (1, 0, 2)


def test_mu_min_quadric_example():
    c = make_witness(WitnessKind.QUADRIC_X0, 3)
    lam = OneParamSubgroup(Surface.QUADRIC, (1, 1))
    value, (label, exp) = mu_min(c, lam, Fraction(5, 3))
    assert value == 2 * Fraction(5, 3) - 4
    assert label == (1, 1) and exp == (0, 3, 1, 2)


def test_mu_min_minimizes_over_point_labels():
    # marked point supported on two coordinates: the smaller point weight wins
    c = _p2(3, {(1, 0, 2): 1, (0, 1, 2): -1}, (1, 1, 0))
    lam = OneParamSubgroup(Surface.P2, (2, -1, -1))
    value, (label, exp) = mu_min(c, lam, 1)
    assert label == 1  # weight -1 beats weight 2
    assert value == -1 - 0  # worst monomial weight is 0 at (1,0,2)


def test_mu_min_negative_slope_prefers_the_heaviest_point_label():
    # for t < 0 the minimum of t * (point weight) sits on the largest weight
    c = _p2(3, {(1, 0, 2): 1, (0, 1, 2): -1, (3, 0, 0): 1, (0, 3, 0): -1}, (1, 1, 0))
    lam = OneParamSubgroup(Surface.P2, (2, -1, -1))
    value, (label, exp) = mu_min(c, lam, -1)
    assert value == -8
    assert label == 0 and exp == (3, 0, 0)


def test_mu_min_is_the_minimum_over_support_pairs():
    rng = random.Random(53)
    for surface in (Surface.P2, Surface.QUADRIC):
        for _ in range(30):
            c = apply_frame(
                _random_curve(surface, 3, rng),
                FrameChange(surface, *criterion._random_frame(surface, rng)),
            )
            if surface is Surface.P2:
                w0, w1 = rng.randint(-4, 4), rng.randint(-4, 4)
                lam = OneParamSubgroup(surface, (w0, w1, -w0 - w1))
            else:
                lam = OneParamSubgroup(surface, (rng.randint(-4, 4), rng.randint(-4, 4)))
            for t in (Fraction(-3, 2), -1, 0, Fraction(1, 3), 2):
                value, (label, exp) = mu_min(c, lam, t)
                pairs = [
                    mu_term(surface, lam, t, lb, e)
                    for lb in criterion._point_labels(c)
                    for e in c.equation.terms
                ]
                assert value == min(pairs)
                assert mu_term(surface, lam, t, label, exp) == value


def test_mu_scales_linearly():
    rng = random.Random(51)
    c = make_witness(WitnessKind.P2_NONFLEX, 4)
    for _ in range(20):
        w0, w1 = rng.randint(-4, 4), rng.randint(-4, 4)
        lam = OneParamSubgroup(Surface.P2, (w0, w1, -w0 - w1))
        if lam.is_trivial():
            continue
        k = rng.randint(2, 5)
        scaled = OneParamSubgroup(Surface.P2, tuple(k * w for w in lam.weights))
        t = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        assert mu_min(c, scaled, t)[0] == k * mu_min(c, lam, t)[0]


def _box_sign(curve, t, radius):
    """Brute-force torus sign over integer subgroups in a box."""
    best = None
    for r0 in range(-radius, radius + 1):
        for r1 in range(-radius, radius + 1):
            if r0 == 0 and r1 == 0:
                continue
            if curve.surface is Surface.P2:
                lam = OneParamSubgroup(curve.surface, (r0, r1, -r0 - r1))
            else:
                lam = OneParamSubgroup(curve.surface, (r0, r1))
            v = mu_min(curve, lam, t)[0]
            best = v if best is None else max(best, v)
    if best > 0:
        return 1
    return 0 if best == 0 else -1


def _random_curve(surface, d, rng, nterms=5):
    exps = [e for e in all_exponents(surface, d)]
    base = (0, 0, d) if surface is Surface.P2 else (0, d, 0, d)
    exps.remove(base)  # keep the marked point on the curve
    support = rng.sample(exps, min(nterms, len(exps)))
    terms = {e: rng.choice([-2, -1, 1, 2, 3]) for e in support}
    point = (0, 0, 1) if surface is Surface.P2 else (0, 1, 0, 1)
    return PointedCurve(
        surface, d, tuple(Fraction(c) for c in point), Polynomial(surface.nvars, terms)
    )


def test_torus_verdict_matches_box_enumeration():
    rng = random.Random(99)
    for surface in (Surface.P2, Surface.QUADRIC):
        for _ in range(40):
            c = _random_curve(surface, 3, rng, nterms=rng.randint(2, 6))
            t = Fraction(rng.randint(1, 12), rng.randint(1, 6))
            sign, lam = torus_verdict(c, t)
            assert sign == _box_sign(c, t, 5), (c, t)
            if sign >= 0:
                v = mu_min(c, lam, t)[0]
                assert (v > 0) if sign == 1 else (v == 0)
                ws = lam.weights
                assert all(w.denominator == 1 for w in ws)


def test_torus_verdict_deterministic_certificate():
    c = make_witness(WitnessKind.P2_CUSPIDAL_X0, 4)
    g, moved = normalize_frame(c)
    t = Fraction(7, 4) - Fraction(1, 100)
    s1 = torus_verdict(moved, t)
    s2 = torus_verdict(moved, t)
    assert s1[0] == 1
    assert s1[1].weights == s2[1].weights == (5, -1, -4)


def test_destabilizer_search_cuspidal_below_wall():
    c = make_witness(WitnessKind.P2_CUSPIDAL_X0, 4)
    found = destabilizer_search(c, Fraction(7, 4) - Fraction(1, 100))
    assert found is not None
    frame, lam, mu = found
    assert lam.weights == (5, -1, -4)
    assert mu > 0
    moved = apply_frame(c, frame)
    assert mu_min(moved, lam, Fraction(7, 4) - Fraction(1, 100))[0] == mu


def test_destabilizer_search_adapted_frame_for_s():
    # p = (1,1,1) sits on the conic; the normalizing frame does not expose
    # the destabilizing torus, the identity frame (tried second) does
    c = make_witness(WitnessKind.P2_S, 4)
    t = Fraction(15, 8)
    found = destabilizer_search(c, t, budget=10)
    assert found is not None
    frame, lam, mu = found
    assert mu == Fraction(4 - 2) - t  # d - 2 - t on the worst label
    moved = apply_frame(c, frame)
    assert mu_min(moved, lam, t)[0] == mu


def test_destabilizer_search_budget_exhausts():
    c = make_witness(WitnessKind.P2_NONFLEX, 4)
    assert destabilizer_search(c, Fraction(15, 8), budget=6) is None


def test_exhausted_search_builds_no_frame(monkeypatch):
    # every frame, the normalizing one included, is tried as plain matrices
    # on its integer move; only a hit builds a FrameChange and an exact move
    built, exact_moves = [], []
    post_init = FrameChange.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    def exact_move(*args):
        exact_moves.append(args)
        return curves.exact_move(*args)

    drawn, tested = [], []
    random_frame = criterion._random_frame

    def draw(surface, rng):
        drawn.append(random_frame(surface, rng))
        return drawn[-1]

    def vanish(curve, *key):
        tested.append(key)
        return corners_vanish(curve, *key)

    c = make_witness(WitnessKind.P2_NONFLEX, 4)
    assert normalize_frame(c)[0] is not curves.IDENTITY_FRAMES[c.surface]
    monkeypatch.setattr(FrameChange, "__post_init__", counted)
    monkeypatch.setattr(criterion, "exact_move", exact_move)
    monkeypatch.setattr(criterion, "_random_frame", draw)
    monkeypatch.setattr(criterion, "corners_vanish", vanish)
    assert destabilizer_search(c, Fraction(3, 2), budget=20) is None
    assert built == [] and exact_moves == []
    # past the normalizing frame and the identity every frame is a random
    # one, and none is drawn past the budget: each drawn frame is tried
    assert drawn == tested and len(drawn) == 18


def test_hit_at_the_normalizing_frame_keeps_its_frame(monkeypatch):
    # at t >= d the normalizing frame destabilizes, and the search builds
    # its frame once, at the hit, equal to the one normalize_frame returns
    built = []
    post_init = FrameChange.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(FrameChange, "__post_init__", counted)
    for kind, d in (("p2-nonflex", 4), ("p2-cuspidal-x0", 4), ("quadric-ruling-tangent", 3)):
        c = make_witness(kind, d)
        built.clear()
        frame, lam, mu = destabilizer_search(c, Fraction(d + 1), budget=1)
        assert built == [frame] and frame == normalize_frame(c)[0]
        assert mu == mu_min(apply_frame(c, frame), lam, Fraction(d + 1))[0] > 0


def test_certificate_rechecks_raise_internal_error(monkeypatch):
    # the re-checks are explicit, so they also run under python -O;
    # torus_verdict re-checks with mu_min's integer kernel _mu, (num, den,
    # pair) with mu = num / den, and the search with mu_min on the exact move
    c = make_witness(WitnessKind.P2_NONFLEX, 4)
    assert torus_verdict(c, 3)[0] == 1
    assert torus_verdict(c, 2)[0] == 0
    with monkeypatch.context() as m:
        m.setattr(criterion, "_mu", lambda curve, lam, tn, tq, labels: (0, 1, None))
        with pytest.raises(InternalError):
            torus_verdict(c, 3)
    with monkeypatch.context() as m:
        m.setattr(criterion, "mu_min", lambda curve, lam, t: (Fraction(0), None))
        with pytest.raises(InternalError):
            destabilizer_search(c, 3, budget=1)
    with monkeypatch.context() as m:
        m.setattr(criterion, "_mu", lambda curve, lam, tn, tq, labels: (1, 1, None))
        with pytest.raises(InternalError):
            torus_verdict(c, 2)
    # a torus answer whose subgroup does not destabilize
    lam = OneParamSubgroup(Surface.P2, (1, 0, -1))
    assert mu_min(c, lam, 3)[0] < 0
    monkeypatch.setattr(criterion, "torus_verdict", lambda curve, t: (1, lam))
    with pytest.raises(InternalError):
        destabilizer_search(c, 3, budget=1)


def test_positive_torus_answer_flips_a_semistable_verdict(monkeypatch):
    # _attach_zero_certificate trusts an exact positive torus answer over
    # the boundary classification; no curve reaches that branch, so the
    # answer is injected: the x0 witnesses are strictly semistable at the
    # wall, the cuspidal one in a moved normalizing frame, the quadric one
    # in the identity frame
    note = "torus destabilizer found despite the boundary classification"
    for kind, d, weights in (("p2-cuspidal-x0", 4, (5, -1, -4)), ("quadric-x0", 3, (1, 2))):
        c = make_witness(kind, d)
        wall, _ = analyzed_slopes(c.surface, d)
        assert stability_verdict(c, wall).status == "StrictlySemistable"
        lam = OneParamSubgroup(c.surface, weights)
        with monkeypatch.context() as m:
            m.setattr(criterion, "torus_verdict", lambda curve, t: (1, lam))
            verdict = stability_verdict(c, wall)
        frame, moved = normalize_frame(c)
        assert verdict.status == "Unstable" and note in verdict.notes
        assert verdict.certificate == {"frame": frame, "lambda": lam, "mu": mu_min(moved, lam, wall)[0]}
        assert (moved is c) == (frame is curves.IDENTITY_FRAMES[c.surface])


def test_standard_position_shares_the_identity_frame(monkeypatch):
    # a curve already in standard position: normalize_frame builds nothing
    # and returns the shared identity frame and the curve itself, and the
    # search solves the torus of that frame once for the normalizing frame
    # and the identity together
    solved = []
    solve = criterion.torus_verdict

    def counted(curve, t):
        solved.append(curve)
        return solve(curve, t)

    for kind, d in (("p2-flex", 4), ("quadric-x0", 3)):
        c = make_witness(kind, d)
        frame, moved = normalize_frame(c)
        identity = FrameChange(c.surface, *curves.IDENTITY_MATRICES[c.surface])
        assert frame is curves.IDENTITY_FRAMES[c.surface] and moved is c
        assert frame == identity and frame_to_json(frame) == frame_to_json(identity)
        assert frame.matrices == curves.IDENTITY_MATRICES[c.surface]
        wall, edge = analyzed_slopes(c.surface, d)
        assert torus_verdict(c, wall)[0] == 0
        solved.clear()
        with monkeypatch.context() as m:
            m.setattr(criterion, "torus_verdict", counted)
            destabilizer_search(c, wall, budget=10)
        assert sum(curve is c for curve in solved) == 1 and len(solved) > 1
        found = destabilizer_search(c, edge + 1, budget=1)
        assert found is not None and found[0] is curves.IDENTITY_FRAMES[c.surface]


def _terms(*pairs):
    return [{"exp": list(e), "coeff": c} for e, c in pairs]


# Curves that only a random frame destabilizes at t = 1/2: a point of high
# multiplicity, or a bad point on a ruling, away from the coordinate
# points. Each with the budget that reaches the hit and the certificate
# the search gave when every frame was moved by a g^-1 substitution.
RANDOM_FRAME_HITS = [
    ({"surface": "p2", "degree": 4, "point": ["-2", "3", "2"], "terms": _terms(
        ((0, 0, 4), "1"), ((0, 1, 3), "-3"), ((0, 2, 2), "3"), ((0, 3, 1), "-1"),
        ((1, 0, 3), "-7"), ((1, 1, 2), "23"), ((1, 2, 1), "-25"), ((1, 3, 0), "9"),
        ((2, 0, 2), "14"), ((2, 1, 1), "-29"), ((2, 2, 0), "15"), ((3, 0, 1), "-7"),
        ((3, 1, 0), "7"), ((4, 0, 0), "1"))},
     100, {"matrix": [["-3", "1", "-1"], ["-2", "-2", "3"], ["0", "-1", "1"]]}, (-1, 2, -1)),
    ({"surface": "p2", "degree": 4, "point": ["1", "-2", "-1"], "terms": _terms(
        ((0, 0, 4), "-1/8"), ((0, 1, 3), "1/2"), ((0, 2, 2), "-3/4"), ((0, 3, 1), "1/2"),
        ((0, 4, 0), "-1/8"), ((1, 0, 3), "3/4"), ((1, 1, 2), "-5/4"), ((1, 2, 1), "5/4"),
        ((1, 3, 0), "-3/4"), ((2, 0, 2), "-1/2"), ((2, 1, 1), "1"), ((2, 2, 0), "-3/2"),
        ((3, 0, 1), "1/4"), ((3, 1, 0), "-5/4"), ((4, 0, 0), "-3/8"))},
     100, {"matrix": [["-3", "-3", "0"], ["-1", "-1", "3"], ["0", "-3", "3"]]}, (-1, -1, 2)),
    ({"surface": "quadric", "degree": 3, "point": ["-2", "3", "-1", "2"], "terms": _terms(
        ((0, 3, 1, 2), "-1"), ((0, 3, 3, 0), "2"), ((1, 2, 1, 2), "-3"), ((1, 2, 3, 0), "5"),
        ((2, 1, 1, 2), "-3"), ((2, 1, 3, 0), "4"), ((3, 0, 1, 2), "-1"), ((3, 0, 3, 0), "1"))},
     30, {"x_matrix": [["-2", "-1"], ["-2", "-2"]], "y_matrix": [["3", "-2"], ["-3", "1"]],
          "swap": True}, (0, -1)),
    ({"surface": "quadric", "degree": 3, "point": ["-4", "-2", "-3", "1"], "terms": _terms(
        ((0, 3, 0, 3), "-1/8"), ((0, 3, 1, 2), "-1/8"), ((0, 3, 2, 1), "-1/4"),
        ((1, 2, 0, 3), "1/8"), ((1, 2, 1, 2), "5/8"), ((1, 2, 2, 1), "3/4"),
        ((2, 1, 0, 3), "1/8"), ((2, 1, 1, 2), "-7/8"), ((2, 1, 2, 1), "-3/4"),
        ((3, 0, 0, 3), "-1/8"), ((3, 0, 1, 2), "3/8"), ((3, 0, 2, 1), "1/4"))},
     30, {"x_matrix": [["3", "-1"], ["-2", "2"]], "y_matrix": [["-1", "2"], ["3", "-3"]],
          "swap": False}, (-1, 0)),
]


@pytest.mark.parametrize("doc, budget, frame_doc, weights", RANDOM_FRAME_HITS)
def test_random_frame_hits_keep_their_certificates(doc, budget, frame_doc, weights):
    curve = curve_from_json(doc)
    t = Fraction(1, 2)
    frame, lam, mu = destabilizer_search(curve, t, budget=budget)
    assert frame_to_json(frame) == frame_doc
    assert lam.weights == weights and mu == Fraction(1, 2)
    assert frame not in (normalize_frame(curve)[0], FrameChange(curve.surface, *curves.IDENTITY_MATRICES[curve.surface]))
    assert mu_min(apply_frame(curve, frame), lam, t)[0] == mu


# Swept configurations moved off their coordinate data, so that neither
# the normalizing frame nor the identity exposes the destabilizer, only the
# frame adapted to the special-locus geometry (the third frame tried). Each
# with (witness kind, degree, moving frame), the chamber slope and the hit.
ADAPTED_FRAME_HITS = [
    ((WitnessKind.P2_S, 4, (((0, 1, 0), (0, 1, 1), (-1, -1, 1)),)), Fraction(15, 8),
     {"matrix": [["1", "-1", "0"], ["1", "0", "0"], ["0", "0", "-1/2"]]},
     (-1, 0, 1), Fraction(1, 8)),
    ((WitnessKind.QUADRIC_S, 3, (((1, -1), (1, 0)), ((0, -1), (1, 0)))), Fraction(11, 6),
     {"x_matrix": [["0", "1"], ["-1", "1"]], "y_matrix": [["0", "1"], ["-1", "0"]],
      "swap": False}, (-1, -1), Fraction(1, 3)),
]


@pytest.mark.parametrize("witness, t, frame_doc, weights, mu", ADAPTED_FRAME_HITS)
def test_adapted_frame_hits(witness, t, frame_doc, weights, mu):
    kind, d, move = witness
    base = make_witness(kind, d)
    curve = apply_frame(base, FrameChange(base.surface, *move))
    assert destabilizer_search(curve, t, budget=2) is None
    frame, lam, found_mu = destabilizer_search(curve, t, budget=3)
    assert frame_to_json(frame) == frame_doc
    assert lam.weights == weights and found_mu == mu
    assert (frame.mx, frame.my, frame.swap) in criterion._adapted_frames(curve, inflection_report(curve))
    assert frame not in (normalize_frame(curve)[0], FrameChange(curve.surface, *curves.IDENTITY_MATRICES[curve.surface]))
    assert mu_min(apply_frame(curve, frame), lam, t)[0] == mu


def _proportional(u, v):
    """Are u and v nonzero and proportional, the same projective point?"""
    return any(u) and any(v) and all(
        u[i] * v[j] == u[j] * v[i] for i in range(len(u)) for j in range(i + 1, len(u)))


@pytest.mark.parametrize("kind", [WitnessKind.P2_S, WitnessKind.QUADRIC_S])
def test_adapted_frames_put_the_flag_in_coordinate_position(kind):
    # on the plane the first row is the S line and the tangency goes to
    # (0 : 0 : 1); on the quadric the crossing goes to ((1 : 0), (1 : 0))
    # and p to ((0 : 1), (0 : 1)); witnesses moved by rational frames
    rng = random.Random(36)
    for d in range(3, 7):
        base = make_witness(kind, d)
        for _ in range(3):
            curve = apply_frame(base, _rational_frame(rng, base.surface))
            report = inflection_report(curve)
            [(mx, my, swap)] = criterion._adapted_frames(curve, report)
            details, p = report.special.details, curve.point
            assert not swap
            if kind is WitnessKind.P2_S:
                assert my is None and _proportional(mx[0], details["line"])
                assert _proportional(mat_vec(mx, details["tangency"]), (0, 0, 1))
                continue
            q = details["crossing"]
            for m, f in ((mx, slice(0, 2)), (my, slice(2, 4))):
                assert _proportional(mat_vec(m, q[f]), (1, 0))
                assert _proportional(mat_vec(m, p[f]), (0, 1))


@pytest.mark.parametrize("name", sorted(ADAPTED_CURVES))
def test_verdict_computes_the_special_locus_once(name, monkeypatch):
    # the chamber rule reads in_s, and the search that follows gets past the
    # identity frame to the adapted ones: both read one report's locus
    doc, slope = ADAPTED_CURVES[name]
    calls = []
    membership = inflection.special_locus_membership

    def counted(curve, geometry=None):
        calls.append(curve)
        return membership(curve, geometry)

    monkeypatch.setattr(inflection, "special_locus_membership", counted)
    verdict = stability_verdict(curve_from_json(doc), Fraction(slope), budget=20)
    assert verdict.status == "Unstable"
    assert len(calls) == 1


# In-range verdicts that reach the normalizing frame, with the source of
# their certificate: a zero certificate at the wall or edge, a search that
# hits in the normalizing frame, and searches that get past it to the
# adapted frames.
GEOMETRY_CASES = {
    "zero-certificate-p2-wall": (WitnessKind.P2_CUSPIDAL_X0, 4, Fraction(7, 4)),
    "zero-certificate-p2-edge": (WitnessKind.P2_S, 4, Fraction(2)),
    "zero-certificate-quadric-wall": (WitnessKind.QUADRIC_X0, 3, Fraction(5, 3)),
    "normalizing-hit-p2-edge": (WitnessKind.P2_CUSPIDAL_X0, 4, Fraction(2)),
    **{f"search-{name}": (doc, None, Fraction(slope)) for name, (doc, slope) in ADAPTED_CURVES.items()},
}


@pytest.mark.parametrize("name", sorted(GEOMETRY_CASES))
def test_verdict_computes_the_local_geometry_once(name, monkeypatch):
    # the report reads the geometry for its region's rule, and the
    # normalizing frame of the zero certificate or of the search reuses it;
    # the special locus may probe other curves, which are not counted
    source, d, slope = GEOMETRY_CASES[name]
    curve = curve_from_json(source) if d is None else make_witness(source, d)
    calls = []
    geometry = curves.local_geometry

    def counted(c):
        calls.append(c)
        return geometry(c)

    monkeypatch.setattr(curves, "local_geometry", counted)
    monkeypatch.setattr(inflection, "local_geometry", counted)
    verdict = stability_verdict(curve, slope, budget=20)
    assert verdict.certificate is not None
    assert sum(1 for c in calls if c is curve) == 1


def _count_shared_work(monkeypatch):
    """The first arguments of the calls into the local geometry, the frame
    move and the hull of a torus program, by name."""
    calls = {"local_geometry": [], "move_curve": [], "_hull": []}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name].append(args[0])
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)
        return wrapper

    geometry = counted(curves, "local_geometry")
    monkeypatch.setattr(inflection, "local_geometry", geometry)
    counted(criterion, "move_curve")
    counted(linprog, "_hull")
    return calls


def _sweep(curve):
    """The slopes of a sweep: the wall, three chamber slopes and the edge."""
    wall, edge = analyzed_slopes(curve.surface, curve.degree)
    return [wall + (edge - wall) * Fraction(k, 4) for k in range(5)]


def test_a_sweep_shares_the_analysis_of_its_curve(monkeypatch):
    # the x0 witness is strictly semistable at the wall with a zero
    # certificate of its normalizing frame, and unstable with a hit there
    # at every other slope: the five verdicts read one local geometry, move
    # that frame once and build the hulls of its torus program once
    curve = make_witness(WitnessKind.P2_CUSPIDAL_X0, 4)
    calls = _count_shared_work(monkeypatch)
    statuses = [stability_verdict(curve, t, budget=20).status for t in _sweep(curve)]
    assert statuses == ["StrictlySemistable"] + ["Unstable"] * 4
    assert {name: len(args) for name, args in calls.items()} == {
        "local_geometry": 1, "move_curve": 1, "_hull": 2}


def test_a_verdict_on_another_curve_evicts_the_analysis(monkeypatch):
    # one curve's analysis is kept: a verdict on another curve between two
    # of its slopes computes it again
    curve, other = make_witness(WitnessKind.P2_CUSPIDAL_X0, 4), make_witness(WitnessKind.P2_FLEX, 4)
    calls = _count_shared_work(monkeypatch)
    wall, *_, edge = _sweep(curve)
    stability_verdict(curve, wall, budget=20)
    stability_verdict(other, _sweep(other)[2], budget=20)
    stability_verdict(curve, edge, budget=20)
    assert sum(c is curve for c in calls["local_geometry"]) == 2
    assert sum(c is curve for c in calls["move_curve"]) == 2
    assert [analysis.curve for analysis in criterion._kept] == [curve]


def _verdict_bytes(curve, t):
    """The verdict fields `verdict` prints, as JSON."""
    v = stability_verdict(curve, t, budget=20)
    return json.dumps([v.status, _certificate_json(v.certificate), v.citations, v.notes])


def test_a_point_given_as_a_list_is_answered(monkeypatch):
    # the kept analysis is found by comparing curves, not by hashing them,
    # so a sweep of a curve whose point is a list shares it too
    curve = make_witness(WitnessKind.P2_FLEX, 4)
    listed = replace(curve, point=[0, 0, 1])
    printed = [_verdict_bytes(curve, t) for t in _sweep(curve)]
    calls = _count_shared_work(monkeypatch)
    assert [_verdict_bytes(listed, t) for t in _sweep(curve)] == printed
    assert sum(c is listed for c in calls["local_geometry"]) == 1
    assert stability_verdict(listed, Fraction(7, 4)).status == "StrictlySemistable"


@pytest.mark.parametrize("kind", [k for k in WitnessKind if k is not WitnessKind.P2_HYPERFLEX])
def test_fraction_and_int_point_entries_print_the_same_bytes(kind):
    # the two curves are equal, so the second verdict reads the analysis of
    # the first, whichever comes first
    curve = make_witness(kind, 3)
    ints = replace(curve, point=tuple(int(x) if x.denominator == 1 else x for x in curve.point))
    assert any(type(x) is int for x in ints.point)
    for t in _sweep(curve):
        printed = set()
        for first, second in ((curve, ints), (ints, curve)):
            criterion._kept.clear()
            printed.update((_verdict_bytes(first, t), _verdict_bytes(second, t)))
        assert len(printed) == 1


class _SlowList(list):
    """A list that lets other threads run right after each assignment."""

    def __setitem__(self, index, value):
        super().__setitem__(index, value)
        time.sleep(0.0001)


def test_threads_asking_different_curves_read_their_own_analysis(monkeypatch):
    # every thread shares the one kept analysis; a thread whose analysis is
    # replaced there by another thread's, even right after it kept it,
    # must still answer for its own curve
    monkeypatch.setattr(criterion, "_kept", _SlowList())
    cases = [(make_witness(kind, 4), slope) for kind, slope in (
        (WitnessKind.P2_CUSPIDAL_X0, Fraction(15, 8)), (WitnessKind.P2_FLEX, Fraction(7, 4)),
        (WitnessKind.P2_NONFLEX, Fraction(2)), (WitnessKind.QUADRIC_RULING_TANGENT, Fraction(3)))]
    printed = [_verdict_bytes(curve, t) for curve, t in cases]
    wrong = []

    def ask(i):
        for _ in range(20):
            if _verdict_bytes(*cases[i]) != printed[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_random_frame_hit_is_rechecked_on_the_exact_move(monkeypatch):
    # a support-only move that claims a destabilizer is re-checked on the
    # exact move, which scales the integer move the torus solved: a
    # subgroup that does not destabilize it is an error, and the hit is
    # not moved a second time
    curve = curve_from_json(RANDOM_FRAME_HITS[0][0])
    lam = OneParamSubgroup(Surface.P2, (1, 0, -1))
    calls, moves, exact_moves = [], [], []

    def verdict(moved, t):
        calls.append(moved)
        return (1, lam) if len(calls) == 3 else (-1, None)

    def full(curve, *key):
        moves.append(move_curve(curve, *key))
        return moves[-1]

    def exact_move(curve, moved, scale, *key):
        exact_moves.append((moved, scale))
        return curves.exact_move(curve, moved, scale, *key)

    monkeypatch.setattr(criterion, "torus_verdict", verdict)
    monkeypatch.setattr(criterion, "move_curve", full)
    monkeypatch.setattr(criterion, "exact_move", exact_move)
    with pytest.raises(InternalError):
        destabilizer_search(curve, 3, budget=3)
    assert len(calls) == 3 and calls[1] is curve
    # the normalizing frame and the hit are moved once each
    assert [moved for moved, _ in moves] == [calls[0], calls[2]]
    assert exact_moves == [moves[-1]]


def _witnesses():
    for kind in WitnessKind:
        for d in (3, 4, 5):
            if not (kind is WitnessKind.P2_HYPERFLEX and d < 4):
                yield make_witness(kind, d)


def _corner_exponents(surface, d):
    if surface is Surface.P2:
        return {tuple(d * (i == j) for i in range(3)) for j in range(3)}
    return {(d * (1 - a), d * a, d * (1 - b), d * b) for a in (0, 1) for b in (0, 1)}


def test_frame_with_every_corner_present_cannot_destabilize_below_d():
    # with every corner of the moved equation present, the corner of the
    # largest coordinate weight w outweighs the point d times over, so
    # mu <= (t - d) * w < 0 for 0 < t < d; above d such a frame can hit
    from test_torus_corpus import cases

    rng = random.Random(61)
    pool = [_random_curve(s, d, rng, nterms=rng.randint(2, 7))
            for s in Surface for d in (3, 4, 5) for _ in range(6)]
    corpus = {id(c): c for _, c, _ in cases(rng.randrange(10 ** 6))}
    complete = set()
    vanished = 0
    hits_above = set()
    for curve in pool + list(corpus.values()) + list(_witnesses()):
        d = curve.degree
        wall, edge = analyzed_slopes(curve.surface, d)
        below = (Fraction(1, 2), wall, (wall + edge) / 2, d - Fraction(1, 1000),
                 Fraction(rng.randint(1, 4 * d - 1), 4))
        for swap in (False, True):
            key = criterion._random_frame(curve.surface, rng)
            if curve.surface is Surface.QUADRIC:
                key = (key[0], key[1], swap)
            elif swap:
                continue
            full = move_curve(curve, *key)[0]
            missing = _corner_exponents(curve.surface, d) - set(full.equation.terms)
            assert corners_vanish(curve, *key) == bool(missing), (curve, key)
            if missing:
                vanished += 1
                continue
            complete.add((curve.surface, key[2]))
            for t in below:
                assert torus_verdict(full, t)[0] < 0, (curve, key, t)
            for t in (d + Fraction(1, 2), 3 * d):
                if torus_verdict(full, t)[0] > 0:
                    hits_above.add(curve.surface)
    assert vanished
    assert complete == {(Surface.P2, False), (Surface.QUADRIC, False), (Surface.QUADRIC, True)}
    # negative control: the bound needs t < d
    assert hits_above == set(Surface)


def _search_cases():
    rng = random.Random(67)
    for doc, _, _, _ in RANDOM_FRAME_HITS:
        yield curve_from_json(doc), Fraction(1, 2)
    for (kind, d, move), t, _, _, _ in ADAPTED_FRAME_HITS:
        base = make_witness(kind, d)
        yield apply_frame(base, FrameChange(base.surface, *move)), t
    for surface, d in ((Surface.P2, 4), (Surface.QUADRIC, 3)):
        wall, _ = analyzed_slopes(surface, d)
        yield make_witness(WitnessKind.P2_NONFLEX if surface is Surface.P2
                           else WitnessKind.QUADRIC_RULING_TANGENT, d), wall - Fraction(1, 4)
        yield _random_curve(surface, d, rng, nterms=5), Fraction(1, 2)


def test_search_matches_the_search_that_moves_every_frame():
    outcomes = set()
    for curve, t in _search_cases():
        for seed in (0, 1):
            for budget in (2, 4, 30):
                found = destabilizer_search(curve, t, budget=budget, seed=seed)
                assert found == full_move_search(curve, t, budget=budget, seed=seed)
                outcomes.add(found is None)
    for doc, budget, frame_doc, _ in RANDOM_FRAME_HITS:
        curve = curve_from_json(doc)
        found = destabilizer_search(curve, Fraction(1, 2), budget=budget)
        assert frame_to_json(found[0]) == frame_doc
        assert found == full_move_search(curve, Fraction(1, 2), budget=budget)
    assert outcomes == {True, False}


def test_frame_with_a_vanishing_corner_takes_the_full_move(monkeypatch):
    # the identity keeps (0 : 0 : 1) on the curve, so its corner x2^d has
    # the coefficient C(0, 0, 1) = 0
    nonflex = make_witness(WitnessKind.P2_NONFLEX, 4)
    assert corners_vanish(nonflex, *curves.IDENTITY_MATRICES[Surface.P2])
    # below t = d, exactly the frames whose corners vanish are moved in
    # full, and the torus is solved only on them, the normalizing frame and
    # the identity; the quadric hit of RANDOM_FRAME_HITS is one of them
    doc, budget, _, _ = RANDOM_FRAME_HITS[2]
    curve = curve_from_json(doc)
    tested, moves, solved = [], [], []

    def vanish(curve, *key):
        tested.append((key, corners_vanish(curve, *key)))
        return tested[-1][1]

    def full(curve, *key):
        moves.append((key, move_curve(curve, *key)))
        return moves[-1][1]

    def verdict(moved, t):
        solved.append(moved)
        return torus_verdict(moved, t)

    monkeypatch.setattr(criterion, "corners_vanish", vanish)
    monkeypatch.setattr(criterion, "move_curve", full)
    monkeypatch.setattr(criterion, "torus_verdict", verdict)
    frame, _, _ = destabilizer_search(curve, Fraction(1, 2), budget=budget)
    # the normalizing key's move comes first, with no corner test
    normalizing = curves.normalizing_matrices(curve)
    assert normalizing != curves.IDENTITY_MATRICES[curve.surface]
    assert moves[0][0] == normalizing
    assert [key for key, _ in moves[1:]] == [key for key, vanished in tested if vanished]
    assert moves[-1][0] == (frame.mx, frame.my, frame.swap)
    assert len(moves) - 1 < len(tested)
    assert solved[1] is curve
    assert [solved[0]] + solved[2:] == [moved for _, (moved, _) in moves]


def test_interval_claim_flex_family():
    d = 5
    lam = OneParamSubgroup(Surface.P2, (-5, 1, 4))
    excluded = {(0, 0, d), (0, 1, d - 1), (0, 2, d - 2)}
    exps = [e for e in all_exponents(Surface.P2, d) if e not in excluded]
    wall, edge = Fraction(4 * d - 9, 4), Fraction(d - 2)
    check = interval_mu_claim(
        Surface.P2, lam, [2], exps, ("open", wall, edge), strictness=">0"
    )
    assert check.passed
    eq = {(lb, e) for lb, e, _ in check.equalities}
    assert eq == {(2, (1, 0, d - 1)), (2, (0, 3, d - 3))}

    # negative control: at the wall itself the same claim fails with the
    # two equality monomials as counterexamples
    pointwise = interval_mu_claim(
        Surface.P2, lam, [2], exps, ("point", wall), strictness=">0"
    )
    assert not pointwise.passed
    bad = {e for _, e, _, _ in pointwise.counterexamples}
    assert bad == {(1, 0, d - 1), (0, 3, d - 3)}
    for _, _, _, v in pointwise.counterexamples:
        assert v == 0


def test_interval_claim_rejects_bad_specs():
    lam = OneParamSubgroup(Surface.P2, (-1, 0, 1))
    with pytest.raises(ValueError):
        interval_mu_claim(Surface.P2, lam, [2], [(1, 0, 2)], ("open", 2, 1))
    with pytest.raises(ValueError):
        interval_mu_claim(Surface.P2, lam, [2], [(1, 0, 2)], ("point", 1), "!=0")


def test_verdict_matrix_plane():
    wall, edge = Fraction(7, 4), Fraction(2)
    interior = Fraction(15, 8)
    expect = {
        (WitnessKind.P2_S, wall): "Unstable",
        (WitnessKind.P2_S, interior): "Unstable",
        (WitnessKind.P2_S, edge): "StrictlySemistable",
        (WitnessKind.P2_CUSPIDAL_X0, wall): "StrictlySemistable",
        (WitnessKind.P2_CUSPIDAL_X0, interior): "Unstable",
        (WitnessKind.P2_HYPERFLEX, wall): "Unstable",
        (WitnessKind.P2_FLEX, wall): "StrictlySemistable",
        (WitnessKind.P2_FLEX, interior): "Unstable",
        (WitnessKind.P2_FLEX, edge): "Unstable",
        (WitnessKind.P2_NONFLEX, wall): "Stable",
        (WitnessKind.P2_NONFLEX, interior): "Stable",
        (WitnessKind.P2_NONFLEX, edge): "StrictlySemistable",
    }
    for (kind, t), want in expect.items():
        v = stability_verdict(make_witness(kind, 4), t)
        assert v.status == want, f"{kind.value} at {t}: {v.status}"
        if want == "Unstable":
            assert v.certificate is not None and v.certificate["mu"] > 0
        if want == "StrictlySemistable":
            assert v.certificate is not None and v.certificate["mu"] == 0


def test_verdict_matrix_quadric():
    wall, edge = Fraction(5, 3), Fraction(2)
    interior = Fraction(11, 6)
    expect = {
        (WitnessKind.QUADRIC_S, wall): "Unstable",
        (WitnessKind.QUADRIC_S, interior): "Unstable",
        (WitnessKind.QUADRIC_S, edge): "StrictlySemistable",
        (WitnessKind.QUADRIC_X0, wall): "StrictlySemistable",
        (WitnessKind.QUADRIC_X0, interior): "Unstable",
        (WitnessKind.QUADRIC_RULING_TANGENT, interior): "Unstable",
    }
    for (kind, t), want in expect.items():
        v = stability_verdict(make_witness(kind, 3), t)
        assert v.status == want, f"{kind.value} at {t}: {v.status}"


def test_verdict_across_the_wall():
    c = make_witness(WitnessKind.QUADRIC_X0, 3)
    eps = Fraction(1, 100)
    below = stability_verdict(c, Fraction(5, 3) - eps)
    above = stability_verdict(c, Fraction(5, 3) + eps)
    assert below.status == "Unstable" and above.status == "Unstable"
    # opposite directions destabilize on the two sides
    wb = below.certificate["lambda"].weights
    wa = above.certificate["lambda"].weights
    assert wb == tuple(-w for w in wa)


def _workload_curve(rng, surface, d):
    """A random curve as the benchmark draws them: 3 to 8 terms with
    coefficients in +-1..3 through the coordinate point, half of them with
    a tangent monomial there."""
    base = (0, 0, d) if surface is Surface.P2 else (0, d, 0, d)
    point = (0, 0, 1) if surface is Surface.P2 else (0, 1, 0, 1)
    tangents = [(1, 0, d - 1), (0, 1, d - 1)] if surface is Surface.P2 else [(1, d - 1, 0, d), (0, d, 1, d - 1)]
    exps = [e for e in all_exponents(surface, d) if e != base]
    terms = {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in rng.sample(exps, rng.randint(3, 8))}
    if rng.random() < 0.5:
        terms[rng.choice(tangents)] = rng.choice((1, 2, 3))
    return PointedCurve(surface, d, tuple(map(Fraction, point)), Polynomial(surface.nvars, terms))


def test_verdict_has_one_status_per_chamber():
    # the verdict is constant on the open chamber (wall, edge): on random
    # curves, half of them moved off their coordinate point, six slopes
    # inside it give one status
    rng = random.Random(31)
    for i in range(60):
        surface = (Surface.P2, Surface.QUADRIC)[i % 2]
        d = rng.choice((3, 4, 5) if surface is Surface.P2 else (3, 4))
        curve = _workload_curve(rng, surface, d)
        if i % 4 >= 2:
            curve = apply_frame(curve, FrameChange(surface, *criterion._random_frame(surface, rng)))
        wall, edge = analyzed_slopes(surface, d)
        statuses = {stability_verdict(curve, wall + (edge - wall) * Fraction(k, 7), budget=40).status
                    for k in range(1, 7)}
        assert len(statuses) == 1, (curve, statuses)


def test_zero_certificates_find_the_wall_and_the_edge_again():
    # the wall and the edge come from divisor classes; a zero certificate
    # found there has mu = 0 on the curve its frame moves at that slope
    # and nowhere within 1/20 of it, so the search finds the same slope
    found = {"wall": 0, "edge": 0}
    for kind in WitnessKind:
        for d in range(3, 9):
            if kind is WitnessKind.P2_HYPERFLEX and d < 4:
                continue
            curve = make_witness(kind, d)
            wall, edge = analyzed_slopes(curve.surface, d)
            for where, t in (("wall", wall), ("edge", edge)):
                cert = stability_verdict(curve, t).certificate
                if cert is None or cert["mu"] != 0:
                    continue
                target = curve if cert["frame"] is None else apply_frame(curve, cert["frame"])
                mus = [mu_min(target, cert["lambda"], t + k * Fraction(1, 20))[0] for k in (-1, 0, 1)]
                assert mus[1] == 0 and 0 not in (mus[0], mus[2]), (kind, d, where, mus)
                found[where] += 1
    assert found == {"wall": 24, "edge": 18}


def test_verdict_outside_range_and_bad_slope():
    c = make_witness(WitnessKind.P2_NONFLEX, 4)
    v = stability_verdict(c, Fraction(1, 2), budget=5)
    assert any("analyzed range" in n for n in v.notes)
    v0 = stability_verdict(c, 0)
    assert v0.status == "Unknown"


def test_verdict_citations_present():
    v = stability_verdict(make_witness(WitnessKind.P2_NONFLEX, 4), Fraction(15, 8))
    assert v.citations == ["4.3-flex", "4.3-singular", "4.3-S"]
    v = stability_verdict(make_witness(WitnessKind.QUADRIC_X0, 3), Fraction(5, 3))
    assert v.citations == ["5.4-H01wall", "5.4-perturbed"]


def test_stabilizer_dimensions():
    cusp = make_witness(WitnessKind.P2_CUSPIDAL_X0, 4)
    dim, gen = stabilizer_dimension(cusp)
    assert dim == 1
    assert gen.weights == (4, 1, -5)

    qx0 = make_witness(WitnessKind.QUADRIC_X0, 3)
    dim, gen = stabilizer_dimension(qx0)
    assert dim == 1
    assert gen.literal_weights() == (-1, 1, -2, 2)

    generic = _p2(
        4,
        {(0, 1, 3): 1, (2, 0, 2): 1, (4, 0, 0): 1, (0, 4, 0): 1},
        (0, 0, 1),
    )
    assert stabilizer_dimension(generic) == (0, None)

    offcenter = _p2(3, {(1, 0, 2): 1, (0, 2, 1): -1}, (1, 1, 1))
    with pytest.raises(ValueError):
        stabilizer_dimension(offcenter)


def _old_stabilizer(curve):
    """The stabilizer as the package computed it before its two-column
    rule: rank and kernel read off the Gauss-Jordan reduced weight rows,
    the kernel made a primitive integer vector with first entry > 0."""
    if curve.surface is Surface.P2:
        basis = ((1, 0, -1), (0, 1, -1))

        def weight_row(delta):
            return tuple(sum(a * b for a, b in zip(delta, v)) for v in basis)
    else:
        def weight_row(delta):
            return (delta[1] - delta[0], delta[3] - delta[2])

    exps = sorted(curve.equation.terms)
    rows = [weight_row([a - b for a, b in zip(e, exps[0])]) for e in exps[1:]]
    reduced, pivots, _ = gauss_jordan(rows)
    if len(pivots) != 1:
        return 2 - len(pivots), None
    k = (-reduced[0][1], Fraction(1)) if pivots == [0] else (Fraction(1), Fraction(0))
    if curve.surface is Surface.P2:
        k = tuple(k[0] * a + k[1] * b for a, b in zip(*basis))
    scale = math.lcm(*(x.denominator for x in k))
    ints = [int(x * scale) for x in k]
    g = math.gcd(*ints)
    sign = 1 if next(x for x in ints if x) > 0 else -1
    return 1, tuple(sign * x // g for x in ints)


def test_stabilizer_dimension_matches_gauss_jordan_kernel():
    rng = random.Random(29)
    seen = {0: 0, 1: 0, 2: 0}
    for surface in Surface:
        for _ in range(600):
            d = rng.randint(3, 6)
            if surface is Surface.P2:
                point = [0, 0, 0]
                point[rng.randrange(3)] = rng.choice((1, 2, -3))
            else:
                point = [0, 0, 0, 0]
                point[rng.randrange(2)] = rng.choice((1, -2))
                point[2 + rng.randrange(2)] = rng.choice((1, 3))
            # monomials vanishing at the coordinate point
            exps = [
                e for e in all_exponents(surface, d)
                if any(x and not c for x, c in zip(e, point))
            ]
            support = rng.sample(exps, rng.choice((1, 2, 2, 3, 4, 6)))
            curve = PointedCurve(
                surface, d, tuple(Fraction(c) for c in point),
                Polynomial(surface.nvars, {e: rng.choice((-2, 1, 3)) for e in support}),
            )
            dim, gen = stabilizer_dimension(curve)
            expected = _old_stabilizer(curve)
            assert (dim, gen and gen.weights) == expected
            seen[dim] += 1
    assert min(seen.values()) > 50, seen


def test_mu_term_matches_mu_min_on_support():
    c = make_witness(WitnessKind.QUADRIC_S, 3)
    lam = OneParamSubgroup(Surface.QUADRIC, (1, 1))
    t = Fraction(11, 6)
    value, (label, exp) = mu_min(c, lam, t)
    assert value == mu_term(Surface.QUADRIC, lam, t, label, exp)
    labels = [(l, m) for l in range(2) for m in range(2) if c.point[l] != 0 and c.point[2 + m] != 0]
    assert value == min(
        mu_term(Surface.QUADRIC, lam, t, lb, e)
        for lb in labels
        for e in [max(c.equation.terms, key=lambda e: sum(w * x for w, x in zip(lam.literal_weights(), e)))]
    )


# The first 20 random frames from each seed, one token per frame: the
# entries of each matrix row by row, each plus 3, then the swap bit on the
# quadric. Recorded when each surface drew its frames in its own loop.
RANDOM_FRAME_DRAWS = {
    (Surface.P2, 0): (
        "636302433 662324141 216046245 641205065 234023245 143364206 400563566 "
        "550436621 525601411 616430024 302425042 641644423 046324121 161045230 "
        "056110605 645365424 616154634 233555620 240345261 105205126"
    ),
    (Surface.P2, 1): (
        "146660203 633536103 063346605 325614020 005403513 504163341 215163203 "
        "645015562 052554346 512243643 512456552 035406146 323503025 644435114 "
        "106146413 426423254 450366654 614641303 624414336 232044464"
    ),
    (Surface.P2, 2): (
        "660002615 656224140 451353656 232334141 110121144 245413635 462642263 "
        "163553541 323446625 332454533 512656142 632265644 445443251 342540662 "
        "506150045 024150641 621610356 002211500 000050221 615145034"
    ),
    (Surface.QUADRIC, 0): (
        "366232411 456412050 652340230 206400560 566550431 621525600 411616430 "
        "024302421 042641641 423046321 121161041 106056450 654246160 555620240 "
        "345261101 205126120 064544500 051464030 260040111 031560501"
    ),
    (Surface.QUADRIC, 1): (
        "146660200 633536100 532561401 200054031 135041631 341215160 203645011 "
        "562052551 346512241 364346030 565520351 503025641 435114101 146413421 "
        "642325441 503666541 623204441 144160641 662065001 030662120"
    ),
    (Surface.QUADRIC, 2): (
        "656424340 211442451 642263160 553541321 344662531 512656140 632265641 "
        "445443250 342540660 506150041 024150640 621610351 216151450 245550220 "
        "023464501 263645131 105526000 421622241 350541500 011103511"
    ),
}


def _decode_frame(surface, token):
    entries = [int(c) - 3 for c in token]
    if surface is Surface.P2:
        return tuple(tuple(entries[3 * i : 3 * i + 3]) for i in range(3)), None, False
    mx = (tuple(entries[0:2]), tuple(entries[2:4]))
    my = (tuple(entries[4:6]), tuple(entries[6:8]))
    return mx, my, token[8] == "1"


def test_random_frames_keep_their_recorded_draws():
    for (surface, seed), tokens in RANDOM_FRAME_DRAWS.items():
        rng = random.Random(seed)
        for token in tokens.split():
            assert criterion._random_frame(surface, rng) == _decode_frame(surface, token)


def test_point_labels_match_the_explicit_labels_at_every_zero_pattern():
    for surface in Surface:
        for point in _zero_patterns(surface):
            curve = PointedCurve(surface, 3, point, Polynomial(surface.nvars, {}))
            assert criterion._point_labels(curve) == explicit_point_labels(surface, point)
