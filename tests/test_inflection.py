import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

from wallcross import inflection, polynomials
from wallcross.criterion import stability_verdict
from wallcross.curves import (
    FrameChange,
    LocalGeometry,
    PointedCurve,
    Restriction,
    Surface,
    WitnessKind,
    adjugate,
    all_exponents,
    apply_frame,
    curve_from_json,
    curve_to_json,
    local_geometry,
    make_witness,
    mat_vec,
    move_curve,
    restrict,
)
from wallcross.cli import main
from wallcross.errors import InternalError
from wallcross.hessians import analyzed_slopes
from wallcross.inflection import (
    SpecialLocus,
    _allowed_configuration,
    _power_point,
    _proj_equal,
    inflection_report,
    local_branch,
    special_locus_membership,
    vanishing_sequence,
)
from wallcross.polynomials import (
    Polynomial,
    constant,
    linear_form,
    monomial,
    primitive_normalized,
    squarefree_decompose,
    variable,
)
from wallcross.rationals import format_rational
from wallcross.series import series_substitute

from oracles import (
    REPORT_FIELDS,
    SearchAborted,
    classical_hessian,
    eager_report,
    elimination_cusp_line,
    fraction_mu_min,
    homogeneous_branch,
    intersection_multiplicity,
    p2_components,
    quadric_components,
    quadric_special,
    rational_lines,
    reference_cusp_line,
    squarefree_on_chart,
    substitute,
    ungated_special_locus,
)
from test_acceptance import _random_pointed_curve
from test_cli import BRANCH_CURVES, GOLDEN, SINGULAR_CURVES
from test_curves import _random_curve_through_point


def _p2(d, terms, point):
    return PointedCurve(
        Surface.P2, d, tuple(Fraction(c) for c in point), Polynomial(3, terms)
    )


def _rand_frame(surface, rng):
    while True:
        if surface is Surface.P2:
            m = tuple(tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3))
            try:
                return FrameChange(surface, m)
            except ValueError:
                continue
        mx = tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(2))
        my = tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(2))
        try:
            return FrameChange(surface, mx, my, swap=bool(rng.getrandbits(1)))
        except ValueError:
            continue


def test_local_branch_flex_cubic():
    # x1^3 + x0*x2^2 at (0,0,1): solving gives x0 = -s^3 along x1 = s
    c = make_witness(WitnessKind.P2_FLEX, 3)
    # in the chart (u, v) = (x0, x1) it is solved along u, as u = W(s)
    branch, solved, powers = local_branch(c, 6)
    assert branch == ((0, 0, 0, -1, 0, 0), (0, 1, 0, 0, 0, 0)) and solved == 0
    assert powers[1] == [0, 0, 0, -1, 0, 0]
    b = homogeneous_branch(c, 6)
    assert b[1] == (0, 1, 0, 0, 0, 0)
    assert b[2] == (1, 0, 0, 0, 0, 0)
    assert b[0] == (0, 0, 0, -1, 0, 0)
    # the branch satisfies the equation through the window
    assert series_substitute(c.equation, b) == (0,) * 6


def test_local_branch_needs_smooth_point():
    nodal = _p2(3, {(2, 0, 1): 1, (0, 2, 1): -1, (0, 3, 0): 1}, (0, 0, 1))
    with pytest.raises(ValueError):
        local_branch(nodal, 5)
    flex = make_witness(WitnessKind.P2_FLEX, 3)
    with pytest.raises(ValueError, match="^truncation must be at least 2$"):
        local_branch(flex, 1)


def test_vanishing_sequences_flex_and_hyperflex():
    flex = make_witness(WitnessKind.P2_FLEX, 3)
    s1 = vanishing_sequence(flex, 1)
    assert s1.orders == (0, 1, 3) and s1.deficiency == 0
    s2 = vanishing_sequence(flex, 2)
    assert s2.orders == (0, 1, 2, 3, 4, 6) and s2.deficiency == 0

    hyper = make_witness(WitnessKind.P2_HYPERFLEX, 4)
    assert vanishing_sequence(hyper, 1).orders == (0, 1, 4)
    assert vanishing_sequence(hyper, 2).orders == (0, 1, 2, 4, 5, 8)


def test_vanishing_sequence_deficiency_on_contained_section():
    # conic plus its tangent line: the conic is a degree-2 section through
    # the branch, so one direction vanishes past any window
    s = make_witness(WitnessKind.P2_S, 3)
    seq = vanishing_sequence(s, 2)
    assert seq.deficiency == 1
    assert len(seq.orders) == 5
    assert seq.labels()[-1].startswith(">=")


def _seq1_corpus():
    """Plane curves smooth at their marked point, on which the report's
    seq1 (the tangent's contact) is checked against the branch solve: every
    plane witness for d = 3..6, random curves at coordinate, integral and
    fractional points, and curves with the tangent line as a component."""
    curves = [
        make_witness(kind, d)
        for kind in WitnessKind
        if kind.value.startswith("p2")
        for d in range(3, 7)
        if kind is not WitnessKind.P2_HYPERFLEX or d > 3
    ]
    rng = random.Random(2121)
    for i in range(360):
        d = rng.choice((3, 4, 5))
        if i % 3 == 0:
            p = [Fraction(0)] * 3
            p[rng.randrange(3)] = Fraction(rng.choice((1, 2, -3)))
        elif i % 3 == 1:
            p = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        else:
            p = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3)]
        if not any(p):
            continue
        lx = next(j for j in range(3) if p[j] != 0)

        def anchor(k):
            # x_lx^k does not vanish at p, so subtracting a multiple of it
            # puts p on a form
            return monomial(3, tuple(k if j == lx else 0 for j in range(3)))

        def through_p(k):
            exps = all_exponents(Surface.P2, k)
            g = Polynomial(3, {e: rng.choice((-2, -1, 1, 3))
                               for e in rng.sample(exps, rng.randint(2, 6))})
            return g - g.evaluate(p) / anchor(k).evaluate(p) * anchor(k)

        if i % 4 == 3:
            # a line through p times a form that does not vanish there
            a, b = (j for j in range(3) if j != lx)
            ca, cb = rng.randint(-2, 2), rng.randint(-2, 2)
            line = (ca * variable(3, a) + cb * variable(3, b)
                    - (ca * p[a] + cb * p[b]) / p[lx] * variable(3, lx))
            g = through_p(d - 1) + anchor(d - 1)
            equation = line * g
        else:
            equation = through_p(d)
        if equation.is_zero():
            continue
        curve = PointedCurve(Surface.P2, d, tuple(p), equation)
        if inflection_report(curve).smooth_at_p:
            curves.append(curve)
    return curves


def test_seq1_is_the_tangent_contact():
    # the lines' sequence read off the chart is the one the branch gives,
    # including a tangent line that is a component (deficiency 1)
    curves = _seq1_corpus()
    contained = flexes = 0
    for curve in curves:
        want = vanishing_sequence(curve, 1)
        assert inflection_report(curve).seq1 == want, curve
        contained += want.deficiency
        flexes += not want.deficiency and want.orders[-1] >= 3
    assert len(curves) >= 250 and contained >= 80 and flexes >= 25


def test_intersection_multiplicity():
    flex = make_witness(WitnessKind.P2_FLEX, 3)
    line = monomial(3, (1, 0, 0))  # the tangent at the marked point
    assert intersection_multiplicity(flex, line) == (3, True)
    other = monomial(3, (0, 1, 0))
    assert intersection_multiplicity(flex, other) == (1, True)
    s = make_witness(WitnessKind.P2_S, 3)
    conic = Polynomial(3, {(1, 0, 1): 1, (0, 2, 0): -1})
    value, exact = intersection_multiplicity(s, conic)
    assert not exact  # the branch lies on the conic
    assert value >= 6


def test_rational_lines():
    x0, x1, x2 = (variable(3, i) for i in range(3))
    f = x2 * (x0 + x1) * (x0 - 2 * x2) * Fraction(5, 3)
    lines = rational_lines(f)
    assert sorted(lines) == sorted(
        [(0, 0, 1), (1, 1, 0), (1, 0, -2)]
    )
    assert rational_lines((x0 * x0 + x1 * x1) * x2) == [(0, 0, 1)]
    # each line is scaled so its first nonzero coefficient is 1, so a
    # coefficient after it may be a Fraction or negative
    f = (3 * x1 + 2 * x2) * (x0 - 3 * x1 + 5 * x2) * (x0 * x2 - x1 * x1)
    assert sorted(rational_lines(f)) == [
        (0, 1, Fraction(2, 3)), (1, -3, 5),
    ]


def test_report_flags_on_witnesses():
    expect = {
        WitnessKind.P2_S: dict(in_s=True, in_x0=False, flex=False, in_h1=False),
        WitnessKind.P2_CUSPIDAL_X0: dict(
            in_s=False, in_x0=True, flex=True, hyperflex=False, in_h1=True
        ),
        WitnessKind.P2_HYPERFLEX: dict(
            in_s=False, in_x0=False, flex=True, hyperflex=True, in_h2prime=True
        ),
        WitnessKind.P2_FLEX: dict(
            flex=True, hyperflex=False, in_h1=True, in_h2prime=False
        ),
        WitnessKind.P2_NONFLEX: dict(
            flex=False, in_h1=False, in_h2prime=False, in_s=False, in_x0=False
        ),
        WitnessKind.QUADRIC_S: dict(in_s=True, in_x0=False, in_h1=False),
        WitnessKind.QUADRIC_X0: dict(in_s=False, in_x0=True, in_h1=True),
        WitnessKind.QUADRIC_RULING_TANGENT: dict(in_h1=True, in_s=False),
    }
    for kind, flags in expect.items():
        d = 4 if kind is WitnessKind.P2_HYPERFLEX else 3
        rep = inflection_report(make_witness(kind, d))
        assert rep.smooth_at_p
        assert not rep.undecided
        for name, want in flags.items():
            assert getattr(rep, name) == want, f"{kind.value}: {name}"


def test_report_weights():
    assert inflection_report(make_witness(WitnessKind.P2_FLEX, 3)).weight == 1
    assert inflection_report(make_witness(WitnessKind.P2_HYPERFLEX, 4)).weight == 2
    rep = inflection_report(make_witness(WitnessKind.P2_NONFLEX, 3))
    assert rep.weight == 0 and not rep.weight_is_lower_bound


def test_report_singular_point():
    nodal = _p2(3, {(2, 0, 1): 1, (0, 2, 1): -1, (0, 3, 0): 1}, (0, 0, 1))
    rep = inflection_report(nodal)
    assert not rep.smooth_at_p
    assert rep.multiplicity == 2
    assert rep.in_h1 and rep.in_h2prime


def test_special_locus_details():
    s = special_locus_membership(make_witness(WitnessKind.P2_S, 3))
    assert s.in_s
    assert "line" in s.details and "conic" in s.details and "tangency" in s.details
    q = special_locus_membership(make_witness(WitnessKind.QUADRIC_S, 3))
    assert q.in_s
    assert "gamma" in q.details and "crossing" in q.details
    # the crossing of the multiple rulings is a different point from p
    assert tuple(q.details["crossing"]) != (0, 1, 0, 1)


def test_membership_frame_invariance():
    rng = random.Random(37)
    kinds = [
        WitnessKind.P2_S,
        WitnessKind.P2_CUSPIDAL_X0,
        WitnessKind.QUADRIC_S,
        WitnessKind.QUADRIC_X0,
    ]
    for kind in kinds:
        base = make_witness(kind, 3)
        want = inflection_report(base)
        for _ in range(4):
            moved = apply_frame(base, _rand_frame(base.surface, rng))
            rep = inflection_report(moved)
            assert rep.in_s == want.in_s, kind.value
            assert rep.in_x0 == want.in_x0, kind.value
            assert rep.flex == want.flex
            assert rep.weight == want.weight


def test_undecided_huge_coefficients():
    # (x0 + K*x2)(x0*x2 - x1^2), K = 10^13, at (1 : 1 : 1): the line meets
    # the conic in two irrational points, so the curve is in neither. The
    # reference component search gives up on its huge coefficients, while
    # the restriction to the tangent decides it
    K = 10 ** 13
    hidden = _p2(
        3,
        {(2, 0, 1): 1, (1, 2, 0): -1, (1, 0, 2): K, (0, 2, 1): -K},
        (1, 1, 1),
    )
    assert special_locus_membership(hidden) == SpecialLocus(False, False)
    rep = inflection_report(hidden)
    assert rep.configuration == "S"
    assert not (rep.undecided or rep.in_s or rep.in_x0)
    assert ungated_special_locus(hidden).undecided


def test_classical_hessian_vanishes_at_flexes():
    flex = make_witness(WitnessKind.P2_FLEX, 3)
    h = classical_hessian(flex.equation)
    assert h.total_degree() == 3 * (flex.degree - 2)
    assert h.evaluate(flex.point) == 0
    non = make_witness(WitnessKind.P2_NONFLEX, 3)
    assert classical_hessian(non.equation).evaluate(non.point) != 0


def _random_form(rng, surface, degree):
    """A random plane form of the given degree, or a quadric form of the
    given bidegree, with small coefficients; may be zero."""
    n = surface.nvars
    if surface is Surface.P2:
        exps = [(i, j, degree - i - j) for i in range(degree + 1) for j in range(degree - i + 1)]
    else:
        a, b = degree
        exps = [(i, a - i, j, b - j) for i in range(a + 1) for j in range(b + 1)]
    return Polynomial(n, {e: rng.randint(-2, 2) for e in rng.sample(exps, min(3, len(exps)))})


def _chart_forms(seed, count):
    """Seeded plane and quadric forms built as products with repeated
    factors, times powers of the coordinates a chart sets to 1 (x2, resp.
    x1 and y1), plus pure coordinate forms such as c * x2^d."""
    rng = random.Random(seed)
    out = [
        (Surface.P2, Polynomial(3, {(0, 0, 4): -3})),
        (Surface.QUADRIC, Polynomial(4, {(0, 3, 0, 3): 2})),
        (Surface.QUADRIC, Polynomial(4, {(0, 2, 0, 0): 5})),
        (Surface.QUADRIC, Polynomial(4, {(0, 1, 1, 1): 1, (0, 1, 0, 2): 1})),
    ]
    while len(out) < count:
        surface = rng.choice((Surface.P2, Surface.QUADRIC))
        n = surface.nvars
        f = constant(n, rng.choice((1, -2, 3)))
        for _ in range(rng.randint(0, 2)):
            if surface is Surface.P2:
                degree = rng.randint(1, 2)
            else:
                degree = rng.choice(((0, 1), (1, 0), (1, 1), (1, 2), (2, 1)))
            g = _random_form(rng, surface, degree)
            if not g.is_zero():
                f = f * g ** rng.randint(1, 3)
        for slot in (2,) if surface is Surface.P2 else (1, 3):
            f = f * variable(n, slot) ** rng.choice((0, 0, 1, 2, 3))
        if f.variables():
            out.append((surface, f))
    return out


def test_chart_squarefree_matches_direct_decomposition():
    for surface, f in _chart_forms(59, 60):
        assert squarefree_on_chart(surface, f) == squarefree_decompose(f), f


def test_chart_squarefree_matches_sympy():
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("v0:4")
    for surface, f in _chart_forms(61, 40):
        n = surface.nvars
        p = sympy.Poly.from_dict({e: int(c) for e, c in f.terms.items()}, gens[:n])
        want = {}
        for q, m in p.sqf_list()[1]:
            if q.total_degree() > 0:
                factor = Polynomial(n, {e: int(c) for e, c in q.as_dict().items()})
                want[m] = want[m] * factor if m in want else factor
        got = squarefree_on_chart(surface, f)
        assert {m: g for g, m in got} == {m: primitive_normalized(g) for m, g in want.items()}


def test_inexact_division_in_special_locus_raises_internal_error(monkeypatch):
    # the tangent at the marked flex divides the polar conic of the cubic
    # that X0 leaves, so `_cusp_line` re-checks that division
    curves = [make_witness(WitnessKind.P2_CUSPIDAL_X0, d) for d in (3, 4)]
    monkeypatch.setattr(polynomials, "exact_divide", lambda f, g: None)
    for curve in curves:
        with pytest.raises(InternalError, match="tangent at the flex.*does not divide"):
            special_locus_membership(curve)


# -- the special locus against the component search ------------------------


def _vanishing_at(form, p):
    """An integer multiple of form minus one of its first monomial, so that
    it vanishes at p; p has no zero coordinate, so every monomial is
    nonzero there."""
    m = monomial(form.nvars, min(form.terms))
    return form * m.evaluate(p) - m * form.evaluate(p)


# Planted factorizations, as (degree, multiplicity) pairs for a curve of
# degree d: the S and X0 shapes with random factors, which are rarely
# special, and other products.
_PLANE_PLANTS = (
    lambda d: [(2, 1), (1, d - 2)],
    lambda d: [(3, 1), (1, d - 3)],
    lambda d: [(1, 1), (1, 1), (1, d - 2)],
    lambda d: [(1, d - 1), (1, 1)],
    lambda d: [(d - 2, 1), (1, 2)],
)
_QUADRIC_PLANTS = (
    lambda d: [((1, 1), 1), ((1, 0), d - 1), ((0, 1), d - 1)],
    lambda d: [((2, 1), 1), ((1, 0), d - 2), ((0, 1), d - 1)],
    lambda d: [((1, 2), 1), ((0, 1), d - 2), ((1, 0), d - 1)],
    lambda d: [((1, 1), 1), ((1, 1), d - 1)],
    lambda d: [((d, d - 1), 1), ((0, 1), 1)],
)


def _planted_product(rng, surface, d, through=1):
    """A seeded product of random integer forms with planted
    multiplicities, whose first `through` factors pass through a random
    integer point with no zero coordinate."""
    n = surface.nvars
    p = tuple(Fraction(rng.choice((-2, -1, 1, 2))) for _ in range(n))
    plants = _PLANE_PLANTS if surface is Surface.P2 else _QUADRIC_PLANTS
    eq = constant(n, 1)
    for i, (degree, mult) in enumerate(rng.choice(plants)(d)):
        g = Polynomial(n, {})
        while g.is_zero():
            g = _random_form(rng, surface, degree)
            if i < through and g:
                g = _vanishing_at(g, p)
        eq = eq * g ** mult
    return PointedCurve(surface, d, p, eq)


def _integer_frame(n, rng, sheared):
    """A permutation matrix with entries +-1, +-2, which keeps a curve as
    sparse as it was; sheared, with two more entries set the same way."""
    m = [[0] * n for _ in range(n)]
    for i, j in enumerate(rng.sample(range(n), n)):
        m[i][j] = rng.choice((-2, -1, 1, 2))
    for _ in range(2 if sheared else 0):
        m[rng.randrange(n)][rng.randrange(n)] = rng.choice((-2, -1, 1, 2))
    return tuple(map(tuple, m))


def _gate_corpus():
    """Every witness kind at d = 3..6, as made and moved by four seeded
    integer frames, two of them sheared (the quadric ones swap the factors
    at random), and seeded planted products."""
    rng = random.Random(1313)
    curves = []
    for kind in WitnessKind:
        for d in (3, 4, 5, 6):
            try:
                base = make_witness(kind, d)
            except ValueError:
                continue
            curves.append(base)
            n = 3 if base.surface is Surface.P2 else 2
            for sheared in (False, False, True, True):
                while True:
                    mx, my = _integer_frame(n, rng, sheared), _integer_frame(n, rng, sheared)
                    try:
                        if base.surface is Surface.P2:
                            frame = FrameChange(base.surface, mx)
                        else:
                            frame = FrameChange(base.surface, mx, my, bool(rng.getrandbits(1)))
                    except ValueError:
                        continue
                    moved, _ = move_curve(base, frame)
                    curves.append(moved)
                    break
    for i in range(150):
        surface = (Surface.P2, Surface.QUADRIC)[i % 3 == 2]
        curves.append(_planted_product(rng, surface, 3))
    return curves


def _settled_products():
    """Seeded planted products with two factors through the marked point,
    which is then singular: the local data allows neither configuration."""
    rng = random.Random(1414)
    curves = []
    for i in range(120):
        surface = (Surface.P2, Surface.QUADRIC)[i % 3 == 2]
        d = 4 if surface is Surface.P2 else 3
        curves.append(_planted_product(rng, surface, d, through=2))
    return curves


def test_special_locus_matches_the_component_search():
    # reading the allowed configuration off the lines through p gives what
    # the full component search gives, with every configuration tested on
    # every curve, wherever that search is decided
    special = settled = 0
    curves = _gate_corpus() + _settled_products()
    for curve in curves:
        got = special_locus_membership(curve)
        want = ungated_special_locus(curve)
        allowed = _allowed_configuration(curve.surface, local_geometry(curve))
        special += want.in_s or want.in_x0
        settled += allowed is None
        if want.undecided:
            continue
        for name in ("in_s", "in_x0", "details"):
            assert getattr(got, name) == getattr(want, name), (name, curve)
    assert len(curves) >= 400 and special >= 100 and settled >= 100


def _special_witnesses_moved():
    """The S and X0 witnesses of both surfaces for d = 3..8, as made and
    moved by two seeded rational frames each; the quadric frames swap the
    factors at random, so both X0 orientations occur."""
    rng = random.Random(1515)
    kinds = (
        WitnessKind.P2_S, WitnessKind.P2_CUSPIDAL_X0, WitnessKind.P2_FLEX,
        WitnessKind.QUADRIC_S, WitnessKind.QUADRIC_X0,
        WitnessKind.QUADRIC_RULING_TANGENT,
    )
    curves = []
    for kind in kinds:
        for d in range(3, 9):
            base = make_witness(kind, d)
            curves.append(base)
            curves.extend(
                apply_frame(base, _rational_frame(rng, base.surface)) for _ in range(2)
            )
    return curves


def test_special_curves_have_the_local_data_of_their_configuration():
    # the lemma behind `_allowed_configuration`: a curve in S or X0 has the
    # contacts at p that it names for that configuration, in the X0
    # orientation the component search finds. And no curve whose local
    # data allows a configuration carries both in_h1 and in_h2prime, so
    # the wall's rule on those exact flags never reads the special locus.
    # On the moved witnesses, too, the special locus reads what the
    # component search finds
    found = {}
    passed = 0
    for curve in _gate_corpus() + _special_witnesses_moved():
        rep = inflection_report(curve)
        allowed = rep.configuration
        want = ungated_special_locus(curve)
        assert not want.undecided, curve
        got = rep.special
        assert (got.in_s, got.in_x0, got.details) == (want.in_s, want.in_x0, want.details), curve
        if want.in_s:
            assert allowed == "S", curve
        if want.in_x0:
            assert allowed in ("X0", "X0 swapped"), curve
        if want.in_x0 and curve.surface is Surface.QUADRIC:
            groups = squarefree_on_chart(curve.surface, curve.equation)
            assert quadric_special(curve, groups, (allowed,)).in_x0, curve
        if want.in_s or want.in_x0:
            key = (curve.surface, allowed)
            found[key] = found.get(key, 0) + 1
        if allowed is not None:
            assert not (rep.in_h1 and rep.in_h2prime), curve
            passed += 1
    assert len(found) == 5 and min(found.values()) >= 30, found
    assert passed >= 250


def _restriction_factors(sympy, line):
    """sympy's factor_list over QQ of a `curves.Restriction` as the binary
    form sum(coeffs[j] * s^j * t^(d - j)): {factor: multiplicity}."""
    s, t = sympy.symbols("s t")
    d = len(line.coeffs) - 1
    form = sum(sympy.Rational(str(c)) * s**j * t ** (d - j) for j, c in enumerate(line.coeffs))
    return s, t, dict(sympy.factor_list(form, s, t)[1])


def _s_and_x0_witnesses_moved():
    """The S and X0 witnesses of both surfaces for d = 3..8, as made and
    moved by two seeded rational frames each; membership is kept by
    frames, and the quadric frames swap the factors at random."""
    rng = random.Random(1616)
    kinds = (WitnessKind.P2_S, WitnessKind.P2_CUSPIDAL_X0,
             WitnessKind.QUADRIC_S, WitnessKind.QUADRIC_X0)
    curves = []
    for kind in kinds:
        for d in range(3, 9):
            base = make_witness(kind, d)
            curves.append(base)
            curves.extend(
                apply_frame(base, _rational_frame(rng, base.surface)) for _ in range(2)
            )
    return curves


def test_restrictions_of_special_curves_are_powers():
    # the lemma the special locus rests on, checked by sympy's factorization
    # over QQ: on a curve in S or X0, the restriction to the line through p
    # of contact k (the tangent, or a ruling with contact cx resp. cy) is
    # (p's root)^k times an m-th power, m = d - k, of a linear form whose
    # root is the point `_power_point` reads; on the plane at d = 3, X0 has
    # m = 0 and the restriction is s^3
    sympy = pytest.importorskip("sympy")
    checked = 0
    for curve in _s_and_x0_witnesses_moved():
        for line in local_geometry(curve).restrictions:
            k = line.contact
            m = curve.degree - k
            s, t, factors = _restriction_factors(sympy, line)
            assert factors.pop(s) == k, curve
            if m == 0:
                assert not factors, curve
                continue
            ((power, mult),) = factors.items()
            assert mult == m and sympy.Poly(power, s, t).total_degree() == 1, curve
            # the point is t * base + s * direction at (s : t) = (m q0 : -q1)
            q0, q1 = line.coeffs[k], line.coeffs[k + 1]
            root = {s: sympy.Rational(str(m * q0)), t: sympy.Rational(str(-q1))}
            assert power.subs(root) == 0, curve
            point = _power_point(line, k)
            assert point is not None and _proj_equal(
                point, [root[t] * b + root[s] * e for b, e in zip(line.base, line.direction)]
            ), curve
            checked += 1
    assert checked >= 100
    # the power check itself: (s + t)^2 after s^2 has its root at
    # (s : t) = (1 : -1), and s^2 (s^2 + s t + t^2) is no square
    line = Restriction((0, 0, 1), (1, 0, 0), (0, 0, 1, 2, 1))
    assert _proj_equal(_power_point(line, 2), (1, 0, -1))
    assert _power_point(Restriction((0, 0, 1), (1, 0, 0), (0, 0, 1, 1, 1)), 2) is None


def test_undecided_quadric_is_in_s():
    # (x0*y1 - x1*y0)(x0 + K*x1)^2 (y0 + K*y1)^2, K = 10^13, at ((1 : 1),
    # (1 : 1)), whose ruling search gave up in the component search: sympy
    # factors it over QQ into the smooth (1, 1)-form through p and the two
    # doubled rulings crossing at ((-K : 1), (-K : 1)), which lies on it, so
    # it is in S, with that form and crossing as details; its verdicts below
    # the wall, at the wall and in the chamber are then Unstable, at the
    # adapted frame, with a certificate whose mu the Fraction-only oracle
    # recomputes on the moved curve
    sympy = pytest.importorskip("sympy")
    K = 10 ** 13
    curve = curve_from_json(BRANCH_CURVES["undecided-quadric"])
    x0, x1, y0, y1 = gens = sympy.symbols("x0 x1 y0 y1")
    poly = sympy.Poly.from_dict({e: int(c) for e, c in curve.equation.terms.items()}, gens)
    factors = {sympy.expand(f.as_expr()): m for f, m in poly.factor_list()[1]}
    assert factors == {x0 * y1 - x1 * y0: 1, x0 + K * x1: 2, y0 + K * y1: 2}
    special = special_locus_membership(curve)
    assert special.in_s and not special.in_x0
    assert special.details == {
        "gamma": Polynomial(4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}),
        "crossing": (-K, 1, -K, 1),
    }
    for t, mu in (("7/6", "5/3"), ("5/3", "2/3"), ("11/6", "1/3")):
        verdict = stability_verdict(curve, Fraction(t), budget=20)
        cert = verdict.certificate
        assert verdict.status == "Unstable" and cert["mu"] == Fraction(mu), t
        moved = apply_frame(curve, cert["frame"])
        assert fraction_mu_min(moved, cert["lambda"], Fraction(t))[0] == Fraction(mu), t


def test_coprime_quadratics_match_the_gcd():
    # the closed-form resultant that tests the smoothness of a (2, 1)-form
    # against the gcd it replaced, on the coefficient triples of random
    # binary quadratics in x0, x1 and of pairs built with a common linear
    # factor
    rng = random.Random(88)
    common = 0
    for i in range(300):
        f, g = (_random_form(rng, Surface.QUADRIC, (2, 0)) for _ in range(2))
        if i % 3 == 0:
            shared = _random_form(rng, Surface.QUADRIC, (1, 0))
            f, g = (shared * _random_form(rng, Surface.QUADRIC, (1, 0)) for _ in range(2))
        if f.is_zero() or g.is_zero():
            continue
        coprime = not polynomials.poly_gcd(f, g).variables()
        f3, g3 = ([h.terms.get((2 - i, i, 0, 0), 0) for i in range(3)] for h in (f, g))
        assert inflection._coprime_quadratics(f3, g3) is coprime, (f, g)
        common += not coprime
    assert common >= 80


def _line_form(rng, n, slots, through=None):
    """A nonzero random linear form in two or three of the n variables,
    vanishing at the point `through` when one is given."""
    while True:
        c = [rng.randint(-3, 3) for _ in slots]
        if through is not None:
            x = [through[i] for i in slots]
            c = [x[1], -x[0]] if len(slots) == 2 else _cross(x, c)
        if any(c):
            return linear_form(n, slots, c)


def _cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _sympy_form(sympy, form, xs):
    return sum(
        sympy.Rational(str(c)) * sympy.prod(x**k for x, k in zip(xs, e))
        for e, c in form.terms.items()
    )


def test_power_test_matches_sympy_factorization():
    # `_power_point(restrict(form, base, direction, m), 0)` finds a point
    # exactly when sympy factors the form on the line over QQ into one
    # linear factor to the m, and the point is that factor's root. Forms of
    # degree m = 2, 3 on the plane, and of bidegree (m, 1) on the quadric
    # on lines moving in x: powers of lines, some through base (the
    # leading coefficient is then 0), products of lines, random forms, the
    # zero form, and forms that vanish on the whole line
    sympy = pytest.importorskip("sympy")
    s, t = sympy.symbols("s t")
    rng = random.Random(2525)
    powers = through_base = vanishing = 0
    for i in range(360):
        surface = (Surface.P2, Surface.QUADRIC)[i % 3 == 2]
        n, m, kind = surface.nvars, rng.choice((2, 3)), rng.randrange(6)
        moving = (0, 1, 2) if surface is Surface.P2 else (0, 1)
        while True:
            base = [rng.randint(-2, 2) for _ in range(n)]
            direction = [rng.randint(-2, 2) if j in moving else 0 for j in range(n)]
            line = _cross(base, direction) if surface is Surface.P2 else None
            independent = any(line) if line else base[0] * direction[1] != base[1] * direction[0]
            if independent and (surface is Surface.P2 or any(base[2:])):
                break
        held = constant(n, 1) if surface is Surface.P2 else _line_form(rng, n, (2, 3))
        if kind == 0:
            form = _line_form(rng, n, moving) ** m
        elif kind == 1:
            form = _line_form(rng, n, moving, base) ** m
        elif kind == 2:
            form = _line_form(rng, n, moving, base) * _line_form(rng, n, moving) ** (m - 1)
        elif kind == 3:
            form = _random_form(rng, surface, m if surface is Surface.P2 else (m, 0))
        elif kind == 4:
            form = Polynomial(n, {})
        elif surface is Surface.P2:
            # the line's own equation times a form
            form = linear_form(3, moving, line) * _random_form(rng, surface, m - 1)
        else:
            # the ruling through base in y, which the line lies on
            form, held = _line_form(rng, n, moving) ** m, _line_form(rng, n, (2, 3), base)
        form = form * held
        got = _power_point(restrict(form, base, direction, m), 0)
        points = [t * x + s * y for x, y in zip(base, direction)]
        expr = sympy.expand(_sympy_form(sympy, form, points))
        if surface is Surface.QUADRIC:
            # holding y at base multiplies the form by t
            expr = sympy.cancel(expr / t)
        factors = sympy.factor_list(expr, s, t)[1] if expr != 0 else []
        vanishing += expr == 0
        if len(factors) != 1 or factors[0][1] != m:
            assert got is None, (form, base, direction)
            continue
        poly = sympy.Poly(factors[0][0], s, t)
        assert poly.total_degree() == 1, (form, base, direction)
        a, c = (int(poly.coeff_monomial(x)) for x in (s, t))
        # a s + c t vanishes at (s : t) = (c : -a)
        want = [-a * x + c * y for x, y in zip(base, direction)]
        assert got is not None and _proj_equal(
            [got[i] for i in moving], [want[i] for i in moving]
        ), (form, base, direction)
        powers += 1
        through_base += expr.subs(s, 0) == 0
    assert powers >= 100 and through_base >= 30 and vanishing >= 60


def test_conic_smoothness_matches_the_sympy_discriminant():
    # the conic is smooth exactly when the determinant of its Hessian
    # matrix, the discriminant of the ternary quadratic form, is nonzero in
    # sympy: on random conics, and on rational line pairs, pairs of
    # conjugate lines and double lines, which are all singular
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x0 x1 x2")
    rng = random.Random(2626)
    smooth = 0
    for i in range(200):
        kind = i % 4
        if kind == 0:
            terms = {e: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                     for e in all_exponents(Surface.P2, 2)}
            conic = Polynomial(3, terms)
            if conic.is_zero():
                continue
        elif kind == 1:
            conic = _line_form(rng, 3, (0, 1, 2)) * _line_form(rng, 3, (0, 1, 2))
        elif kind == 2:
            conic = (_line_form(rng, 3, (0, 1, 2)) ** 2
                     + rng.randint(1, 3) * _line_form(rng, 3, (0, 1, 2)) ** 2)
        else:
            conic = _line_form(rng, 3, (0, 1, 2)) ** 2
        det = sympy.hessian(_sympy_form(sympy, conic, xs), xs).det()
        assert inflection._conic_is_smooth(conic) is (det != 0), conic
        assert det == 0 or kind == 0, conic
        smooth += det != 0
    assert smooth >= 40


def test_x0_orientations_agree_under_the_factor_swap():
    # `_x0_quadric_oriented(gamma, 1, q, p)` reads the fibres of a (1, 2)-
    # form in y; with the factors of gamma, q and p exchanged by
    # substitution, the call with k = 0 must answer the same. The (2, 1)-
    # forms are x0^2 y1 + x1^2 y0 with q = ((1 : 0), (1 : 0)) and p =
    # ((0 : 1), (0 : 1)), which is the shape, moved by integer frames; then
    # the same with one more term, with p at q, or with p off gamma
    rng = random.Random(2727)
    shape = Polynomial(4, {(2, 0, 0, 1): 1, (0, 2, 1, 0): 1})
    swap = [variable(4, 2), variable(4, 3), variable(4, 0), variable(4, 1)]
    answers = []
    for i in range(160):
        while True:
            a, b = (tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(2))
                    for _ in range(2))
            if adjugate(a)[1] and adjugate(b)[1]:
                break
        subs = [linear_form(4, slots, row) for m, slots in ((a, (0, 1)), (b, (2, 3)))
                for row in m]
        moved = substitute(shape, subs)
        q, p = (mat_vec(adjugate(a)[0], r[:2]) + mat_vec(adjugate(b)[0], r[2:])
                for r in ((1, 0, 1, 0), (0, 1, 0, 1)))
        if i % 4 == 1:
            moved = moved + Polynomial(4, {(1, 1, rng.randint(0, 1), 0): rng.choice((-1, 1))})
        elif i % 4 == 2:
            p = q
        elif i % 4 == 3:
            p = p[:2] + q[2:]
        got = inflection._x0_quadric_oriented(
            substitute(moved, swap), 1, q[2:] + q[:2], p[2:] + p[:2]
        )
        assert got is inflection._x0_quadric_oriented(moved, 0, q, p), (moved, q, p)
        answers.append(got)
    assert answers.count(True) >= 30 and answers.count(False) >= 60


# Curves whose local data at p allows neither configuration: hyperflexes
# (contact 4), the singular curves of the CLI tests and the node of
# (x0 - K*x2)(x0*x2 - x1^2), K = 10^14, at (K : 10^7 : 1), whose line
# search aborted in the component search, and x0 * (x1^2 + x2^2 + x0*x2)
# at (0 : 1 : 0), whose tangent {x0 = 0} is a component
_SETTLED_CURVES = [
    *(make_witness(WitnessKind.P2_HYPERFLEX, d) for d in range(4, 9)),
    *(curve_from_json(doc) for doc in SINGULAR_CURVES.values()),
    _p2(3, {(2, 0, 1): 1, (1, 2, 0): -1, (1, 0, 2): -10 ** 14, (0, 2, 1): 10 ** 14},
        (10 ** 14, 10 ** 7, 1)),
    _p2(3, {(1, 2, 0): 1, (1, 0, 2): 1, (2, 0, 1): 1}, (0, 1, 0)),
]


def test_settled_curves_skip_the_configuration_tests(monkeypatch):
    # where the local data allows neither configuration the curve is in
    # neither, and no configuration is tested
    def no_test(curve, geometry, config):
        raise RuntimeError("configuration tested")

    curves = _SETTLED_CURVES + _settled_products()
    for curve in curves:
        assert _allowed_configuration(curve.surface, local_geometry(curve)) is None
    monkeypatch.setattr(inflection, "_p2_special", no_test)
    monkeypatch.setattr(inflection, "_quadric_special", no_test)
    for curve in curves:
        assert special_locus_membership(curve) == SpecialLocus(False, False)
        assert not inflection_report(curve).undecided


def test_allowed_configuration_table():
    # the contacts each configuration has at p, and that a singular point
    # allows none whatever contacts it carries
    plane = {None: None, 1: None, 2: "S", 3: "X0", 4: None, 7: None}
    for contact, config in plane.items():
        geo = LocalGeometry(True, 1, tangent_contact=contact)
        assert _allowed_configuration(Surface.P2, geo) == config
    quadric = {
        (1, 1): "S", (1, 2): "X0", (2, 1): "X0 swapped", (2, 2): None,
        (1, 3): None, (None, 1): None, (1, None): None,
    }
    for contacts, config in quadric.items():
        geo = LocalGeometry(True, 1, ruling_contacts=contacts)
        assert _allowed_configuration(Surface.QUADRIC, geo) == config
    assert _allowed_configuration(Surface.P2, LocalGeometry(False, 2)) is None
    singular = LocalGeometry(False, 2, ruling_contacts=(1, 1))
    assert _allowed_configuration(Surface.QUADRIC, singular) is None


def test_special_locus_ignores_the_scale_of_the_equation():
    # the restrictions scale with the equation, which moves no root of
    # theirs, and what the division leaves is made primitive, so a
    # Fraction multiple of the equation gives the same locus
    fractional = 0
    for curve in _gate_corpus():
        scaled = PointedCurve(curve.surface, curve.degree, curve.point,
                              Fraction(2, 3) * curve.equation)
        fractional += any(type(c) is Fraction for c in scaled.equation.terms.values())
        got, want = special_locus_membership(scaled), special_locus_membership(curve)
        for name in ("in_s", "in_x0", "details"):
            assert getattr(got, name) == getattr(want, name), (name, curve)
    assert fractional >= 300


def _linear_factors_by_sympy(sympy, f, families):
    """For each tuple of variables in families, the factors of f over QQ
    that are linear forms in those variables, each as the tuple of its
    coefficients there, by sympy.factor_list."""
    gens = sympy.symbols(f"v0:{f.nvars}")
    p = sympy.Poly.from_dict({e: int(c) for e, c in f.terms.items()}, gens)
    out = [[] for _ in families]
    for q, _ in p.factor_list()[1]:
        terms = {e.index(1): Fraction(int(c)) for e, c in q.as_dict().items() if sum(e) == 1}
        if len(terms) == len(q.as_dict()):
            for slots, found in zip(families, out):
                if set(terms) <= set(slots):
                    found.append(tuple(terms.get(i, 0) for i in slots))
    return out


def _projective_set(points):
    return {
        tuple(Fraction(x) / next(y for y in p if y) for x in p) for p in points
    }


def test_linear_factors_match_sympy_factorization():
    # lines on the plane and rulings on the quadric agree, projectively and
    # as sets, with the degree-1 (resp. bidegree (1, 0) and (0, 1)) factors
    # sympy finds over QQ, on every group whose root searches all finish
    sympy = pytest.importorskip("sympy")
    checked = with_factors = 0
    for curve in _gate_corpus():
        for f, mult in squarefree_on_chart(curve.surface, curve.equation):
            try:
                if curve.surface is Surface.P2:
                    got = [rational_lines(f)]
                else:
                    rx, ry, _ = quadric_components([(f, mult)])
                    # v*x0 - u*x1 is the ruling (u, v)
                    got = [[(v, -u) for (u, v), _ in r] for r in (rx, ry)]
            except SearchAborted:
                continue
            families = ((0, 1, 2),) if curve.surface is Surface.P2 else ((0, 1), (2, 3))
            for found, want in zip(got, _linear_factors_by_sympy(sympy, f, families)):
                assert len(found) == len(want), f
                assert _projective_set(found) == _projective_set(want), f
                with_factors += bool(want)
            checked += 1
    assert checked >= 500 and with_factors >= 400


# -- X0 on the plane: the polar conic of the flex ----------------------------


_CUSPIDAL = {(0, 2, 1): 1, (3, 0, 0): -1}
_SMOOTH = {(0, 2, 1): 1, (3, 0, 0): -1, (0, 0, 3): -1}

# Curves whose squarefree shape is that of X0, with whether each is in X0:
# the cuspidal cubic x1^2 x2 - x0^3 at its flex, and near misses that fail
# one part of the test each (the flex, the cube, the line)
X0_NEAR_MISSES = {
    "cuspidal-flex": (_p2(3, _CUSPIDAL, (0, 1, 0)), True),
    "fermat-flex": (_p2(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}, (1, -1, 0)), False),
    "nodal-flex": (_p2(3, {(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1}, (0, 1, 0)), False),
    "cuspidal-nonflex": (_p2(3, {(2, 0, 1): 1, (0, 3, 0): 1}, (1, -1, 1)), False),
    # y^2 z = x^3 + z^3 at a point of order 3, and at one of order 6
    "smooth-flex": (_p2(3, _SMOOTH, (0, 1, 1)), False),
    "smooth-nonflex": (_p2(3, _SMOOTH, (2, 3, 1)), False),
    # the cuspidal cubic at its flex times a line that is not its cusp line
    "x0-quartic-wrong-line": (
        _p2(4, {(0, 3, 1): 1, (0, 2, 2): 1, (3, 1, 0): -1, (3, 0, 1): -1}, (0, 1, 0)),
        False,
    ),
}


def _x0_candidates(curves):
    """(curve, cubic, lines) for each plane curve whose rational lines and
    leftover factor have the X0 shape: one cubic, and no line (d = 3) or
    one line to the d - 3."""
    out = []
    for curve in curves:
        if curve.surface is not Surface.P2:
            continue
        lines, left = p2_components(squarefree_on_chart(curve.surface, curve.equation))
        d = curve.degree
        fit = (d == 3 and not lines) or (d > 3 and len(lines) == 1 and lines[0][1] == d - 3)
        if fit and len(left) == 1 and left[0][1] == 1 and left[0][0].total_degree() == 3:
            out.append((curve, left[0][0], lines))
    return out


def _rational_frame(rng, surface=Surface.P2):
    n = 3 if surface is Surface.P2 else 2

    def matrix():
        return tuple(
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
            for _ in range(n)
        )

    while True:
        if surface is Surface.P2:
            args = (matrix(),)
        else:
            args = (matrix(), matrix(), bool(rng.getrandbits(1)))
        try:
            return FrameChange(surface, *args)
        except ValueError:
            continue


def test_named_x0_near_misses():
    named = list(X0_NEAR_MISSES.values())
    assert len(_x0_candidates([c for c, _ in named])) == len(named)
    for name, (curve, in_x0) in X0_NEAR_MISSES.items():
        assert special_locus_membership(curve).in_x0 is in_x0, name


def test_cusp_line_matches_elimination():
    # the polar-conic test against the singular-point search it replaced,
    # on the named curves and the X0 witnesses moved by rational frames and
    # on the plane curves of the gate corpus; for d > 3 the line must also
    # be the cusp line
    rng = random.Random(2020)
    bases = [c for c, _ in X0_NEAR_MISSES.values()]
    bases += [make_witness(WitnessKind.P2_CUSPIDAL_X0, d) for d in (4, 5, 6)]
    curves = list(bases)
    for base in bases:
        curves.extend(apply_frame(base, _rational_frame(rng)) for _ in range(12))
    candidates = _x0_candidates(curves + _gate_corpus())
    in_x0 = 0
    for curve, cubic, lines in candidates:
        got = reference_cusp_line(cubic, curve.point)
        want = elimination_cusp_line(cubic, curve.point)
        assert (got is None) == (want is None), curve
        assert got is None or _proj_equal(got, want), curve
        in_x0 += got is not None and (curve.degree == 3 or _proj_equal(lines[0][0], got))
    assert len(candidates) >= 150 and in_x0 >= 40


def _nonzero_form(rng, degree):
    while True:
        form = _random_form(rng, Surface.P2, degree)
        if form:
            return form


def test_flex_tangent_divides_the_polar_conic():
    # at a smooth point p of a plane cubic, the tangent T divides the polar
    # conic sum p_i dC/dx_i exactly when p is a flex: on random cubics
    # through p, and on cubics T * Q + M^3 with M a line through p, which
    # have a flex there
    rng = random.Random(77)
    flexes = smooth = 0
    for i in range(200):
        p = tuple(rng.choice((-2, -1, 1, 2)) for _ in range(3))
        if i % 2:
            cubic = _vanishing_at(_nonzero_form(rng, 3), p)
        else:
            t, m = (_vanishing_at(_nonzero_form(rng, 1), p) for _ in range(2))
            cubic = t * _nonzero_form(rng, 2) + m ** 3
        if cubic.is_zero():
            continue
        grads = [cubic.partial_derivative(k) for k in range(3)]
        tangent = [g.evaluate(p) for g in grads]
        if not any(tangent):
            continue
        polar = sum((x * g for x, g in zip(p, grads)), Polynomial(3, {}))
        divides = polynomials.exact_divide(
            polar, polynomials.linear_form(3, (0, 1, 2), tangent)
        ) is not None
        flex = inflection_report(_p2(3, cubic.terms, p)).flex
        assert divides is flex, (cubic, p)
        smooth += 1
        flexes += flex
    assert smooth >= 150 and 40 <= flexes <= smooth - 40


# -- the lazy report --------------------------------------------------------


def _report_corpus():
    curves = []
    for kind in WitnessKind:
        for d in (3, 4, 5, 6):
            try:
                curves.append(make_witness(kind, d))
            except ValueError:
                continue
    curves.append(curve_from_json(BRANCH_CURVES["undecided-cubic"]))
    curves.extend(curve_from_json(doc) for doc in SINGULAR_CURVES.values())
    rng = random.Random(1212)
    for i in range(320):
        surface = (Surface.P2, Surface.QUADRIC)[i % 2]
        d = rng.choice((3, 4)) if surface is Surface.P2 else 3
        if i % 4 < 2:
            curve = _random_curve_through_point(rng, surface, d)
        else:
            curve = _random_pointed_curve(surface, d, rng, rng.randint(3, 8))
        if not curve.equation.is_zero():
            curves.append(curve)
    return curves


def test_lazy_report_matches_eager_oracle():
    # each field of the lazy report equals the eagerly computed one, in
    # whatever order the fields are first read
    rng = random.Random(4040)
    singular = 0
    for curve in _report_corpus():
        want = eager_report(curve)
        singular += not want.smooth_at_p
        shuffled = list(REPORT_FIELDS)
        rng.shuffle(shuffled)
        for order in (REPORT_FIELDS, REPORT_FIELDS[::-1], shuffled):
            rep = inflection_report(curve)
            for name in order:
                assert getattr(rep, name) == getattr(want, name), (name, curve)
    assert singular >= 100


def test_verdict_computes_only_what_its_region_reads(monkeypatch, tmp_path):
    # with the special locus and every branch solve unavailable, the edge
    # and the chamber of an in_h1 curve still give their recorded verdicts,
    # as in_h1 reads the local geometry alone, while the wall reaches them:
    # the branch through in_h2prime when in_h1 holds, else the special locus
    recorded = json.loads(GOLDEN.read_text())["cases"]

    def no_special(curve, geometry=None):
        raise RuntimeError("special locus computed")

    def no_branch(curve, N, geometry=None):
        raise RuntimeError("branch computed")

    monkeypatch.setattr(inflection, "special_locus_membership", no_special)
    monkeypatch.setattr(inflection, "local_branch", no_branch)
    for kind, d, region in (
        ("p2-nonflex", 4, "edge"), ("quadric-s", 3, "edge"),
        ("p2-flex", 3, "chamber"), ("quadric-ruling-tangent", 3, "chamber"),
    ):
        curve = make_witness(kind, d)
        wall, edge = analyzed_slopes(curve.surface, d)
        t = edge if region == "edge" else (wall + edge) / 2
        path = tmp_path / f"{kind}-{d}.json"
        path.write_text(json.dumps(curve_to_json(curve)))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["verdict", "--curve", str(path), "--slope",
                         format_rational(t), "--budget", "20"])
        golden = recorded[f"verdict {kind} {d} {format_rational(t)}"]
        assert {"code": code, "out": buf.getvalue()} == golden, (kind, region)
        reached = "branch" if inflection_report(curve).in_h1 else "special locus"
        with pytest.raises(RuntimeError, match=f"{reached} computed"):
            stability_verdict(curve, wall, budget=20)


def test_branch_residual_check_raises(monkeypatch, tmp_path):
    # a branch that does not solve the equation is an internal error, and
    # the plane inflect reaches the check through the conics' sequence
    def off_by_one(f, series):
        value = series_substitute(f, series)
        return value[:-1] + (value[-1] + 1,)

    monkeypatch.setattr(inflection, "series_substitute", off_by_one)
    curve = make_witness(WitnessKind.P2_FLEX, 4)
    with pytest.raises(InternalError, match="residual of order 4"):
        local_branch(curve, 5)
    path = tmp_path / "flex.json"
    path.write_text(json.dumps(curve_to_json(curve)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["inflect", "--curve", str(path)])
    assert code == 4 and "residual" in err.getvalue()


def test_bundle_arguments_are_checked_per_factor():
    # one non-negative int per factor, not a bool, not all 0; a bare int
    # or a float on the quadric and a bool anywhere are refused with the
    # messages of the class formula, as they are there
    plane = make_witness(WitnessKind.P2_FLEX, 4)
    quadric = make_witness(WitnessKind.QUADRIC_S, 3)
    for bundle in (0, -1, True, 1.5, (1,)):
        with pytest.raises(ValueError, match="^bundle degree must be a positive integer$"):
            vanishing_sequence(plane, bundle)
    bad = "^bidegree must be a pair of non-negative integers$"
    for bundle in (2, (1.5, 1), (True, 1), (1, True), (-1, 1), (1, 1, 1)):
        with pytest.raises(ValueError, match=bad):
            vanishing_sequence(quadric, bundle)
    with pytest.raises(ValueError, match=r"^bidegree \(0, 0\) carries no sections to osculate$"):
        vanishing_sequence(quadric, (0, 0))
    assert vanishing_sequence(plane, 1).orders == (0, 1, 3)
    assert vanishing_sequence(quadric, [1, 0]) == vanishing_sequence(quadric, (1, 0))
