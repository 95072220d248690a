"""End-to-end checks of the published numbers and equivalences.

Every test here pins an externally meaningful quantity: the divisor class
table, the wall slopes, the recorded inequality claims, the witness verdict
matrix, stabilizer data, and the agreement of each fast routine with a
brute-force oracle.
"""

import copy
import random
import time
from fractions import Fraction

from wallcross.criterion import (
    OneParamSubgroup,
    mu_min,
    stability_verdict,
    stabilizer_dimension,
    torus_verdict,
)
from wallcross.curves import (
    IDENTITY_FRAMES,
    PointedCurve,
    Surface,
    WitnessKind,
    all_exponents,
    apply_frame,
    make_witness,
)
from wallcross.hessians import (
    analyzed_slopes,
    h2prime_class,
    relative_hessian_class,
    symmetrized_class_quadric,
    wall_slope,
)
from wallcross.inflection import (
    inflection_report,
    local_branch,
    vanishing_sequence,
)
from wallcross.polynomials import Polynomial, monomial, variable
from wallcross.series import series_substitute
from wallcross.walls import load_propositions, verify_proposition

from oracles import classical_hessian, homogeneous_branch, mu_term

DEGREES = (3, 4, 5, 6)


def test_class_table_is_exact_and_fast():
    start = time.monotonic()
    for d in DEGREES:
        assert relative_hessian_class(Surface.P2, d, 1).components == (3 * (d - 2), 3)
        assert relative_hessian_class(Surface.P2, d, 2).components == (15 * d - 33, 15)
        assert h2prime_class(d).components == (12 * d - 27, 12)
        assert symmetrized_class_quadric(d, 0, 1).components == (
            2 * (d - 1),
            2 * (d - 1),
            2,
        )
        assert symmetrized_class_quadric(d, 1, 1).components == (
            2 * (3 * d - 4),
            2 * (3 * d - 4),
            6,
        )
    assert time.monotonic() - start < 1.0


def test_wall_slopes_come_from_class_ratios():
    for d in DEGREES:
        assert wall_slope(relative_hessian_class(Surface.P2, d, 1)) == Fraction(d - 2)
        assert wall_slope(h2prime_class(d)) == Fraction(d) - Fraction(9, 4)
        assert wall_slope(symmetrized_class_quadric(d, 0, 1)) == Fraction(d - 1)
        assert wall_slope(symmetrized_class_quadric(d, 1, 1)) == Fraction(d) - Fraction(4, 3)
        assert analyzed_slopes(Surface.P2, d) == (Fraction(4 * d - 9, 4), Fraction(d - 2))
        assert analyzed_slopes(Surface.QUADRIC, d) == (Fraction(3 * d - 4, 3), Fraction(d - 1))


def test_recorded_claim_suite_replays():
    start = time.monotonic()
    table = load_propositions()
    plane = [pid for pid in table if pid.startswith("4.")]
    quadric = [pid for pid in table if pid.startswith("5.")]
    assert len(plane) + len(quadric) == 12
    for pid in plane:
        for d in (3, 4, 5, 6):
            out = verify_proposition(pid, d, table)
            assert out["ok"], (pid, d, out["counterexamples"])
    for pid in quadric:
        for d in (3, 4, 5):
            out = verify_proposition(pid, d, table)
            assert out["ok"], (pid, d, out["counterexamples"])

    # negative control: the edge claim tightened to a strict inequality has
    # to fail, naming exactly the two monomials that achieve equality
    control = copy.deepcopy(table["4.2"])
    control["strictness"] = ">0"
    control.pop("expected_equalities", None)
    out = verify_proposition("4.2", 4, {"4.2": control})
    assert not out["ok"]
    assert {(lb, e) for lb, e, _, _ in out["counterexamples"]} == {
        (2, (0, 2, 2)),
        (2, (1, 0, 3)),
    }
    assert time.monotonic() - start < 5.0


def _certified_unstable(curve, t, **kw):
    v = stability_verdict(curve, t, **kw)
    assert v.status == "Unstable", (v.status, t)
    cert = v.certificate
    assert cert is not None
    frame = cert.get("frame") or IDENTITY_FRAMES[curve.surface]
    moved = apply_frame(curve, frame)
    value, _ = mu_min(moved, cert["lambda"], t)
    assert value == cert["mu"] and value > 0
    return cert


def test_witness_verdict_matrix():
    eps = Fraction(1, 100)
    wall = Fraction(7, 4)

    s_curve = make_witness(WitnessKind.P2_S, 4)
    for t in (wall, Fraction(15, 8), Fraction(2) - eps):
        _certified_unstable(s_curve, t)

    cusp = make_witness(WitnessKind.P2_CUSPIDAL_X0, 4)
    below = _certified_unstable(cusp, wall - eps)
    assert below["lambda"].weights == (5, -1, -4)
    at_wall = stability_verdict(cusp, wall)
    assert at_wall.status == "StrictlySemistable"
    assert at_wall.certificate is not None and at_wall.certificate["mu"] == 0
    _certified_unstable(cusp, wall + eps)

    # the hyperflex destabilizer is search-found; the fixed subgroup
    # (-11, 3, 8) confirms it by hand, giving weights {1, 2} on the support
    hyper = make_witness(WitnessKind.P2_HYPERFLEX, 4)
    _certified_unstable(hyper, wall)
    lam = OneParamSubgroup(Surface.P2, (-11, 3, 8))
    values = {
        mu_term(Surface.P2, lam, wall, 2, exp) for exp in hyper.equation.terms
    }
    assert values == {Fraction(1), Fraction(2)}

    qwall = Fraction(5, 3)
    qs = make_witness(WitnessKind.QUADRIC_S, 3)
    for t in (qwall, Fraction(11, 6)):
        _certified_unstable(qs, t)

    qx0 = make_witness(WitnessKind.QUADRIC_X0, 3)
    at_qwall = stability_verdict(qx0, qwall)
    assert at_qwall.status == "StrictlySemistable"
    _certified_unstable(qx0, qwall - eps)
    _certified_unstable(qx0, qwall + eps)


def test_stabilizer_dimensions_and_generators():
    dim, gen = stabilizer_dimension(make_witness(WitnessKind.P2_CUSPIDAL_X0, 4))
    assert dim == 1 and gen.weights == (4, 1, -5)

    dim, gen = stabilizer_dimension(make_witness(WitnessKind.QUADRIC_X0, 3))
    assert dim == 1 and gen.weights == (1, 2)

    generic = PointedCurve(
        Surface.P2,
        4,
        (Fraction(0), Fraction(0), Fraction(1)),
        Polynomial(3, {(0, 1, 3): 1, (2, 0, 2): 1, (4, 0, 0): 1, (0, 4, 0): 1}),
    )
    assert stabilizer_dimension(generic) == (0, None)


def _random_pointed_curve(surface, d, rng, nterms):
    exps = list(all_exponents(surface, d))
    base = (0, 0, d) if surface is Surface.P2 else (0, d, 0, d)
    exps.remove(base)  # keeps the marked point on the curve
    support = rng.sample(exps, min(nterms, len(exps)))
    terms = {e: rng.choice([-2, -1, 1, 2, 3]) for e in support}
    point = (0, 0, 1) if surface is Surface.P2 else (0, 1, 0, 1)
    return PointedCurve(
        surface, d, tuple(Fraction(c) for c in point), Polynomial(surface.nvars, terms)
    )


def _box_sign(curve, t, radius):
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


def test_torus_sign_agrees_with_box_enumeration():
    start = time.monotonic()
    rng = random.Random(1207)
    for surface in (Surface.P2, Surface.QUADRIC):
        for _ in range(200):
            c = _random_pointed_curve(surface, 3, rng, rng.randint(2, 6))
            t = Fraction(rng.randint(1, 12), rng.randint(1, 6))
            sign, lam = torus_verdict(c, t)
            assert sign == _box_sign(c, t, 5), (surface, c.equation.terms, t)
            if sign >= 0:
                value = mu_min(c, lam, t)[0]
                assert (value > 0) if sign == 1 else (value == 0)
    assert time.monotonic() - start < 60.0


def _rank(rows):
    """Fraction Gaussian elimination, independent of the pivot routine."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col] / mat[rank][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _filtration_orders(rows):
    """Orders realized by the row span: column k is an order exactly when
    appending it raises the rank of the column-truncated matrix."""
    orders = []
    prev = 0
    for k in range(len(rows[0])):
        cur = _rank([row[: k + 1] for row in rows])
        if cur > prev:
            orders.append(k)
        prev = cur
    return orders, len(rows) - prev


def _smooth_random_curve(surface, d, rng, nterms):
    while True:
        c = _random_pointed_curve(surface, d, rng, nterms)
        if surface is Surface.P2:
            grad = (
                c.equation.terms.get((1, 0, d - 1), 0),
                c.equation.terms.get((0, 1, d - 1), 0),
            )
        else:
            grad = (
                c.equation.terms.get((1, d - 1, 0, d), 0),
                c.equation.terms.get((0, d, 1, d - 1), 0),
            )
        if any(grad):
            return c


def _section_basis(surface, bundle):
    """The monomials of a bundle, m on the plane and (m1, m2) on the
    quadric, and its total degree, m or m1 + m2."""
    if surface is Surface.P2:
        basis = sorted(
            (i, j, bundle - i - j) for i in range(bundle + 1) for j in range(bundle - i + 1)
        )
        return basis, bundle
    m1, m2 = bundle
    basis = sorted((a, m1 - a, b, m2 - b) for a in range(m1 + 1) for b in range(m2 + 1))
    return basis, m1 + m2


def _chart_curve(surface, d, rng, along_u=False, contained=False):
    """A curve through a rational point p off the coordinate points, built
    as a polynomial f(u, v) in the chart coordinates at p, up to scaling
    u and v: random terms of orders 1 to d (of degree at most d in u and in
    v on the quadric), with a u term of order 1 and, unless along_u, a v
    term, so the branch is solved along v, or along u when df/dv = 0. With
    contained, f = q * r, q of degree 2 (of bidegree (1, 1) on the quadric)
    and r(0, 0) = 1, so the conic or (1, 1)-form of q contains the branch."""
    n = surface.nvars
    plane = surface is Surface.P2
    while True:
        point = [Fraction(rng.choice((0, rng.randint(-3, 3))), rng.randint(1, 3))
                 for _ in range(n)]
        # a nonzero coordinate on each factor, and more than one on some
        nonzero = [sum(map(bool, (point[i] for i in b))) for b in surface.blocks]
        if min(nonzero) and sum(nonzero) > len(nonzero):
            break
    x = [variable(n, i) for i in range(n)]
    # u and v as (the coordinate their factor fixes, x_k p_l - x_l p_k)
    coords = []
    for b in surface.blocks:
        l = next(i for i in b if point[i])
        coords += [(l, x[k] * point[l] - x[l] * point[k]) for k in b if k != l]

    def lift(a, b):
        (lu, u), (lv, v) = coords
        if plane:
            return x[lu] ** (d - a - b) * u ** a * v ** b
        return x[lu] ** (d - a) * u ** a * x[lv] ** (d - b) * v ** b

    def chart(order, top, count):
        exps = [(a, b) for a in range(top + 1) for b in range(top + 1)
                if a + b >= order and (a + b <= top or not plane)]
        exps = rng.sample(exps, min(count, len(exps)))
        return {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in exps}

    if contained:
        q = chart(2, 2 if plane else 1, 2)
        q[(1, 0)], q[(0, 1)] = rng.choice((1, 2)), rng.choice((-1, 3))
        r = chart(1, d - 2 if plane else d - 1, 2)
        r[(0, 0)] = 1
        terms = (Polynomial(2, q) * Polynomial(2, r)).terms
    else:
        terms = chart(2, d, rng.randint(2, 6))
        terms[(1, 0)] = rng.choice((1, 2, -3))
        if not along_u:
            terms[(0, 1)] = rng.choice((1, -2, 3))
    equation = sum((c * lift(a, b) for (a, b), c in terms.items()), Polynomial(n))
    return PointedCurve(surface, d, tuple(point), equation)


def test_vanishing_orders_match_naive_filtration():
    # the orders read off the solve's powers against the rank filtration of
    # every monomial of the bundle on the branch in homogeneous coordinates:
    # at coordinate points on cubics, and at points off them on curves of
    # degree 3 to 5, solved along v and along u, and with a section of the
    # bundle containing the branch
    rng = random.Random(515)
    instances = along_u = deficient = 0
    plans = [
        (Surface.P2, 1, 30),
        (Surface.P2, 2, 25),
        (Surface.QUADRIC, (0, 1), 30),
        (Surface.QUADRIC, (1, 1), 25),
    ]
    cases = [
        (surface, bundle, _smooth_random_curve(surface, 3, rng, rng.randint(3, 6)))
        for surface, bundle, count in plans
        for _ in range(count)
    ]
    bundles = {Surface.P2: (1, 2, 3), Surface.QUADRIC: ((0, 1), (1, 1), (2, 1), (1, 2))}
    for surface, choices in bundles.items():
        for bundle in choices:
            for d in (3, 4, 5):
                for u in (False, True):
                    curve = _chart_curve(surface, d, rng, along_u=u)
                    cases.append((surface, bundle, curve))
        for bundle in choices[1:]:
            cases.append((surface, bundle, _chart_curve(surface, 5, rng, contained=True)))
    for surface, bundle, c in cases:
        basis, total = _section_basis(surface, bundle)
        seq = vanishing_sequence(c, bundle)
        branch = homogeneous_branch(c, total * c.degree + 1)
        rows = [series_substitute(monomial(surface.nvars, e), branch) for e in basis]
        orders, deficiency = _filtration_orders(rows)
        assert list(seq.orders) == orders, (surface, bundle, c)
        assert seq.deficiency == deficiency, (surface, bundle, c)
        instances += 1
        along_u += local_branch(c, 2)[1] == 0
        deficient += deficiency > 0
    assert instances >= 150 and along_u >= 20 and deficient >= 5


def _random_quartic_through_origin_point(rng, force_flex):
    d = 4
    exps = [e for e in all_exponents(Surface.P2, d) if e != (0, 0, 4)]
    while True:
        support = rng.sample(exps, rng.randint(4, 8))
        terms = {e: rng.choice([-2, -1, 1, 2, 3]) for e in support}
        if force_flex:
            # tangent x0 = 0 with third-order contact: kill the two
            # coefficients that control first- and second-order terms of
            # the restriction to the tangent
            terms.pop((0, 1, 3), None)
            terms.pop((0, 2, 2), None)
            terms[(1, 0, 3)] = rng.choice([1, 2, 3])
            if not any(e[0] == 0 for e in terms):
                terms[(0, 3, 1)] = 1
        if not (terms.get((1, 0, 3)) or terms.get((0, 1, 3))):
            continue  # singular at the marked point; resample
        return PointedCurve(
            Surface.P2,
            d,
            (Fraction(0), Fraction(0), Fraction(1)),
            Polynomial(3, terms),
        )


def test_flex_predicate_matches_hessian_vanishing():
    rng = random.Random(808)
    agreements = 0
    for i in range(120):
        c = _random_quartic_through_origin_point(rng, force_flex=i % 2 == 0)
        rep = inflection_report(c)
        assert rep.smooth_at_p
        hess = classical_hessian(c.equation)
        vanishes = hess.evaluate(c.point) == 0
        assert rep.flex == vanishes, c.equation.terms
        agreements += 1
    assert agreements >= 100


def test_hessian_determinant_degree_matches_class():
    for d in DEGREES:
        fermat = Polynomial(3, {(d, 0, 0): 1, (0, d, 0): 1, (0, 0, d): 1})
        hess = classical_hessian(fermat)
        degree = max(sum(e) for e in hess.terms)
        first_component = relative_hessian_class(Surface.P2, d, 1).components[0]
        assert degree == 3 * (d - 2) == first_component


def test_boundary_configuration_containments():
    # the swept configuration lies inside the second-order locus on both
    # surfaces: the marked point sits on a component the osculating object
    # contains, so the contact is unbounded
    for d in (3, 4, 5):
        plane = inflection_report(make_witness(WitnessKind.P2_S, d))
        assert plane.in_s and plane.in_h2prime
        quad = inflection_report(make_witness(WitnessKind.QUADRIC_S, d))
        assert quad.in_s and quad.in_h2prime


SEMISTABLE = ("Stable", "StrictlySemistable")


def test_semistability_is_convex_in_the_slope():
    rng = random.Random(332)
    kept = 0
    while kept < 50:
        surface = rng.choice((Surface.P2, Surface.QUADRIC))
        d = rng.choice((3, 4))
        c = _random_pointed_curve(surface, d, rng, rng.randint(3, 7))
        wall, edge = analyzed_slopes(surface, d)
        at_wall = stability_verdict(c, wall, budget=40)
        at_edge = stability_verdict(c, edge, budget=40)
        if at_wall.status not in SEMISTABLE or at_edge.status not in SEMISTABLE:
            continue
        kept += 1
        for _ in range(5):
            k = rng.randint(1, 19)
            t = wall + (edge - wall) * Fraction(k, 20)
            between = stability_verdict(c, t, budget=40)
            assert between.status in SEMISTABLE, (
                surface,
                c.equation.terms,
                t,
                between.status,
            )
