"""The kernels of mu and of evaluation compute on canonical scalars, ints
where they are integral. They must agree with their Fraction-only copies
in oracles.py, and the public objects must keep their Fractions, which is
what `cli._plain` writes as strings."""

import json
import random
from fractions import Fraction

from wallcross import cli, criterion, rationals
from wallcross.criterion import (
    OneParamSubgroup,
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
    curve_to_json,
    make_witness,
    normalize_frame,
)
from wallcross.hessians import analyzed_slopes
from wallcross.polynomials import Polynomial
from wallcross.rationals import format_rational

from oracles import fraction_evaluate, fraction_interval_mu_claim, fraction_mu_min, fraction_primitive
from test_torus_corpus import FIXTURE, cases

SEED = 20260


def _subgroups(surface, rng):
    """Integral and fractional subgroups of the surface, the fractional
    ones as a user would write them with --lambda."""
    if surface is Surface.P2:
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        q = rng.randint(2, 4)
        yield OneParamSubgroup(surface, (a, b, -a - b))
        yield OneParamSubgroup(surface, (Fraction(a, q), Fraction(b, q), Fraction(-a - b, q)))
        yield OneParamSubgroup(surface, ("1/2", "-1/2", "0"))
    else:
        yield OneParamSubgroup(surface, (rng.randint(-5, 5), rng.randint(-5, 5)))
        yield OneParamSubgroup(
            surface, (Fraction(rng.randint(-5, 5), rng.randint(2, 4)), Fraction(rng.randint(-5, 5), 3))
        )
        yield OneParamSubgroup(surface, ("1/2", "-3/4"))


def test_mu_min_matches_the_fraction_oracle():
    rng = random.Random(SEED)
    surfaces = set()
    for _, curve, t in cases(SEED):
        surfaces.add(curve.surface)
        for lam in _subgroups(curve.surface, rng):
            for slope in (t, Fraction(rng.randint(-9, 9), rng.randint(1, 3))):
                value, pair = mu_min(curve, lam, slope)
                assert (value, pair) == fraction_mu_min(curve, lam, slope)
                assert type(value) is Fraction
    assert surfaces == set(Surface)


def test_torus_recheck_matches_the_fraction_oracle(monkeypatch):
    # torus_verdict re-checks its certificate with mu_min's integer kernel,
    # (num, den, pair) with mu = num / den; on every case of the torus
    # corpus that gives a certificate, that mu is the Fraction oracle's
    rechecks = []
    kernel = criterion._mu

    def recorded(curve, lam, tn, tq, labels):
        num, den, pair = kernel(curve, lam, tn, tq, labels)
        rechecks.append((curve, lam, Fraction(tn, tq), Fraction(num, den), pair))
        return num, den, pair

    monkeypatch.setattr(criterion, "_mu", recorded)
    n = certificates = 0
    for _, curve, t in cases(json.loads(FIXTURE.read_text())["seed"]):
        n += 1
        before = len(rechecks)
        _, lam = torus_verdict(curve, t)
        assert len(rechecks) - before == (lam is not None)
        certificates += lam is not None
    assert n == 600 and certificates == len(rechecks) > 300
    for curve, lam, t, value, pair in rechecks:
        assert (value, pair) == fraction_mu_min(curve, lam, t)


def test_primitive_matches_the_fraction_oracle(monkeypatch):
    F = Fraction
    fixed = [
        (0, 0, 0), (F(0), F(0)), (0, F(-3, 4), 0), (F(5, 2),), (7, 0),
        (-4, -6, 10), (F(-2, 3), F(4, 9), F(2, 9)),
        (F(1, 6), F(-3, 4), F(7, 10)), (3, F(1, 2), F(-5, 7)),
    ]
    rng = random.Random(SEED)
    drawn = [
        tuple(rng.choice((0, rng.randint(-9, 9), F(rng.randint(-9, 9), rng.randint(1, 12))))
              for _ in range(rng.randint(1, 3)))
        for _ in range(300)
    ]
    for entries in fixed + drawn:
        got = rationals.primitive(entries)
        assert got == fraction_primitive(entries) and all(type(x) is int for x in got), entries
    # the int rows stabilizer_dimension reads its generator from
    rows = []
    kernel = criterion.primitive

    def recorded(entries):
        got = kernel(entries)
        rows.append((entries, got))
        return got

    monkeypatch.setattr(criterion, "primitive", recorded)
    for surface in Surface:
        point = (0, 0, 1) if surface is Surface.P2 else (0, 1, 0, 1)
        for d in (3, 4):
            exps = all_exponents(surface, d)
            for _ in range(40):
                terms = {e: 1 for e in rng.sample(exps, rng.randint(1, 3))}
                terms.pop((0, 0, d) if surface is Surface.P2 else (0, d, 0, d), None)
                if terms:
                    curve = PointedCurve(surface, d, tuple(map(F, point)), Polynomial(surface.nvars, terms))
                    stabilizer_dimension(curve)
    int_rows = [(e, got) for e, got in rows if all(type(x) is int for x in e)]
    assert len(int_rows) > 20
    for entries, got in int_rows:
        assert got == fraction_primitive(entries)


def _claim_specs(surface, d, rng):
    wall, edge = analyzed_slopes(surface, d)
    for t in (wall, edge, Fraction(rng.randint(1, 12), rng.randint(1, 4))):
        yield ("point", t)
    yield ("open", wall, edge)
    lo = Fraction(rng.randint(-4, 8), rng.randint(1, 3))
    yield ("open", lo, lo + Fraction(rng.randint(1, 6), rng.randint(1, 2)))


def test_interval_mu_claim_matches_the_fraction_oracle():
    rng = random.Random(SEED)
    labels = {
        Surface.P2: [0, 1, 2],
        Surface.QUADRIC: [(l, m) for l in range(2) for m in range(2)],
    }
    seen = {"passed": 0, "counterexamples": 0, "equalities": 0}
    for surface in Surface:
        for d in (3, 4, 5):
            exps = all_exponents(surface, d)
            for lam in _subgroups(surface, rng):
                for spec in _claim_specs(surface, d, rng):
                    for strictness in (">0", ">=0"):
                        exponents = rng.sample(exps, min(len(exps), 6))
                        label_set = rng.sample(labels[surface], rng.randint(1, 2))
                        got = interval_mu_claim(surface, lam, label_set, exponents, spec, strictness)
                        want = fraction_interval_mu_claim(
                            surface, lam, label_set, exponents, spec, strictness
                        )
                        assert got == want
                        for _, _, t, v in got.counterexamples:
                            assert type(t) is Fraction and type(v) is Fraction
                        assert all(type(t) is Fraction for _, _, t in got.equalities)
                        seen["passed"] += got.passed
                        seen["counterexamples"] += bool(got.counterexamples)
                        seen["equalities"] += bool(got.equalities)
    assert all(seen.values()), seen


def test_evaluate_matches_the_fraction_oracle():
    rng = random.Random(SEED)
    coords = (0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))
    kinds = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        terms = {
            tuple(rng.randint(0, 4) for _ in range(n)): rng.choice(
                (1, -2, 3, Fraction(1, 3), Fraction(-5, 2))
            )
            for _ in range(rng.randint(1, 8))
        }
        poly = Polynomial(n, terms)
        point = tuple(rng.choice(coords) for _ in range(n))
        for pt in (point, tuple(Fraction(x) for x in point)):
            value = poly.evaluate(pt)
            assert value == fraction_evaluate(poly, pt) and type(value) is Fraction
        kinds.add(all(type(x) is int for x in point))
    assert kinds == {True, False}


def test_fractional_user_weights_stay_fractions(tmp_path, capsys):
    curve = make_witness(WitnessKind.P2_CUSPIDAL_X0, 4)
    lam = OneParamSubgroup(Surface.P2, (Fraction(1, 2), Fraction(-1, 2), 0))
    assert lam.weights == (Fraction(1, 2), Fraction(-1, 2), 0)
    assert all(type(w) is Fraction for w in lam.weights) and lam._scaled == (2, (1, -1, 0))
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(curve_to_json(curve)))
    assert cli.main(["mu", "--curve", str(path), "--lambda=1/2,-1/2,0", "--slope", "7/4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    value, (label, exp) = fraction_mu_min(curve, lam, Fraction(7, 4))
    assert doc["lambda"] == ["1/2", "-1/2", "0"]
    assert (doc["mu"], doc["label"], doc["exponent"]) == (format_rational(value), label, list(exp))


# -- the public objects keep Fractions, and frames canonical entries ----------


def _all_fractions(values):
    return all(type(x) is Fraction for x in values)


def _all_canonical(values):
    # the rule of rationals.canonical: an int, or a Fraction that is not one
    return all(type(x) is int or (type(x) is Fraction and x.denominator > 1) for x in values)


def _frame_entries(frame):
    mats = (frame.mx,) if frame.my is None else (frame.mx, frame.my)
    return [x for m in mats for row in m for x in row]


def _pinning_cases():
    """Every witness, and one moved to the point (1/2 : 0 : 1), each at a
    slope below the wall, at the wall, in the chamber, at and above the
    edge."""
    half = FrameChange(Surface.P2, ((1, 0, Fraction(1, 2)), (0, 1, 0), (0, 0, 1)))
    curves = [make_witness(k, 4 if k is WitnessKind.P2_HYPERFLEX else 3) for k in WitnessKind]
    curves.append(apply_frame(make_witness(WitnessKind.P2_NONFLEX, 4), half))
    for curve in curves:
        d = curve.degree
        wall, edge = analyzed_slopes(curve.surface, d)
        for t in (wall - Fraction(1, 2), wall, (wall + edge) / 2, edge, edge + 1):
            yield curve, t


def test_public_scalars_stay_fractions():
    certificates = 0
    frame = FrameChange(Surface.P2, ((1, 2, 0), (0, 1, 0), (3, 0, 1)))
    quadric_frame = FrameChange(Surface.QUADRIC, ((1, 1), (0, 2)), ((0, 1), (1, 0)), swap=True)
    assert _all_canonical(_frame_entries(frame)) and _all_canonical(_frame_entries(quadric_frame))
    for curve, t in _pinning_cases():
        verdict = stability_verdict(curve, t, budget=20)
        assert type(verdict.t) is Fraction
        if verdict.certificate is not None:
            certificates += 1
            cert = verdict.certificate
            assert _all_fractions(cert["lambda"].weights)
            assert _all_canonical(_frame_entries(cert["frame"]))
            assert type(cert["mu"]) is Fraction
        g, moved = normalize_frame(curve)
        assert _all_canonical(_frame_entries(g)) and _all_fractions(moved.point)
        f = frame if curve.surface is Surface.P2 else quadric_frame
        applied = apply_frame(curve, f)
        assert _all_fractions(applied.point)
        lam = OneParamSubgroup(curve.surface, (1, 0, -1) if curve.surface is Surface.P2 else (1, -2))
        for c in (curve, moved, applied):
            value, _ = mu_min(c, lam, t)
            assert type(value) is Fraction and _all_fractions(lam.weights)
    assert certificates

