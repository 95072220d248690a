import copy
import json
import os
from fractions import Fraction
from types import SimpleNamespace

import pytest

from wallcross import walls
from wallcross.criterion import stability_verdict
from wallcross.curves import PointedCurve, Surface, WitnessKind, make_witness
from wallcross.hessians import analyzed_slopes
from wallcross.polynomials import Polynomial
from wallcross.walls import (
    chamber_report,
    classify_at_wall,
    load_propositions,
    verify_all,
    verify_proposition,
)

ALL_IDS = [
    "4.2",
    "4.3-S",
    "4.3-flex",
    "4.3-singular",
    "4.4-flexwall",
    "4.4-hyperflex",
    "4.4-singular",
    "5.2",
    "5.3-H01",
    "5.3-S",
    "5.4-H01wall",
    "5.4-perturbed",
]


def test_wall_slopes_examples():
    assert analyzed_slopes(Surface.P2, 4) == (Fraction(7, 4), Fraction(2))
    assert analyzed_slopes(Surface.P2, 5) == (Fraction(11, 4), Fraction(3))
    assert analyzed_slopes(Surface.QUADRIC, 3) == (Fraction(5, 3), Fraction(2))
    assert analyzed_slopes(Surface.QUADRIC, 4) == (Fraction(8, 3), Fraction(3))


def test_proposition_table_contents():
    table = load_propositions()
    assert sorted(table) == ALL_IDS
    for pid, params in table.items():
        assert params["surface"] in ("p2", "quadric")
        assert params["strictness"] in (">0", ">=0")


def test_verify_all_degrees():
    for d in (3, 4, 5, 6):
        results = verify_all(d)
        assert [r["id"] for r in results] == ALL_IDS
        for r in results:
            assert r["ok"], (r["id"], d, r["counterexamples"])


def test_negative_control_strictness_flip():
    # tightening the edge claim to a strict inequality must fail, and the
    # counterexamples are exactly the monomials achieving equality
    table = load_propositions()
    params = copy.deepcopy(table["4.2"])
    params["strictness"] = ">0"
    params.pop("expected_equalities", None)
    table["4.2"] = params
    out = verify_proposition("4.2", 4, table)
    assert not out["ok"]
    bad = {(lb, ex) for lb, ex, _, _ in out["counterexamples"]}
    assert bad == {(2, (0, 2, 2)), (2, (1, 0, 3))}
    for _, _, _, value in out["counterexamples"]:
        assert value == 0


def test_unknown_id_raises():
    with pytest.raises(KeyError):
        verify_proposition("0.0-missing", 4)


def test_malformed_claims_are_refused():
    # each entry of the claim table is resolved at the degree asked, and a
    # malformed one is named; the plane's edge claim is edited one field
    # at a time
    def edited(edit):
        params = copy.deepcopy(load_propositions()["4.2"])
        edit(params)
        return {"4.2": params}

    def entry(value):
        return lambda p: p["monomials"].update(entries=[value])

    for edit, message in (
        (entry([0, 0, "e"]), "bad exponent entry 'e'"),
        (entry([0, "d"]), "exponent arity mismatch: [0, 'd']"),
        (entry([0, 0, "d-9"]), "exponent [0, 0, 'd-9'] is negative at degree 4"),
        (lambda p: p.update(labels=["2"]), "bad point label '2'"),
        (lambda p: p["monomials"].update(mode="all"), "bad monomial mode 'all'"),
        (lambda p: p.update(t={"type": "half", "at": "wall"}), "bad slope spec"),
    ):
        with pytest.raises(ValueError) as refused:
            verify_proposition("4.2", 4, edited(edit))
        assert str(refused.value).startswith(message)


def test_a_malformed_fixture_table_is_refused(tmp_path, monkeypatch):
    # the packaged table is read through importlib.resources, here pointed
    # at a directory holding a crafted fixture
    fixture = tmp_path / "fixtures" / "propositions_v1.json"
    fixture.parent.mkdir()
    monkeypatch.setattr(walls, "resources", SimpleNamespace(files=lambda package: tmp_path))
    for doc, message in (
        ({"schema": "wallcross/propositions/0"}, "unrecognized fixture schema: 'wallcross/propositions/0'"),
        ({"schema": "wallcross/propositions/1", "propositions": {}}, "fixture table is empty"),
    ):
        fixture.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_propositions()


def test_classify_at_wall_regions():
    # the flex and ruling-tangent witnesses factor as the closed-orbit
    # configuration itself (cuspidal cubic plus cuspidal tangent, marked at
    # the flex; its ruling analogue up to factor swap), so they land in x0
    cases = {
        WitnessKind.P2_S: "not_semistable",
        WitnessKind.P2_HYPERFLEX: "not_semistable",
        WitnessKind.P2_CUSPIDAL_X0: "x0",
        WitnessKind.P2_FLEX: "x0",
        WitnessKind.P2_NONFLEX: "common",
    }
    for kind, region in cases.items():
        got, basis = classify_at_wall(make_witness(kind, 4))
        assert got == region, kind.value
        assert set(basis) == {"in_h1", "in_h2prime", "in_s", "in_x0", "smooth_at_p"}
    qcases = {
        WitnessKind.QUADRIC_S: "not_semistable",
        WitnessKind.QUADRIC_X0: "x0",
        WitnessKind.QUADRIC_RULING_TANGENT: "x0",
    }
    for kind, region in qcases.items():
        got, _ = classify_at_wall(make_witness(kind, 3))
        assert got == region, kind.value


def test_classify_at_wall_x_minus():
    # perturbed versions of the tangent witnesses leave the closed orbit
    # but keep the first-order contact at the marked point
    flexish = PointedCurve(
        Surface.P2,
        4,
        (Fraction(0), Fraction(0), Fraction(1)),
        Polynomial(3, {(0, 3, 1): 1, (1, 0, 3): 1, (4, 0, 0): 1}),
    )
    assert classify_at_wall(flexish)[0] == "x_minus"
    tangentish = PointedCurve(
        Surface.QUADRIC,
        3,
        tuple(Fraction(x) for x in (0, 1, 0, 1)),
        Polynomial(4, {(1, 2, 0, 3): 1, (0, 3, 2, 1): 1, (3, 0, 3, 0): 1}),
    )
    assert classify_at_wall(tangentish)[0] == "x_minus"


def test_classify_at_wall_decided_by_exact_flags():
    # the node of x0^2*x2 - x0*x1^2 - K*x0*x2^2 + K*x1^2*x2 carries in_h1 and
    # in_h2prime, which settle the wall stratum; a singular point allows
    # neither special configuration. The stratum and the verdict at the
    # wall are decided
    K = 10 ** 14
    curve = PointedCurve(
        Surface.P2,
        3,
        (Fraction(K), Fraction(10 ** 7), Fraction(1)),
        Polynomial(3, {(2, 0, 1): 1, (1, 2, 0): -1, (1, 0, 2): -K, (0, 2, 1): K}),
    )
    stratum, basis = classify_at_wall(curve)
    assert stratum == "not_semistable"
    assert basis["in_h1"] and basis["in_h2prime"]
    verdict = stability_verdict(curve, analyzed_slopes(Surface.P2, 3)[0])
    assert verdict.status == "Unstable" and not verdict.undecided


def test_chamber_report_shape():
    rep = chamber_report(Surface.P2, 4)
    assert rep["wall"] == Fraction(7, 4) and rep["edge"] == Fraction(2)
    assert set(rep["strata"]) == {"edge", "chamber", "wall"}
    assert rep["claims"]["wall"] == ["4.4-singular", "4.4-flexwall", "4.4-hyperflex"]
    qrep = chamber_report(Surface.QUADRIC, 3)
    assert qrep["wall"] == Fraction(5, 3) and qrep["edge"] == Fraction(2)
    assert qrep["claims"]["edge"] == ["5.2"]
