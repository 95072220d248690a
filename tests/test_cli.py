import contextlib
import io
import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from wallcross import cli, criterion, inflection, linprog, polynomials
from wallcross.cli import main
from wallcross.criterion import mu_min, stability_verdict
from wallcross.curves import (
    FrameChange,
    Surface,
    WitnessKind,
    apply_frame,
    curve_from_json,
    curve_to_json,
    make_witness,
)
from wallcross.hessians import analyzed_slopes
from wallcross.rationals import format_rational, parse_rational


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def write_witness(capsys, tmp_path, kind, degree, name="curve.json"):
    path = tmp_path / name
    code, out, _ = run(
        capsys, "witness", "--kind", kind, "--degree", str(degree), "--out", str(path)
    )
    assert code == 0
    return path, out


def test_walls_document(capsys):
    doc = run_json(capsys, "walls", "--surface", "p2", "--degree", "4")
    assert doc == {
        "schema": "wallcross/1",
        "command": "walls",
        "surface": "p2",
        "degree": 4,
        "wall": "7/4",
        "edge": "2",
    }
    doc = run_json(capsys, "walls", "--surface", "quadric", "--degree", "3")
    assert doc["wall"] == "5/3" and doc["edge"] == "2"


def test_hessian_class_documents(capsys):
    doc = run_json(capsys, "hessian-class", "--surface", "p2", "--degree", "4", "--m", "1")
    assert doc["components"] == [6, 3] and doc["slope"] == "2"
    doc = run_json(
        capsys,
        "hessian-class", "--surface", "quadric", "--degree", "3",
        "--m", "0,1", "--symmetrized",
    )
    assert doc["components"] == [4, 4, 2] and doc["slope"] == "2"
    assert doc["symmetrized"] is True
    doc = run_json(
        capsys, "hessian-class", "--surface", "quadric", "--degree", "3", "--m", "0,1"
    )
    assert doc["components"] == [1, 3, 1]
    assert doc["slope"] is None  # asymmetric class has no single slope


def test_witness_round_trip_through_verdict(capsys, tmp_path):
    path, out = write_witness(capsys, tmp_path, "p2-cuspidal-x0", 4)
    assert path.read_text() == out  # file and stdout carry the same document
    doc = run_json(capsys, "verdict", "--curve", str(path), "--slope", "7/4")
    assert doc["status"] == "StrictlySemistable"
    cert = doc["certificate"]
    assert cert["lambda"]["weights"] == ["5", "-1", "-4"]
    assert cert["mu"] == "0"
    assert doc["citations"] == ["4.4-singular", "4.4-flexwall", "4.4-hyperflex"]


def test_witness_readable_from_stdin(capsys, tmp_path, monkeypatch):
    path, out = write_witness(capsys, tmp_path, "quadric-s", 3)
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    doc = run_json(capsys, "verdict", "--curve", "-", "--slope", "5/3")
    assert doc["status"] == "Unstable"
    assert doc["certificate"]["mu"] == "2/3"


def test_byte_determinism(capsys, tmp_path):
    _, first = write_witness(capsys, tmp_path, "p2-s", 5, "a.json")
    _, second = write_witness(capsys, tmp_path, "p2-s", 5, "b.json")
    assert first == second
    path = tmp_path / "a.json"
    args = ("verdict", "--curve", str(path), "--slope", "23/8", "--seed", "7")
    c1, o1, _ = run(capsys, *args)
    c2, o2, _ = run(capsys, *args)
    assert (c1, o1) == (c2, o2)


def test_mu_document(capsys, tmp_path):
    path, _ = write_witness(capsys, tmp_path, "p2-hyperflex", 4)
    doc = run_json(
        capsys, "mu", "--curve", str(path), "--lambda=-11,3,8", "--slope", "7/4"
    )
    assert doc["mu"] == "1"
    assert doc["label"] == 2
    assert doc["exponent"] == [1, 0, 3]
    assert doc["lambda"] == ["-11", "3", "8"]


def test_inflect_document(capsys, tmp_path):
    path, _ = write_witness(capsys, tmp_path, "p2-hyperflex", 4)
    doc = run_json(capsys, "inflect", "--curve", str(path))
    assert doc["flex"] is True and doc["hyperflex"] is True
    assert doc["sequences"]["o1"]["orders"] == [0, 1, 4]
    assert doc["weight"] == 2
    assert doc["undecided"] is False


def test_chamber_document(capsys):
    doc = run_json(capsys, "chamber", "--surface", "p2", "--degree", "4")
    assert doc["wall"] == "7/4" and doc["edge"] == "2"
    assert doc["claims"]["edge"] == ["4.2"]
    assert set(doc["strata"]) == {"edge", "chamber", "wall"}


def test_verify_exit_codes(capsys, monkeypatch):
    doc = run_json(capsys, "verify", "--all", "--degree", "4")
    assert doc["ok"] is True and len(doc["results"]) == 12
    doc = run_json(capsys, "verify", "--id", "5.2", "--degree", "3")
    assert doc["ok"] is True

    # a tampered table must drive the exit code to 2
    params = cli.load_propositions()["4.2"]
    params["strictness"] = ">0"
    params.pop("expected_equalities", None)
    monkeypatch.setattr(cli, "load_propositions", lambda: {"4.2": params})
    code, out, _ = run(capsys, "verify", "--id", "4.2", "--degree", "4")
    assert code == 2
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["results"][0]["counterexamples"]

    # a bad degree is refused by the replay, not blamed on the table, and
    # named before any exponent of the table goes negative at it
    for degree in ("-3", "0", "1", "2"):
        for argv in (("--all",), ("--id", "4.2")):
            code, out, err = run(capsys, "verify", *argv, "--degree", degree)
            assert code == 1 and out == ""
            assert "cannot load the proposition table" not in err
            assert f"at degree {degree}: degree must be an integer >= 3" in err

    # an unknown id is named once, with exit 1
    code, out, err = run(capsys, "verify", "--id", "nope", "--degree", "4")
    assert code == 1 and out == ""
    assert err.count("unknown proposition id") == 1
    assert "unknown proposition id 'nope'" in err


def test_internal_error_exits_four(capsys, tmp_path, monkeypatch):
    path, _ = write_witness(capsys, tmp_path, "p2-cuspidal-x0", 4)
    # a division the algebra guarantees to be exact comes out inexact
    monkeypatch.setattr(polynomials, "exact_divide", lambda f, g: None)
    code, out, err = run(capsys, "inflect", "--curve", str(path))
    assert code == 4 and out == ""
    assert err.startswith("internal error: ") and "does not divide" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("walls", "--surface", "p3", "--degree", "4"),
        ("verdict", "--curve", "/nonexistent/no.json", "--slope", "2"),
        ("hessian-class", "--surface", "p2", "--degree", "3", "--m", "3"),
        ("hessian-class", "--surface", "p2", "--degree", "4", "--m", "1", "--symmetrized"),
        ("hessian-class", "--surface", "quadric", "--degree", "4", "--m", "1"),
        ("witness", "--kind", "p2-hyperflex", "--degree", "3"),
        ("verify", "--id", "9.9", "--degree", "4"),
        ("verify", "--degree", "4"),
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "error:" in err


def test_bad_arguments_and_documents_exit_one_with_their_message(capsys, tmp_path, monkeypatch):
    missing = tmp_path / "missing" / "x.json"
    for argv, message in (
        (("hessian-class", "--surface", "p2", "--degree", "4", "--m", "x"), "bad bundle degree 'x'"),
        (("hessian-class", "--surface", "p2", "--degree", "4", "--m", "1,2"),
         "the plane takes a single bundle degree"),
        (("walls", "--surface", "p2", "--degree", "2"), "degree must be an integer >= 3"),
        (("chamber", "--surface", "quadric", "--degree", "2"), "degree must be an integer >= 3"),
        (("witness", "--kind", "p2-flex", "--degree", "3", "--out", str(missing)),
         f"cannot write {str(missing)!r}"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {message}")
    assert not missing.parent.exists()
    empty_terms = {"surface": "p2", "degree": 3, "point": ["0", "0", "1"], "terms": []}
    for doc, message in (
        ([], "curve document must be a JSON object"),
        (empty_terms, "terms must be a non-empty list"),
    ):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run(capsys, "inflect", "--curve", "-")
        assert code == 1 and out == ""
        assert err == f"error: bad curve document: {message}\n"


def test_exponent_notation_refused(capsys, tmp_path):
    path, _ = write_witness(capsys, tmp_path, "p2-hyperflex", 4)
    for slope in ("1e2", "1E2"):
        code, out, err = run(capsys, "mu", "--curve", str(path),
                             "--lambda=-11,3,8", "--slope", slope)
        assert code == 1 and out == "" and "bad slope" in err
    code, out, err = run(capsys, "mu", "--curve", str(path),
                         "--lambda=-11,3,8e0", "--slope", "7/4")
    assert code == 1 and out == "" and "bad weight list" in err
    code, _, _ = run(capsys, "verdict", "--curve", str(path), "--slope", "1e2",
                     "--budget", "1")
    assert code == 1
    # plain p/q, integers and negative weights keep working
    doc = run_json(capsys, "mu", "--curve", str(path), "--lambda=-11,3,8",
                   "--slope", "100")
    assert doc["t"] == "100"
    doc = run_json(capsys, "verdict", "--curve", str(path), "--slope", "7/4",
                   "--budget", "1")
    assert doc["t"] == "7/4"


def test_budget_below_one_exits_one(capsys, tmp_path):
    path, _ = write_witness(capsys, tmp_path, "p2-flex", 4)
    for budget in ("0", "-3"):
        code, out, err = run(capsys, "verdict", "--curve", str(path),
                             "--slope", "3", "--budget", budget)
        assert code == 1 and out == "" and "budget" in err


def test_malformed_curve_messages(capsys, tmp_path, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "verdict", "--curve", str(bad), "--slope", "2")
    assert code == 1 and "not valid JSON" in err and "line 1" in err

    off = tmp_path / "off.json"
    off.write_text(
        json.dumps(
            {
                "surface": "p2",
                "degree": 3,
                "point": ["0", "0", "1"],
                "terms": [{"exp": [0, 0, 3], "coeff": "1"}],
            }
        )
    )
    code, _, err = run(capsys, "verdict", "--curve", str(off), "--slope", "2")
    assert code == 1 and "bad curve document" in err

    # JSON true is not the integer 1: neither an exponent nor a degree
    for degree, exp, message in (
        (3, [True, 0, 2], "bad exponent [True, 0, 2]"),
        (True, [1, 0, 2], "degree must be an integer"),
    ):
        off.write_text(json.dumps({
            "surface": "p2", "degree": degree, "point": ["0", "1", "0"],
            "terms": [{"exp": exp, "coeff": "1"}],
        }))
        code, out, err = run(capsys, "verdict", "--curve", str(off), "--slope", "2")
        assert code == 1 and out == ""
        assert err.strip().endswith(f"bad curve document: {message}")

    path, _ = write_witness(capsys, tmp_path, "p2-s", 4)
    code, _, err = run(capsys, "verdict", "--curve", str(path), "--slope", "x/y")
    assert code == 1 and "bad slope" in err
    code, _, err = run(capsys, "mu", "--curve", str(path), "--lambda", "1,2", "--slope", "2")
    assert code == 1

    # bytes that are not UTF-8, and nesting deeper than the JSON decoder
    # recurses, are refused from a file and from stdin
    for data, message in (
        (b"\xff\xfe", "cannot read curve file: 'utf-8' codec can't decode"),
        (b"[" * 100000 + b"]" * 100000, "curve file is nested too deeply"),
    ):
        bad.write_bytes(data)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        for source in (str(bad), "-"):
            code, out, err = run(capsys, "inflect", "--curve", source)
            assert code == 1 and out == ""
            assert err.startswith(f"error: {message}")


def test_repeated_keys_are_refused(capsys, tmp_path):
    # json.loads alone keeps the last of repeated keys; a curve document
    # repeating one, at the top or inside a term, is refused whichever
    # copy comes first
    path, _ = write_witness(capsys, tmp_path, "p2-flex", 4)
    text = path.read_text()
    term = '{"coeff":"1","exp":[0,3,1]}'
    assert term in text
    for edited, key in (
        ('{"degree":5,' + text[1:], "degree"),
        (text.replace(term, '{"coeff":"1","exp":[0,3,1],"coeff":"2"}'), "coeff"),
    ):
        path.write_text(edited)
        code, out, err = run(capsys, "inflect", "--curve", str(path))
        assert code == 1 and out == ""
        assert err == f"error: curve file repeats the key {key!r}\n"


def test_pretty_flag_round_trips(capsys):
    code, compact, _ = run(capsys, "walls", "--surface", "p2", "--degree", "5")
    code2, pretty, _ = run(capsys, "walls", "--surface", "p2", "--degree", "5", "--pretty")
    assert code == code2 == 0
    assert json.loads(compact) == json.loads(pretty)
    assert "\n" in pretty.strip() and "\n" not in compact.strip()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wallcross.cli", "walls", "--surface", "quadric", "--degree", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["wall"] == "11/3" and doc["edge"] == "4"


# -- golden outputs ---------------------------------------------------------

GOLDEN = Path(__file__).parent / "fixtures" / "cli_golden.json"

# A plane cubic with a rational marked point and tangent coefficient 3:
# 3*x1*x2^2 + 2*x0^2*x2 - x0*x2^2 + x1^3 at (1/2 : 0 : 1), so its branch
# has coefficients with denominators greater than 1.
RATIONAL_BRANCH_CUBIC = {
    "surface": "p2",
    "degree": 3,
    "point": ["1/2", "0", "1"],
    "terms": [
        {"exp": [0, 1, 2], "coeff": "3"},
        {"exp": [2, 0, 1], "coeff": "2"},
        {"exp": [1, 0, 2], "coeff": "-1"},
        {"exp": [0, 3, 0], "coeff": "1"},
    ],
}

# Curves whose verdicts reach the wall's flipped stratum: perturbed tangent
# witnesses with first-order contact outside the closed orbit (x_minus at
# the wall). And, with K = 10^13, curves on whose huge coefficients the
# component search of `oracles.ungated_special_locus` gives up, one for
# each of its four line and ruling searches: the cubic (x0 + K*x2)(x0*x2 -
# x1^2) (lines with slope 0) and the plane quartics (x1 + K*x2)^2 (x0*x2 -
# x1^2) and (x0 + K*x1)^2 (x0*x2 - x1^2) (lines through (1,0,0) and line
# slopes), whose line is no tangent of the conic, so they are in neither
# configuration, and the (3, 3) quadric curve (x0*y1 - x1*y0)(x0 + K*x1)^2
# (y0 + K*y1)^2 (rulings), which is in S. The package decides all four.
BRANCH_CURVES = {
    "flexish": {
        "surface": "p2",
        "degree": 4,
        "point": ["0", "0", "1"],
        "terms": [
            {"exp": [0, 3, 1], "coeff": "1"},
            {"exp": [1, 0, 3], "coeff": "1"},
            {"exp": [4, 0, 0], "coeff": "1"},
        ],
    },
    "tangentish": {
        "surface": "quadric",
        "degree": 3,
        "point": ["0", "1", "0", "1"],
        "terms": [
            {"exp": [1, 2, 0, 3], "coeff": "1"},
            {"exp": [0, 3, 2, 1], "coeff": "1"},
            {"exp": [3, 0, 3, 0], "coeff": "1"},
        ],
    },
    "undecided-cubic": {
        "surface": "p2",
        "degree": 3,
        "point": ["1", "1", "1"],
        "terms": [
            {"exp": [2, 0, 1], "coeff": "1"},
            {"exp": [1, 2, 0], "coeff": "-1"},
            {"exp": [1, 0, 2], "coeff": str(10 ** 13)},
            {"exp": [0, 2, 1], "coeff": str(-10 ** 13)},
        ],
    },
    "undecided-pencil": {
        "surface": "p2",
        "degree": 4,
        "point": ["1", "1", "1"],
        "terms": [
            {"exp": [0, 2, 2], "coeff": str(-10 ** 26)},
            {"exp": [0, 3, 1], "coeff": str(-2 * 10 ** 13)},
            {"exp": [0, 4, 0], "coeff": "-1"},
            {"exp": [1, 0, 3], "coeff": str(10 ** 26)},
            {"exp": [1, 1, 2], "coeff": str(2 * 10 ** 13)},
            {"exp": [1, 2, 1], "coeff": "1"},
        ],
    },
    "undecided-slope": {
        "surface": "p2",
        "degree": 4,
        "point": ["1", "1", "1"],
        "terms": [
            {"exp": [0, 4, 0], "coeff": str(-10 ** 26)},
            {"exp": [1, 2, 1], "coeff": str(10 ** 26)},
            {"exp": [1, 3, 0], "coeff": str(-2 * 10 ** 13)},
            {"exp": [2, 1, 1], "coeff": str(2 * 10 ** 13)},
            {"exp": [2, 2, 0], "coeff": "-1"},
            {"exp": [3, 0, 1], "coeff": "1"},
        ],
    },
    "undecided-quadric": {
        "surface": "quadric",
        "degree": 3,
        "point": ["1", "1", "1", "1"],
        "terms": [
            {"exp": [0, 3, 1, 2], "coeff": str(-10 ** 52)},
            {"exp": [0, 3, 2, 1], "coeff": str(-2 * 10 ** 39)},
            {"exp": [0, 3, 3, 0], "coeff": str(-10 ** 26)},
            {"exp": [1, 2, 0, 3], "coeff": str(10 ** 52)},
            {"exp": [1, 2, 2, 1], "coeff": str(-3 * 10 ** 26)},
            {"exp": [1, 2, 3, 0], "coeff": str(-2 * 10 ** 13)},
            {"exp": [2, 1, 0, 3], "coeff": str(2 * 10 ** 39)},
            {"exp": [2, 1, 1, 2], "coeff": str(3 * 10 ** 26)},
            {"exp": [2, 1, 3, 0], "coeff": "-1"},
            {"exp": [3, 0, 0, 3], "coeff": str(10 ** 26)},
            {"exp": [3, 0, 1, 2], "coeff": str(2 * 10 ** 13)},
            {"exp": [3, 0, 2, 1], "coeff": "1"},
        ],
    },
}


# Swept configurations whose destabilizer only the frame adapted to the
# special-locus geometry exposes: the p2-s witness of degree 4 and the
# quadric-s witness of degree 3 moved off their coordinate data, each with
# its chamber slope.
ADAPTED_CURVES = {
    "adapted-p2-s": ({
        "surface": "p2",
        "degree": 4,
        "point": ["1", "2", "-1"],
        "terms": [
            {"exp": [0, 3, 1], "coeff": "-1"},
            {"exp": [0, 4, 0], "coeff": "1"},
            {"exp": [1, 2, 1], "coeff": "3"},
            {"exp": [1, 3, 0], "coeff": "-5"},
            {"exp": [2, 1, 1], "coeff": "-3"},
            {"exp": [2, 2, 0], "coeff": "8"},
            {"exp": [3, 0, 1], "coeff": "1"},
            {"exp": [3, 1, 0], "coeff": "-5"},
            {"exp": [4, 0, 0], "coeff": "1"},
        ],
    }, "15/8"),
    "adapted-quadric-s": ({
        "surface": "quadric",
        "degree": 3,
        "point": ["-1", "0", "-1", "0"],
        "terms": [
            {"exp": [0, 3, 2, 1], "coeff": "-1"},
            {"exp": [0, 3, 3, 0], "coeff": "-1"},
            {"exp": [1, 2, 2, 1], "coeff": "3"},
            {"exp": [1, 2, 3, 0], "coeff": "2"},
            {"exp": [2, 1, 2, 1], "coeff": "-3"},
            {"exp": [2, 1, 3, 0], "coeff": "-1"},
            {"exp": [3, 0, 2, 1], "coeff": "1"},
        ],
    }, "11/6"),
}

# Curves singular at the marked point, where in_h1 and in_h2prime follow
# from the local geometry alone and no vanishing sequence is computed:
# the nodal cubic x0*x1*x2 + x0^3 + x1^3 at its node (0 : 0 : 1), and the
# (3, 3) quadric curve x0*x1^2*y0*y1^2 + x0^3*y1^3 + x1^3*y0^3 at its node
# ((0 : 1), (0 : 1)).
SINGULAR_CURVES = {
    "nodal-cubic": {
        "surface": "p2",
        "degree": 3,
        "point": ["0", "0", "1"],
        "terms": [
            {"exp": [1, 1, 1], "coeff": "1"},
            {"exp": [3, 0, 0], "coeff": "1"},
            {"exp": [0, 3, 0], "coeff": "1"},
        ],
    },
    "nodal-quadric": {
        "surface": "quadric",
        "degree": 3,
        "point": ["0", "1", "0", "1"],
        "terms": [
            {"exp": [1, 2, 1, 2], "coeff": "1"},
            {"exp": [3, 0, 0, 3], "coeff": "1"},
            {"exp": [0, 3, 3, 0], "coeff": "1"},
        ],
    },
}


def scaled(doc, factor):
    """The curve document doc with every coefficient multiplied by factor."""
    terms = [{"exp": t["exp"], "coeff": format_rational(Fraction(t["coeff"]) * factor)}
             for t in doc["terms"]]
    return {**doc, "terms": terms}


def scaled_point(doc, factor):
    """The curve document doc with its point multiplied by factor, and on
    the quadric the point's second factor by factor squared."""
    point = [Fraction(x) for x in doc["point"]]
    scales = [factor] * 3 if doc["surface"] == "p2" else [factor] * 2 + [factor ** 2] * 2
    return {**doc, "point": [format_rational(x * c) for x, c in zip(point, scales)]}


def moved(name, curve):
    """curve moved by the random frame that the golden case name seeds."""
    rng = random.Random(sum(map(ord, name)))
    return apply_frame(curve, FrameChange(curve.surface, *criterion._random_frame(curve.surface, rng)))


# Curves that each reach one path of the local report or the frame search.
PATH_CURVES = {
    # a (4, 4) quadric curve below its wall of 8/3
    "quartic": {
        "surface": "quadric",
        "degree": 4,
        "point": ["0", "1", "0", "1"],
        "terms": [
            {"exp": [0, 4, 2, 2], "coeff": "2"},
            {"exp": [0, 4, 3, 1], "coeff": "2"},
            {"exp": [1, 3, 0, 4], "coeff": "1"},
            {"exp": [1, 3, 1, 3], "coeff": "1"},
            {"exp": [1, 3, 2, 2], "coeff": "1"},
            {"exp": [3, 1, 2, 2], "coeff": "3"},
            {"exp": [4, 0, 2, 2], "coeff": "2"},
        ],
    },
    # (x0 - K*x2)(x0*x2 - x1^2), K = 10^14, at its node (K : 10^7 : 1): a
    # singular marked point allows neither special configuration, so inflect
    # tests none
    "node": {
        "surface": "p2",
        "degree": 3,
        "point": [str(10 ** 14), str(10 ** 7), "1"],
        "terms": [
            {"exp": [2, 0, 1], "coeff": "1"},
            {"exp": [1, 2, 0], "coeff": "-1"},
            {"exp": [1, 0, 2], "coeff": str(-10 ** 14)},
            {"exp": [0, 2, 1], "coeff": str(10 ** 14)},
        ],
    },
    # a squarefree (5, 5) curve at ((0 : 1), (0 : 1)) whose chart has the
    # factor y0, free of x0
    "free-factor": {
        "surface": "quadric",
        "degree": 5,
        "point": ["0", "1", "0", "1"],
        "terms": [
            {"exp": [0, 5, 1, 4], "coeff": "3"},
            {"exp": [0, 5, 4, 1], "coeff": "1"},
            {"exp": [2, 3, 1, 4], "coeff": "3"},
            {"exp": [3, 2, 1, 4], "coeff": "2"},
            {"exp": [3, 2, 3, 2], "coeff": "3"},
            {"exp": [4, 1, 5, 0], "coeff": "-2"},
            {"exp": [5, 0, 3, 2], "coeff": "3"},
            {"exp": [5, 0, 5, 0], "coeff": "3"},
        ],
    },
    # the quadric-x0 witness at d = 3 moved by a frame that swaps the
    # factors: its ruling contacts (2, 1) allow the swapped X0, and the
    # restrictions to the rulings through p find the tangent fibres of its
    # (1, 2)-form as squares on them
    "moved-quadric-x0": {
        "surface": "quadric",
        "degree": 3,
        "point": ["-1", "1", "1", "1"],
        "terms": [
            {"exp": [0, 3, 0, 3], "coeff": "2"},
            {"exp": [0, 3, 1, 2], "coeff": "-2"},
            {"exp": [0, 3, 2, 1], "coeff": "1"},
            {"exp": [1, 2, 0, 3], "coeff": "1"},
        ],
    },
    # x0 * (x0*x2 - x1^2)^2 at (0 : 1 : 1), on the line: the tangent there
    # is the line, a component, so the local data allows neither
    # configuration and none is tested
    "conic-squared": {
        "surface": "p2",
        "degree": 5,
        "point": ["0", "1", "1"],
        "terms": [
            {"exp": [3, 0, 2], "coeff": "1"},
            {"exp": [2, 2, 1], "coeff": "-2"},
            {"exp": [1, 4, 0], "coeff": "1"},
        ],
    },
    # the p2-cuspidal-x0 quartic x0 * (x0^2 x2 + x1^3) at (1 : 0 : 0) moved
    # by the integer shear with rows (1,0,0), (1,1,0), (1,1,1): the polar
    # conic of the flex splits off the cusp line, found as a cube on the
    # harmonic polar of the flex, which is also the line of the quartic, so
    # it is in X0 and semistable at its wall
    "sheared-x0": {
        "surface": "p2",
        "degree": 4,
        "point": ["1", "1", "1"],
        "terms": [
            {"exp": [1, 3, 0], "coeff": "1"},
            {"exp": [2, 2, 0], "coeff": "-3"},
            {"exp": [3, 0, 1], "coeff": "1"},
            {"exp": [3, 1, 0], "coeff": "2"},
            {"exp": [4, 0, 0], "coeff": "-1"},
        ],
    },
    # flexes of cubics that are not cuspidal, so the restriction of the
    # cubic to the harmonic polar of the flex is no cube and neither is in
    # X0: the Fermat cubic at (1 : -1 : 0), and the nodal cubic
    # x1^2 x2 - x0^3 - x0^2 x2 at (0 : 1 : 0)
    "fermat-flex": {
        "surface": "p2",
        "degree": 3,
        "point": ["1", "-1", "0"],
        "terms": [
            {"exp": [3, 0, 0], "coeff": "1"},
            {"exp": [0, 3, 0], "coeff": "1"},
            {"exp": [0, 0, 3], "coeff": "1"},
        ],
    },
    "nodal-flex": {
        "surface": "p2",
        "degree": 3,
        "point": ["0", "1", "0"],
        "terms": [
            {"exp": [0, 2, 1], "coeff": "1"},
            {"exp": [3, 0, 0], "coeff": "-1"},
            {"exp": [2, 0, 1], "coeff": "-1"},
        ],
    },
    # x0 * (x1^2 + x2^2 + x0*x2) at (0 : 1 : 0): the tangent {x0 = 0} is a
    # component, so the lines' sequence read off the chart has an order past
    # its truncation, as the branch would give it
    "tangent-component": {
        "surface": "p2",
        "degree": 3,
        "point": ["0", "1", "0"],
        "terms": [
            {"exp": [1, 2, 0], "coeff": "1"},
            {"exp": [1, 0, 2], "coeff": "1"},
            {"exp": [2, 0, 1], "coeff": "1"},
        ],
    },
    # x0^3 U + 2 x0^2 V^2 - U V^3 + U^4 with U = 2 x1 - x0, V = 2 x2 + x0, at
    # (2 : 1 : -1): its chart at x0 = 1 is 2u + 8v^2 - 16uv^3 + 16u^4 with
    # shifts 1/2 and -1/2, no v term of order 1, so the branch is solved
    # along u and the conics' rows swap the chart monomials
    "along-u": {
        "surface": "p2",
        "degree": 4,
        "point": ["2", "1", "-1"],
        "terms": [
            {"exp": [0, 1, 3], "coeff": "-16"},
            {"exp": [0, 4, 0], "coeff": "16"},
            {"exp": [1, 0, 3], "coeff": "8"},
            {"exp": [1, 1, 2], "coeff": "-24"},
            {"exp": [1, 3, 0], "coeff": "-32"},
            {"exp": [2, 0, 2], "coeff": "20"},
            {"exp": [2, 1, 1], "coeff": "-12"},
            {"exp": [2, 2, 0], "coeff": "24"},
            {"exp": [3, 0, 1], "coeff": "14"},
            {"exp": [3, 1, 0], "coeff": "-8"},
            {"exp": [4, 0, 0], "coeff": "3"},
        ],
    },
    # a (3, 3) curve at ((3 : -1), (1 : 2)), off the coordinate points of
    # both factors: its chart u - 2v + 3uv + v^3 - u^2 v^2 + 2u^3 v in
    # u = x1/x0 + 1/3, v = y1/y0 - 2 gives the (1, 1)-forms' rows
    "chart-quadric": {
        "surface": "quadric",
        "degree": 3,
        "point": ["3", "-1", "1", "2"],
        "terms": [
            {"exp": [0, 3, 2, 1], "coeff": "54"},
            {"exp": [0, 3, 3, 0], "coeff": "-108"},
            {"exp": [1, 2, 1, 2], "coeff": "-9"},
            {"exp": [1, 2, 2, 1], "coeff": "90"},
            {"exp": [1, 2, 3, 0], "coeff": "-144"},
            {"exp": [2, 1, 1, 2], "coeff": "-6"},
            {"exp": [2, 1, 2, 1], "coeff": "51"},
            {"exp": [2, 1, 3, 0], "coeff": "-75"},
            {"exp": [3, 0, 0, 3], "coeff": "1"},
            {"exp": [3, 0, 1, 2], "coeff": "-7"},
            {"exp": [3, 0, 2, 1], "coeff": "19"},
            {"exp": [3, 0, 3, 0], "coeff": "-17"},
        ],
    },
    # the first curve that only a random frame destabilizes at t = 1/2: at
    # budget 30 the search runs out; below t = d a random frame with every
    # corner coefficient of its moved equation present cannot destabilize
    # and is skipped, and one with a vanishing corner is moved in full; at
    # budget 100 it hits at frame 36, a frame with a vanishing corner, and
    # re-checks the hit on the exact move
    "random-hit": {
        "surface": "p2",
        "degree": 4,
        "point": ["-2", "3", "2"],
        "terms": [
            {"exp": [0, 0, 4], "coeff": "1"},
            {"exp": [0, 1, 3], "coeff": "-3"},
            {"exp": [0, 2, 2], "coeff": "3"},
            {"exp": [0, 3, 1], "coeff": "-1"},
            {"exp": [1, 0, 3], "coeff": "-7"},
            {"exp": [1, 1, 2], "coeff": "23"},
            {"exp": [1, 2, 1], "coeff": "-25"},
            {"exp": [1, 3, 0], "coeff": "9"},
            {"exp": [2, 0, 2], "coeff": "14"},
            {"exp": [2, 1, 1], "coeff": "-29"},
            {"exp": [2, 2, 0], "coeff": "15"},
            {"exp": [3, 0, 1], "coeff": "-7"},
            {"exp": [3, 1, 0], "coeff": "7"},
            {"exp": [4, 0, 0], "coeff": "1"},
        ],
    },
}
# adapted-p2-s with every coefficient halved, so its chart and restrictions
# start from Fractions, and the branch is solved over Z once the chart is
# made primitive
PATH_CURVES["halved"] = scaled(ADAPTED_CURVES["adapted-p2-s"][0], Fraction(1, 2))

# Calls that each reach a path of the local report, the frame search or the
# class formulas: on the curves above, on golden curves and on witness files
# ("--curve NAME" reads tmp/NAME.json). A budget other than 20 is in the
# name of the case; 500 is the default.
PATH_CASES = [
    # around the wall and the edge at the default budget; the quadric at 5/2
    # and the flex at 3 hit at the identity normalizing frame, so their
    # certificates carry the shared identity frame
    ("verdict p2-cuspidal-x0 4 7/4 budget 500",
     "verdict --curve p2-cuspidal-x0-4 --slope 7/4"),
    ("verdict p2-cuspidal-x0 4 2 budget 500",
     "verdict --curve p2-cuspidal-x0-4 --slope 2"),
    ("verdict p2-cuspidal-x0 4 171/100 budget 500",
     "verdict --curve p2-cuspidal-x0-4 --slope 171/100"),
    ("verdict quadric-x0 3 5/3 budget 500", "verdict --curve quadric-x0-3 --slope 5/3"),
    ("verdict quadric-x0 3 11/6 budget 500", "verdict --curve quadric-x0-3 --slope 11/6"),
    ("verdict quadric-x0 3 2 budget 500", "verdict --curve quadric-x0-3 --slope 2"),
    ("verdict quadric-x0 3 5/2 budget 500", "verdict --curve quadric-x0-3 --slope 5/2"),
    ("verdict p2-flex 4 3 budget 500", "verdict --curve p2-flex-4 --slope 3"),
    # adapted-p2-s (a line squared times a conic) and halved find the line
    # from the restriction to the tangent, divide it out and find where it
    # touches the conic as a square on the line; a node lets nothing be
    # tested
    ("inflect node", "inflect --curve node"),
    ("inflect quartic", "inflect --curve quartic"),
    ("inflect adapted-p2-s", "inflect --curve adapted-p2-s"),
    ("inflect halved", "inflect --curve halved"),
    ("inflect free-factor", "inflect --curve free-factor"),
    ("inflect moved-quadric-x0", "inflect --curve moved-quadric-x0"),
    ("inflect conic-squared", "inflect --curve conic-squared"),
    ("inflect sheared-x0", "inflect --curve sheared-x0"),
    ("inflect fermat-flex", "inflect --curve fermat-flex"),
    ("inflect nodal-flex", "inflect --curve nodal-flex"),
    ("inflect tangent-component", "inflect --curve tangent-component"),
    ("inflect along-u", "inflect --curve along-u"),
    ("inflect chart-quadric", "inflect --curve chart-quadric"),
    ("verdict tangent-component 1 budget 500",
     "verdict --curve tangent-component --slope 1"),
    ("verdict sheared-x0 7/4 budget 500", "verdict --curve sheared-x0 --slope 7/4"),
    ("verdict halved 15/8", "verdict --curve halved --slope 15/8 --budget 20"),
    # only one ruling through the marked point is tangent, so the
    # normalizing frame swaps the two factors
    ("verdict quadric-ruling-tangent 3 5/3 budget 500",
     "verdict --curve quadric-ruling-tangent-3 --slope 5/3"),
    ("verdict random-hit 1/2 budget 30",
     "verdict --curve random-hit --slope 1/2 --budget 30"),
    ("verdict random-hit 1/2 budget 100",
     "verdict --curve random-hit --slope 1/2 --budget 100"),
    # these three exhaust their budget, so random integer frames, swapped
    # quadric frames, the corner test and the torus solve all run
    ("verdict p2-nonflex 4 3/2 budget 500", "verdict --curve p2-nonflex-4 --slope 3/2"),
    ("verdict quartic 7/3 budget 50", "verdict --curve quartic --slope 7/3 --budget 50"),
    ("verdict quartic 7/3 budget 500", "verdict --curve quartic --slope 7/3"),
    # integral and fractional weights on both surfaces
    ("mu p2-cuspidal-x0 4 5,-1,-4 7/4",
     "mu --curve p2-cuspidal-x0-4 --lambda=5,-1,-4 --slope 7/4"),
    ("mu p2-cuspidal-x0 4 1/2,-1/2,0 7/4",
     "mu --curve p2-cuspidal-x0-4 --lambda=1/2,-1/2,0 --slope 7/4"),
    ("mu rational-branch-cubic 1/3,1/3,-2/3 5",
     "mu --curve rational-branch-cubic --lambda=1/3,1/3,-2/3 --slope 5"),
    ("mu quadric-x0 3 1,2 5/3", "mu --curve quadric-x0-3 --lambda=1,2 --slope 5/3"),
    ("mu quadric-x0 3 1/2,-3/4 11/6",
     "mu --curve quadric-x0-3 --lambda=1/2,-3/4 --slope 11/6"),
    ("mu quartic -1,1 7/3", "mu --curve quartic --lambda=-1,1 --slope 7/3"),
    # the osculation class formula on both surfaces
    ("hessian-class p2 4 1", "hessian-class --surface p2 --degree 4 --m 1"),
    ("hessian-class p2 4 2", "hessian-class --surface p2 --degree 4 --m 2"),
    ("hessian-class quadric 4 1,1", "hessian-class --surface quadric --degree 4 --m 1,1"),
    ("hessian-class quadric 4 1,2", "hessian-class --surface quadric --degree 4 --m 1,2"),
    ("hessian-class quadric 4 0,1 symmetrized",
     "hessian-class --surface quadric --degree 4 --m 0,1 --symmetrized"),
]

# A rational quadric frame that takes ((0 : 1), (0 : 1)) to
# ((2/3 : 1/2), (3 : 5/2)), where the chart shifts are 3/4 and 5/6.
FRAMED = FrameChange(
    Surface.QUADRIC, ((1, Fraction(2, 3)), (-1, Fraction(1, 2))), ((2, 3), (1, Fraction(5, 2)))
)


def golden_cases(tmp):
    """(name, argv) of every CLI call gated by the golden file, in order;
    witness documents are written under the directory tmp, so a witness
    case must run before the cases that read its file."""
    cases = []
    for kind in sorted(k.value for k in WitnessKind):
        for d in (3, 4, 5):
            try:
                curve = make_witness(kind, d)
            except ValueError:
                continue
            path = str(tmp / f"{kind}-{d}.json")
            tag = f"{kind} {d}"
            cases.append((f"witness {tag}", ["witness", "--kind", kind,
                                              "--degree", str(d), "--out", path]))
            cases.append((f"inflect {tag}", ["inflect", "--curve", path]))
            wall, edge = analyzed_slopes(curve.surface, d)
            for t in (wall, (wall + edge) / 2, edge):
                slope = format_rational(t)
                cases.append((f"verdict {tag} {slope}",
                              ["verdict", "--curve", path, "--slope", slope,
                               "--budget", "20"]))
    cubic = tmp / "rational-branch-cubic.json"
    cubic.write_text(json.dumps(RATIONAL_BRANCH_CUBIC))
    cases.append(("inflect rational-branch-cubic", ["inflect", "--curve", str(cubic)]))
    cases.append(("verdict rational-branch-cubic 7/8",
                  ["verdict", "--curve", str(cubic), "--slope", "7/8", "--budget", "20"]))
    for name, doc in BRANCH_CURVES.items():
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(doc))
        cases.append((f"inflect {name}", ["inflect", "--curve", str(path)]))
        wall, edge = analyzed_slopes(Surface(doc["surface"]), doc["degree"])
        for t in (wall - Fraction(1, 2), wall, (wall + edge) / 2, edge, edge + 1):
            slope = format_rational(t)
            cases.append((f"verdict {name} {slope}",
                          ["verdict", "--curve", str(path), "--slope", slope,
                           "--budget", "20"]))
    for name, (doc, slope) in ADAPTED_CURVES.items():
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(doc))
        cases.append((f"verdict {name} {slope}",
                      ["verdict", "--curve", str(path), "--slope", slope, "--budget", "20"]))
    cases.append(("mu p2-nonflex 4 -1",
                  ["mu", "--curve", str(tmp / "p2-nonflex-4.json"),
                   "--lambda=2,-1,-1", "--slope", "-1"]))
    for d in (3, 4, 5, 6):
        for surface in ("p2", "quadric"):
            for command in ("walls", "chamber"):
                cases.append((f"{command} {surface} {d}",
                              [command, "--surface", surface, "--degree", str(d)]))
        cases.append((f"verify --all {d}", ["verify", "--all", "--degree", str(d)]))
    for name, doc in SINGULAR_CURVES.items():
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(doc))
        wall, edge = analyzed_slopes(Surface(doc["surface"]), doc["degree"])
        for t in (wall, (wall + edge) / 2, edge):
            slope = format_rational(t)
            cases.append((f"verdict {name} {slope}",
                          ["verdict", "--curve", str(path), "--slope", slope,
                           "--budget", "20"]))
    for name, doc in PATH_CURVES.items():
        (tmp / f"{name}.json").write_text(json.dumps(doc))
    for name, args in PATH_CASES:
        argv = args.split()
        if "--curve" in argv:
            i = argv.index("--curve") + 1
            argv[i] = str(tmp / f"{argv[i]}.json")
        cases.append((name, argv))
    # the witness table past the degrees the cases above read
    for kind in sorted(k.value for k in WitnessKind):
        for d in (6, 7, 8):
            cases.append((f"witness {kind} {d}", ["witness", "--kind", kind, "--degree", str(d)]))
    # plane S curves, where the adapted frame must send the tangency point
    # to a coordinate point, moved as in the frame-move gate below
    sources = {f"p2-s {d}": make_witness("p2-s", d) for d in (3, 4, 5)}
    sources["adapted-p2-s"] = curve_from_json(ADAPTED_CURVES["adapted-p2-s"][0])
    sources["halved"] = curve_from_json(PATH_CURVES["halved"])
    for name, argv in list(cases):
        tag = name.split(" ", 1)[1].rsplit(" ", 1)[0]
        if argv[0] == "verdict" and tag in sources:
            path = tmp / f"moved-{len(cases)}.json"
            path.write_text(json.dumps(curve_to_json(moved(name, sources[tag]))))
            argv = list(argv)
            argv[argv.index("--curve") + 1] = str(path)
            cases.append((f"{name} moved", argv))
    # the quadric witnesses off the coordinate points, with Fraction
    # coefficients, so the chart is a translation by Fraction shifts
    for kind in ("quadric-s", "quadric-x0"):
        curve = make_witness(kind, 3)
        path = tmp / f"framed-{kind}-3.json"
        path.write_text(json.dumps(scaled(curve_to_json(apply_frame(curve, FRAMED)), Fraction(1, 2))))
        tag = f"{kind} 3 framed"
        cases.append((f"inflect {tag}", ["inflect", "--curve", str(path)]))
        wall, edge = analyzed_slopes(curve.surface, 3)
        for t in (wall, (wall + edge) / 2, edge):
            slope = format_rational(t)
            cases.append((f"verdict {tag} {slope}",
                          ["verdict", "--curve", str(path), "--slope", slope, "--budget", "20"]))
    return cases


def run_case(argv):
    """{"code": exit code, "out": stdout} of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return {"code": code, "out": buf.getvalue()}


def run_golden_cases(tmp):
    """{name: {"code": exit code, "out": stdout}} for every golden case."""
    return {name: run_case(argv) for name, argv in golden_cases(tmp)}


def test_cli_golden_outputs(tmp_path):
    # byte equality with outputs recorded before the arithmetic kept
    # integral coefficients as ints: a coefficient reaching the JSON as a
    # bare int instead of a rational string would show up here
    recorded = json.loads(GOLDEN.read_text())["cases"]
    got = run_golden_cases(tmp_path)
    assert list(got) == list(recorded)
    for name, result in got.items():
        assert result == recorded[name], name


def test_strict_changes_no_golden_output(tmp_path):
    # every membership is decided, so --strict, kept for scripts that pass
    # it, gives every verdict and inflect case its recorded exit code and
    # bytes; the witness cases run as recorded to write the curve files
    recorded = json.loads(GOLDEN.read_text())["cases"]
    strict = 0
    for name, argv in golden_cases(tmp_path):
        if argv[0] in ("verdict", "inflect"):
            argv = argv + ["--strict"]
            strict += 1
        elif argv[0] != "witness":
            continue
        assert run_case(argv) == recorded[name], name
    assert strict == 187


def test_golden_case_names_are_unique(tmp_path):
    # the outputs are kept in a dict by name, so a repeated name would drop
    # the earlier case from the gate without a trace
    names = Counter(name for name, _ in golden_cases(tmp_path))
    assert [name for name, n in names.items() if n > 1] == []


def _golden_verdicts(tmp):
    """(name, argv) of the golden verdict cases, in order, with the witness
    files they read written."""
    verdicts = []
    for name, argv in golden_cases(tmp):
        if argv[0] == "witness":
            run_case(argv)
        elif argv[0] == "verdict":
            verdicts.append((name, argv))
    assert len(verdicts) == 142
    return verdicts


def test_golden_verdicts_do_not_depend_on_the_previous_verdict(tmp_path):
    # the package keeps the analysis of the last curve asked: replayed in
    # reverse, then every other case, each verdict follows another than
    # when recorded and must print the same bytes
    recorded = json.loads(GOLDEN.read_text())["cases"]
    verdicts = _golden_verdicts(tmp_path)
    for order in (verdicts[::-1], verdicts[::2] + verdicts[1::2]):
        for name, argv in order:
            assert run_case(argv) == recorded[name], name


class Interrupted(BaseException):
    """Raised as a deadline raises, past `except Exception`."""


@pytest.mark.parametrize("module, layer", [
    (inflection, "special_locus_membership"),  # the report's special locus
    (criterion, "move_curve"),  # the normalizing frame's move, or a search's
    (criterion, "exact_move"),  # a hit's exact move
    (linprog, "_tie_directions"),  # the kept torus program's exits
])
def test_an_interrupted_verdict_leaves_no_half_analysis(tmp_path, monkeypatch, module, layer):
    # a deadline interrupts a call wherever it is; a verdict stopped in a
    # layer keeps nothing half computed: the next verdict on the curve reads
    # the same kept analysis and prints the recorded bytes
    recorded = json.loads(GOLDEN.read_text())["cases"]
    original = getattr(module, layer)
    interrupted = 0
    for name, argv in _golden_verdicts(tmp_path):
        raised = []

        def first_call_raises(*args):
            if not raised:
                raised.append(args)
                raise Interrupted
            return original(*args)

        monkeypatch.setattr(module, layer, first_call_raises)
        try:
            first = run_case(argv)
        except Interrupted:
            (kept,) = criterion._kept
            assert run_case(argv) == recorded[name], name
            assert criterion._kept == [kept], name
            interrupted += 1
            if interrupted == 8:
                break
        else:
            assert first == recorded[name] and not raised, name
    assert interrupted == 8


def _option(argv, flag, default):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _recheck(curve, t, cert):
    """Whether the certificate's mu is mu_min on the curve its frame moves."""
    frame = cert["frame"]
    if frame is not None:
        mats = [[[parse_rational(x) for x in row] for row in frame[k]]
                for k in ("matrix", "x_matrix", "y_matrix") if k in frame]
        curve = apply_frame(curve, FrameChange(curve.surface, *mats, swap=frame.get("swap", False)))
    lam = criterion.OneParamSubgroup(curve.surface, tuple(map(parse_rational, cert["lambda"]["weights"])))
    return mu_min(curve, lam, t)[0] == parse_rational(cert["mu"])


# Moved verdicts that may lose their certificate: the destabilizing flag
# needs a frame of the cusp line (the first) or of the flag (the second),
# which the search does not build yet.
MAY_GO_UNKNOWN = {
    "verdict p2-cuspidal-x0 4 171/100 budget 500": "X0 cusp line frame",
    "verdict random-hit 1/2 budget 100": "flag frame",
}


def test_golden_verdict_status_survives_a_frame_move(tmp_path):
    # stability is invariant under the group, so each golden verdict curve
    # moved by one seeded random frame keeps its recorded status, and an
    # Unstable certificate found on the moved curve re-checks on it
    recorded = json.loads(GOLDEN.read_text())["cases"]
    verdicts = 0
    for name, argv in golden_cases(tmp_path):
        if argv[0] == "witness":
            run_case(argv)
        if argv[0] != "verdict":
            continue
        verdicts += 1
        curve = curve_from_json(json.loads(Path(_option(argv, "--curve", None)).read_text()))
        t = parse_rational(_option(argv, "--slope", None))
        want = json.loads(recorded[name]["out"])["status"]
        curve = moved(name, curve)
        v = stability_verdict(curve, t, budget=int(_option(argv, "--budget", 500)),
                              seed=int(_option(argv, "--seed", 0)))
        if v.status != want and name in MAY_GO_UNKNOWN:
            assert v.status == "Unknown", name
            continue
        assert v.status == want, name
        if want == "Unstable":
            cert = v.certificate
            target = curve if cert["frame"] is None else apply_frame(curve, cert["frame"])
            assert mu_min(target, cert["lambda"], t)[0] == cert["mu"] > 0, name
    assert verdicts == 142


def test_golden_outputs_ignore_the_scale_of_equation_and_point(tmp_path):
    # a nonzero multiple of the equation, or of the point (per factor on
    # the quadric), is the same pointed curve: each inflect, verdict and mu
    # run prints the recorded document but for the certificate's frame,
    # which is read off the given equation and point and must re-check as
    # a certificate; 1/2 and 7/5 make the chart start from Fractions, -3
    # flips every sign
    recorded = json.loads(GOLDEN.read_text())["cases"]
    scaled_path = tmp_path / "scaled.json"
    runs = Counter()
    for name, argv in golden_cases(tmp_path):
        if argv[0] == "witness":
            run_case(argv)  # writes the curve file the cases after it read
        if argv[0] not in ("inflect", "verdict", "mu"):
            continue
        i = argv.index("--curve") + 1
        doc = json.loads(Path(argv[i]).read_text())
        want = json.loads(recorded[name]["out"])
        cert = want.get("certificate")
        for edit in ([scaled(doc, c) for c in (Fraction(1, 2), Fraction(-3), Fraction(7, 5))]
                     + [scaled_point(doc, c) for c in (Fraction(-2), Fraction(3, 7))]):
            scaled_path.write_text(json.dumps(edit))
            got = run_case(argv[:i] + [str(scaled_path)] + argv[i + 1:])
            runs[argv[0]] += 1
            if not cert:
                assert got == recorded[name], (name, edit)
                continue
            assert got["code"] == recorded[name]["code"], (name, edit)
            out = json.loads(got["out"])
            t = parse_rational(_option(argv, "--slope", None))
            assert _recheck(curve_from_json(edit), t, out["certificate"]), (name, edit)
            out["certificate"]["frame"] = cert["frame"]
            assert out == want, (name, edit)
    assert runs == {"inflect": 5 * 45, "verdict": 5 * 142, "mu": 5 * 7}


def test_golden_recorder_appends_and_refuses_changes(tmp_path):
    # the recorder adds the cases the file lacks, in the order of
    # golden_cases and in the file's own layout, and refuses to touch a
    # file whose recorded output differs from what the cases print now
    from record_cli_golden import record

    text = GOLDEN.read_text()
    doc = json.loads(text)
    got = dict(doc["cases"])
    last = list(got)[-1]
    path = tmp_path / "golden.json"
    del doc["cases"][last]
    path.write_text(json.dumps(doc, indent=1) + "\n")
    assert record(path, got) == [last]
    assert path.read_text() == text

    doc["cases"] = dict(got)
    doc["cases"][last] = {"code": 0, "out": "edited by hand\n"}
    edited = json.dumps(doc, indent=1) + "\n"
    path.write_text(edited)
    with pytest.raises(SystemExit) as refused:
        record(path, got)
    assert last in str(refused.value.code)
    assert path.read_text() == edited


def test_one_parser_serves_successive_calls(capsys):
    # the parser is built once per process; calls with different argv, and
    # a usage error between them, still give their recorded outputs
    recorded = json.loads(GOLDEN.read_text())["cases"]
    assert cli._build_parser() is cli._build_parser()
    for name, argv in (
        ("walls p2 4", ["walls", "--surface", "p2", "--degree", "4"]),
        ("chamber quadric 5", ["chamber", "--surface", "quadric", "--degree", "5"]),
        (None, ["walls", "--surface", "p3", "--degree", "4"]),
        ("verify --all 3", ["verify", "--all", "--degree", "3"]),
        ("walls p2 4", ["walls", "--surface", "p2", "--degree", "4"]),
    ):
        code, out, err = run(capsys, *argv)
        if name is None:
            assert code == 1 and "error:" in err
        else:
            assert {"code": code, "out": out} == recorded[name]
