import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from wallcross import cli, inflection, polynomials
from wallcross.cli import main
from wallcross.curves import Surface, WitnessKind, make_witness
from wallcross.hessians import analyzed_slopes
from wallcross.inflection import SpecialLocus
from wallcross.rationals import format_rational


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


def test_strict_undecided_exit_code(capsys, tmp_path, monkeypatch):
    # no input leaves the special locus undecided any more, so the abort is
    # injected, as `walls` tests do; the schema of the undecided path stays
    def aborted(curve, geometry=None):
        return SpecialLocus(False, False, True, ["rational root search aborted"], {})

    monkeypatch.setattr(inflection, "special_locus_membership", aborted)
    big = 10 ** 13
    doc = {
        "surface": "p2",
        "degree": 3,
        "point": ["1", "1", "1"],
        "terms": [
            {"exp": [2, 0, 1], "coeff": "1"},
            {"exp": [1, 2, 0], "coeff": "-1"},
            {"exp": [1, 0, 2], "coeff": str(big)},
            {"exp": [0, 2, 1], "coeff": str(-big)},
        ],
    }
    path = tmp_path / "hidden.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(
        capsys,
        "verdict", "--curve", str(path), "--slope", "7/8",
        "--budget", "10", "--strict",
    )
    assert code == 3
    assert json.loads(out)["undecided"] is True
    # the edge rule reads only the first-order flag, which is always exact,
    # so the unsettled special-locus search leaves the verdict decided
    code, out, _ = run(
        capsys,
        "verdict", "--curve", str(path), "--slope", "1",
        "--budget", "10", "--strict",
    )
    assert code == 0
    assert json.loads(out)["undecided"] is False
    code, out, _ = run(capsys, "inflect", "--curve", str(path), "--strict")
    assert code == 3
    # without --strict the same inputs degrade to exit 0 with a flag
    code, out, _ = run(
        capsys, "verdict", "--curve", str(path), "--slope", "7/8", "--budget", "10"
    )
    assert code == 0 and json.loads(out)["status"] == "Unknown"


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


def test_malformed_curve_messages(capsys, tmp_path):
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
    return cases


def run_golden_cases(tmp):
    """{name: {"code": exit code, "out": stdout}} for every golden case."""
    out = {}
    for name, argv in golden_cases(tmp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        out[name] = {"code": code, "out": buf.getvalue()}
    return out


def test_cli_golden_outputs(tmp_path):
    # byte equality with outputs recorded before the arithmetic kept
    # integral coefficients as ints: a coefficient reaching the JSON as a
    # bare int instead of a rational string would show up here
    recorded = json.loads(GOLDEN.read_text())["cases"]
    got = run_golden_cases(tmp_path)
    assert list(got) == list(recorded)
    for name, result in got.items():
        assert result == recorded[name], name


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
