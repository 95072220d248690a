"""Malformed curve documents, one structural mutation away from a witness,
are answered or refused with exit 1 and an `error:` line, never escape as a
traceback or an internal error."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from wallcross import cli  # noqa: E402
from wallcross.curves import WitnessKind, curve_to_json, make_witness  # noqa: E402
from wallcross.rationals import format_rational  # noqa: E402


def _witness_documents():
    docs = []
    for kind in sorted(k.value for k in WitnessKind):
        for d in (3, 4, 5):
            try:
                docs.append(curve_to_json(make_witness(kind, d)))
            except ValueError:
                continue
    return docs


WITNESS_DOCUMENTS = _witness_documents()

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20)
    | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def _paths(doc):
    """Every (container, key) slot of a well-formed curve document."""
    yield from ((doc, key) for key in doc)
    yield from ((doc["point"], i) for i in range(len(doc["point"])))
    for i, term in enumerate(doc["terms"]):
        yield doc["terms"], i
        yield from ((term, key) for key in term)
        yield from ((term["exp"], j) for j in range(len(term["exp"])))


def _rational_slots(doc):
    return [(doc["point"], i) for i in range(len(doc["point"]))] + [
        (term, "coeff") for term in doc["terms"]
    ]


def _drop_key(draw, doc):
    container = draw(st.sampled_from([doc] + doc["terms"]))
    del container[draw(st.sampled_from(sorted(container)))]
    return json.dumps(doc)


def _duplicate_key(draw, doc):
    # the copy goes on either side; both are refused (REFUSED)
    text = json.dumps(doc)
    key = draw(st.sampled_from(sorted(doc)))
    copy = f"{json.dumps(key)}: {json.dumps(draw(JSON_VALUES))}"
    if draw(st.booleans()):
        return "{" + copy + ", " + text[1:]
    return text[:-1] + ", " + copy + "}"


def _unknown_key(draw, doc):
    container = draw(st.sampled_from([doc] + doc["terms"]))
    container[draw(st.text(max_size=4))] = draw(JSON_VALUES)
    return json.dumps(doc)


def _other_type(draw, doc):
    container, key = draw(st.sampled_from(list(_paths(doc))))
    container[key] = draw(JSON_VALUES)
    return json.dumps(doc)


def _non_canonical(draw, doc):
    container, key = draw(st.sampled_from(_rational_slots(doc)))
    value = Fraction(container[key])
    n, q = value.numerator, value.denominator
    container[key] = draw(st.sampled_from([
        f"{2 * n}/{2 * q}", f"{n}/{q}" if q == 1 else f"{-n}/{-q}", f"{n}.0",
        f"+{n}/{q}", f"0{abs(n)}", f" {container[key]}", f"{container[key]}\n",
        f"{n} / {q}", f"{n}/0", f"{n}e0", "-0", "",
    ]))
    return json.dumps(doc)


def _bad_exponent(draw, doc):
    exp = draw(st.sampled_from(doc["terms"]))["exp"]
    j = draw(st.integers(0, len(exp) - 1))
    exp[j] = draw(st.sampled_from([True, False, -1, -exp[j] - 1]))
    return json.dumps(doc)


def _wrong_arity(draw, doc):
    point = doc["point"]
    exp = draw(st.sampled_from(doc["terms"]))["exp"]
    seq, zero = draw(st.sampled_from([(point, "0"), (exp, 0)]))
    if draw(st.booleans()):
        seq.pop()
    else:
        seq.append(zero)
    return json.dumps(doc)


def _zero_coefficient(draw, doc):
    draw(st.sampled_from(doc["terms"]))["coeff"] = "0"
    return json.dumps(doc)


def _off_the_curve(draw, doc):
    point = doc["point"]
    i = draw(st.integers(0, len(point) - 1))
    point[i] = format_rational(Fraction(point[i]) + draw(st.integers(1, 3)))
    return json.dumps(doc)


MUTATIONS = [
    _drop_key, _duplicate_key, _unknown_key, _other_type, _non_canonical,
    _bad_exponent, _wrong_arity, _zero_coefficient, _off_the_curve,
]

# mutations that no document survives
REFUSED = {_duplicate_key}


@st.composite
def malformed_documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(WITNESS_DOCUMENTS))))
    mutation = draw(st.sampled_from(MUTATIONS))
    return mutation(draw, doc), mutation in REFUSED


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(malformed_documents())
def test_malformed_documents_are_refused_with_exit_one(case):
    text, refused = case
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), \
            redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["inflect", "--curve", "-"])
    if code == 0 and not refused:
        assert json.loads(out.getvalue())["command"] == "inflect"
    else:
        assert code == 1, err.getvalue()
        assert err.getvalue().startswith("error:") and out.getvalue() == ""
