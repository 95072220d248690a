"""Wall-and-chamber reports and replay of the recorded sign claims.

The analyzed slope range of each surface is bounded by two critical
slopes, the wall and the edge. The inequalities proving which loci are
(de)stabilized at and between them are recorded as data: each entry names
a subgroup, a family of monomials, marked-point labels, a slope spec and a
strictness, and the checker replays the claim with exact arithmetic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

from .criterion import (
    CITATIONS,
    OneParamSubgroup,
    _region_rule,
    interval_mu_claim,
    wall_stratum,
)
from .curves import Surface, all_exponents
from .hessians import analyzed_slopes
from .inflection import UndecidedError, inflection_report

_FIXTURE_NAME = "propositions_v1.json"
_SCHEMA = "wallcross/propositions/1"


def load_propositions():
    """The packaged claim table, keyed by proposition id.

    To replay another table, pass it as the `table` argument of
    `verify_all` or `verify_proposition`."""
    ref = resources.files("wallcross").joinpath("fixtures", _FIXTURE_NAME)
    data = json.loads(ref.read_text(encoding="utf-8"))
    if data.get("schema") != _SCHEMA:
        raise ValueError(f"unrecognized fixture schema: {data.get('schema')!r}")
    props = data.get("propositions")
    if not isinstance(props, dict) or not props:
        raise ValueError("fixture table is empty")
    return props


def _resolve_value(spec, d):
    """An exponent entry: either an integer or the curve degree minus a
    shift, written like "d" or "d-2"."""
    if isinstance(spec, int):
        return spec
    if isinstance(spec, str):
        s = spec.replace(" ", "")
        if s == "d":
            return d
        if s.startswith("d-"):
            return d - int(s[2:])
    raise ValueError(f"bad exponent entry {spec!r}")


def _resolve_exponent(entry, d, surface):
    exp = tuple(_resolve_value(v, d) for v in entry)
    if len(exp) != surface.nvars:
        raise ValueError(f"exponent arity mismatch: {entry!r}")
    if any(v < 0 for v in exp):
        raise ValueError(f"exponent {entry!r} is negative at degree {d}")
    return exp


def _resolve_slope(spec, d, surface):
    wall, edge = analyzed_slopes(surface, d)
    if spec == "wall":
        return wall
    if spec == "edge":
        return edge
    return Fraction(spec)


def _resolve_label(entry, surface):
    if surface is Surface.P2:
        if not isinstance(entry, int):
            raise ValueError(f"bad point label {entry!r}")
        return entry
    return tuple(entry)


def run_proposition_check(params, d):
    """Replay one recorded claim at curve degree d.

    Returns a dict with the claim outcome, any counterexamples, the
    equality set, and whether it matches the recorded expectation. A
    degree below 3 is refused before any entry is resolved, so the error
    names the degree, not the first exponent it makes negative."""
    if not isinstance(d, int) or d < 3:
        raise ValueError("degree must be an integer >= 3")
    surface = Surface(params["surface"])
    lam = OneParamSubgroup(surface, tuple(Fraction(w) for w in params["lambda"]))
    labels = [_resolve_label(e, surface) for e in params["labels"]]
    mono = params["monomials"]
    entries = [_resolve_exponent(e, d, surface) for e in mono["entries"]]
    if mono["mode"] == "excluded":
        banned = set(entries)
        exponents = [e for e in all_exponents(surface, d) if e not in banned]
    elif mono["mode"] == "support":
        exponents = entries
    else:
        raise ValueError(f"bad monomial mode {mono['mode']!r}")
    tspec = params["t"]
    if tspec["type"] == "point":
        t_resolved = ("point", _resolve_slope(tspec["at"], d, surface))
    elif tspec["type"] == "open":
        t_resolved = (
            "open",
            _resolve_slope(tspec["lo"], d, surface),
            _resolve_slope(tspec["hi"], d, surface),
        )
    else:
        raise ValueError(f"bad slope spec {tspec!r}")
    check = interval_mu_claim(
        surface, lam, labels, exponents, t_resolved, params["strictness"]
    )
    result = {
        "degree": d,
        "claim": params.get("claim", ""),
        "passed": check.passed,
        "counterexamples": check.counterexamples,
        "equalities": check.equalities,
        "equalities_match": True,
    }
    if "expected_equalities" in params:
        expected = set()
        for item in params["expected_equalities"]:
            label = _resolve_label(item["label"], surface)
            exp = _resolve_exponent(item["exp"], d, surface)
            at = _resolve_slope(item["at"], d, surface)
            expected.add((label, exp, at))
        got = {(lb, ex, tt) for (lb, ex, tt) in check.equalities}
        result["equalities_match"] = got == expected
    result["ok"] = result["passed"] and result["equalities_match"]
    return result


def verify_proposition(pid, d, table=None):
    """Replay the recorded claim with the given id at degree d."""
    if table is None:
        table = load_propositions()
    if pid not in table:
        raise KeyError(f"unknown proposition id {pid!r}")
    out = run_proposition_check(table[pid], d)
    out["id"] = pid
    return out


def verify_all(d, table=None):
    if table is None:
        table = load_propositions()
    return [verify_proposition(pid, d, table) for pid in sorted(table)]


def classify_at_wall(curve):
    """Place a pointed curve in the wall stratification.

    Returns (stratum, basis): the stratum is `criterion.wall_stratum` of
    the curve's inflection report, and basis the membership flags of that
    report. Raises UndecidedError where the wall rule of the verdict table
    (`criterion._region_rule`) reads a membership flag the report left
    unsettled."""
    rep = inflection_report(curve)
    if _region_rule("wall", rep)[2]:
        raise UndecidedError(
            "special-locus membership undecided; wall region unknown"
        )
    basis = {
        "in_h1": rep.in_h1,
        "in_h2prime": rep.in_h2prime,
        "in_s": rep.in_s,
        "in_x0": rep.in_x0,
        "smooth_at_p": rep.smooth_at_p,
    }
    return wall_stratum(rep), basis


def chamber_report(surface, d):
    """Slopes and strata of the analyzed range for one surface and degree."""
    wall, edge = analyzed_slopes(surface, d)
    if surface is Surface.P2:
        strata = {
            "edge": "nothing is stable; curves off the first-order locus stay semistable",
            "chamber": "stable = semistable = complement of the first-order locus and the swept configuration",
            "wall": "semistable drops to the complement of the second-order overlap and the swept configuration",
        }
    else:
        strata = {
            "edge": "nothing is stable; curves off the tangent-ruling locus stay semistable",
            "chamber": "stable = semistable = complement of the tangent-ruling locus and the swept configuration",
            "wall": "semistable drops to the complement of the osculation overlap and the swept configuration",
        }
    return {
        "surface": surface.value,
        "degree": d,
        "wall": wall,
        "edge": edge,
        "strata": strata,
        "claims": {region: list(ids) for region, ids in CITATIONS[surface].items()},
    }
