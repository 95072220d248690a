"""Command line front end over the whole toolkit.

Every invocation prints one JSON object on stdout. The `witness`
subcommand prints the curve interchange document itself, so its output
can be saved and fed straight back into the other subcommands; every
other subcommand wraps its payload in an envelope carrying a schema tag.

Exit codes: 0 success, 1 usage or input error, 2 verification failure,
3 reserved (every membership is decided, so --strict never exits with
it), 4 internal error (a result failed its own exact re-check; a bug,
never bad input).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from .criterion import OneParamSubgroup, mu_min, stability_verdict
from .curves import (
    Surface,
    WitnessKind,
    curve_from_json,
    curve_to_json,
    frame_to_json,
    make_witness,
)
from .errors import InternalError
from .hessians import (
    analyzed_slopes,
    relative_hessian_class,
    symmetrized_class_quadric,
    wall_slope,
)
from .inflection import inflection_report
from .rationals import format_rational
from .walls import chamber_report, load_propositions, verify_all, verify_proposition

SCHEMA = "wallcross/1"


class CliError(Exception):
    """Bad input or usage; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this tool
    # reserves for verification failures; route them through CliError.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _plain(x):
    """Recursively turn Fractions and tuples into JSON-ready data.

    An int passes through as a JSON number, so no polynomial coefficient,
    nor an entry of a series tuple, may reach this: an integral one is an
    int, not a Fraction."""
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _dumps(doc, pretty):
    if pretty:
        return json.dumps(doc, indent=2, sort_keys=True)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _emit(args, command, fields):
    """Print fields in the envelope of `command`, under the schema tag, and
    return the exit code 0."""
    print(_dumps({"schema": SCHEMA, "command": command, **fields}, args.pretty))
    return 0


def _unique_keys(pairs):
    """A JSON object as a dict, refusing a key it repeats at any depth."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise CliError(f"curve file repeats the key {key!r}")
        doc[key] = value
    return doc


def _load_curve(path):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CliError(f"cannot read curve file: {e}")
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise CliError(f"curve file is not valid JSON: {e}")
    except RecursionError:
        raise CliError("curve file is nested too deeply to decode")
    try:
        return curve_from_json(data)
    except ValueError as e:
        raise CliError(f"bad curve document: {e}")


def _fraction(text):
    # Exponent notation is refused before Fraction sees it: "1e999999999"
    # would otherwise build a billion-digit integer.
    if "e" in text.lower():
        raise ValueError("exponent notation")
    return Fraction(text)


def _parse_slope(text):
    try:
        return _fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"bad slope {text!r}; write it as p/q")


def _parse_weights(text):
    try:
        weights = tuple(_fraction(w) for w in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise CliError(f"bad weight list {text!r}")
    return weights


def _certificate_json(cert):
    if cert is None:
        return None
    lam = cert["lambda"]
    return {
        "frame": frame_to_json(cert["frame"]),
        "lambda": {
            "surface": lam.surface.value,
            "weights": [format_rational(w) for w in lam.weights],
        },
        "mu": format_rational(cert["mu"]),
    }


def _cmd_verdict(args):
    if args.budget < 1:
        raise CliError(f"budget must be at least 1, got {args.budget}")
    curve = _load_curve(args.curve)
    t = _parse_slope(args.slope)
    v = stability_verdict(curve, t, budget=args.budget, seed=args.seed)
    return _emit(args, "verdict", {
        "surface": curve.surface.value,
        "degree": curve.degree,
        "t": format_rational(v.t),
        "status": v.status,
        "certificate": _certificate_json(v.certificate),
        "citations": list(v.citations),
        "notes": list(v.notes),
        "undecided": v.undecided,
    })


def _cmd_mu(args):
    curve = _load_curve(args.curve)
    t = _parse_slope(args.slope)
    weights = _parse_weights(args.lam)
    try:
        lam = OneParamSubgroup(curve.surface, weights)
    except ValueError as e:
        raise CliError(str(e))
    value, (label, exp) = mu_min(curve, lam, t)
    return _emit(args, "mu", {
        "surface": curve.surface.value,
        "degree": curve.degree,
        "t": format_rational(t),
        "lambda": [format_rational(w) for w in lam.weights],
        "mu": format_rational(value),
        "label": _plain(label),
        "exponent": list(exp),
    })


def _cmd_inflect(args):
    curve = _load_curve(args.curve)
    rep = inflection_report(curve)
    seqs = {
        name: {
            "orders": list(s.orders),
            "deficiency": s.deficiency,
            "truncation": s.truncation,
            "labels": s.labels(),
        }
        for name, s in rep.sequences.items()
    }
    return _emit(args, "inflect", {
        "surface": curve.surface.value,
        "degree": curve.degree,
        "smooth_at_p": rep.smooth_at_p,
        "multiplicity": rep.multiplicity,
        "weight": rep.weight,
        "weight_is_lower_bound": rep.weight_is_lower_bound,
        "flex": rep.flex,
        "hyperflex": rep.hyperflex,
        "in_h1": rep.in_h1,
        "in_h2prime": rep.in_h2prime,
        "in_s": rep.in_s,
        "in_x0": rep.in_x0,
        "ruling_contacts": _plain(rep.ruling_contacts),
        "sequences": seqs,
        "notes": list(rep.notes),
        "undecided": rep.undecided,
    })


def _cmd_hessian_class(args):
    surface = Surface(args.surface)
    try:
        parts = tuple(int(v) for v in args.m.split(","))
    except ValueError:
        raise CliError(f"bad bundle degree {args.m!r}")
    try:
        if surface is Surface.P2:
            if len(parts) != 1:
                raise CliError("the plane takes a single bundle degree")
            if args.symmetrized:
                raise CliError("--symmetrized applies to the quadric only")
            cls = relative_hessian_class(surface, args.degree, parts[0])
        else:
            if len(parts) != 2:
                raise CliError("the quadric takes a bidegree m1,m2")
            if args.symmetrized:
                cls = symmetrized_class_quadric(args.degree, *parts)
            else:
                cls = relative_hessian_class(surface, args.degree, parts)
    except ValueError as e:
        raise CliError(str(e))
    try:
        slope = format_rational(wall_slope(cls))
    except ValueError:
        slope = None
    return _emit(args, "hessian-class", {
        "surface": surface.value,
        "degree": args.degree,
        "m": list(parts) if len(parts) > 1 else parts[0],
        "symmetrized": bool(args.symmetrized),
        "components": [int(c) for c in cls.components],
        "description": cls.description,
        "slope": slope,
    })


def _cmd_walls(args):
    surface = Surface(args.surface)
    try:
        wall, edge = analyzed_slopes(surface, args.degree)
    except ValueError as e:
        raise CliError(str(e))
    return _emit(args, "walls", {
        "surface": surface.value,
        "degree": args.degree,
        "wall": format_rational(wall),
        "edge": format_rational(edge),
    })


def _cmd_chamber(args):
    surface = Surface(args.surface)
    try:
        report = chamber_report(surface, args.degree)
    except ValueError as e:
        raise CliError(str(e))
    return _emit(args, "chamber", _plain(report))


def _cmd_verify(args):
    try:
        table = load_propositions()
    except (OSError, ValueError) as e:
        raise CliError(f"cannot load the proposition table: {e}")
    try:
        if args.id:
            results = [verify_proposition(args.id, args.degree, table)]
        else:
            results = verify_all(args.degree, table)
    except KeyError as e:
        # walls names the unknown id in the KeyError's message
        raise CliError(e.args[0] if e.args else "unknown proposition id")
    except ValueError as e:
        raise CliError(f"cannot replay the table at degree {args.degree}: {e}")
    ok = all(r["ok"] for r in results)
    _emit(args, "verify", {"degree": args.degree, "results": _plain(results), "ok": ok})
    return 0 if ok else 2


def _cmd_witness(args):
    try:
        curve = make_witness(args.kind, args.degree)
    except ValueError as e:
        raise CliError(str(e))
    text = _dumps(curve_to_json(curve), args.pretty)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise CliError(f"cannot write {args.out!r}: {e}")
    print(text)
    return 0


@cache
def _build_parser():
    """The argument parser, built on the first call and kept for the
    process: parsing never changes it."""
    parser = _Parser(
        prog="wallcross",
        description="Exact stability, inflection and wall computations "
        "for pointed curves on the plane and the quadric.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")
        p.set_defaults(func=func)
        return p

    def curve_arg(p):
        p.add_argument(
            "--curve",
            required=True,
            metavar="FILE",
            help="curve document to read ('-' for stdin)",
        )

    def slope_arg(p):
        p.add_argument("--slope", required=True, help="linearization slope, e.g. 7/4")

    def strict_arg(p):
        p.add_argument(
            "--strict",
            action="store_true",
            help="accepted with no effect: every membership is decided",
        )

    def surface_degree(p):
        p.add_argument(
            "--surface", required=True, choices=[s.value for s in Surface]
        )
        p.add_argument("--degree", required=True, type=int)

    p = command("verdict", _cmd_verdict, "classify one pointed curve at a slope")
    curve_arg(p)
    slope_arg(p)
    p.add_argument("--budget", type=int, default=500, help="frames to try (default 500)")
    p.add_argument("--seed", type=int, default=0, help="seed for the frame search")
    strict_arg(p)

    p = command("mu", _cmd_mu, "exact numerical weight of one subgroup")
    curve_arg(p)
    p.add_argument(
        "--lambda",
        dest="lam",
        required=True,
        metavar="W,W[,W]",
        help='comma separated weights, e.g. "--lambda=-5,1,4"; three on the '
        "plane, the two-weight encoding on the quadric",
    )
    slope_arg(p)

    p = command("inflect", _cmd_inflect, "local report at the marked point")
    curve_arg(p)
    strict_arg(p)

    p = command("hessian-class", _cmd_hessian_class, "relative flex divisor class")
    surface_degree(p)
    p.add_argument(
        "--m",
        required=True,
        metavar="M[,M2]",
        help="bundle degree (plane) or bidegree (quadric)",
    )
    p.add_argument(
        "--symmetrized",
        action="store_true",
        help="symmetrize a quadric bidegree under swapping the rulings",
    )

    p = command("walls", _cmd_walls, "wall and edge slopes of the analyzed range")
    surface_degree(p)

    p = command("chamber", _cmd_chamber, "strata summary of the analyzed range")
    surface_degree(p)

    p = command("verify", _cmd_verify, "replay the recorded claim table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--id", help="one proposition id")
    group.add_argument("--all", action="store_true", help="every recorded claim")
    p.add_argument("--degree", required=True, type=int)

    p = command("witness", _cmd_witness, "emit a fixed representative curve")
    p.add_argument(
        "--kind", required=True, choices=sorted(k.value for k in WitnessKind)
    )
    p.add_argument("--degree", required=True, type=int)
    p.add_argument("--out", metavar="FILE", help="also write the document here")

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
