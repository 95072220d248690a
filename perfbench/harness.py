"""Running one operation of the package: import, inputs, deadline, output.

An operation is one `stability_verdict` call or one in-process
`wallcross.cli.main` call. Both are looked up on the package at call time,
so wrappers installed by the tracer are the ones called. REFERENCE is a
frozen copy of the package at the recording commit (under reference/),
which the timed runs call next to the package to measure its speed
against.
"""

import contextlib
import importlib
import io
import signal
import sys
from fractions import Fraction
from time import perf_counter

import gate

PACKAGE = "wallcross"
REFERENCE = "wallcross_ref"


class DeadlineExceeded(BaseException):
    """Raised from the interval timer into a call that ran past its
    deadline. A BaseException, so `except Exception` in the package does
    not swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def arm_deadlines():
    signal.signal(signal.SIGALRM, _on_alarm)


def timed_call(fn, deadline):
    """(seconds, outcome, result): outcome is "ok", "deadline" or
    "exception", with the error text as result for the last. The interval
    timer interrupts the call in this process; the package keeps no
    module-level state, so nothing is left half-updated."""
    t0 = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return perf_counter() - t0, "deadline", None
    except Exception as exc:
        return perf_counter() - t0, "exception", f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, "ok", result


def import_package(name=PACKAGE):
    """Import the package afresh, dropping any copy imported before."""
    for loaded in [n for n in sys.modules if n == name or n.startswith(name + ".")]:
        del sys.modules[loaded]
    package = importlib.import_module(name)
    importlib.import_module(name + ".cli")
    return package


def to_curve(doc, package):
    polynomials = sys.modules[package.__name__ + ".polynomials"]
    surface = package.Surface(doc["surface"])
    terms = {tuple(t["exp"]): Fraction(t["coeff"]) for t in doc["terms"]}
    return package.PointedCurve(
        surface,
        doc["degree"],
        tuple(Fraction(c) for c in doc["point"]),
        polynomials.Polynomial(surface.nvars, terms),
    )


def _run_cli(cli, argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def make_call(op, package):
    """A no-argument callable running the operation on the given package."""
    if op["kind"] == "verdict":
        curve = to_curve(op["curve"], package)
        t = Fraction(op["t"])
        return lambda: package.stability_verdict(curve, t, budget=op["budget"], seed=op["seed"])
    cli = sys.modules[package.__name__ + ".cli"]
    return lambda: _run_cli(cli, op["argv"], op["stdin"])


def output(op, result):
    if op["kind"] == "verdict":
        return gate.verdict_output(result)
    return gate.cli_output(result)
