"""Benchmark of the wallcross package: one closed loop, one caller.

    python3 perfbench/run.py --workload chamber_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
One process and one thread call the package back to back: the next
operation starts when the previous one returns. An operation is one
`stability_verdict` call (chamber_sweep, search_exhaust) or one in-process
`wallcross.cli.main` call (local_analysis). The run seed picks the inputs
(see workloads.py); every output is checked against the golden outputs in
golden/ and every certificate is re-verified (see gate.py).

A run is an untimed warm-up of about two seconds, then a fixed number of
whole passes over the sample: as many as take --seconds at the recording
commit, at least one. Fixed work keeps every metric, the tail percentile
included, about the same inputs on every commit, where a time limit would
cut a different share of a pass each time. In the timed runs every call is
paired with the same call on a frozen copy of the package at the
recording commit (reference/), and latencies are reported at the
recording machine's speed, because the speed of the machine drifts by
tens of percent within seconds (see paired_latencies).

--trace 0 reports the end-to-end metrics. --trace 1 makes the passes for
half of --seconds untraced, then the same passes with every public
function of the package wrapped (see spans.py), and reports per-pass layer
statistics and the tracing overhead. The last line of stdout is the JSON
result; the lines before it name every metric with its unit, the input
digest and every failed operation with its cause. Inputs of failed
operations are written to .perfbench/failed/ in the checkout.
"""

import argparse
import dataclasses
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import gate
import harness
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
# Seconds an import of the reference copy takes on the recording machine.
REFERENCE_IMPORT_S = 0.045
WARM_UP_S = 2.0

# Layers each workload must reach in the traced run.
EXPECTED_LAYERS = {
    "chamber_sweep": ("criterion", "linprog", "curves", "inflection", "series",
                      "polynomials", "hessians"),
    "search_exhaust": ("criterion", "linprog", "curves", "hessians"),
    "local_analysis": ("cli", "criterion", "curves", "inflection", "series",
                       "polynomials", "walls", "hessians"),
}
# Functions local_analysis must never reach: it has no linear programming.
LOCAL_FORBIDDEN = ("linprog.lp_max", "criterion.torus_verdict", "criterion.destabilizer_search")


class BenchmarkError(Exception):
    """The benchmark cannot produce a trustworthy result."""


# -- set-up -----------------------------------------------------------------


def setup(workload, seed, golden):
    """Import the package and build the run's inputs. Returns the
    operations in pass order and their callables."""
    package = harness.import_package()
    items = workloads.pool(workload, golden.get("witness_docs"))
    chosen = workloads.sample(workload, seed, items, golden["entries"])
    ops = [op for item in chosen for op in item["ops"]]
    calls = [harness.make_call(op, package) for op in ops]
    return ops, calls


def timed_setups(workload, seed, golden):
    """(set-up seconds, operations, their calls on the package, the same
    calls on the reference copy). Each set-up is paired with an import of
    the reference copy, and the median ratio is reported at the recording
    machine's speed, as the latencies are."""
    ratios = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        ops, calls = setup(workload, seed, golden)
        t1 = perf_counter()
        reference = harness.import_package(harness.REFERENCE)
        ratios.append((t1 - t0) / (perf_counter() - t1))
    ref_calls = [harness.make_call(op, reference) for op in ops]
    return REFERENCE_IMPORT_S * statistics.median(ratios), ops, calls, ref_calls


def inputs_digest(ops, golden):
    digests = []
    for op in ops:
        d = workloads.digest(workloads.op_inputs(op))
        if d != golden["entries"][op["key"]]["digest"]:
            raise BenchmarkError(f"inputs of {op['key']} differ from the recorded ones")
        digests.append(d)
    return workloads.digest(digests)


# -- the closed loop ----------------------------------------------------------


def passes_for(seconds, workload):
    """Whole passes that take about the given seconds at the recording
    commit; the same for every seed, so every run has the same shape."""
    return max(1, round(seconds / workloads.PASS_S[workload]))


def warm_up(calls, ref_calls, deadline, seconds=WARM_UP_S):
    """Untimed calls in pass order for about `seconds`: the first
    operations of a process run slower (allocator and interpreter warm-up)."""
    t0 = perf_counter()
    for call, ref_call in zip(calls, ref_calls):
        harness.timed_call(ref_call, deadline)
        harness.timed_call(call, deadline)
        if perf_counter() - t0 >= seconds:
            break


def closed_loop(calls, deadline, passes, tracer=None, ref_calls=None):
    """Call the operations in order, the given number of passes over them.
    With ref_calls, every call is paired with the same call on the
    reference copy, in alternating order. Returns the records
    [(op index, seconds, outcome, result)] and, per record, the reference
    call's seconds (None without ref_calls or when it failed)."""
    records, ref_times = [], []
    for n in range(passes * len(calls)):
        k = n % len(calls)
        ref_seconds = None
        if ref_calls is not None and n % 2 == 0:
            ref_seconds, ref_outcome, _ = harness.timed_call(ref_calls[k], deadline)
        if tracer is not None:
            tracer.begin_op(n)
        seconds, outcome, result = harness.timed_call(calls[k], deadline)
        if tracer is not None:
            tracer.end_op()
        if ref_calls is not None and n % 2 == 1:
            ref_seconds, ref_outcome, _ = harness.timed_call(ref_calls[k], deadline)
        records.append((k, seconds, outcome, result))
        ref_times.append(ref_seconds if ref_calls is not None and ref_outcome == "ok" else None)
    return records, ref_times


# -- the output gate ----------------------------------------------------------


def check(records, ops, entries):
    """Gate every record. Returns (failures, ungated): failures are
    (record index, cause, detail) with cause deadline, exception or
    mismatch; ungated counts outputs with no golden to compare against."""
    failures, ungated = [], 0
    cert_checks = {}
    for i, (k, _, outcome, result) in enumerate(records):
        op, golden = ops[k], entries[ops[k]["key"]]
        if outcome != "ok":
            failures.append((i, outcome, result))
            continue
        out = harness.output(op, result)
        if "output" not in golden:
            ungated += 1
        elif out != golden["output"]:
            failures.append((i, "mismatch", "output differs from the golden output"))
            continue
        if op["kind"] == "verdict":
            if (k, out) not in cert_checks:
                cert_checks[(k, out)] = gate.certificate_problem(op["curve"], result)
            if cert_checks[(k, out)] is not None:
                failures.append((i, "mismatch", cert_checks[(k, out)]))
    return failures, ungated


def negative_control(records, ops, entries):
    """The gate must reject a perturbed golden output and a perturbed
    certificate. Returns what went wrong, or None."""
    gated = [r for r in records if r[2] == "ok" and "output" in entries[ops[r[0]]["key"]]]
    if not gated:
        return "no gated operation to perturb"
    record = gated[0]
    key = ops[record[0]]["key"]
    perturbed = dict(entries)
    perturbed[key] = dict(entries[key], output=entries[key]["output"] + " ")
    if not check([record], ops, perturbed)[0]:
        return "a perturbed golden output passed the gate"
    for k, _, _, result in gated:
        if ops[k]["kind"] == "verdict" and result.certificate is not None:
            cert = dict(result.certificate, mu=result.certificate["mu"] + 1)
            bad = dataclasses.replace(result, certificate=cert)
            if gate.certificate_problem(ops[k]["curve"], bad) is None:
                return "a perturbed certificate passed the certificate check"
            break
    return None


def gate_run(records, ops, entries):
    """(failures, ungated, correct)."""
    failures, ungated = check(records, ops, entries)
    correct = True
    for i, cause, detail in failures:
        k = records[i][0]
        expected_output = entries[ops[k]["key"]]["outcome"] == "ok"
        if cause == "mismatch" or (cause == "exception" and expected_output):
            correct = False
    problem = negative_control(records, ops, entries)
    if problem is not None:
        print(f"negative control: {problem}")
        correct = False
    return failures, ungated, correct


def report_failures(workload, seed, failures, records, ops):
    """Print every failed operation once with its cause, and write its
    inputs under .perfbench/failed/."""
    by_op = {}
    for i, cause, detail in failures:
        by_op.setdefault((records[i][0], cause), []).append((i, detail))
    out_dir = ROOT / ".perfbench" / "failed"
    for (k, cause), hits in sorted(by_op.items()):
        key = ops[k]["key"]
        path = out_dir / f"{workload}-seed{seed}-{key.replace('/', '_')}.json"
        out_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workload": workload, "seed": seed, "key": key,
                                    "cause": cause, "detail": hits[0][1],
                                    "input": workloads.op_inputs(ops[k])}, indent=1) + "\n")
        slowest = max(records[i][1] for i, _ in hits)
        print(f"failed {key}: {cause} x{len(hits)}, slowest {slowest * 1000:.0f} ms"
              f"{'' if hits[0][1] is None else ' (' + str(hits[0][1]) + ')'};"
              f" input in {path.relative_to(ROOT)}")


# -- metrics ------------------------------------------------------------------


def tail(latencies):
    """(value, percentile): the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def paired_latencies(records, ref_times, ops, entries, failed):
    """Each attempt's latency at the speed of the recording commit: the
    operation's recorded latency times the ratio of the attempt to its
    paired call on the reference copy. Failed attempts, and attempts whose
    reference call failed, keep their own latency."""
    out = []
    for i, (k, seconds, _, _) in enumerate(records):
        if i in failed or not ref_times[i]:
            out.append(seconds)
        else:
            out.append(entries[ops[k]["key"]]["cost_s"] * seconds / ref_times[i])
    return out


def end_to_end(setup_s, records, ref_times, ops, entries, failures):
    """The end-to-end metrics of an untraced run of whole passes.
    ops_per_s is the median over passes, so one pass slowed by the machine
    moves it less."""
    failed = {i for i, _, _ in failures}
    latencies = paired_latencies(records, ref_times, ops, entries, failed)
    pass_size = len(ops)
    rates = []
    for first in range(0, len(records), pass_size):
        span = range(first, first + pass_size)
        ok = sum(1 for i in span if i not in failed)
        rates.append(ok / sum(latencies[i] for i in span))
    n = len(records)
    tail_s, pct = tail(latencies)
    raw = [seconds for _, seconds, _, _ in records]
    raw_tail, _ = tail(raw)
    print(f"{n // pass_size} passes of {pass_size} operations")
    print(f"op_tail_ms is the p{pct:.2f} latency: {min(10, n - 1)} of {n} samples lie beyond it")
    print(f"failed_share {len(failed) / n:.4f} ({len(failed)} of {n} attempted)")
    paired = [i for i, t in enumerate(ref_times) if t]
    recorded = sum(entries[ops[records[i][0]]["key"]]["cost_s"] for i in paired)
    print(f"wall clock: ops_per_s {(n - len(failed)) / sum(raw):.6g}, "
          f"op_p50_ms {statistics.median(raw) * 1000:.6g}, op_tail_ms {raw_tail * 1000:.6g}; "
          f"the reference calls took {sum(ref_times[i] for i in paired) / recorded:.4f} "
          f"of their recorded time")
    return {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
        "ok_share": ((n - len(failed)) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def _report_hook(tracer, result, exc):
    if type(exc).__name__ == "UndecidedError" or (exc is None and result.undecided):
        tracer.flag("undecided")


def _roots_hook(tracer, result, exc):
    if exc is None and result is None:  # the root search gave up
        tracer.flag("undecided")


def _search_hook(tracer, result, exc):
    if exc is None and result is not None:
        tracer.count("search_hits")


TRACE_HOOKS = {
    "criterion.destabilizer_search": _search_hook,
    "polynomials.rational_roots": _roots_hook,
    "inflection.inflection_report": _report_hook,
}


def per_layer(tracer, workload, ops, passes, overhead):
    """Per-pass layer statistics; raises BenchmarkError when a layer the
    workload must reach was never called, or local_analysis strayed."""
    calls = tracer.layer_calls()
    idle = [layer for layer in EXPECTED_LAYERS[workload] if calls[layer] == 0]
    if idle:
        raise BenchmarkError(f"traced run recorded no calls into {', '.join(idle)}")
    st = tracer.stats()
    if workload == "local_analysis":
        strayed = [name for name in LOCAL_FORBIDDEN if st[name]["calls"]]
        strayed += tracer.spans_outside("criterion", "criterion.interval_mu_claim")
        if strayed:
            raise BenchmarkError(f"local_analysis reached {', '.join(strayed)}")
    frames = tracer.count_children("criterion.destabilizer_search", "criterion.torus_verdict")
    curves = len({workloads.canonical(op["curve"]) if op["kind"] == "verdict" else op["stdin"]
                  for op in ops if op["kind"] == "verdict" or op["argv"][0] == "inflect"})
    metrics = {}

    def stat(name, field):
        unit = "count" if field == "calls" else "s"
        metrics[f"{name}.{field}"] = (st[name][field] / passes, unit)

    for name, field in (
        ("linprog.lp_max", "calls"), ("linprog.lp_max", "busy_s"),
        ("criterion.torus_verdict", "calls"), ("criterion.torus_verdict", "busy_s"),
        ("criterion.destabilizer_search", "calls"), ("criterion.destabilizer_search", "busy_s"),
    ):
        stat(name, field)
    metrics["criterion.frames_tried"] = (frames / passes, "count")
    metrics["criterion.search_hit_ratio"] = (
        tracer.counts.get("search_hits", 0) / frames if frames else 0.0, "ratio")
    for name, field in (
        ("curves.apply_frame", "busy_s"), ("curves.normalize_frame", "busy_s"),
        ("criterion.stability_verdict", "self_s"),
        ("inflection.inflection_report", "calls"), ("inflection.inflection_report", "self_s"),
    ):
        stat(name, field)
    metrics["inflection.reports_per_curve"] = (
        st["inflection.inflection_report"]["calls"] / passes / curves if curves else 0.0, "ratio")
    for name, field in (
        ("inflection.special_locus_membership", "busy_s"),
        ("polynomials.squarefree_decompose", "calls"), ("polynomials.squarefree_decompose", "busy_s"),
        ("polynomials.poly_gcd", "calls"), ("polynomials.poly_gcd", "self_s"),
        ("polynomials.resultant", "busy_s"),
        ("polynomials.rational_roots", "calls"), ("polynomials.rational_roots", "busy_s"),
    ):
        stat(name, field)
    metrics["inflection.undecided"] = (
        len(tracer.flagged_ops.get("undecided", ())) / passes, "count")
    for name, field in (
        ("inflection.local_branch", "busy_s"), ("inflection.vanishing_sequence", "busy_s"),
        ("series.series_substitute", "calls"), ("series.series_substitute", "busy_s"),
        ("series.pivot_orders", "busy_s"),
        ("walls.verify_all", "busy_s"), ("hessians.analyzed_slopes", "calls"),
        ("cli.main", "calls"), ("cli.main", "self_s"),
        ("curves.curve_from_json", "busy_s"),
    ):
        stat(name, field)
    metrics["trace.overhead_share"] = (overhead, "ratio")
    return metrics


def traced_run(calls, ops, workload, passes, deadline):
    """The passes untraced, then traced. Returns (metrics, records of both
    phases)."""
    n = len(calls)
    plain, _ = closed_loop(calls, deadline, passes)
    tracer = spans.Tracer(harness.PACKAGE)
    tracer.install(TRACE_HOOKS)
    try:
        traced, _ = closed_loop(calls, deadline, passes, tracer)
    finally:
        tracer.uninstall()
    both_ok = [(a[1], b[1]) for a, b in zip(plain, traced) if a[2] == b[2] == "ok"]
    overhead = sum(b for _, b in both_ok) / sum(a for a, _ in both_ok) - 1 if both_ok else 0.0
    print(f"traced {passes} pass(es) of {n} operations; "
          f"tracing overhead {overhead:.3f} over {len(both_ok)} operations that completed in both phases")
    return per_layer(tracer, workload, ops, passes, overhead), plain + traced


# -- entry point --------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description="wallcross closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.POOL_SIZE))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / harness.PACKAGE / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE / "reference")]
    golden = json.loads((HERE / "golden" / f"{args.workload}.json").read_text())
    deadline = workloads.DEADLINE_S[args.workload]
    harness.arm_deadlines()
    try:
        setup_s, ops, calls, ref_calls = timed_setups(args.workload, args.seed, golden)
        print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations per pass, "
              f"inputs sha256 {inputs_digest(ops, golden)}")
        warm_up(calls, ref_calls, deadline)
        seconds = args.seconds / 2 if args.trace else args.seconds
        passes = passes_for(seconds, args.workload)
        if args.trace:
            metrics, records = traced_run(calls, ops, args.workload, passes, deadline)
        else:
            records, ref_times = closed_loop(calls, deadline, passes, ref_calls=ref_calls)
        failures, ungated, correct = gate_run(records, ops, golden["entries"])
        if not args.trace:
            metrics = end_to_end(setup_s, records, ref_times, ops, golden["entries"], failures)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report_failures(args.workload, args.seed, failures, records, ops)
    if ungated:
        print(f"{ungated} outputs had no golden output to compare against")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
