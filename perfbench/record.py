"""Record the golden outputs of a workload's pool.

    python3 perfbench/record.py --workload chamber_sweep

Runs every operation of the pool once, in this process, with a deadline of
RECORD_DEADLINE_S, and writes perfbench/golden/<workload>.json: per
operation the digest of its inputs, its output (verdict fields or exit
code and byte-exact stdout), and its cost. An operation that misses the
deadline is stored without an output. The costs stratify the per-seed
samples and scale the paired latencies (see run.paired_latencies), and the
outputs are what every run is gated against, so record at the commit
whose behaviour the benchmark pins, the one copied under reference/.
"""

import argparse
import json
import platform
import sys
from pathlib import Path

import harness
import workloads

RECORD_DEADLINE_S = 30.0
ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def _witness_docs(package):
    docs = {}
    for kind in workloads.WITNESS_KINDS:
        degrees = workloads.PLANE_DEGREES["local_analysis"] if kind.startswith("p2") \
            else workloads.QUADRIC_DEGREES["local_analysis"]
        for d in degrees:
            docs[f"{kind}/{d}"] = workloads.canonical(
                package.curve_to_json(package.make_witness(kind, d)))
    return docs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.POOL_SIZE))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    package = harness.import_package()
    harness.arm_deadlines()
    doc = {"workload": args.workload,
           "recorded_with": f"Python {platform.python_version()} on {platform.machine()}",
           "record_deadline_s": RECORD_DEADLINE_S,
           "entries": {}}
    witness_docs = None
    if args.workload == "local_analysis":
        witness_docs = doc["witness_docs"] = _witness_docs(package)
    for item in workloads.pool(args.workload, witness_docs):
        for op in item["ops"]:
            seconds, outcome, result = harness.timed_call(
                harness.make_call(op, package), RECORD_DEADLINE_S)
            entry = {"digest": workloads.digest(workloads.op_inputs(op)),
                     "cost_s": round(seconds, 4), "outcome": outcome}
            if outcome == "ok":
                entry["output"] = harness.output(op, result)
            elif outcome == "exception":
                entry["error"] = result
            doc["entries"][op["key"]] = entry
            print(f"{op['key']} {outcome} {seconds:.3f}s", flush=True)
    GOLDEN.mkdir(exist_ok=True)
    path = GOLDEN / f"{args.workload}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
