"""Record the output of every golden CLI case that tests/fixtures/cli_golden.json lacks.

    PYTHONPATH=src python tests/record_cli_golden.py

Runs every case of `test_cli.golden_cases` in process, adds the exit code
and stdout of each case the file does not have yet, in the order of
`golden_cases`, and prints the names it added. If a case the file has
prints anything else now, or is no longer run, it writes nothing and exits
non-zero, so a changed answer is never recorded over the old one.
"""

import json
import sys
import tempfile
from pathlib import Path

from test_cli import GOLDEN, run_golden_cases


def record(path, got):
    """Add to the golden file at path the cases of got ({name: {"code",
    "out"}}, in case order) it lacks, and return their names; exit
    non-zero, writing nothing, if got changes or drops a recorded case."""
    doc = json.loads(path.read_text())
    recorded = doc["cases"]
    changed = [name for name in recorded if got.get(name) != recorded[name]]
    if changed:
        sys.exit("recorded output changed, nothing written: " + ", ".join(changed))
    added = [name for name in got if name not in recorded]
    if added:
        doc["cases"] = got
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return added


def main():
    with tempfile.TemporaryDirectory() as tmp:
        got = run_golden_cases(Path(tmp))
    for name in record(GOLDEN, got):
        print(name)


if __name__ == "__main__":
    main()
