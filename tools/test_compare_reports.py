#!/usr/bin/env python3
"""Self-test of the exact report comparison (compare_reports_selftest).

Writes small bfgts-obs-v1 documents to a temp dir and runs both
tools/compare_reports.py and tools/bench_compare.py --candidate on
them: documents that differ only in the provenance keys (``git``,
``gitDirty``) and the host wall keys must match (exit 0), and a
document whose one simulated number moved, however little, must not
(exit 1).
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))

BASE = {
    "schema": "bfgts-obs-v1",
    "kind": "bench",
    "name": "selftest",
    "git": "0123abc",
    "gitDirty": False,
    "rows": [
        {"benchmark": "Intruder", "speedup": 5.75, "runtime": 123456,
         "wall_ns_per_cycle": 40.5, "events_per_sec": 4.3e6},
    ],
}


def variant(**changes):
    doc = copy.deepcopy(BASE)
    for key, value in changes.items():
        if key in doc:
            doc[key] = value
        else:
            doc["rows"][0][key] = value
    return doc


# (what differs, the document, expected exit status)
CASES = [
    ("git", variant(git="4567def-dirty"), 0),
    ("gitDirty", variant(gitDirty=True), 0),
    ("wall keys", variant(wall_ns_per_cycle=80.0, events_per_sec=1e6),
     0),
    ("a simulated number", variant(speedup=5.75 * (1 + 1e-9)), 1),
]


def main():
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "base.json")
        with open(base_path, "w", encoding="utf-8") as fh:
            json.dump(BASE, fh)
        for i, (what, doc, expected) in enumerate(CASES):
            path = os.path.join(tmp, "case%d.json" % i)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            for cmd in (["compare_reports.py", base_path, path],
                        ["bench_compare.py", "--baseline", base_path,
                         "--candidate", path]):
                status = subprocess.run(
                    [sys.executable, os.path.join(TOOLS, cmd[0])]
                    + cmd[1:], stdout=subprocess.DEVNULL).returncode
                if status != expected:
                    failures += 1
                    print("FAIL %s: documents differing in %s exit %d,"
                          " expected %d" % (cmd[0], what, status,
                                            expected))
    if failures:
        return 1
    print("compare_reports selftest: OK (%d cases)" % len(CASES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
