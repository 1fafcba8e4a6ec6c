#!/usr/bin/env python3
"""Self-test of the exact report comparison (compare_reports_selftest).

Writes small bfgts-obs-v1 documents to a temp dir and runs both
tools/compare_reports.py and tools/bench_compare.py --candidate on
them: documents that differ only in the provenance keys (``git``,
``gitDirty``) and the host wall keys must match (exit 0), and a
document whose one simulated number moved, however little, must not
(exit 1). It also runs compare_reports.py on JSON Lines time series
(bfgts-ts-v1): an equal file matches, and one changed window count or
one missing line does not.
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


# A bfgts-ts-v1 time series: a header line, then one line per window.
TS_LINES = [
    {"schema": "bfgts-ts-v1", "kind": "header", "interval": 10000},
    {"window": 0, "start": 0, "end": 10000, "commits": 52,
     "aborts": 58},
    {"window": 1, "start": 10000, "end": 20000, "commits": 58,
     "aborts": 31},
]


# (what differs, the lines, expected exit status)
TS_CASES = [
    ("nothing", TS_LINES, 0),
    ("one window's commit count",
     TS_LINES[:2] + [dict(TS_LINES[2], commits=59)], 1),
    ("a missing line", TS_LINES[:-1], 1),
]


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(json.dumps(line) + "\n")


def compare_ts_cases(tmp):
    """Run compare_reports.py on each TS_CASES file against TS_LINES;
    return the number of cases with the wrong exit status."""
    failures = 0
    base_path = os.path.join(tmp, "base.ts")
    write_lines(base_path, TS_LINES)
    for i, (what, lines, expected) in enumerate(TS_CASES):
        path = os.path.join(tmp, "case%d.ts" % i)
        write_lines(path, lines)
        status = subprocess.run(
            [sys.executable, os.path.join(TOOLS, "compare_reports.py"),
             base_path, path], stdout=subprocess.DEVNULL).returncode
        if status != expected:
            failures += 1
            print("FAIL compare_reports.py: ts files differing in %s "
                  "exit %d, expected %d" % (what, status, expected))
    return failures


def main():
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        failures += compare_ts_cases(tmp)
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
    print("compare_reports selftest: OK (%d cases)"
          % (len(CASES) + len(TS_CASES)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
