#!/usr/bin/env python3
"""Bench-baseline gate: a fresh bench document must equal its baseline.

Compares a bfgts-obs-v1 bench document against a committed baseline
(bench/baselines/BENCH_*.json) with tools/compare_reports.py's exact
comparison. The simulator is deterministic, so every cell must match
once the provenance keys (``git``, ``gitDirty``) and the host
wall-clock keys (``wall_ns_per_cycle``, ``events_per_sec``; gated
with wide bands by tools/perf_compare.py) are dropped. Rows are
matched positionally -- the benches emit them in a fixed order.

Usage
-----
  bench_compare.py --baseline BENCH_x.json --candidate fresh.json
  bench_compare.py --baseline BENCH_x.json --bench path/to/bench_bin

The ``--bench`` form runs the binary itself (--json into a temp
file) and then compares; this is how the ctests use it. To refresh
a baseline after an intentional model change, rerun the bench with
``--json <baseline path>`` and commit the result (EXPERIMENTS.md,
"Regenerating the bench baselines").
"""

import argparse
import os
import subprocess
import sys
import tempfile

from compare_reports import compare_files


def compare(baseline, candidate):
    status = compare_files([baseline, candidate])
    if status:
        print("If the change is intentional, regenerate the baseline "
              "(see tools/bench_compare.py docstring).")
    return status


def main():
    parser = argparse.ArgumentParser(
        description="Compare a bench --json document to a baseline")
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--candidate",
                        help="existing bench JSON to compare")
    parser.add_argument("--bench",
                        help="bench binary to run before comparing")
    parser.add_argument("--bench-arg", action="append", default=[],
                        help="extra argument for --bench (repeatable;"
                             " e.g. --bench-arg=--jobs "
                             "--bench-arg=8)")
    args = parser.parse_args()
    if args.bench:
        with tempfile.TemporaryDirectory() as tmp:
            candidate = os.path.join(tmp, "candidate.json")
            subprocess.run([args.bench, "--json", candidate]
                           + args.bench_arg,
                           check=True, stdout=subprocess.DEVNULL)
            return compare(args.baseline, candidate)
    if not args.candidate:
        parser.error("need --candidate or --bench")
    return compare(args.baseline, args.candidate)


if __name__ == "__main__":
    sys.exit(main())
