#!/usr/bin/env python3
"""Host-performance regression gate (advisory by default in CI).

The determinism gate (tools/bench_compare.py) deliberately ignores
the two wall-clock keys every bench row carries --
``wall_ns_per_cycle`` and ``events_per_sec`` (bench/bench_util.h).
This tool is their counterpart: it compares *only* those keys
between a committed baseline and a fresh run, with deliberately wide
multiplicative tolerance bands, and flags order-of-magnitude
regressions (an accidental O(n^2) in a hook path, a debug build
shipped as a baseline) without ever failing on ordinary host noise.

A candidate FAILS when, for any row present in both documents,

    wall_ns_per_cycle > baseline * factor     (slower per cycle), or
    events_per_sec    < baseline / factor     (less throughput),

with ``factor`` defaulting to 8.0 (override with ``--factor`` or
``BFGTS_PERF_FACTOR``). Baselines are quick-mode runs from CI-class
machines; anything inside an 8x band is treated as machine variance.
Rows are matched positionally, like bench_compare.py. Baselines
written before the wall keys existed (or candidates without them)
are skipped with a note -- absence is never an error, so old
baselines and deterministic-only documents stay valid.

Usage
-----
  perf_compare.py --baseline BENCH_x.json --candidate fresh.json
  perf_compare.py --baseline BENCH_x.json --bench path/to/bench_bin

The ``--bench`` form runs the binary (BFGTS_QUICK=1, --json into a
temp file) before comparing, mirroring bench_compare.py.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

WALL_KEYS = ("wall_ns_per_cycle", "events_per_sec")


def load_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != "bfgts-obs-v1":
        raise SystemExit("%s: not a bfgts-obs-v1 document" % path)
    return doc.get("rows", [])


def compare_rows(baseline_path, candidate_path, factor):
    base_rows = load_rows(baseline_path)
    cand_rows = load_rows(candidate_path)
    failures = []
    compared = 0
    skipped = 0
    for i, (base, cand) in enumerate(zip(base_rows, cand_rows)):
        if not all(k in base and k in cand for k in WALL_KEYS):
            skipped += 1
            continue
        # A zero baseline carries no signal (e.g. a run too short
        # for the clock): skip rather than divide by it.
        if base["wall_ns_per_cycle"] <= 0 or base["events_per_sec"] <= 0:
            skipped += 1
            continue
        compared += 1
        wall = cand["wall_ns_per_cycle"]
        rate = cand["events_per_sec"]
        if wall > base["wall_ns_per_cycle"] * factor:
            failures.append(
                "row %d: wall_ns_per_cycle %.1f vs baseline %.1f "
                "(> %.0fx slower)"
                % (i, wall, base["wall_ns_per_cycle"], factor))
        if rate < base["events_per_sec"] / factor:
            failures.append(
                "row %d: events_per_sec %.0f vs baseline %.0f "
                "(> %.0fx less throughput)"
                % (i, rate, base["events_per_sec"], factor))
    if failures:
        print("perf_compare: %d regression(s) vs %s (factor %.1fx)"
              % (len(failures), baseline_path, factor))
        for failure in failures:
            print("  FAIL " + failure)
        return 1
    print("perf_compare: OK (%s within %.1fx of %s; %d row(s) "
          "compared, %d skipped)"
          % (candidate_path, factor, baseline_path, compared,
             skipped))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Compare bench wall-clock keys to a baseline "
                    "with wide tolerance bands")
    parser.add_argument("--baseline", required=True,
                        help="committed bench JSON to compare "
                             "wall-clock keys against")
    parser.add_argument("--candidate",
                        help="existing bench JSON to compare")
    parser.add_argument("--bench",
                        help="bench binary to run (BFGTS_QUICK=1) "
                             "before comparing")
    parser.add_argument("--bench-arg", action="append", default=[],
                        help="extra argument for --bench "
                             "(repeatable)")
    parser.add_argument("--factor", type=float,
                        default=float(os.environ.get(
                            "BFGTS_PERF_FACTOR", "8.0")),
                        help="multiplicative tolerance band "
                             "(default 8.0, or env "
                             "BFGTS_PERF_FACTOR)")
    args = parser.parse_args()
    if args.bench:
        with tempfile.TemporaryDirectory() as tmp:
            candidate = os.path.join(tmp, "candidate.json")
            env = dict(os.environ, BFGTS_QUICK="1")
            subprocess.run([args.bench, "--json", candidate]
                           + args.bench_arg,
                           check=True, env=env,
                           stdout=subprocess.DEVNULL)
            return compare_rows(args.baseline, candidate, args.factor)
    if not args.candidate:
        parser.error("need --candidate or --bench")
    return compare_rows(args.baseline, args.candidate, args.factor)


if __name__ == "__main__":
    sys.exit(main())
