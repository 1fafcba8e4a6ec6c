#!/usr/bin/env python3
"""Sweep-engine differential gate (the `sweep_identical` ctest).

Drives `bfgts_cli --sweep` over a small matrix and asserts
the properties the sweep engine guarantees (src/runner/sweep.h):

* **Worker-count invariance** -- the bfgts-sweep-v1 report of an
  8-worker sweep is byte-identical to the 1-worker report, and that
  holds under two different BFGTS_HASH_SEED values (host parallelism
  and hash-container bucket order are both invisible).
* **Cache equivalence** -- rerunning a sweep against a warm on-disk
  cache reproduces the report byte-for-byte while executing zero
  simulations (checked against the "sweep: N cells, X executed,
  Y cached, Z errors" summary line on stderr).

Usage
-----
  sweep_check.py --cli path/to/bfgts_cli [--jobs 8]
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

# Two hash seeds chosen to maximally scramble bucket orders (the same
# pair tests/test_determinism.cpp uses).
HASH_SEEDS = ["0", "18364758544493064720"]

SWEEP_ARGS = [
    "--sweep",
    "--workloads", "Intruder,Genome,Kmeans",
    "--cms", "Backoff,PTS,BFGTS-HW",
    "--seeds", "1,2",
    "--baselines",
]

SUMMARY_RE = re.compile(
    r"sweep: (\d+) cells, (\d+) executed, (\d+) cached, (\d+) errors")


def run_sweep(cli, json_path, jobs, hash_seed, cache_dir=None):
    """Run one sweep; returns (report bytes, summary tuple)."""
    env = dict(os.environ, BFGTS_HASH_SEED=hash_seed)
    env.pop("BFGTS_SWEEP_CACHE", None)
    cmd = [cli] + SWEEP_ARGS + ["--jobs", str(jobs),
                                "--json", json_path]
    if cache_dir:
        cmd += ["--cache", cache_dir]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          check=True)
    match = SUMMARY_RE.search(proc.stderr)
    if not match:
        raise AssertionError("no sweep summary line on stderr:\n"
                             + proc.stderr)
    with open(json_path, "rb") as fh:
        report = fh.read()
    return report, tuple(int(g) for g in match.groups())


def main():
    parser = argparse.ArgumentParser(
        description="Differential check of bfgts_cli --sweep")
    parser.add_argument("--cli", required=True,
                        help="path to the bfgts_cli binary")
    parser.add_argument("--jobs", type=int, default=8,
                        help="parallel worker count to compare "
                             "against serial (default 8)")
    args = parser.parse_args()

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        reports = {}
        for seed in HASH_SEEDS:
            for jobs in (1, args.jobs):
                path = os.path.join(
                    tmp, "sweep_s%s_j%d.json" % (seed, jobs))
                report, summary = run_sweep(args.cli, path, jobs,
                                            seed)
                reports[(seed, jobs)] = report
                cells, executed, cached, errors = summary
                if executed != cells or cached != 0 or errors != 0:
                    print("FAIL: cold sweep (seed %s, jobs %d) "
                          "summary %s: expected all %d cells "
                          "executed" % (seed, jobs, summary, cells))
                    failures += 1

        baseline = reports[(HASH_SEEDS[0], 1)]
        for key, report in reports.items():
            if report != baseline:
                print("FAIL: report for (hash seed %s, jobs %d) "
                      "differs from (seed %s, jobs 1)"
                      % (key[0], key[1], HASH_SEEDS[0]))
                failures += 1
        if failures == 0:
            print("sweep_check: %d-worker report byte-identical to "
                  "serial under %d hash seeds"
                  % (args.jobs, len(HASH_SEEDS)))

        # Cache equivalence: cold run populates, warm run must answer
        # everything from disk and still produce identical bytes.
        cache_dir = os.path.join(tmp, "cache")
        cold_path = os.path.join(tmp, "sweep_cold.json")
        warm_path = os.path.join(tmp, "sweep_warm.json")
        cold, cold_summary = run_sweep(args.cli, cold_path, args.jobs,
                                       HASH_SEEDS[0], cache_dir)
        warm, warm_summary = run_sweep(args.cli, warm_path, args.jobs,
                                       HASH_SEEDS[0], cache_dir)
        cells = cold_summary[0]
        if warm_summary != (cells, 0, cells, 0):
            print("FAIL: warm sweep summary %s: expected all %d "
                  "cells cached, none executed"
                  % (warm_summary, cells))
            failures += 1
        if warm != cold:
            print("FAIL: warm-cache report differs from cold run")
            failures += 1
        if cold != baseline:
            print("FAIL: cached sweep report differs from uncached")
            failures += 1
        if failures == 0:
            print("sweep_check: warm cache reproduced the report "
                  "with 0 of %d cells executed" % cells)

    if failures:
        print("sweep_check: %d failure(s)" % failures)
        return 1
    print("sweep_check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
