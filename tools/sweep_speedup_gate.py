#!/usr/bin/env python3
"""Wall-clock gate for the sweep engine's host parallelism.

Times a sweep bench serially (``--jobs 1``) and in
parallel (``--jobs N``) and fails unless the parallel run is at least
``--min-speedup`` times faster. The sweep cells are independent
CPU-bound simulations, so anything far below linear scaling points at
a serialization bug (a lock held across a simulation, a worker pool
that never fans out).

Each configuration is timed twice and the best time kept, which
filters scheduler hiccups on shared CI runners. Machines with fewer
than ``--min-cores`` physical slots cannot exhibit the speedup at
all; the gate then reports a skip and exits 0 (CI provides the
cores; laptops and constrained containers stay green).

Usage
-----
  sweep_speedup_gate.py --bench path/to/fig4_speedup \\
      [--jobs 8] [--min-speedup 3.0] [--min-cores 4]
"""

import argparse
import os
import subprocess
import sys
import time


def timed_run(bench, jobs):
    env = dict(os.environ)
    env.pop("BFGTS_SWEEP_CACHE", None)
    best = None
    for _ in range(2):
        start = time.monotonic()
        subprocess.run([bench, "--jobs", str(jobs)], env=env,
                       stdout=subprocess.DEVNULL, check=True)
        elapsed = time.monotonic() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def main():
    parser = argparse.ArgumentParser(
        description="Assert parallel sweep wall-clock speedup")
    parser.add_argument("--bench", required=True,
                        help="sweep-migrated bench binary to time")
    parser.add_argument("--jobs", type=int, default=8)
    parser.add_argument("--min-speedup", type=float, default=3.0)
    parser.add_argument("--min-cores", type=int, default=4,
                        help="skip (exit 0) below this many CPUs")
    args = parser.parse_args()

    cores = os.cpu_count() or 1
    if cores < args.min_cores:
        print("sweep_speedup_gate: SKIP (%d CPU(s) < %d; the "
              "speedup is not physically reachable here)"
              % (cores, args.min_cores))
        return 0

    serial = timed_run(args.bench, 1)
    parallel = timed_run(args.bench, args.jobs)
    speedup = serial / parallel if parallel > 0 else float("inf")
    print("sweep_speedup_gate: serial %.2fs, %d-worker %.2fs "
          "-> speedup %.2fx (%d CPUs)"
          % (serial, args.jobs, parallel, speedup, cores))
    if speedup < args.min_speedup:
        print("sweep_speedup_gate: FAIL (below %.2fx)"
              % args.min_speedup)
        return 1
    print("sweep_speedup_gate: OK (>= %.2fx)" % args.min_speedup)
    return 0


if __name__ == "__main__":
    sys.exit(main())
