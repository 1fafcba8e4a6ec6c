#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md here).

From the repository root:

  python3 bench/e2e/run.py                     # every workload, seed 1
  python3 bench/e2e/run.py --trace 1           # ... plus the traced pass
  python3 bench/e2e/run.py --workload paper16 --seed 2 --seconds 10 --trace 0
  python3 bench/e2e/run.py --repeat 2 5        # do two sets of runs agree?
  python3 bench/e2e/run.py --write-golden --seeds 1-16

The first call configures and builds bfgts_bench under .bench_build/e2e
(or $CARGO_TARGET_DIR/e2e); later calls only rebuild what changed.
Every workload runs in its own bfgts_bench process, which prints one
"workload metric value unit" line per metric. With --workload, the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
under --trace 0, its per-layer metrics under --trace 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_PATH = HERE / "golden.json"
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2e"


def build():
    """Configure once, then bring bfgts_bench up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found in {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    cache = out / "CMakeCache.txt"
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "bfgts_bench",
                  "-j", "2"])
    log_path = out / "build.log"
    for cmd in steps:
        with open(log_path, "w") as log:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT).returncode
        if rc != 0:
            if cmd[1] == "-S":
                cache.unlink(missing_ok=True)
            sys.stderr.write(log_path.read_text()[-4000:])
            raise BenchError(f"build failed, see {log_path}")
    return out / "bfgts_bench"


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def run_bench(exe, workload, seed, seconds, trace, trace_dir):
    """One bfgts_bench process; returns (stdout, {metric: (value, unit)})."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--golden", str(GOLDEN_PATH),
           "--cache-root", str(build_dir())]
    if trace:
        cmd += ["--trace-dir", str(trace_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    # Exit 1 still carries a full report (failed cells are counted).
    if proc.returncode not in (0, 1):
        raise BenchError(f"{workload}: bfgts_bench exited "
                         f"{proc.returncode}")
    metrics = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            metrics[parts[1]] = (float(parts[2]), parts[3])
    return proc.stdout, metrics


def result_json(spec, metrics, trace):
    """The benchmark result line for one workload run."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            raise BenchError(f"bfgts_bench did not report {m['name']}")
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise BenchError(f"{m['name']}: unit {unit}, BENCHMARK.json "
                             f"says {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    failed = int(metrics["cells_failed_count"][0])
    return {"correct": failed == 0,
            "attempted": int(metrics["cells_attempted"][0]),
            "failed": failed,
            "metrics": out}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def repeat(exe, spec, args, sets, runs):
    """Run every workload RUNS times per set, seeds seed..seed+RUNS-1,
    alternating the workload order, and compare the sets' medians."""
    names = [w["name"] for w in spec["workloads"]]
    e2e = spec["end_to_end"]
    values = {(w, s, m["name"]): [] for w in names for s in range(sets)
              for m in e2e}
    failed = {}
    step = 0
    for r in range(runs):
        seed = args.seed + r
        for s in range(sets):
            order = names if step % 2 == 0 else names[::-1]
            step += 1
            for w in order:
                _, metrics = run_bench(exe, w, seed, args.seconds, False,
                                       None)
                res = result_json(spec, metrics, False)
                failed[(w, seed)] = failed.get((w, seed), 0) + res["failed"]
                for m in e2e:
                    values[(w, s, m["name"])].append(
                        res["metrics"][m["name"]]["value"])
                print(f"set {s + 1} seed {seed} {w}: " + " ".join(
                    f"{k}={v['value']:.6g}"
                    for k, v in res["metrics"].items()), flush=True)
    ok = True
    print(f"\n{sets} sets x {runs} runs, seeds {args.seed}.."
          f"{args.seed + runs - 1}, {args.seconds} s each")
    for w in names:
        for m in e2e:
            name, bound = m["name"], m["bound"]
            medians = []
            cols = []
            for s in range(sets):
                v = values[(w, s, name)]
                med = statistics.median(v)
                q1, q3 = quartiles(v)
                medians.append(med)
                cols.append(f"set{s + 1} {med:.6g} [{q1:.6g}, {q3:.6g}] "
                            f"spread {100 * (q3 - q1) / med:.1f}%")
            worst = max(abs(x - medians[0]) / medians[0] for x in medians)
            agree = worst <= bound
            ok = ok and agree
            print(f"{w:15s} {name:12s} " + " | ".join(cols)
                  + f" | diff {100 * worst:.1f}% bound {100 * bound:.0f}% "
                  + ("agree" if agree else "DISAGREE"))
    for (w, seed), n in sorted(failed.items()):
        if n:
            ok = False
            print(f"{w} seed {seed}: {n} failed cell runs")
    print("cells_failed: " + ("0 on every run" if not any(failed.values())
                              else "NONZERO"))
    return 0 if ok else 1


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description="Build and run the bfgts-sim benchmark.")
    parser.add_argument("--workload", help="run one workload "
                        "(default: all of them)")
    parser.add_argument("--seed", type=int, default=1,
                        help="1 for development, 2 held out")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="measured time per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add the traced pass, report per-layer "
                        "metrics and write spans")
    parser.add_argument("--trace-dir", type=Path,
                        default=build_dir() / "trace",
                        help="where traced runs write their spans")
    parser.add_argument("--repeat", type=int, nargs=2,
                        metavar=("SETS", "RUNS"),
                        help="check that SETS sets of RUNS runs agree "
                        "within the bounds of BENCHMARK.json")
    parser.add_argument("--write-golden", action="store_true",
                        help="rewrite golden.json entries for --seeds")
    parser.add_argument("--seeds", default="1-2",
                        help="seeds for --write-golden, e.g. 1-16 or 1,2")
    args = parser.parse_args()

    try:
        exe = build()
        if args.repeat:
            return repeat(exe, spec, args, *args.repeat)
        names = [w["name"] for w in spec["workloads"]]
        if args.write_golden:
            for w in names if args.workload is None else [args.workload]:
                for seed in parse_seeds(args.seeds):
                    rc = subprocess.run(
                        [str(exe), "--workload", w, "--seed", str(seed),
                         "--write-golden", str(GOLDEN_PATH),
                         "--cache-root", str(build_dir())],
                        cwd=ROOT).returncode
                    if rc != 0:
                        raise BenchError(f"{w} seed {seed}: golden not "
                                         "written")
            return 0
        if args.workload is not None:
            stdout, metrics = run_bench(exe, args.workload, args.seed,
                                        args.seconds, args.trace,
                                        args.trace_dir)
            result = result_json(spec, metrics, args.trace)
            sys.stdout.write(stdout)
            print(json.dumps(result), flush=True)
            return 0
        failed = 0
        for w in names:
            stdout, metrics = run_bench(exe, w, args.seed, args.seconds,
                                        args.trace, args.trace_dir)
            sys.stdout.write(stdout)
            sys.stdout.flush()
            failed += result_json(spec, metrics, args.trace)["failed"]
        return 0 if failed == 0 else 1
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
