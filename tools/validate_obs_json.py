#!/usr/bin/env python3
"""Validate bfgts-obs-v1 JSON output (docs/observability.md).

Every document is validated twice: first against the formal JSON
Schema checked in under docs/schemas/ (bfgts-obs-v1, bfgts-ts-v1,
bfgts-sweep-v1, bfgts-prof-v1, bfgts-qual-v1), then by the
hand-written semantic checks below that a schema cannot express
(fraction sums, cross-line window chaining, sorted top-N lists,
balanced trace slices, profile shares summing to the run loop,
quality histogram totals and reliability-table consistency).

Three modes:

  validate_obs_json.py FILE [FILE...]
      Check existing documents (run, bench, sweep, or prof) against
      the schemas.

  validate_obs_json.py --cli PATH_TO_BFGTS_CLI
      Run the CLI twice under different BFGTS_HASH_SEED values,
      require byte-identical JSON reports, JSONL traces, time-series
      streams, Chrome timelines, and conflict DOT files, and
      schema-check everything (report members incl. timeseries and
      conflict edges, bfgts-ts-v1 stream shape, Chrome trace_event
      shape with balanced begin/end slices per track). Also runs a
      small --sweep matrix and schema-checks the bfgts-sweep-v1
      report. A further run adds --profile and asserts that every
      deterministic artifact (report, trace, time series, DOT, and
      the sweep report) comes out byte-identical with profiling on
      -- the bfgts-prof-v1 documents themselves are only schema- and
      semantics-checked, being wall-clock data.

  validate_obs_json.py --bench PATH_TO_BENCH_BINARY
      Run the bench with BFGTS_QUICK=1 and --json and schema-check
      the emitted document.

Exits non-zero on the first failure. Stdlib only: the JSON Schema
subset the three schemas use (type/const/enum/required/properties/
items/oneOf/$ref into $defs/bounds) is interpreted right here rather
than depending on the jsonschema package.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

SCHEMA = "bfgts-obs-v1"
SCHEMA_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "docs", "schemas")

CLI_ARGS = ["--workload", "Intruder", "--cm", "BFGTS-HW", "--tx", "10"]

TRACE_KEYS = {"tick", "cpu", "thread", "sTx", "dTx", "cat", "event"}
TRACE_CATS = {"tx", "sched", "cm", "predictor", "mem", "audit"}
BREAKDOWN_KEYS = {"nonTx", "kernel", "tx", "aborted", "sched", "idle"}

TS_SCHEMA = "bfgts-ts-v1"
TS_WINDOW_KEYS = {
    "window", "start", "end", "commits", "aborts", "conflicts",
    "predictedStalls", "stallTimeouts", "abortRate", "cpusRunning",
    "cpusStalled", "readyQueueDepth", "meanConfidence",
    "bloomOccupancy", "conflictPressure", "calibrationBrier",
}
TIMESERIES_KEYS = {
    "interval", "windows", "peakAbortRate", "meanAbortRate",
    "peakReadyQueueDepth", "peakConflictPressure",
    "peakCommitsPerWindow", "peakAbortsPerWindow",
}
EDGE_KEYS = {"winner", "victim", "aborts", "wastedCycles"}


def fail(msg):
    print(f"validate_obs_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check(cond, msg):
    if not cond:
        fail(msg)


# --------------------------------------------------------------------
# Minimal JSON Schema interpreter (the subset docs/schemas/ uses).

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _resolve_ref(ref, root):
    check(ref.startswith("#/"), f"unsupported $ref {ref!r}")
    node = root
    for part in ref[2:].split("/"):
        check(isinstance(node, dict) and part in node,
              f"dangling $ref {ref!r}")
        node = node[part]
    return node


def _schema_errors(value, schema, root, path):
    """Return a list of 'path: problem' strings (empty = valid)."""
    if "$ref" in schema:
        return _schema_errors(value, _resolve_ref(schema["$ref"], root),
                              root, path)
    errors = []
    if "const" in schema and value != schema["const"]:
        return [f"{path}: is {value!r}, want {schema['const']!r}"]
    if "enum" in schema and value not in schema["enum"]:
        return [f"{path}: {value!r} not one of {schema['enum']!r}"]
    if "type" in schema:
        types = schema["type"]
        if isinstance(types, str):
            types = [types]
        if not any(_TYPE_CHECKS[t](value) for t in types):
            return [f"{path}: not of type {types!r}"]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{path}: {value} < minimum "
                          f"{schema['minimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            errors.append(f"{path}: {value} > maximum "
                          f"{schema['maximum']}")
    if isinstance(value, str) and "minLength" in schema:
        if len(value) < schema["minLength"]:
            errors.append(f"{path}: shorter than minLength "
                          f"{schema['minLength']}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}: missing required '{key}'")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                errors.extend(_schema_errors(value[key], sub, root,
                                             f"{path}.{key}"))
    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            errors.append(f"{path}: fewer than {schema['minItems']} "
                          "items")
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            errors.append(f"{path}: more than {schema['maxItems']} "
                          "items")
        if "items" in schema:
            for i, item in enumerate(value):
                errors.extend(_schema_errors(item, schema["items"],
                                             root, f"{path}[{i}]"))
    if "oneOf" in schema:
        branch_errors = [_schema_errors(value, branch, root, path)
                         for branch in schema["oneOf"]]
        matches = sum(1 for errs in branch_errors if not errs)
        if matches != 1:
            flat = "; ".join(errs[0] for errs in branch_errors if errs)
            errors.append(f"{path}: matched {matches} oneOf branches "
                          f"(want exactly 1): {flat}")
    return errors


_SCHEMA_CACHE = {}


def validate_schema(value, schema_name, where):
    """Validate against docs/schemas/<schema_name>.schema.json."""
    if schema_name not in _SCHEMA_CACHE:
        path = os.path.join(SCHEMA_DIR,
                            schema_name + ".schema.json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                _SCHEMA_CACHE[schema_name] = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            fail(f"cannot load schema {path}: {exc}")
    schema = _SCHEMA_CACHE[schema_name]
    errors = _schema_errors(value, schema, schema, "$")
    if errors:
        listing = "\n  ".join(errors[:10])
        fail(f"{where}: violates {schema_name} schema:\n  {listing}")


def check_histogram(hist, where):
    check(isinstance(hist, dict), f"{where}: histogram is not an object")
    for key in ("count", "mean", "scale", "buckets"):
        check(key in hist, f"{where}: histogram lacks '{key}'")
    check(hist["scale"] in ("log2", "linear"),
          f"{where}: bad scale {hist['scale']!r}")
    total = 0
    for bucket in hist["buckets"]:
        for key in ("lo", "hi", "n"):
            check(key in bucket, f"{where}: bucket lacks '{key}'")
        check(bucket["n"] > 0, f"{where}: zero bucket was emitted")
        if bucket["hi"] is not None:
            check(bucket["lo"] < bucket["hi"],
                  f"{where}: bucket edges out of order")
        total += bucket["n"]
    check(total == hist["count"],
          f"{where}: bucket counts {total} != count {hist['count']}")


def check_envelope(doc, where):
    check(isinstance(doc, dict), f"{where}: root is not an object")
    check(doc.get("schema") == SCHEMA,
          f"{where}: schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    check(doc.get("kind") in ("run", "bench"),
          f"{where}: bad kind {doc.get('kind')!r}")
    check(isinstance(doc.get("name"), str) and doc["name"],
          f"{where}: missing name")
    check(isinstance(doc.get("git"), str) and doc["git"],
          f"{where}: missing git describe")


def check_run(doc, where):
    validate_schema(doc, SCHEMA, where)
    check_envelope(doc, where)
    check(doc["kind"] == "run", f"{where}: kind is not 'run'")
    for key in ("config", "results", "stats", "predictor_quality",
                "similarity_per_site"):
        check(key in doc, f"{where}: missing top-level '{key}'")
    config = doc["config"]
    for key in ("workload", "cm", "cpus", "threadsPerCpu", "seed"):
        check(key in config, f"{where}: config lacks '{key}'")
    results = doc["results"]
    for key in ("runtime", "commits", "aborts", "contentionRate",
                "breakdown"):
        check(key in results, f"{where}: results lacks '{key}'")
    missing = BREAKDOWN_KEYS - results["breakdown"].keys()
    check(not missing, f"{where}: breakdown lacks {sorted(missing)}")
    frac_sum = sum(results["breakdown"][k + "Frac"]
                   for k in sorted(BREAKDOWN_KEYS))
    check(abs(frac_sum - 1.0) < 1e-9,
          f"{where}: breakdown fractions sum to {frac_sum}")

    timeseries = doc.get("timeseries")
    if timeseries is not None:
        missing = TIMESERIES_KEYS - timeseries.keys()
        check(not missing, f"{where}: timeseries lacks {sorted(missing)}")
        check(timeseries["interval"] > 0, f"{where}: bad ts interval")
        check(0.0 <= timeseries["peakAbortRate"] <= 1.0,
              f"{where}: peakAbortRate out of [0,1]")
        check(timeseries["meanAbortRate"]
              <= timeseries["peakAbortRate"] + 1e-12,
              f"{where}: mean abort rate exceeds peak")

    edges = doc.get("conflict_edges")
    if edges is not None:
        for key in ("totalEdges", "topByWastedCycles", "edges"):
            check(key in edges, f"{where}: conflict_edges lacks '{key}'")
        check(edges["totalEdges"] == len(edges["edges"]),
              f"{where}: totalEdges != len(edges)")
        check(len(edges["topByWastedCycles"]) <= 10,
              f"{where}: topByWastedCycles longer than 10")
        for i, edge in enumerate(edges["edges"]
                                 + edges["topByWastedCycles"]):
            missing = EDGE_KEYS - edge.keys()
            check(not missing,
                  f"{where}: conflict edge {i} lacks {sorted(missing)}")
        top = edges["topByWastedCycles"]
        for a, b in zip(top, top[1:]):
            check(a["wastedCycles"] >= b["wastedCycles"],
                  f"{where}: topByWastedCycles not sorted")
    if "serialization_edges" in doc:
        for i, edge in enumerate(doc["serialization_edges"]):
            missing = {"winner", "victim", "count"} - edge.keys()
            check(not missing,
                  f"{where}: serialization edge {i} lacks "
                  f"{sorted(missing)}")

    quality = doc["predictor_quality"]
    for key in ("predictedStalls", "truePositives", "falsePositives",
                "falseNegatives", "trueNegatives", "predictedAborts",
                "precision", "recall", "f1", "accuracy", "perSite"):
        check(key in quality, f"{where}: predictor_quality lacks '{key}'")
    for metric in ("precision", "recall", "f1", "accuracy"):
        check(0.0 <= quality[metric] <= 1.0,
              f"{where}: {metric} {quality[metric]} out of [0,1]")
    check(isinstance(quality["perSite"], list),
          f"{where}: perSite is not an array")

    stats = doc["stats"]
    for group in ("mem", "htm", "predictor", "predictor.quality", "os",
                  "runner"):
        check(group in stats, f"{where}: stats lacks group '{group}'")
    check_histogram(stats["runner"]["abortCycles"],
                    f"{where}: runner.abortCycles")
    check_histogram(stats["runner"]["stallCycles"],
                    f"{where}: runner.stallCycles")
    if "bfgts" in stats:
        check_histogram(stats["bfgts"]["similarity"],
                        f"{where}: bfgts.similarity")
        check_histogram(stats["bfgts"]["confidence"],
                        f"{where}: bfgts.confidence")
    check(isinstance(doc["similarity_per_site"], list),
          f"{where}: similarity_per_site is not an array")


def check_bench(doc, where):
    validate_schema(doc, SCHEMA, where)
    check_envelope(doc, where)
    check(doc["kind"] == "bench", f"{where}: kind is not 'bench'")
    check("options" in doc, f"{where}: missing options")
    check(isinstance(doc.get("rows"), list) and doc["rows"],
          f"{where}: rows missing or empty")
    keys = list(doc["rows"][0].keys())
    for i, row in enumerate(doc["rows"]):
        check(isinstance(row, dict), f"{where}: row {i} not an object")
        check(list(row.keys()) == keys,
              f"{where}: row {i} keys differ from row 0")


def check_sweep(doc, where):
    validate_schema(doc, "bfgts-sweep-v1", where)
    check(doc["cellCount"] == len(doc["cells"]),
          f"{where}: cellCount {doc['cellCount']} != "
          f"{len(doc['cells'])} cells")
    labels = [cell["label"] for cell in doc["cells"]]
    check(len(labels) == len(set(labels)),
          f"{where}: duplicate cell labels")


PROF_PHASES = ["event_queue", "workload", "cm_decide", "cm_commit",
               "bloom", "predictor", "os_sched", "mem", "other"]
PROF_STRUCTURES = ["confidence_tables", "bloom_signatures",
                   "predictor_caches", "event_queue"]


def check_prof_run(prof, where):
    """Semantic checks of one bfgts-prof-v1 profile object."""
    names = [phase["name"] for phase in prof["phases"]]
    check(names == PROF_PHASES,
          f"{where}: phases are {names}, want {PROF_PHASES}")
    check([m["name"] for m in prof["memory"]] == PROF_STRUCTURES,
          f"{where}: memory gauges are not {PROF_STRUCTURES}")
    if prof["wallNs"] > 0:
        # The synthesized 'other' bucket absorbs unattributed run-loop
        # time, so the shares account for (essentially) the whole
        # loop; clock jitter can push attributed time slightly past
        # wallNs, hence >= rather than ==.
        share_sum = sum(phase["share"] for phase in prof["phases"])
        check(share_sum >= 1.0 - 1e-6,
              f"{where}: phase shares sum to {share_sum}, want ~1")
        check(prof["peakRssBytes"] > 0,
              f"{where}: peak RSS missing on a timed run")


def check_prof(doc, where):
    validate_schema(doc, "bfgts-prof-v1", where)
    if doc["kind"] == "run":
        check_prof_run(doc["run"], f"{where}: run")
        return
    check(doc["profiledCells"] == len(doc["cells"]),
          f"{where}: profiledCells {doc['profiledCells']} != "
          f"{len(doc['cells'])} cells")
    check(doc["profiledCells"] <= doc["cellCount"],
          f"{where}: more profiled cells than cells")
    for cell in doc["cells"]:
        check_prof_run(cell["run"], f"{where}: {cell['label']}")
    for metric, agg in doc["aggregate"].items():
        check(agg["min"] <= agg["median"] <= agg["max"],
              f"{where}: aggregate.{metric} not ordered "
              f"min<=median<=max")


def check_qual_run(qual, where):
    """Semantic checks of one bfgts-qual-v1 quality object."""
    est = qual["estimator"]
    for eq in ("eq2_set_size", "eq3_intersection", "eq4_similarity"):
        stats = est[eq]
        w = f"{where}: {eq}"
        check_histogram(stats["hist"], w)
        check(stats["meanAbs"] <= stats["maxAbs"] + 1e-12,
              f"{w}: meanAbs exceeds maxAbs")
        check(abs(stats["meanSigned"]) <= stats["meanAbs"] + 1e-12,
              f"{w}: |meanSigned| exceeds meanAbs")
        for axis in ("byTrueSetSize", "byOccupancy"):
            total = sum(bucket["n"] for bucket in stats[axis])
            check(total == stats["count"],
                  f"{w}: {axis} counts {total} != count "
                  f"{stats['count']}")
    check(est["eq2_set_size"]["count"] == est["samples"],
          f"{where}: eq2 count != estimator samples")
    check(est["eq3_intersection"]["count"] <= est["samples"],
          f"{where}: eq3 count exceeds estimator samples")
    check(est["eq3_intersection"]["count"]
          == est["eq4_similarity"]["count"],
          f"{where}: eq3 and eq4 sample counts differ")

    cal = qual["calibration"]
    check(cal["bins"] >= 8, f"{where}: fewer than 8 calibration bins")
    check(len(cal["reliability"]) == cal["bins"],
          f"{where}: reliability table length != bins")
    decisions = 0
    for i, row in enumerate(cal["reliability"]):
        w = f"{where}: reliability[{i}]"
        check(row["lo"] < row["hi"], f"{w}: bin edges out of order")
        check(row["stalls"] <= row["decisions"],
              f"{w}: more stalls than decisions")
        check(row["conflicts"] <= row["decisions"],
              f"{w}: more conflicts than decisions")
        if row["decisions"] > 0:
            # Samples land in a bin by predicted confidence, so the
            # bin mean must fall inside (the last bin is closed).
            hi = row["hi"] + (1e-12 if i == cal["bins"] - 1 else 0)
            check(row["lo"] - 1e-12 <= row["meanConfidence"] <= hi,
                  f"{w}: meanConfidence outside the bin")
        decisions += row["decisions"]
    check(decisions == cal["samples"],
          f"{where}: reliability decisions {decisions} != samples "
          f"{cal['samples']}")

    ledger = qual["ledger"]
    totals = ledger["totals"]
    check(len(ledger["pairs"]) <= ledger["maxPairs"],
          f"{where}: more pairs than maxPairs")
    keys = [(p["enemy"], p["victim"]) for p in ledger["pairs"]]
    check(keys == sorted(keys), f"{where}: pairs not in key order")
    check(len(keys) == len(set(keys)), f"{where}: duplicate pairs")
    for field in ("truePositives", "falsePositives", "falseNegatives",
                  "predictedAborts", "wastedStallCycles",
                  "savedAbortCycles", "fnWastedCycles",
                  "predictedAbortWastedCycles"):
        pair_sum = sum(p[field] for p in ledger["pairs"])
        check(pair_sum <= totals[field],
              f"{where}: pair {field} sum {pair_sum} exceeds total "
              f"{totals[field]}")
        if ledger["droppedEvents"] == 0 \
                and field in ("truePositives", "falsePositives"):
            # TP/FP always name an enemy, so with no drops the pairs
            # account for every one of them.
            check(pair_sum == totals[field],
                  f"{where}: pair {field} sum {pair_sum} != total "
                  f"{totals[field]} with no dropped events")


def check_qual(doc, where):
    validate_schema(doc, "bfgts-qual-v1", where)
    if doc["kind"] == "run":
        check_qual_run(doc["run"], f"{where}: run")
        return
    check(doc["qualityCells"] == len(doc["cells"]),
          f"{where}: qualityCells {doc['qualityCells']} != "
          f"{len(doc['cells'])} cells")
    check(doc["qualityCells"] <= doc["cellCount"],
          f"{where}: more quality cells than cells")
    for cell in doc["cells"]:
        check_qual_run(cell["run"], f"{where}: {cell['label']}")
    for metric, agg in doc["aggregate"].items():
        check(agg["min"] <= agg["median"] <= agg["max"],
              f"{where}: aggregate.{metric} not ordered "
              f"min<=median<=max")


QUAL_LEDGER_KEYS = {"tick", "enemy", "victim", "confidence",
                    "outcome", "stalled", "conflict", "cycles"}
QUAL_OUTCOMES = {"tp", "fp", "fn", "predicted_abort", "tn"}


def check_qual_jsonl(path):
    """Shape-check a --quality-jsonl per-decision ledger stream."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    check(lines, f"{path}: empty quality ledger")
    prev_tick = 0
    for i, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            fail(f"{path}:{i}: invalid JSON ({exc})")
        missing = QUAL_LEDGER_KEYS - record.keys()
        check(not missing, f"{path}:{i}: lacks {sorted(missing)}")
        check(record["outcome"] in QUAL_OUTCOMES,
              f"{path}:{i}: bad outcome {record['outcome']!r}")
        check(record["tick"] >= prev_tick,
              f"{path}:{i}: ticks not monotonic")
        check(record["confidence"] <= 1.0,
              f"{path}:{i}: confidence above 1")
        prev_tick = record["tick"]


def check_trace_jsonl(path):
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    check(lines, f"{path}: empty trace")
    for i, line in enumerate(lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            fail(f"{path}:{i + 1}: invalid JSON ({exc})")
        missing = TRACE_KEYS - record.keys()
        check(not missing, f"{path}:{i + 1}: lacks {sorted(missing)}")
        check(record["cat"] in TRACE_CATS,
              f"{path}:{i + 1}: bad category {record['cat']!r}")
        check(isinstance(record["tick"], int) and record["tick"] >= 0,
              f"{path}:{i + 1}: bad tick")


def check_ts_jsonl(path):
    """Shape-check a bfgts-ts-v1 time-series stream."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    check(lines, f"{path}: empty time series")
    header = json.loads(lines[0])
    validate_schema(header, TS_SCHEMA, f"{path}:1")
    check(header.get("schema") == TS_SCHEMA,
          f"{path}: header schema is {header.get('schema')!r}")
    check(header.get("kind") == "header", f"{path}: bad header kind")
    check(header.get("interval", 0) > 0, f"{path}: bad interval")
    prev_end = 0
    for i, line in enumerate(lines[1:], start=2):
        try:
            window = json.loads(line)
        except json.JSONDecodeError as exc:
            fail(f"{path}:{i}: invalid JSON ({exc})")
        validate_schema(window, TS_SCHEMA, f"{path}:{i}")
        missing = TS_WINDOW_KEYS - window.keys()
        check(not missing, f"{path}:{i}: lacks {sorted(missing)}")
        check(window["window"] == i - 2,
              f"{path}:{i}: window index not consecutive")
        check(window["start"] == prev_end,
              f"{path}:{i}: window start {window['start']} != "
              f"previous end {prev_end}")
        check(window["start"] < window["end"],
              f"{path}:{i}: empty window span")
        check(0.0 <= window["abortRate"] <= 1.0,
              f"{path}:{i}: abortRate out of [0,1]")
        prev_end = window["end"]


def check_chrome_trace(path):
    """Shape-check a Chrome trace_event file: valid JSON, the
    traceEvents array, and balanced B/E slices on every track."""
    doc = load(path)
    check(isinstance(doc, dict) and "traceEvents" in doc,
          f"{path}: no traceEvents member")
    events = doc["traceEvents"]
    check(isinstance(events, list) and events,
          f"{path}: traceEvents missing or empty")
    depth = {}
    phases = set()
    for i, event in enumerate(events):
        for key in ("name", "ph", "pid"):
            check(key in event, f"{path}: event {i} lacks '{key}'")
        phases.add(event["ph"])
        if event["ph"] == "B":
            depth[event["tid"]] = depth.get(event["tid"], 0) + 1
        elif event["ph"] == "E":
            depth[event["tid"]] = depth.get(event["tid"], 0) - 1
            check(depth[event["tid"]] >= 0,
                  f"{path}: event {i}: E without B on tid "
                  f"{event['tid']}")
    open_tracks = {tid: d for tid, d in depth.items() if d != 0}
    check(not open_tracks,
          f"{path}: unbalanced slices on tids {sorted(open_tracks)}")
    check("M" in phases, f"{path}: no metadata events")


def check_conflict_dot(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    body = "\n".join(line for line in text.splitlines()
                     if not line.startswith("//"))
    check(body.lstrip().startswith("digraph"),
          f"{path}: not a digraph")
    check(text.rstrip().endswith("}"), f"{path}: unterminated graph")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"{path}: cannot load ({exc})")


def run(cmd, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    result = subprocess.run(cmd, env=env, cwd=cwd,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    if result.returncode != 0:
        fail(f"{' '.join(cmd)} exited {result.returncode}:\n"
             f"{result.stdout.decode(errors='replace')}")


def mode_cli(cli, workdir):
    artifacts = {
        "json": ("run-{}.json", check_run),
        "trace": ("run-{}.jsonl", check_trace_jsonl),
        "ts": ("ts-{}.jsonl", check_ts_jsonl),
        "chrome": ("chrome-{}.json", check_chrome_trace),
        "dot": ("conf-{}.dot", check_conflict_dot),
    }
    outputs = []
    for seed in ("0x0123456789abcdef", "0xfedcba9876543210"):
        paths = {kind: os.path.join(workdir, pattern.format(seed))
                 for kind, (pattern, _) in artifacts.items()}
        run([cli, *CLI_ARGS,
             "--json", paths["json"],
             "--trace", paths["trace"], "--trace-jsonl",
             "--ts", paths["ts"],
             "--trace-chrome", paths["chrome"],
             "--conflict-dot", paths["dot"]],
            env_extra={"BFGTS_HASH_SEED": seed})
        blobs = {}
        for kind, (_, checker) in artifacts.items():
            if checker is check_run:
                checker(load(paths[kind]), paths[kind])
            else:
                checker(paths[kind])
            with open(paths[kind], "rb") as fh:
                blobs[kind] = fh.read()
        outputs.append(blobs)
    for kind in artifacts:
        check(outputs[0][kind] == outputs[1][kind],
              f"{kind} output differs across BFGTS_HASH_SEED values")

    # --profile must be purely additive: every deterministic artifact
    # byte-identical to the unprofiled run, the bfgts-prof-v1 report
    # schema-valid. The Chrome timeline is exempt from the byte check
    # (profiling adds host counter tracks) but must stay well-formed.
    prof_paths = {kind: os.path.join(workdir, "prof-" + pattern
                                     .format("x"))
                  for kind, (pattern, _) in artifacts.items()}
    prof_report = os.path.join(workdir, "prof.json")
    run([cli, *CLI_ARGS,
         "--json", prof_paths["json"],
         "--trace", prof_paths["trace"], "--trace-jsonl",
         "--ts", prof_paths["ts"],
         "--trace-chrome", prof_paths["chrome"],
         "--conflict-dot", prof_paths["dot"],
         "--profile", prof_report],
        env_extra={"BFGTS_HASH_SEED": "0x0123456789abcdef"})
    check_prof(load(prof_report), prof_report)
    check_chrome_trace(prof_paths["chrome"])
    for kind in ("json", "trace", "ts", "dot"):
        with open(prof_paths[kind], "rb") as fh:
            check(fh.read() == outputs[0][kind],
                  f"{kind} output changed under --profile")

    # --quality must be equally additive, and unlike --profile its
    # own artifacts are deterministic: two hash seeds must produce
    # byte-identical bfgts-qual-v1 reports and JSONL ledgers.
    qual_blobs = []
    for seed in ("0x0123456789abcdef", "0xfedcba9876543210"):
        qual_json = os.path.join(workdir, f"qual-{seed}.json")
        qual_jsonl = os.path.join(workdir, f"qual-{seed}.jsonl")
        obs_json = os.path.join(workdir, f"qual-obs-{seed}.json")
        run([cli, *CLI_ARGS,
             "--json", obs_json,
             "--quality", qual_json,
             "--quality-jsonl", qual_jsonl],
            env_extra={"BFGTS_HASH_SEED": seed})
        check_qual(load(qual_json), qual_json)
        check_qual_jsonl(qual_jsonl)
        with open(obs_json, "rb") as fh:
            check(fh.read() == outputs[0]["json"],
                  "obs report changed under --quality")
        with open(qual_json, "rb") as fh_a, \
                open(qual_jsonl, "rb") as fh_b:
            qual_blobs.append((fh_a.read(), fh_b.read()))
    check(qual_blobs[0] == qual_blobs[1],
          "quality artifacts differ across BFGTS_HASH_SEED values")

    # A small sweep matrix exercises the third schema end to end;
    # rerun it with --profile and require the bfgts-sweep-v1 report
    # byte-identical (the profile is a separate side channel).
    sweep_args = [cli, "--sweep", "--workloads", "Intruder",
                  "--cms", "BFGTS-HW,Backoff", "--tx", "10",
                  "--cpus", "4", "--tpc", "2"]
    sweep_path = os.path.join(workdir, "sweep.json")
    run(sweep_args + ["--json", sweep_path])
    check_sweep(load(sweep_path), sweep_path)
    sweep_prof_path = os.path.join(workdir, "sweep-prof.json")
    sweep_profile = os.path.join(workdir, "sweep-profile.json")
    run(sweep_args + ["--json", sweep_prof_path,
                      "--profile", sweep_profile])
    check_prof(load(sweep_profile), sweep_profile)
    with open(sweep_path, "rb") as fh_a, \
            open(sweep_prof_path, "rb") as fh_b:
        check(fh_a.read() == fh_b.read(),
              "sweep report changed under --profile")

    # Same for --quality, plus --jobs independence: the bfgts-qual-v1
    # sweep report is deterministic, so 1 worker and 4 workers must
    # produce it byte-for-byte.
    sweep_qual_blobs = []
    for jobs in ("1", "4"):
        sweep_qual_path = os.path.join(workdir,
                                       f"sweep-qual-{jobs}.json")
        sweep_quality = os.path.join(workdir,
                                     f"sweep-quality-{jobs}.json")
        run(sweep_args + ["--jobs", jobs,
                          "--json", sweep_qual_path,
                          "--quality", sweep_quality])
        check_qual(load(sweep_quality), sweep_quality)
        with open(sweep_qual_path, "rb") as fh_a, \
                open(sweep_path, "rb") as fh_b:
            check(fh_a.read() == fh_b.read(),
                  "sweep report changed under --quality")
        with open(sweep_quality, "rb") as fh:
            sweep_qual_blobs.append(fh.read())
    check(sweep_qual_blobs[0] == sweep_qual_blobs[1],
          "sweep quality report differs across --jobs counts")

    print("validate_obs_json: cli OK (report, trace, time series, "
          "chrome timeline, and conflict DOT all byte-identical "
          "across hash seeds and under --profile/--quality; sweep, "
          "prof, and qual reports schema-valid)")


def mode_bench(bench, workdir):
    json_path = os.path.join(
        workdir, f"BENCH_{os.path.basename(bench)}.json")
    run([bench, "--json", json_path], cwd=workdir,
        env_extra={"BFGTS_QUICK": "1"})
    check_bench(load(json_path), json_path)
    print(f"validate_obs_json: bench OK ({os.path.basename(bench)})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*", help="documents to check")
    parser.add_argument("--cli", help="bfgts_cli binary to exercise")
    parser.add_argument("--bench", help="bench binary to exercise")
    args = parser.parse_args()

    if not args.files and not args.cli and not args.bench:
        parser.error("nothing to do")

    for path in args.files:
        doc = load(path)
        if doc.get("schema") == "bfgts-prof-v1":
            check_prof(doc, path)
        elif doc.get("schema") == "bfgts-qual-v1":
            check_qual(doc, path)
        elif doc.get("kind") == "sweep":
            check_sweep(doc, path)
        else:
            check_envelope(doc, path)
            if doc["kind"] == "run":
                check_run(doc, path)
            else:
                check_bench(doc, path)
        print(f"validate_obs_json: {path} OK")

    with tempfile.TemporaryDirectory() as workdir:
        if args.cli:
            mode_cli(args.cli, workdir)
        if args.bench:
            mode_bench(args.bench, workdir)


if __name__ == "__main__":
    main()
