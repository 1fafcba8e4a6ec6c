#!/usr/bin/env python3
"""Exact comparison of two bfgts-obs-v1 documents, host keys aside.

Every bench row carries the host-throughput keys
``wall_ns_per_cycle`` and ``events_per_sec`` (bench/bench_util.h), so
two otherwise-identical runs differ in exactly those values. This
tool asserts the documents are *exactly* equal after dropping the
host keys and the provenance keys ``git`` and ``gitDirty``, which
say where a binary was built, not what it simulated. No tolerance --
any other divergence is a determinism bug or a moved simulated
number, which is what the baseline gates (tools/bench_compare.py)
and the CI audit-on/off comparison exist to catch.

A file that holds more than one JSON value -- a JSON Lines report
such as ``bfgts_cli --ts``, ``--trace F --trace-jsonl`` or
``--quality-jsonl`` -- is read as the list of its lines' documents,
so a missing, extra or changed line is a difference.

Usage
-----
  compare_reports.py A.json B.json [more.json...]

With more than two files, every file is compared against the first.
Exit 0 when all match, 1 otherwise.
"""

import json
import sys

IGNORED_KEYS = {"git", "gitDirty", "wall_ns_per_cycle",
                "events_per_sec"}


def load(path):
    """The file's JSON document, or the list of its lines' documents
    when it holds more than one JSON value (JSON Lines)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        if err.msg != "Extra data":
            raise
    return [json.loads(line) for line in text.splitlines()
            if line.strip()]


def strip(value):
    if isinstance(value, dict):
        return {k: strip(v) for k, v in sorted(value.items())
                if k not in IGNORED_KEYS}
    if isinstance(value, list):
        return [strip(v) for v in value]
    return value


def diff_paths(path, a, b, out):
    """Collect the paths where stripped values differ (for the error
    message; equality was already decided on the whole documents)."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                out.append("%s.%s: present on one side only"
                           % (path, key))
            else:
                diff_paths("%s.%s" % (path, key), a[key], b[key],
                           out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append("%s: %d vs %d entries"
                       % (path, len(a), len(b)))
            return
        for i, (x, y) in enumerate(zip(a, b)):
            diff_paths("%s[%d]" % (path, i), x, y, out)
    elif a != b:
        out.append("%s: %r vs %r" % (path, a, b))


def compare_files(paths):
    """Compare every file in ``paths`` against the first; 0 when all
    match, 1 otherwise (the differences are printed)."""
    docs = [strip(load(path)) for path in paths]
    status = 0
    for path, doc in zip(paths[1:], docs[1:]):
        if doc == docs[0]:
            continue
        status = 1
        details = []
        diff_paths("$", docs[0], doc, details)
        print("compare_reports: %s differs from %s (beyond the "
              "ignored keys):" % (path, paths[0]))
        for detail in details[:20]:
            print("  " + detail)
        if len(details) > 20:
            print("  ... and %d more" % (len(details) - 20))
    if status == 0:
        print("compare_reports: OK (%d file(s) identical modulo %s)"
              % (len(paths), ", ".join(sorted(IGNORED_KEYS))))
    return status


def main(argv):
    if len(argv) < 3:
        print(__doc__)
        return 2
    return compare_files(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
