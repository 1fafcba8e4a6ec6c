#!/usr/bin/env python3
"""Determinism linter for the BFGTS simulator sources.

The simulator must be a pure function of (config, seed): identical
inputs produce bit-identical results. This linter statically flags the
code patterns that most often break that property in C++ codebases:

  unordered-iteration   Range-for / iterator loops over
                        std::unordered_set / std::unordered_map /
                        sim::HashSet / sim::HashMap state in
                        simulation-affecting directories (sim/, cm/,
                        htm/, runner/, os/, cpu/). Hash-table
                        iteration order is unspecified; any decision
                        or statistic derived from it is
                        irreproducible.

  banned-random         Uses of ambient entropy: rand(), srand(),
                        std::random_device, std::mt19937 /
                        std::default_random_engine construction --
                        anywhere under src/ except src/sim/random.h
                        and src/sim/det_hash.h, the sanctioned homes
                        of seeding policy. All simulated randomness
                        must flow through sim::Rng.

  wall-clock            Reads of wall-clock time or the process
                        environment: time(), clock(),
                        std::chrono::*_clock::now(),
                        std::chrono::system_clock, localtime()/
                        gmtime(), gettimeofday(), clock_gettime(),
                        and getenv(). Simulated time is the event
                        queue's tick and configuration arrives
                        through SimConfig; host time or env reads in
                        model code make runs irreproducible. The only
                        exemptions are the sanctioned read-once env
                        shims (src/sim/det_hash.h for BFGTS_HASH_SEED,
                        src/sim/audit.cpp for BFGTS_AUDIT),
                        src/sim/random.h, and src/sim/host_clock.h --
                        the single sanctioned host-clock shim through
                        which the host-performance profiler
                        (sim/profiler.h) reads steady_clock and
                        getrusage; its output is segregated into the
                        separate nondeterministic bfgts-prof-v1
                        report. Every other model file still fails
                        this rule on any direct clock or env read.

  unordered-float-accumulation
                        Floating-point accumulation (+=, -=, *=, /=
                        into a float/double) inside a range-for over
                        an unordered container. FP addition is not
                        associative, so even a "commutative" sum
                        changes with iteration order; integer sums
                        are safe, float sums are not. Iterate a
                        sorted copy or accumulate integers instead.

  pointer-keyed-ordered Ordered containers keyed by pointers
                        (std::set<T*>, std::map<T*, ...>): address
                        order varies run to run (ASLR, allocator
                        state), so "ordered" iteration is still
                        nondeterministic.

  raw-output            Raw std::cout / printf / fprintf in the model
                        directories (sim/, cm/, cpu/, htm/, mem/,
                        os/) outside the sanctioned output layers
                        (sim/logging.*, sim/stats.*, sim/trace.*,
                        sim/json.*). Model code must report through
                        counters, histograms, and trace sinks so
                        every observable is machine-readable and
                        byte-reproducible; ad-hoc prints are neither.

Suppressions
------------
A finding is suppressed by a comment on the same line, or on a
comment line (block) directly above the offending line:

    // lint:allow(unordered-iteration): commutative sum; order
    // cannot affect the result.
    for (mem::Addr line : writeSet)

The justification after the colon is mandatory; a bare
``lint:allow(rule)`` is itself reported (rule ``bad-suppression``)
and does not suppress anything.

Exit status: 0 when clean, 1 when findings were reported, 2 on usage
errors.
"""

import argparse
import os
import re
import sys

SIM_AFFECTING_DIRS = ("sim", "cm", "htm", "runner", "os", "cpu")

# Files allowed to define randomness/seeding policy.
RANDOM_POLICY_FILES = ("sim/random.h", "sim/det_hash.h")

# Files allowed to read the environment (read-once startup shims) or
# -- for sim/host_clock.h only -- the host clock: the sanctioned shim
# the profiler's nondeterministic bfgts-prof-v1 report flows through.
WALL_CLOCK_POLICY_FILES = ("sim/random.h", "sim/det_hash.h",
                           "sim/audit.cpp", "sim/host_clock.h")

UNORDERED_TYPES = (
    "std::unordered_set",
    "std::unordered_map",
    "std::unordered_multiset",
    "std::unordered_multimap",
    "sim::HashSet",
    "sim::HashMap",
)

BANNED_RANDOM = [
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"std::random_device|(?<![\w:])random_device\s"),
     "std::random_device"),
    (re.compile(r"std::mt19937|(?<![\w:])mt19937(?:_64)?\s*[({ ]"),
     "std::mt19937"),
    (re.compile(r"default_random_engine"), "std::default_random_engine"),
]

WALL_CLOCK = [
    (re.compile(r"(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0|\))"),
     "time()"),
    (re.compile(r"(?<![\w:.])clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"\b\w*_clock::now\s*\("),
     "std::chrono::*_clock::now()"),
    (re.compile(r"\bsystem_clock\b(?!\s*::\s*now)"),
     "std::chrono::system_clock"),
    (re.compile(r"(?<![\w:])(?:std::)?(?:localtime|gmtime)(?:_r|_s)?"
                r"\s*\("),
     "localtime()/gmtime()"),
    (re.compile(r"(?<![\w:])(?:gettimeofday|clock_gettime)\s*\("),
     "gettimeofday()/clock_gettime()"),
    (re.compile(r"(?<![\w:])(?:std::)?getenv\s*\("), "getenv()"),
]

POINTER_KEYED = re.compile(
    r"std::(?:multi)?(?:set|map)\s*<\s*(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?"
    r"\s*\*"
)

# Directories whose code must not print directly (model code).
RAW_OUTPUT_DIRS = ("sim", "cm", "cpu", "htm", "mem", "os")

# The sanctioned output layers themselves.
RAW_OUTPUT_FILES = (
    "sim/logging.h", "sim/logging.cpp",
    "sim/stats.h", "sim/stats.cpp",
    "sim/trace.h", "sim/trace.cpp",
    "sim/json.h", "sim/json.cpp",
)

RAW_OUTPUT = [
    (re.compile(r"std\s*::\s*cout"), "std::cout"),
    # Matches printf/fprintf (with or without std::) but not
    # snprintf/vsnprintf, whose buffer writes are fine.
    (re.compile(r"(?<![\w:])(?:std\s*::\s*)?f?printf\s*\("),
     "printf()/fprintf()"),
    (re.compile(r"(?<![\w:])(?:std\s*::\s*)?puts\s*\("), "puts()"),
]

ALLOW_RE = re.compile(r"lint:allow\(([\w-]+)\)(:?)\s*(\S?)")

KNOWN_RULES = ("unordered-iteration", "banned-random", "wall-clock",
               "unordered-float-accumulation", "pointer-keyed-ordered",
               "raw-output")

IDENT = r"[A-Za-z_]\w*"


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


def strip_comments_and_strings(text):
    """Blank out comments, string and char literals, preserving the
    byte offsets and line structure of everything else."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif ch == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif ch in "\"'":
            quote = ch
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def match_angle_brackets(text, start):
    """Given text[start] == '<', return the index one past the
    matching '>', or -1."""
    depth = 0
    i = start
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif ch in ";{}":
            return -1  # malformed / not a template argument list
        i += 1
    return -1


def collect_unordered_names(stripped):
    """Names of variables/members declared with an unordered container
    type in this file. Function declarations (identifier followed by
    '(') are skipped."""
    names = set()
    for utype in UNORDERED_TYPES:
        for match in re.finditer(re.escape(utype) + r"\s*<", stripped):
            open_idx = match.end() - 1
            close = match_angle_brackets(stripped, open_idx)
            if close < 0:
                continue
            tail = stripped[close:close + 160]
            decl = re.match(
                r"\s*&?\s*(" + IDENT + r")\s*([;={(,)])", tail)
            if decl and decl.group(2) != "(":
                names.add(decl.group(1))
    return names


def match_parens(text, start):
    """Given text[start] == '(', return index one past matching ')'."""
    depth = 0
    i = start
    n = len(text)
    while i < n:
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return -1


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def trailing_identifier(expr):
    """Last identifier of an lvalue expression like worker.tx.readSet
    or holder->writeSet (ignoring trailing whitespace)."""
    match = re.search(r"(" + IDENT + r")\s*$", expr)
    return match.group(1) if match else None


def is_unordered_ref(expr, local_names, shared_names):
    """Does @p expr denote an unordered container? Bare identifiers
    resolve against the declarations of this file and its paired
    header only (a name like ``stats_`` may be a hash map in one class
    and a vector in another); member accesses (``worker.tx.readSet``)
    additionally resolve against names declared unordered anywhere."""
    name = trailing_identifier(expr)
    if name is None:
        return None
    if name in local_names:
        return name
    has_member_prefix = re.search(
        r"(?:\.|->)\s*" + re.escape(name) + r"\s*$", expr)
    if has_member_prefix and name in shared_names:
        return name
    return None


def find_unordered_iteration(path, stripped, local_names, shared_names):
    findings = []
    # Range-based for over an unordered container.
    for match in re.finditer(r"\bfor\s*\(", stripped):
        open_idx = match.end() - 1
        close = match_parens(stripped, open_idx)
        if close < 0:
            continue
        head = stripped[open_idx + 1:close - 1]
        # Range-for: a single top-level ':' that is not part of '::'.
        parts = re.split(r"(?<!:):(?!:)", head)
        if len(parts) != 2:
            continue
        name = is_unordered_ref(parts[1], local_names, shared_names)
        if name:
            findings.append(Finding(
                path, line_of(stripped, match.start()),
                "unordered-iteration",
                "range-for over unordered container '%s'; iteration "
                "order is unspecified" % name))
    # Explicit iterator loops: container.begin() and friends.
    for match in re.finditer(
            r"((?:[\w\]\)]\s*(?:\.|->)\s*)*)(" + IDENT
            + r")\s*\.\s*(?:c?r?begin)\s*\(", stripped):
        expr = match.group(1) + match.group(2)
        name = is_unordered_ref(expr, local_names, shared_names)
        if name:
            findings.append(Finding(
                path, line_of(stripped, match.start()),
                "unordered-iteration",
                "iterator over unordered container '%s'; iteration "
                "order is unspecified" % name))
    return findings


def find_banned_random(path, stripped):
    findings = []
    for pattern, label in BANNED_RANDOM:
        for match in pattern.finditer(stripped):
            findings.append(Finding(
                path, line_of(stripped, match.start()), "banned-random",
                "%s is nondeterministic; draw from sim::Rng "
                "(src/sim/random.h) instead" % label))
    return findings


def find_wall_clock(path, stripped):
    findings = []
    for pattern, label in WALL_CLOCK:
        for match in pattern.finditer(stripped):
            findings.append(Finding(
                path, line_of(stripped, match.start()), "wall-clock",
                "%s reads host time or the environment; use the event "
                "queue's tick for time and SimConfig for "
                "configuration" % label))
    return findings


def match_braces(text, start):
    """Given text[start] == '{', return index one past matching '}'."""
    depth = 0
    i = start
    n = len(text)
    while i < n:
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return -1


FLOAT_DECL = re.compile(
    r"\b(?:double|float)\s+(" + IDENT + r")\s*[=;,)]")

FLOAT_ACCUM = re.compile(r"(" + IDENT + r")\s*[+\-*/]=")


def collect_float_names(stripped):
    """Names of variables/members declared float or double."""
    return {m.group(1) for m in FLOAT_DECL.finditer(stripped)}


def find_unordered_float_accumulation(path, stripped, local_names,
                                      shared_names, float_names):
    """Float accumulation inside a range-for over an unordered
    container: the sum's value depends on iteration order because FP
    addition is not associative."""
    findings = []
    for match in re.finditer(r"\bfor\s*\(", stripped):
        open_idx = match.end() - 1
        close = match_parens(stripped, open_idx)
        if close < 0:
            continue
        head = stripped[open_idx + 1:close - 1]
        parts = re.split(r"(?<!:):(?!:)", head)
        if len(parts) != 2:
            continue
        if not is_unordered_ref(parts[1], local_names, shared_names):
            continue
        # Loop body: a brace block or a single statement.
        body_start = close
        while body_start < len(stripped) \
                and stripped[body_start].isspace():
            body_start += 1
        if body_start >= len(stripped):
            continue
        if stripped[body_start] == "{":
            body_end = match_braces(stripped, body_start)
            if body_end < 0:
                continue
        else:
            body_end = stripped.find(";", body_start)
            if body_end < 0:
                continue
        body = stripped[body_start:body_end]
        for accum in FLOAT_ACCUM.finditer(body):
            if accum.group(1) in float_names:
                # Reported at the loop head so one suppression
                # comment can cover the loop, as with
                # unordered-iteration.
                findings.append(Finding(
                    path, line_of(stripped, match.start()),
                    "unordered-float-accumulation",
                    "float accumulation into '%s' over an unordered "
                    "container; FP addition is not associative, so "
                    "the result depends on iteration order"
                    % accum.group(1)))
                break
    return findings


def find_raw_output(path, stripped):
    findings = []
    for pattern, label in RAW_OUTPUT:
        for match in pattern.finditer(stripped):
            findings.append(Finding(
                path, line_of(stripped, match.start()), "raw-output",
                "%s bypasses the logging/stats/trace layers; report "
                "through sim::StatGroup, sim::TraceSink, or "
                "sim/logging.h instead" % label))
    return findings


def find_pointer_keyed(path, stripped):
    findings = []
    for match in POINTER_KEYED.finditer(stripped):
        findings.append(Finding(
            path, line_of(stripped, match.start()),
            "pointer-keyed-ordered",
            "ordered container keyed by a pointer; address order "
            "varies across runs -- key by a stable id (e.g. dTxID)"))
    return findings


def parse_suppressions(raw_lines):
    """Map line number -> set of suppressed rules, honoring same-line
    and preceding-comment-block placement. Returns (suppression map,
    bad-suppression findings-as-(line, rule) list)."""
    allowed = {}
    bad = []
    pending = {}  # rules waiting for the next code line
    for lineno, line in enumerate(raw_lines, start=1):
        text = line.strip()
        is_comment = text.startswith("//") or text.startswith("*") \
            or text.startswith("/*")
        for match in ALLOW_RE.finditer(line):
            rule, colon, just = match.group(1), match.group(2), \
                match.group(3)
            if colon != ":" or not just:
                bad.append((lineno, rule,
                            "without a ': <justification>'; "
                            "suppressions must say why the pattern "
                            "is safe"))
                continue
            if rule not in KNOWN_RULES:
                bad.append((lineno, rule,
                            "names an unknown rule (typo?); it "
                            "suppresses nothing"))
                continue
            if is_comment:
                pending.setdefault(rule, None)
            else:
                allowed.setdefault(lineno, set()).add(rule)
        if not is_comment and text:
            if pending:
                allowed.setdefault(lineno, set()).update(pending)
                pending = {}
    return allowed, bad


def paired_header(path):
    """conflict_detector.cpp -> conflict_detector.h, if it exists."""
    stem, ext = os.path.splitext(path)
    if ext in (".cc", ".cpp", ".cxx"):
        for hext in (".h", ".hpp"):
            if os.path.isfile(stem + hext):
                return stem + hext
    return None


def lint_file(path, rel, src_root):
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        raw = handle.read()
    raw_lines = raw.splitlines()
    stripped = strip_comments_and_strings(raw)

    findings = []
    top_dir = rel.split(os.sep, 1)[0] if os.sep in rel else ""
    if top_dir in SIM_AFFECTING_DIRS:
        local = collect_unordered_names(stripped)
        header = paired_header(path)
        if header:
            with open(header, "r", encoding="utf-8",
                      errors="replace") as handle:
                local |= collect_unordered_names(
                    strip_comments_and_strings(handle.read()))
        findings += find_unordered_iteration(
            rel, stripped, local, lint_file.shared_unordered_names)
        floats = collect_float_names(stripped)
        if header:
            with open(header, "r", encoding="utf-8",
                      errors="replace") as handle:
                floats |= collect_float_names(
                    strip_comments_and_strings(handle.read()))
        findings += find_unordered_float_accumulation(
            rel, stripped, local, lint_file.shared_unordered_names,
            floats)
    if rel.replace(os.sep, "/") not in RANDOM_POLICY_FILES:
        findings += find_banned_random(rel, stripped)
    if rel.replace(os.sep, "/") not in WALL_CLOCK_POLICY_FILES:
        findings += find_wall_clock(rel, stripped)
    if top_dir in RAW_OUTPUT_DIRS \
            and rel.replace(os.sep, "/") not in RAW_OUTPUT_FILES:
        findings += find_raw_output(rel, stripped)
    findings += find_pointer_keyed(rel, stripped)

    allowed, bad = parse_suppressions(raw_lines)
    kept = []
    for finding in findings:
        if finding.rule in allowed.get(finding.line, ()):
            continue
        kept.append(finding)
    for lineno, rule, why in bad:
        kept.append(Finding(
            rel, lineno, "bad-suppression",
            "lint:allow(%s) %s" % (rule, why)))
    return kept


# Unordered member names declared in headers, shared across all files
# so iteration over e.g. tx.readSet is caught in any translation unit.
lint_file.shared_unordered_names = set()


def gather_files(root):
    out = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".h", ".hpp", ".cc", ".cpp", ".cxx")):
                out.append(os.path.join(dirpath, name))
    return out


def main(argv):
    parser = argparse.ArgumentParser(
        description="Determinism lint for BFGTS simulator sources.")
    parser.add_argument(
        "--root", default=None,
        help="Source root to scan (default: <repo>/src).")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="Print rule names and exit.")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in KNOWN_RULES + ("bad-suppression",):
            print(rule)
        return 0

    root = args.root
    if root is None:
        root = os.path.join(
            os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.abspath(__file__)))), "src")
    root = os.path.abspath(root)
    if not os.path.isdir(root):
        print("determinism_lint: no such directory: %s" % root,
              file=sys.stderr)
        return 2

    files = gather_files(root)

    # Pass 1: harvest unordered member/variable names from every file
    # so cross-file member iteration resolves.
    for path in files:
        with open(path, "r", encoding="utf-8",
                  errors="replace") as handle:
            stripped = strip_comments_and_strings(handle.read())
        lint_file.shared_unordered_names |= \
            collect_unordered_names(stripped)

    findings = []
    for path in files:
        rel = os.path.relpath(path, root)
        findings += lint_file(path, rel, root)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for finding in findings:
        print(finding)
    print("determinism_lint: %d file(s) scanned, %d finding(s)"
          % (len(files), len(findings)))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
