#!/usr/bin/env python3
"""Determinism linter for output-affecting modules (no external deps).

gridsub's contract is byte-identical output for a given (inputs, root
seed) at any thread count, resume point, or shard split.  That property
is easy to break with one innocuous line — iterating an unordered
container into a fold, formatting a double through the locale-sensitive
iostream path, seeding from the wall clock.  This linter scans the
modules whose output reaches users (src/exp, src/report, src/stats,
src/traces, tools, and src/core with its JSON serializers) plus the
simulation core the trajectories flow through (src/sim, src/online) for
the known failure patterns.

Rules (name — what it flags):

  unordered-container  range-for iteration over a variable or member
                       declared as std::unordered_map/set in the same
                       file.  Unordered iteration order varies with
                       libstdc++ version, hash seed, and insertion
                       history; anything folded or serialized from it
                       is nondeterministic.  Keyed lookup is fine —
                       only iteration is flagged.
  raw-rand             std::rand / srand / random_device.  All
                       randomness must come from the seeded stats::Rng
                       layer so runs replay.
  wall-clock           system_clock / steady_clock / time(...) /
                       gettimeofday / clock().  Timestamps in output
                       differ per run; simulated time comes from the
                       DES clock.
  pointer-key          ordered containers or comparators keyed on
                       pointer values (std::map<T*, ...>, std::set<T*>,
                       std::less<T*>).  Address order is ASLR order.
  stream-float         iostream float-formatting state (setprecision,
                       fixed/scientific/hexfloat/defaultfloat,
                       .precision(...)).  Stream formatting is
                       locale-sensitive and defaults to 6 significant
                       digits; serialize doubles with the to_chars
                       helpers of src/core/json.hpp (core::json::number,
                       core::json::shortest_double) instead.
  printf-float         %f / %e / %g / %a conversions in format strings.
                       printf floats follow the C locale setting
                       (decimal point!) and a fixed precision.
  locale               std::locale / setlocale / imbue.  Locale state
                       is global and changes how every number parses
                       and prints.

Escape hatch — each use must name the rule and carry a reason:

  some_code();  // gridsub-lint: allow(printf-float) console diagnostic

applies to its own line (or, on a line by itself, to the next line).
A file-wide waiver for one rule:

  // gridsub-lint: allow-file(printf-float) CLI tool, console output only

Unknown rule names in an allow and allows that suppress nothing are
themselves errors, so waivers cannot rot in place.

Exit 0 when clean; 1 with a file:line report otherwise.
"""

import argparse
import os
import re
import sys

# --------------------------------------------------------------------------
# Rule table
# --------------------------------------------------------------------------

# view: which text a rule matches against.
#   "code"    — comments stripped AND string/char literals blanked
#   "strings" — comments stripped, literals kept (printf formats live there)
RULES = {
    "unordered-container": {
        "view": "code",
        "message": "iteration over an unordered container "
                   "(order varies per run/platform)",
    },
    "raw-rand": {
        "view": "code",
        "pattern": re.compile(
            r"\bstd\s*::\s*rand\b|\bsrand\s*\(|\bstd\s*::\s*random_device\b"
            r"|\brandom_device\b"),
        "message": "unseeded randomness outside the stats::Rng layer",
    },
    "wall-clock": {
        "view": "code",
        "pattern": re.compile(
            r"\bsystem_clock\b|\bsteady_clock\b|\bhigh_resolution_clock\b"
            r"|\btime\s*\(\s*(?:nullptr|NULL|0|&)"
            r"|\bgettimeofday\s*\(|\bclock\s*\(\s*\)"),
        "message": "wall-clock read (timestamps differ per run; "
                   "use the simulation clock)",
    },
    "pointer-key": {
        "view": "code",
        "pattern": re.compile(
            r"\bstd\s*::\s*(?:map|set|multimap|multiset|less|greater)\s*<"
            r"\s*(?:const\s+)?\w+(?:\s*::\s*\w+)*\s*\*"),
        "message": "container or comparator keyed on a pointer value "
                   "(address order is ASLR order)",
    },
    "stream-float": {
        "view": "code",
        "pattern": re.compile(
            r"\bsetprecision\s*\(|\.\s*precision\s*\("
            r"|\bstd\s*::\s*(?:fixed|scientific|hexfloat|defaultfloat)\b"),
        "message": "iostream float formatting (locale-sensitive, lossy); "
                   "use the to_chars helpers",
    },
    "printf-float": {
        "view": "strings",
        "pattern": re.compile(
            r"%[-+ #0]*(?:\d+|\*)?(?:\.(?:\d+|\*))?[aAeEfFgG]"),
        "message": "printf-family float conversion "
                   "(locale decimal point, fixed precision)",
    },
    "locale": {
        "view": "code",
        "pattern": re.compile(
            r"\bstd\s*::\s*locale\b|\bsetlocale\s*\(|\.\s*imbue\s*\("),
        "message": "locale manipulation (global state; changes every "
                   "number's parse/print)",
    },
}

ALLOW_RE = re.compile(
    r"//\s*gridsub-lint:\s*allow(?P<file>-file)?"
    r"\(\s*(?P<rule>[\w-]+)\s*\)\s*(?P<reason>\S.*)?$")

UNORDERED_DECL_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<"
    r".*?>\s*(?:&\s*)?(\w+)\s*(?:[;={(,)]|$)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*[^;)]*?:\s*([^)]+)\)")

DEFAULT_DIRS = ("src/core", "src/exp", "src/fault", "src/online",
                "src/report", "src/serve", "src/sim", "src/stats",
                "src/traces", "tools")
EXTENSIONS = (".cpp", ".hpp", ".h", ".cc")


# --------------------------------------------------------------------------
# Comment / literal stripping
# --------------------------------------------------------------------------

def strip_views(text):
    """Returns (code_lines, string_lines): both with comments blanked;
    code_lines additionally blanks string/char literal contents.  Every
    blanked character becomes a space so columns and line counts hold."""
    code, strings = [], []
    i, n = 0, len(text)
    state = "normal"  # normal | line-comment | block-comment | dq | sq | raw
    raw_delim = ""
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "normal":
            if ch == "/" and nxt == "/":
                state = "line-comment"
                code.append("  ")
                strings.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block-comment"
                code.append("  ")
                strings.append("  ")
                i += 2
                continue
            m = re.match(r'R"([^(\\\s]{0,16})\(', text[i:]) if ch == "R" \
                else None
            if m:
                state = "raw"
                raw_delim = ")" + m.group(1) + '"'
                code.append(" " * len(m.group(0)))
                strings.append(m.group(0))
                i += len(m.group(0))
                continue
            if ch == '"':
                state = "dq"
            elif ch == "'":
                state = "sq"
            code.append(ch)
            strings.append(ch)
        elif state == "line-comment":
            if ch == "\n":
                state = "normal"
                code.append(ch)
                strings.append(ch)
            else:
                code.append(" ")
                strings.append(" ")
        elif state == "block-comment":
            if ch == "*" and nxt == "/":
                state = "normal"
                code.append("  ")
                strings.append("  ")
                i += 2
                continue
            keep = ch if ch == "\n" else " "
            code.append(keep)
            strings.append(keep)
        elif state in ("dq", "sq"):
            quote = '"' if state == "dq" else "'"
            if ch == "\\" and nxt:
                code.append("  ")
                strings.append(text[i:i + 2])
                i += 2
                continue
            if ch == quote:
                state = "normal"
                code.append(ch)
            elif ch == "\n":  # unterminated; bail to normal
                state = "normal"
                code.append(ch)
            else:
                code.append(" ")
            strings.append(ch)
        elif state == "raw":
            if text.startswith(raw_delim, i):
                state = "normal"
                code.append(" " * len(raw_delim))
                strings.append(raw_delim)
                i += len(raw_delim)
                continue
            keep = ch if ch == "\n" else " "
            code.append(keep)
            strings.append(ch)
        i += 1
    return "".join(code).split("\n"), "".join(strings).split("\n")


# --------------------------------------------------------------------------
# Allow-directive collection
# --------------------------------------------------------------------------

class Allow:
    def __init__(self, line_no, rule, file_wide, reason):
        self.line_no = line_no        # line the directive sits on
        self.rule = rule
        self.file_wide = file_wide
        self.reason = reason
        self.used = False

    def covers(self, line_no, rule):
        if rule != self.rule:
            return False
        if self.file_wide:
            return True
        # Same line, or a directive-only line waiving the next line.
        return line_no in (self.line_no, self.line_no + 1)


def collect_allows(raw_lines, path, errors):
    allows = []
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if m is None:
            if "gridsub-lint" in line:
                errors.append(
                    f"{path}:{idx}: [bad-allow] malformed gridsub-lint "
                    "directive (expected "
                    "`// gridsub-lint: allow(<rule>) <reason>`)")
            continue
        rule = m.group("rule")
        if rule not in RULES:
            errors.append(
                f"{path}:{idx}: [unknown-allow] allow names unknown rule "
                f"'{rule}' (known: {', '.join(sorted(RULES))})")
            continue
        if not m.group("reason"):
            errors.append(
                f"{path}:{idx}: [bad-allow] allow({rule}) carries no "
                "reason — say why the waiver is safe")
            continue
        allows.append(Allow(idx, rule, m.group("file") is not None,
                            m.group("reason").strip()))
    return allows


# --------------------------------------------------------------------------
# Per-file scan
# --------------------------------------------------------------------------

def unordered_hits(code_lines):
    """(line_no, name) for every range-for over a known unordered var."""
    names = set()
    for line in code_lines:
        for m in UNORDERED_DECL_RE.finditer(line):
            names.add(m.group(1))
    if not names:
        return []
    hits = []
    for idx, line in enumerate(code_lines, start=1):
        for m in RANGE_FOR_RE.finditer(line):
            expr = m.group(1).strip()
            # Last identifier of the expr: `m`, `obj.m`, `this->m`, `m_`.
            tail = re.search(r"(\w+)\s*(?:\(\s*\))?\s*$", expr)
            if tail and tail.group(1) in names:
                hits.append((idx, tail.group(1)))
    return hits


def scan_file(path, errors):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    raw_lines = text.split("\n")
    code_lines, string_lines = strip_views(text)
    allows = collect_allows(raw_lines, path, errors)

    findings = []  # (line_no, rule, detail)
    for idx, name in unordered_hits(code_lines):
        findings.append((idx, "unordered-container",
                         f"range-for over unordered container '{name}'"))
    for rule, spec in RULES.items():
        pattern = spec.get("pattern")
        if pattern is None:
            continue
        lines = code_lines if spec["view"] == "code" else string_lines
        for idx, line in enumerate(lines, start=1):
            if pattern.search(line):
                findings.append((idx, rule, spec["message"]))

    reported = 0
    for line_no, rule, detail in sorted(findings):
        waived = False
        for allow in allows:
            if allow.covers(line_no, rule):
                allow.used = True
                waived = True
                break
        if not waived:
            errors.append(f"{path}:{line_no}: [{rule}] {detail}")
            reported += 1
    for allow in allows:
        if not allow.used:
            kind = "allow-file" if allow.file_wide else "allow"
            errors.append(
                f"{path}:{allow.line_no}: [unused-allow] "
                f"{kind}({allow.rule}) suppresses nothing — remove it")
    return reported


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def gather_sources(roots):
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
            continue
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in sorted(filenames):
                if name.endswith(EXTENSIONS):
                    files.append(os.path.join(dirpath, name))
    return sorted(files)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Scan output-affecting modules for nondeterminism.")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to scan "
                             f"(default: {' '.join(DEFAULT_DIRS)} "
                             "under the repo root)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            print(rule)
        return 0

    if args.paths:
        roots = args.paths
    else:
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        roots = [os.path.join(repo, d) for d in DEFAULT_DIRS]

    missing = [r for r in roots if not os.path.exists(r)]
    if missing:
        print(f"lint_determinism: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    errors = []
    n_files = 0
    for path in gather_sources(roots):
        n_files += 1
        scan_file(path, errors)

    for err in errors:
        print(err)
    if errors:
        print(f"\nlint_determinism: {len(errors)} finding(s) "
              f"in {n_files} file(s)")
        return 1
    print(f"lint_determinism: {n_files} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
