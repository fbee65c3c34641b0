#!/usr/bin/env python3
"""Orphan-module check: every library header must have a program caller.

A header under src/ is an orphan when nothing #includes it except its own
.cpp and the tests: no other file in src/, and nothing in bench/, tools/,
examples/ or perfbench/. An orphan is library surface that only its own
unit tests exercise; delete it together with those tests, or give it a
caller.

A few headers exist for the test suite on purpose; they are listed in
TEST_FIXTURES below, each with the reason it is kept.

Exit code 1 with one line per orphan; 0 when there is none.

Usage: python3 scripts/check_orphans.py
"""

import os
import re
import sys

CALLER_DIRS = ("src", "bench", "tools", "examples", "perfbench")
EXTENSIONS = (".hpp", ".cpp", ".h", ".cc")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)

# Headers kept although no program includes them (path relative to src/).
TEST_FIXTURES = {
    "stats/exponential.hpp":
        "memoryless reference law; test_util.hpp builds the exponential "
        "latency model from it",
    "stats/uniform.hpp":
        "analytic fixture law for test_generator and test_dist_wrappers",
    "stats/truncated.hpp":
        "closed-form truncated law that test_fit and test_datasets check "
        "the calibration against",
    "stats/pareto.hpp":
        "Pareto-tailed law kept for the numerical-edge work on heavy-tailed "
        "traces (ROADMAP)",
}


def source_files(root):
    for dirpath, _dirnames, files in os.walk(root):
        for name in sorted(files):
            if name.endswith(EXTENSIONS):
                yield os.path.join(dirpath, name)


def main():
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(repo_root, "src")

    headers = sorted(
        os.path.relpath(path, src).replace(os.sep, "/")
        for path in source_files(src) if path.endswith(".hpp"))

    # includer (repo-relative path) of every quoted include.
    includers = {}
    for top in CALLER_DIRS:
        for path in source_files(os.path.join(repo_root, top)):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            rel = os.path.relpath(path, repo_root).replace(os.sep, "/")
            for target in INCLUDE_RE.findall(text):
                includers.setdefault(target, []).append(rel)

    errors = []
    for header in headers:
        own_cpp = "src/" + header[:-len(".hpp")] + ".cpp"
        callers = [c for c in includers.get(header, []) if c != own_cpp]
        if callers or header in TEST_FIXTURES:
            continue
        errors.append(f"src/{header}: included by no program "
                      f"(only by {own_cpp} and tests, if at all)")
    for header in sorted(TEST_FIXTURES):
        if header not in headers:
            errors.append(f"src/{header}: listed in TEST_FIXTURES but "
                          "does not exist")

    for line in errors:
        print(line)
    if errors:
        print(f"check_orphans: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print(f"check_orphans: {len(headers)} headers, no orphans")
    return 0


if __name__ == "__main__":
    sys.exit(main())
