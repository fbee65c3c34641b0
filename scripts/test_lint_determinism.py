#!/usr/bin/env python3
"""Self-test for lint_determinism.py against tests/lint_fixtures/.

Runs with the stdlib only (`python3 scripts/test_lint_determinism.py`);
CI registers it as the `tooling`-labelled ctest entry
lint_determinism_selftest.  Each case pins down a piece of the linter's
contract: every rule fires on violations.cpp (at the right line),
reasoned allows silence exactly their line or file, broken allows are
themselves findings, and determinism-safe look-alikes stay quiet.
"""

import io
import os
import sys
import unittest
from contextlib import redirect_stdout, redirect_stderr

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint_determinism  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO, "tests", "lint_fixtures")


def run_lint(*argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        code = lint_determinism.main(list(argv))
    return code, out.getvalue()


def fixture(name):
    return os.path.join(FIXTURES, name)


class ViolationsFixture(unittest.TestCase):
    def setUp(self):
        self.code, self.out = run_lint(fixture("violations.cpp"))

    def test_exits_nonzero(self):
        self.assertEqual(self.code, 1)

    def test_every_rule_fires_exactly_once(self):
        for rule in lint_determinism.RULES:
            self.assertEqual(
                self.out.count(f"[{rule}]"), 1,
                f"rule {rule} should fire exactly once:\n{self.out}")

    def test_findings_carry_file_and_line(self):
        self.assertIn("violations.cpp:14: [unordered-container]", self.out)
        self.assertIn("violations.cpp:38: [printf-float]", self.out)


class AllowedFixture(unittest.TestCase):
    def test_reasoned_allows_silence_findings(self):
        code, out = run_lint(fixture("allowed.cpp"))
        self.assertEqual(code, 0, out)
        self.assertIn("clean", out)


class BadAllowFixture(unittest.TestCase):
    def setUp(self):
        self.code, self.out = run_lint(fixture("bad_allow.cpp"))

    def test_exits_nonzero(self):
        self.assertEqual(self.code, 1)

    def test_unknown_rule_is_an_error(self):
        self.assertIn("[unknown-allow]", self.out)
        self.assertIn("made-up-rule", self.out)

    def test_missing_reason_is_an_error(self):
        self.assertIn("carries no reason", self.out)

    def test_malformed_directive_is_an_error(self):
        self.assertIn("malformed gridsub-lint directive", self.out)

    def test_unused_allows_are_errors(self):
        self.assertIn("allow(wall-clock) suppresses nothing", self.out)
        self.assertIn("allow-file(locale) suppresses nothing", self.out)


class CleanFixture(unittest.TestCase):
    def test_lookalikes_stay_quiet(self):
        code, out = run_lint(fixture("clean.cpp"))
        self.assertEqual(code, 0, out)


class DirectiveScope(unittest.TestCase):
    def test_line_allow_does_not_leak_past_next_line(self):
        src = fixture("allowed.cpp")
        with open(src, encoding="utf-8") as fh:
            text = fh.read()
        # The directive-above form covers only the immediately following
        # line; pushing the violation one line further must re-expose it.
        leaked = text.replace(
            "  // gridsub-lint: allow(printf-float) fixture: "
            "directive-above form\n  std::printf",
            "  // gridsub-lint: allow(printf-float) fixture: "
            "directive-above form\n  //\n  std::printf")
        self.assertNotEqual(leaked, text)
        import tempfile
        with tempfile.NamedTemporaryFile(
                "w", suffix=".cpp", delete=False) as tmp:
            tmp.write(leaked)
            path = tmp.name
        try:
            code, out = run_lint(path)
            self.assertEqual(code, 1)
            self.assertIn("[printf-float]", out)
            self.assertIn("suppresses nothing", out)
        finally:
            os.unlink(path)


class RealTree(unittest.TestCase):
    def test_default_scan_is_clean(self):
        code, out = run_lint()
        self.assertEqual(code, 0, f"default scan must stay clean:\n{out}")

    def test_simulation_core_is_covered(self):
        # The DES core, online layer, and serving layer feed every
        # trajectory and every published snapshot; they must stay inside
        # the default scan, not just the reporting modules.
        for module in ("src/sim", "src/online", "src/serve", "src/fault"):
            self.assertIn(module, lint_determinism.DEFAULT_DIRS)

    def test_json_module_is_covered(self):
        # src/core/json.hpp holds the one double serializer behind every
        # JSON and CSV writer; the stream-float rule exists to protect it.
        self.assertIn("src/core", lint_determinism.DEFAULT_DIRS)

    def test_list_rules_matches_table(self):
        code, out = run_lint("--list-rules")
        self.assertEqual(code, 0)
        self.assertEqual(sorted(out.split()),
                         sorted(lint_determinism.RULES))

    def test_missing_path_is_a_usage_error(self):
        code, _out = run_lint(os.path.join(FIXTURES, "no_such_file.cpp"))
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main(verbosity=2)
