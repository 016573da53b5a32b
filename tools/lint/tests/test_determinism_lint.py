#!/usr/bin/env python3
"""Self-tests for tools/lint/determinism_lint.py.

One good + one bad fixture per rule, so the linter is
failing-by-construction demonstrated: if a rule regex rots, the bad
fixture stops producing its finding and this suite fails ctest/CI.
DL008's fixtures are small trees (fixtures/dl008_*/), since the rule
reads a whole repository.

Run directly (python3 tools/lint/tests/test_determinism_lint.py) or via
the `lint_selftest` ctest entry.
"""

import os
import sys
import unittest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(TESTS_DIR))

import determinism_lint as lint  # noqa: E402

FIXTURES = os.path.join(TESTS_DIR, "fixtures")


def run_fixture(name):
    path = os.path.join(FIXTURES, name)
    return lint.lint_file(path, FIXTURES)


def rules_of(findings):
    return sorted({f.rule for f in findings})


class FixtureTests(unittest.TestCase):
    def assert_clean(self, name):
        findings = run_fixture(name)
        self.assertEqual(findings, [],
                         f"{name} should be clean, got: "
                         f"{[f.render() for f in findings]}")

    def test_dl001_bad_catches_every_banned_source(self):
        findings = run_fixture("dl001_bad.cpp")
        self.assertEqual(rules_of(findings), ["DL001"])
        # random_device, std::rand, ::now(, getenv, a std engine and a std
        # distribution — six distinct lines.
        self.assertEqual(len({f.line for f in findings}), 6)

    def test_dl001_flags_std_random_engines_and_distributions(self):
        text = ("std::mt19937_64 a(1);\n"
                "std::mersenne_twister_engine<unsigned, 32, 624, 397, 31, 0, 11, 0, 7, 0, 15,"
                " 0, 18, 0> b;\n"
                "double c = std::normal_distribution<double>(0.0, 1.0)(a);\n"
                "double d = std::generate_canonical<double, 53>(a);\n"
                "dl2f::Rng rng(7); double e = rng.normal(0.0, 1.0);\n")
        findings = lint.lint_text("src/traffic/x.cpp", text)
        self.assertEqual([(f.rule, f.line) for f in findings],
                         [("DL001", 1), ("DL001", 2), ("DL001", 3), ("DL001", 4)])

    def test_dl001_good_ignores_comments_and_strings(self):
        self.assert_clean("dl001_good.cpp")

    def test_dl002_pointer_keyed_containers(self):
        findings = run_fixture("dl002_bad.cpp")
        self.assertEqual(rules_of(findings), ["DL002"])
        self.assertEqual(len(findings), 2)
        self.assert_clean("dl002_good.cpp")

    def test_dl003_unordered_iteration_in_fp_scope(self):
        findings = run_fixture("dl003_bad.cpp")
        self.assertEqual(rules_of(findings), ["DL003"])
        self.assertEqual(len(findings), 2)  # range-for and .begin() forms

    def test_dl003_keyed_lookup_is_fine(self):
        self.assert_clean("dl003_good.cpp")

    def test_dl003_out_of_scope_is_fine(self):
        self.assert_clean("dl003_out_of_scope.cpp")

    def test_dl003_declaration_found_in_sibling_header(self):
        findings = run_fixture("dl003_header_pair.cpp")
        self.assertEqual(rules_of(findings), ["DL003"])
        self.assert_clean("dl003_header_pair.hpp")  # declaration alone is fine

    def test_dl004_parallel_reductions(self):
        findings = run_fixture("dl004_bad.cpp")
        self.assertEqual(rules_of(findings), ["DL004"])
        self.assert_clean("dl004_good.cpp")

    def test_dl005_float_atomics(self):
        findings = run_fixture("dl005_bad.cpp")
        self.assertEqual(rules_of(findings), ["DL005"])
        self.assertEqual(len(findings), 2)
        self.assert_clean("dl005_good.cpp")

    def test_dl006_gemm_tu_needs_accum_order_block(self):
        findings = run_fixture("dl006_bad.cpp")
        self.assertEqual(rules_of(findings), ["DL006"])
        self.assert_clean("dl006_good.cpp")

    def test_dl006_bans_fastmath_pragmas_in_src_nn(self):
        findings = run_fixture(os.path.join("src", "nn", "dl006_pragma_bad.cpp"))
        self.assertEqual(rules_of(findings), ["DL006"])
        # FP_CONTRACT, optimize("fast-math"), clang fp contract — three
        # distinct pragma lines.
        self.assertEqual(len({f.line for f in findings}), 3)

    def test_dl006_pragma_rule_ignores_comment_mentions(self):
        self.assert_clean(os.path.join("src", "nn", "dl006_pragma_good.cpp"))

    def test_dl007_thread_primitives_outside_the_pool(self):
        findings = run_fixture("dl007_bad.cpp")
        self.assertEqual(rules_of(findings), ["DL007"])
        # std::thread, std::jthread, condition_variable,
        # condition_variable_any, std::async, pthread_create — six lines.
        self.assertEqual(len({f.line for f in findings}), 6)

    def test_dl007_allows_hardware_concurrency_and_mentions(self):
        self.assert_clean("dl007_good.cpp")

    def test_dl007_exempts_the_worker_pool(self):
        self.assert_clean(os.path.join("src", "common", "worker_pool.cpp"))
        # The same text anywhere else is a finding.
        with open(os.path.join(FIXTURES, "src", "common", "worker_pool.cpp"),
                  encoding="utf-8") as f:
            text = f.read()
        findings = lint.lint_text("src/nn/train.cpp", text)
        self.assertEqual(rules_of(findings), ["DL007"])

    def test_suppression_with_reason_silences_next_line(self):
        self.assert_clean("suppression_good.cpp")

    def test_bare_suppression_is_a_finding_and_does_not_silence(self):
        findings = run_fixture("suppression_bad.cpp")
        self.assertIn("DL000", rules_of(findings))  # reasonless lint-allow
        self.assertIn("DL001", rules_of(findings))  # ::now( still caught


class CallerTests(unittest.TestCase):
    """DL008 runs over a whole tree, so each fixture is a directory with
    its own src/ and caller trees."""

    @staticmethod
    def callers(tree):
        return lint.lint_callers(os.path.join(FIXTURES, tree))

    def test_dl008_flags_functions_only_tests_call(self):
        findings = self.callers("dl008_bad")
        self.assertEqual(rules_of(findings), ["DL008"])
        self.assertEqual(sorted(f.message.split("'")[1] for f in findings),
                         ["debug_only", "test_reset", "unused_helper"])
        self.assertTrue(all(f.path == "src/widget/widget.hpp" for f in findings))

    def test_dl008_counts_overloads_members_and_every_caller_tree(self):
        self.assertEqual(self.callers("dl008_good"), [])

    def test_dl008_allow_needs_a_reason(self):
        findings = self.callers("dl008_suppressed")
        self.assertEqual([(f.rule, f.line) for f in findings], [("DL008", 15)])
        self.assertIn("unexplained_count", findings[0].message)

    def test_dl008_runs_on_the_whole_tree_only(self):
        bad = os.path.join(FIXTURES, "dl008_bad")
        self.assertEqual(lint.main(["--root", bad]), 1)
        header = os.path.join(bad, "src", "widget", "widget.hpp")
        self.assertEqual(lint.main(["--root", bad, header]), 0)

    def test_declaration_scanner_skips_calls_and_special_members(self):
        text = ("namespace n {\n"
                "struct S {\n"
                "  S(int a) : a_(a) {}\n"
                "  ~S();\n"
                "  S& operator=(const S&) = delete;\n"
                "  [[nodiscard]] int get() const { int local(3); return helper(local); }\n"
                "  int a_ = make(1);\n"
                "};\n"
                "int S::value() const { return get(); }\n"
                "static_assert(sizeof(int) == 4);\n"
                "}  // namespace n\n")
        code = lint.strip_code(text)
        self.assertEqual([site[:1] + site[2:] for site in lint.declaration_sites(code)],
                         [("get", ("n", "S")), ("value", ("n",))])


class ScannerTests(unittest.TestCase):
    def test_strip_blanks_comments_and_strings(self):
        text = ('int x; // std::rand()\n'
                '/* random_device */ const char* s = "getenv";\n'
                "char c = 'r';\n")
        code = lint.strip_code(text)
        for banned in ("rand", "random_device", "getenv"):
            self.assertNotIn(banned, code)
        self.assertIn("int x;", code)
        self.assertEqual(code.count("\n"), text.count("\n"))

    def test_strip_survives_digit_separators(self):
        # 0x38'51 must not open a char literal — misreading it would strip
        # the rest of the file and silently mask findings below it.
        text = "constexpr auto m = 0x38'51'4C'44;\nauto r = std::rand();\n"
        findings = lint.lint_text("x.cpp", text)
        self.assertEqual([(f.rule, f.line) for f in findings], [("DL001", 2)])
        self.assertIn("0x38'51'4C'44", lint.strip_code(text))

    def test_strip_handles_raw_strings_and_escapes(self):
        text = 'auto r = R"(std::rand())"; auto e = "esc\\"getenv";\nint keep;\n'
        code = lint.strip_code(text)
        self.assertNotIn("rand", code)
        self.assertNotIn("getenv", code)
        self.assertIn("int keep;", code)

    def test_block_comment_spanning_lines_keeps_line_numbers(self):
        text = "/* a\nb\nc */ random_device d;\n"
        findings = lint.lint_text("x.cpp", text)
        self.assertEqual([(f.rule, f.line) for f in findings], [("DL001", 3)])


class CliTests(unittest.TestCase):
    def test_exit_codes(self):
        bad = os.path.join(FIXTURES, "dl001_bad.cpp")
        good = os.path.join(FIXTURES, "dl001_good.cpp")
        self.assertEqual(lint.main(["--root", FIXTURES, good]), 0)
        self.assertEqual(lint.main(["--root", FIXTURES, bad]), 1)


if __name__ == "__main__":
    unittest.main()
