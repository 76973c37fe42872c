#!/usr/bin/env python3
"""Selftests for tools/mse_analyze.py and the tools/analysis package.

Each semantic rule is proven to fire on a seeded violation in a
miniature repo (same layout as the real one, written to a tempdir),
and proven quiet on the consistent baseline fixture.  The lexer edge
cases that would corrupt the registries if mishandled — raw strings,
adjacent-literal concatenation, comments, `#if 0` blocks, digit
separators — are covered against analysis.source directly.

Run: python3 tools/test_mse_analyze.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import mse_analyze  # noqa: E402
from analysis import registries as regs  # noqa: E402
from analysis import source  # noqa: E402

# ------------------------------------------------------------------
# Baseline fixture: a miniature repo where every registry agrees.
# ------------------------------------------------------------------

ERROR_HEADER = """\
#pragma once
namespace mse {
namespace wire_errors {
inline constexpr const char *kBadJson = "bad_json";
inline constexpr const char *kQueueFull = "queue_full";
inline bool isRetryable(const char *c) { return c == kQueueFull; }
} // namespace wire_errors
} // namespace mse
"""

FAULT_HEADER = """\
#pragma once
namespace mse {
namespace fault_sites {
inline constexpr const char *kZap = "store.zap";
} // namespace fault_sites
} // namespace mse
"""

METRIC_HEADER = """\
#pragma once
namespace mse {
namespace metric_names {
inline constexpr const char *kUptime = "uptime_s";
inline constexpr const char *kAlwaysKeys[] = { kUptime };
} // namespace metric_names
} // namespace mse
"""

DESIGN_MD = """\
# Design

| Code | Meaning | Retryable |
| --- | --- | --- |
| `bad_json` | unparsable request | no |
| `queue_full` | queue at capacity | yes - retry with backoff |
"""

README_MD = """\
# Readme

| Site | Failure it simulates |
| --- | --- |
| `store.zap` | disk zap |
"""

WIRE_CPP = """\
#include "service/error_codes.hpp"
namespace mse {
const char *badJson() { return wire_errors::kBadJson; }
const char *queueFull() { return wire_errors::kQueueFull; }
} // namespace mse
"""

STORE_CPP = """\
#include "common/fault_sites.hpp"
namespace mse {
void touchStore() { faultCheck(fault_sites::kZap); }
} // namespace mse
"""

SERVICE_CPP = """\
#include "common/metric_names.hpp"
namespace mse {
JsonValue
MseService::statsJson() const
{
    JsonValue j = JsonValue::object();
    j["uptime_s"] = 1.0;
    return j;
}
} // namespace mse
"""

TEST_CPP = """\
#include <gtest/gtest.h>
static const char *a = "bad_json";
static const char *b = "queue_full";
static const char *spec = "store.zap:every:1:EIO";
static const char *key = "uptime_s";
"""


def baseline() -> dict:
    return {
        "src/service/error_codes.hpp": ERROR_HEADER,
        "src/common/fault_sites.hpp": FAULT_HEADER,
        "src/common/metric_names.hpp": METRIC_HEADER,
        "src/service/wire.cpp": WIRE_CPP,
        "src/service/store.cpp": STORE_CPP,
        "src/service/service.cpp": SERVICE_CPP,
        "tests/test_wire.cpp": TEST_CPP,
        "DESIGN.md": DESIGN_MD,
        "README.md": README_MD,
    }


def run_analyzer(files: dict):
    """Materialise `files` in a tempdir and run the Analyzer on it."""
    with tempfile.TemporaryDirectory() as root:
        for rel, text in files.items():
            full = os.path.join(root, rel)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w", encoding="utf-8") as f:
                f.write(text)
        analyzer = mse_analyze.Analyzer(root)
        findings = analyzer.run()
        return findings, analyzer


def rules_of(findings) -> set:
    return {f.rule for f in findings}


class BaselineTest(unittest.TestCase):
    def test_consistent_fixture_is_clean(self):
        findings, _ = run_analyzer(baseline())
        self.assertEqual([f.format("text") for f in findings], [])


class WireCodeRulesTest(unittest.TestCase):
    def test_undocumented_code(self):
        files = baseline()
        files["DESIGN.md"] = DESIGN_MD.replace(
            "| `queue_full` | queue at capacity | yes - retry with backoff |\n",
            "",
        )
        findings, _ = run_analyzer(files)
        self.assertIn("wire-code-undocumented", rules_of(findings))

    def test_unknown_documented_code(self):
        files = baseline()
        files["DESIGN.md"] += "| `ghost_code` | never declared | no |\n"
        findings, _ = run_analyzer(files)
        self.assertIn("wire-code-unknown", rules_of(findings))

    def test_orphan_code_never_constructed(self):
        files = baseline()
        files["src/service/wire.cpp"] = WIRE_CPP.replace(
            "const char *queueFull() { return wire_errors::kQueueFull; }\n",
            "",
        )
        findings, _ = run_analyzer(files)
        self.assertIn("wire-code-orphan", rules_of(findings))

    def test_untested_code(self):
        files = baseline()
        files["tests/test_wire.cpp"] = TEST_CPP.replace(
            'static const char *b = "queue_full";\n', ""
        )
        findings, _ = run_analyzer(files)
        self.assertIn("wire-code-untested", rules_of(findings))

    def test_retry_mismatch(self):
        files = baseline()
        files["DESIGN.md"] = DESIGN_MD.replace(
            "| `bad_json` | unparsable request | no |",
            "| `bad_json` | unparsable request | yes |",
        )
        findings, _ = run_analyzer(files)
        self.assertIn("wire-code-retry-mismatch", rules_of(findings))

    def test_dup_literal_in_service_code(self):
        files = baseline()
        files["src/service/wire.cpp"] = WIRE_CPP.replace(
            "return wire_errors::kBadJson;", 'return "bad_json";'
        )
        findings, _ = run_analyzer(files)
        self.assertIn("dup-literal", rules_of(findings))

    def test_dup_literal_suppressed_by_allow_comment(self):
        files = baseline()
        files["src/service/wire.cpp"] = WIRE_CPP.replace(
            "return wire_errors::kBadJson;",
            "// mse-lint: allow(dup-literal) fixture\n"
            '    return "bad_json";',
        )
        findings, _ = run_analyzer(files)
        self.assertNotIn("dup-literal", rules_of(findings))


class FaultSiteRulesTest(unittest.TestCase):
    def test_undocumented_site(self):
        files = baseline()
        files["README.md"] = README_MD.replace(
            "| `store.zap` | disk zap |\n", ""
        )
        findings, _ = run_analyzer(files)
        self.assertIn("fault-site-undocumented", rules_of(findings))

    def test_unknown_site_in_readme(self):
        files = baseline()
        files["README.md"] += "| `store.phantom` | never declared |\n"
        findings, _ = run_analyzer(files)
        self.assertIn("fault-site-unknown", rules_of(findings))

    def test_unknown_site_armed_in_test(self):
        files = baseline()
        files["tests/test_wire.cpp"] += (
            'static const char *bad = "store.typo:once:1:EIO";\n'
        )
        findings, _ = run_analyzer(files)
        self.assertIn("fault-site-unknown", rules_of(findings))

    def test_test_prefix_sites_are_exempt(self):
        files = baseline()
        files["tests/test_wire.cpp"] += (
            'static const char *synth = "test.synthetic:once:1:EIO";\n'
        )
        findings, _ = run_analyzer(files)
        self.assertNotIn("fault-site-unknown", rules_of(findings))

    def test_orphan_site_never_consulted(self):
        files = baseline()
        files["src/service/store.cpp"] = (
            '#include "common/fault_sites.hpp"\n'
        )
        findings, _ = run_analyzer(files)
        self.assertIn("fault-site-orphan", rules_of(findings))

    def test_unexercised_site(self):
        files = baseline()
        files["tests/test_wire.cpp"] = TEST_CPP.replace(
            'static const char *spec = "store.zap:every:1:EIO";\n', ""
        )
        findings, _ = run_analyzer(files)
        self.assertIn("fault-site-unexercised", rules_of(findings))

    def test_unexercised_cleared_by_script_arming(self):
        files = baseline()
        files["tests/test_wire.cpp"] = TEST_CPP.replace(
            'static const char *spec = "store.zap:every:1:EIO";\n', ""
        )
        files["scripts/chaos.sh"] = (
            "#!/bin/sh\n"
            'MSE_FAULTS="store.zap:every:1:EIO" ./daemon\n'
        )
        findings, _ = run_analyzer(files)
        self.assertNotIn("fault-site-unexercised", rules_of(findings))

    def test_dup_literal_site_in_src(self):
        files = baseline()
        files["src/service/store.cpp"] = STORE_CPP.replace(
            "faultCheck(fault_sites::kZap);", 'faultCheck("store.zap");'
        )
        findings, _ = run_analyzer(files)
        self.assertIn("dup-literal", rules_of(findings))

    def test_macro_wrapped_consultation_counts(self):
        files = baseline()
        files["src/service/store.cpp"] = STORE_CPP.replace(
            "faultCheck(fault_sites::kZap);",
            "MSE_FAULT_CHECK(fault_sites::kZap);",
        )
        findings, _ = run_analyzer(files)
        self.assertNotIn("fault-site-orphan", rules_of(findings))


class MetricsRulesTest(unittest.TestCase):
    def test_undeclared_emitted_key(self):
        files = baseline()
        files["src/service/service.cpp"] = SERVICE_CPP.replace(
            'j["uptime_s"] = 1.0;',
            'j["uptime_s"] = 1.0;\n    j["mystery"] = 2.0;',
        )
        findings, _ = run_analyzer(files)
        self.assertIn("metrics-key-undeclared", rules_of(findings))

    def test_stale_declared_key(self):
        files = baseline()
        files["src/common/metric_names.hpp"] = METRIC_HEADER.replace(
            'inline constexpr const char *kUptime = "uptime_s";',
            'inline constexpr const char *kUptime = "uptime_s";\n'
            'inline constexpr const char *kGhost = "ghost_key";',
        )
        findings, _ = run_analyzer(files)
        self.assertIn("metrics-key-stale", rules_of(findings))

    def test_orphan_key_nothing_consumes(self):
        files = baseline()
        files["tests/test_wire.cpp"] = TEST_CPP.replace(
            'static const char *key = "uptime_s";\n', ""
        )
        findings, _ = run_analyzer(files)
        self.assertIn("metrics-key-orphan", rules_of(findings))

    def test_kind_array_reference_credits_members(self):
        files = baseline()
        files["tests/test_wire.cpp"] = TEST_CPP.replace(
            'static const char *key = "uptime_s";',
            "static const char *const *keys = metric_names::kAlwaysKeys;",
        )
        findings, _ = run_analyzer(files)
        self.assertNotIn("metrics-key-orphan", rules_of(findings))

    def test_nested_and_spliced_trees_resolve(self):
        files = baseline()
        files["src/common/metrics.cpp"] = (
            "namespace mse {\n"
            "JsonValue\n"
            "ServiceMetrics::toJson() const\n"
            "{\n"
            "    JsonValue j = JsonValue::object();\n"
            '    JsonValue &q = j["queue"];\n'
            '    q["depth"] = 1;\n'
            "    return j;\n"
            "}\n"
            "} // namespace mse\n"
        )
        files["src/service/service.cpp"] = (
            '#include "common/metric_names.hpp"\n'
            "namespace mse {\n"
            "JsonValue\n"
            "MseService::statsJson() const\n"
            "{\n"
            "    JsonValue j = metrics_.toJson();\n"
            '    j["uptime_s"] = 1.0;\n'
            "    return j;\n"
            "}\n"
            "} // namespace mse\n"
        )
        files["src/common/metric_names.hpp"] = METRIC_HEADER.replace(
            'inline constexpr const char *kUptime = "uptime_s";',
            'inline constexpr const char *kUptime = "uptime_s";\n'
            'inline constexpr const char *kQDepth = "queue.depth";',
        )
        files["tests/test_wire.cpp"] = TEST_CPP + (
            'static const char *qd = "depth";\n'
        )
        findings, analyzer = run_analyzer(files)
        emitted = analyzer.registries["metrics_keys"]["emitted"]
        self.assertIn("queue.depth", emitted)
        self.assertNotIn("metrics-key-stale", rules_of(findings))


class LockRulesTest(unittest.TestCase):
    def test_unannotated_member_mutex(self):
        files = baseline()
        files["src/service/state.hpp"] = (
            "#pragma once\n"
            "namespace mse {\n"
            "class State\n"
            "{\n"
            "    Mutex mu_;\n"
            "    int x = 0;\n"
            "};\n"
            "} // namespace mse\n"
        )
        findings, _ = run_analyzer(files)
        self.assertIn("mutex-unannotated", rules_of(findings))

    def test_annotated_member_mutex_is_clean(self):
        files = baseline()
        files["src/service/state.hpp"] = (
            "#pragma once\n"
            "namespace mse {\n"
            "class State\n"
            "{\n"
            "    Mutex mu_;\n"
            "    int x GUARDED_BY(mu_) = 0;\n"
            "};\n"
            "} // namespace mse\n"
        )
        findings, _ = run_analyzer(files)
        self.assertNotIn("mutex-unannotated", rules_of(findings))

    def test_lock_order_cycle_detected(self):
        files = baseline()
        files["src/service/order.cpp"] = (
            "namespace mse {\n"
            "void\n"
            "lockAB()\n"
            "{\n"
            "    MutexLock la(g_a);\n"
            "    MutexLock lb(g_b);\n"
            "}\n"
            "void\n"
            "lockBA()\n"
            "{\n"
            "    MutexLock lb(g_b);\n"
            "    MutexLock la(g_a);\n"
            "}\n"
            "} // namespace mse\n"
        )
        findings, _ = run_analyzer(files)
        self.assertIn("lock-order-cycle", rules_of(findings))

    def test_consistent_order_is_acyclic(self):
        files = baseline()
        files["src/service/order.cpp"] = (
            "namespace mse {\n"
            "void\n"
            "lockAB()\n"
            "{\n"
            "    MutexLock la(g_a);\n"
            "    MutexLock lb(g_b);\n"
            "}\n"
            "void\n"
            "alsoAB()\n"
            "{\n"
            "    MutexLock la(g_a);\n"
            "    MutexLock lb(g_b);\n"
            "}\n"
            "} // namespace mse\n"
        )
        findings, _ = run_analyzer(files)
        self.assertNotIn("lock-order-cycle", rules_of(findings))


class IncludeRulesTest(unittest.TestCase):
    def test_layering_violation(self):
        files = baseline()
        files["src/common/util.cpp"] = (
            '#include "service/error_codes.hpp"\n'
        )
        findings, _ = run_analyzer(files)
        self.assertIn("layering", rules_of(findings))

    def test_include_cycle(self):
        files = baseline()
        files["src/service/a.hpp"] = '#include "service/b.hpp"\n'
        files["src/service/b.hpp"] = '#include "service/a.hpp"\n'
        findings, _ = run_analyzer(files)
        self.assertIn("include-cycle", rules_of(findings))


class SuppressionTest(unittest.TestCase):
    def test_header_allow_comment_suppresses_untested(self):
        files = baseline()
        files["tests/test_wire.cpp"] = TEST_CPP.replace(
            'static const char *b = "queue_full";\n', ""
        )
        files["src/service/error_codes.hpp"] = ERROR_HEADER.replace(
            'inline constexpr const char *kQueueFull = "queue_full";',
            "// mse-lint: allow(wire-code-untested) fixture\n"
            'inline constexpr const char *kQueueFull = "queue_full";',
        )
        findings, _ = run_analyzer(files)
        self.assertNotIn("wire-code-untested", rules_of(findings))

    def test_markdown_allow_comment_suppresses_unknown(self):
        files = baseline()
        files["DESIGN.md"] += (
            "<!-- mse-lint: allow(wire-code-unknown) fixture -->\n"
            "| `ghost_code` | never declared | no |\n"
        )
        findings, _ = run_analyzer(files)
        self.assertNotIn("wire-code-unknown", rules_of(findings))


class LexerEdgeCasesTest(unittest.TestCase):
    def lex(self, text: str) -> source.CppSource:
        return source.lex("src/service/x.cpp", text)

    def test_comments_do_not_reach_registries(self):
        src = self.lex(
            '// faultCheck("store.zap")\n'
            '/* also "store.zap" here */\n'
            "int x = 0;\n"
        )
        self.assertEqual(src.string_values(), [])
        self.assertNotIn("faultCheck", "\n".join(src.code_lines))

    def test_if0_blocks_are_dead(self):
        src = self.lex(
            "#if 0\n"
            'const char *dead = "store.zap";\n'
            "#else\n"
            'const char *live = "bad_json";\n'
            "#endif\n"
        )
        self.assertEqual(src.string_values(), ["bad_json"])

    def test_nested_if0(self):
        src = self.lex(
            "#if 0\n"
            "#ifdef FOO\n"
            'const char *a = "x1";\n'
            "#endif\n"
            'const char *b = "x2";\n'
            "#endif\n"
            'const char *c = "x3";\n'
        )
        self.assertEqual(src.string_values(), ["x3"])

    def test_raw_strings(self):
        src = self.lex('const char *r = R"(store.zap:every:1)";\n')
        self.assertEqual(src.string_values(), ["store.zap:every:1"])

    def test_raw_string_with_delimiter(self):
        src = self.lex('const char *r = R"ab(x")y")ab";\n')
        self.assertEqual(src.string_values(), ['x")y"'])

    def test_adjacent_literal_concatenation(self):
        src = self.lex('const char *s = "store." "zap";\n')
        self.assertEqual(src.string_values(), ["store.zap"])

    def test_digit_separators_are_not_char_literals(self):
        src = self.lex("int n = 1'000'000;\nconst char *s = \"after\";\n")
        self.assertEqual(src.string_values(), ["after"])

    def test_escaped_quotes(self):
        src = self.lex('const char *s = "say \\"hi\\"";\n')
        self.assertEqual(src.string_values(), ['say \\"hi\\"'])

    def test_char_literals_do_not_open_strings(self):
        src = self.lex(
            "char c = '\"';\nconst char *s = \"real\";\n"
        )
        self.assertEqual(src.string_values(), ["real"])


class RegistryHelpersTest(unittest.TestCase):
    def test_parse_constant_arrays(self):
        src = source.lex("h.hpp", METRIC_HEADER)
        arrays = regs.parse_constant_arrays(src)
        self.assertEqual(arrays, {"kAlwaysKeys": ["kUptime"]})

    def test_site_tokens_no_prefix_collision(self):
        toks = regs.site_tokens("server.wake.read:every:2:EINTR")
        self.assertIn("server.wake.read", toks)
        self.assertNotIn("server.wake", toks)


class OutputTest(unittest.TestCase):
    def test_github_format(self):
        files = baseline()
        files["DESIGN.md"] += "| `ghost_code` | never declared | no |\n"
        findings, _ = run_analyzer(files)
        unknown = [f for f in findings if f.rule == "wire-code-unknown"]
        self.assertTrue(unknown)
        line = unknown[0].format("github")
        self.assertTrue(line.startswith("::error file=DESIGN.md,line="))
        self.assertIn("title=mse-lint wire-code-unknown::", line)

    def test_dump_registries_json(self):
        with tempfile.TemporaryDirectory() as root:
            for rel, text in baseline().items():
                full = os.path.join(root, rel)
                os.makedirs(os.path.dirname(full), exist_ok=True)
                with open(full, "w", encoding="utf-8") as f:
                    f.write(text)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = mse_analyze.main(
                    ["--root", root, "--dump-registries", "json"]
                )
            self.assertEqual(rc, 0)
            dump = json.loads(buf.getvalue())
            self.assertIn("wire_error_codes", dump)
            self.assertIn("fault_sites", dump)
            self.assertIn("metrics_keys", dump)
            self.assertIn("locks", dump)
            self.assertIn("include_graph", dump)
            self.assertEqual(
                dump["wire_error_codes"]["retryable"], ["queue_full"]
            )

    def test_exit_status_propagates_findings(self):
        with tempfile.TemporaryDirectory() as root:
            files = baseline()
            files["DESIGN.md"] += "| `ghost_code` | boo | no |\n"
            for rel, text in files.items():
                full = os.path.join(root, rel)
                os.makedirs(os.path.dirname(full), exist_ok=True)
                with open(full, "w", encoding="utf-8") as f:
                    f.write(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = mse_analyze.main(["--root", root])
            self.assertEqual(rc, 1)
            self.assertIn("wire-code-unknown", out.getvalue())


if __name__ == "__main__":
    unittest.main()
