"""Unit tests for the repro-lint static analysis rules (R001-R006)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import (
    RULES,
    LintConfig,
    Violation,
    format_json,
    format_text,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.lint.cli import main as lint_main
from repro.lint.rules import iter_python_files

FIXTURES = Path(__file__).parent / "fixtures" / "lint"

#: Config under which the R005 class check fires for the fixture files.
SPEC_CONFIG = LintConfig(spec_modules=("*/r005_bad.py", "*/clean.py"))

#: Config under which the R008 hot-path check fires for the fixture files.
HOT_PATH_CONFIG = LintConfig(hot_path_modules=("*/r008_bad.py",))

#: Config under which the R009 sharded-module checks fire for the fixtures.
SHARDED_CONFIG = LintConfig(sharded_modules=("*/r009_bad.py",))


def rules_hit(violations):
    return {v.rule for v in violations}


class TestRulePositives:
    def test_r001_unseeded_randomness(self):
        violations = lint_file(FIXTURES / "r001_bad.py")
        assert rules_hit(violations) == {"R001"}
        assert len(violations) >= 4  # random(), choice, seed, numpy.random

    def test_r001_from_random_import(self):
        violations = lint_source("from random import choice\n")
        assert rules_hit(violations) == {"R001"}

    def test_r002_wall_clock_sources(self):
        violations = lint_file(FIXTURES / "r002_bad.py")
        assert rules_hit(violations) == {"R002"}
        # time.time, perf_counter, datetime.now, os.urandom, uuid4.
        assert len(violations) >= 5

    def test_r002_secrets_import(self):
        violations = lint_source("import secrets\n")
        assert rules_hit(violations) == {"R002"}

    def test_r003_set_iteration(self):
        violations = lint_file(FIXTURES / "r003_bad.py")
        assert rules_hit(violations) == {"R003"}
        # for loop, list comprehension, list(), annotated parameter loop.
        assert len(violations) == 4

    def test_r003_direct_set_literal(self):
        violations = lint_source("for x in {3, 1, 2}:\n    print(x)\n")
        assert rules_hit(violations) == {"R003"}

    def test_r004_hash_in_sort_key(self):
        violations = lint_file(FIXTURES / "r004_bad.py")
        assert rules_hit(violations) == {"R004"}
        assert len(violations) == 3

    def test_r005_lambda_and_unpicklable_class(self):
        violations = lint_file(FIXTURES / "r005_bad.py", config=SPEC_CONFIG)
        assert rules_hit(violations) == {"R005"}
        messages = " ".join(v.message for v in violations)
        assert "lambda" in messages
        assert "FrozenThing" in messages

    def test_r005_class_check_only_in_spec_modules(self):
        # Without the spec-module config the lambda still trips, the class
        # definition does not.
        violations = lint_file(FIXTURES / "r005_bad.py")
        assert rules_hit(violations) == {"R005"}
        assert all("FrozenThing" not in v.message for v in violations)

    def test_r006_time_sleep(self):
        violations = lint_file(FIXTURES / "r006_bad.py")
        assert rules_hit(violations) == {"R006"}
        # time.sleep via the module, via `from time import sleep`, and
        # inside a function body.
        assert len(violations) == 3

    def test_r006_aliased_import(self):
        violations = lint_source("import time as t\nt.sleep(1)\n")
        assert rules_hit(violations) == {"R006"}

    def test_r006_renamed_direct_import(self):
        violations = lint_source("from time import sleep as snooze\nsnooze(1)\n")
        assert rules_hit(violations) == {"R006"}

    def test_r006_suppression(self):
        src = "import time\ntime.sleep(1)  # repro-lint: disable=R006\n"
        assert lint_source(src) == []

    def test_r006_injected_sleeper_ok(self):
        # Calling an injected sleeper is the sanctioned pattern.
        src = (
            "def run(sleeper):\n"
            "    sleeper(0.2)\n"
        )
        assert lint_source(src) == []

    def test_r006_referencing_time_sleep_without_calling_ok(self):
        # Handing time.sleep in as the *default* injectable is allowed at
        # the reference level; only calls block the event loop.
        src = "import time\ndefault_sleeper = time.sleep\n"
        assert lint_source(src) == []

    def test_r007_deepcopy(self):
        violations = lint_file(FIXTURES / "r007_bad.py")
        assert rules_hit(violations) == {"R007"}
        # The from-import itself, copy.deepcopy via the module, the direct
        # deepcopy call, and the call inside a function body.
        assert len(violations) == 4

    def test_r007_aliased_module_import(self):
        violations = lint_source("import copy as c\nx = c.deepcopy({})\n")
        assert rules_hit(violations) == {"R007"}

    def test_r007_renamed_direct_import(self):
        src = "from copy import deepcopy as clone\nx = clone({})\n"
        violations = lint_source(src)
        assert rules_hit(violations) == {"R007"}
        assert len(violations) == 2  # the import and the call

    def test_r007_shallow_copy_ok(self):
        # copy.copy is the sanctioned shallow copy; only deepcopy is banned.
        src = "import copy\nx = copy.copy({1: 'a'})\n"
        assert lint_source(src) == []

    def test_r007_suppression(self):
        src = (
            "import copy\n"
            "x = copy.deepcopy({})  # repro-lint: disable=R007\n"
        )
        assert lint_source(src) == []

    def test_r008_bare_construction_on_hot_path(self):
        violations = lint_file(FIXTURES / "r008_bad.py", config=HOT_PATH_CONFIG)
        assert rules_hit(violations) == {"R008"}
        # The bare PathAttributes and the bare AsPath; the two interner-
        # wrapped constructions are the blessed idiom and stay clean.
        assert len(violations) == 2

    def test_r008_only_fires_in_hot_path_modules(self):
        # The same fixture linted under the default config (whose hot-path
        # patterns name real bgp/ modules) is not a hot-path file.
        assert lint_file(FIXTURES / "r008_bad.py") == []

    def test_r008_interner_wrapped_ok(self):
        src = (
            "def f(interner, origin):\n"
            "    return interner.attributes(PathAttributes(origin=origin))\n"
        )
        assert lint_source(src, path="x/bgp/speaker.py") == []

    def test_r008_keyword_argument_wrapped_ok(self):
        src = (
            "def f(interner):\n"
            "    return interner.as_path(path=AsPath(((1,),)))\n"
        )
        assert lint_source(src, path="x/bgp/rib.py") == []

    def test_r008_dotted_constructor_flagged(self):
        src = (
            "from repro.bgp import attributes\n"
            "a = attributes.PathAttributes()\n"
        )
        violations = lint_source(src, path="x/bgp/session.py")
        assert rules_hit(violations) == {"R008"}

    def test_r008_suppression(self):
        src = "a = PathAttributes()  # repro-lint: disable=R008\n"
        assert lint_source(src, path="x/bgp/speaker.py") == []

    def test_r009_sharded_ordering_hazards(self):
        violations = lint_file(FIXTURES / "r009_bad.py", config=SHARDED_CONFIG)
        assert rules_hit(violations) == {"R009"}
        # Two id() calls, handle_update, handle_wire, sum over a set in a
        # merge path, set.pop() in a merge path.
        assert len(violations) == 6

    def test_r009_only_fires_in_sharded_modules(self):
        # The default config's sharded patterns name the real simulator
        # modules, so the fixture is an ordinary file — and none of its
        # hazards are hazards outside a shard boundary.
        assert lint_file(FIXTURES / "r009_bad.py") == []

    def test_r009_id_flagged_anywhere_in_sharded_module(self):
        src = "def f(x):\n    return id(x)\n"
        violations = lint_source(src, path="x/eventsim/sharded.py")
        assert rules_hit(violations) == {"R009"}

    def test_r009_merge_path_reduction_needs_sorted(self):
        src = (
            "def merge_slices(keys):\n"
            "    pending = set(keys)\n"
            "    return sum(k for k in pending)\n"
        )
        violations = lint_source(src, path="x/bgp/shardnet.py")
        assert rules_hit(violations) == {"R009"}

    def test_r009_sorted_merge_path_ok(self):
        src = (
            "def merge_slices(keys):\n"
            "    pending = set(keys)\n"
            "    return sum(k for k in sorted(pending))\n"
        )
        assert lint_source(src, path="x/bgp/shardnet.py") == []

    def test_r009_reduction_outside_merge_path_ok(self):
        # Outside a merge/drain path the R003 exemption stands even in a
        # sharded module: plain reductions over local sets are fine.
        src = (
            "def count_big(keys):\n"
            "    pending = set(keys)\n"
            "    return sum(1 for k in pending if k > 2)\n"
        )
        assert lint_source(src, path="x/bgp/shardnet.py") == []

    def test_r009_suppression(self):
        src = (
            "def f(x):\n"
            "    return id(x)  # repro-lint: disable=R009\n"
        )
        assert lint_source(src, path="x/experiments/sharded_run.py") == []


class TestRuleNegatives:
    def test_clean_fixture_is_clean(self):
        assert lint_file(FIXTURES / "clean.py", config=SPEC_CONFIG) == []

    def test_seeded_random_instance_ok(self):
        src = "import random\nrng = random.Random(7)\nx = rng.random()\n"
        assert lint_source(src) == []

    def test_dict_iteration_ok(self):
        # Dicts are insertion-ordered — deterministic, not flagged.
        src = "d = {1: 'a'}\nfor k in d:\n    print(k)\n"
        assert lint_source(src) == []

    def test_order_insensitive_consumers_exempt(self):
        src = "s = {1, 2}\nok = any(x > 1 for x in s)\nn = sum(x for x in s)\n"
        assert lint_source(src) == []

    def test_set_comprehension_from_set_ok(self):
        assert lint_source("s = {1, 2}\nt = {x + 1 for x in s}\n") == []

    def test_sorted_set_ok(self):
        assert lint_source("s = {1, 2}\nfor x in sorted(s):\n    print(x)\n") == []

    def test_rebinding_clears_set_inference(self):
        src = "s = {1, 2}\ns = sorted(s)\nfor x in s:\n    print(x)\n"
        assert lint_source(src) == []


class TestSuppression:
    def test_suppressed_fixture_is_clean(self):
        assert lint_file(FIXTURES / "suppressed.py") == []

    def test_suppression_is_rule_specific(self):
        src = "import time\nt = time.time()  # repro-lint: disable=R001\n"
        assert rules_hit(lint_source(src)) == {"R002"}

    def test_disable_all(self):
        src = "import time\nt = time.time()  # repro-lint: disable=all\n"
        assert lint_source(src) == []


class TestInfrastructure:
    def test_syntax_error_reported_as_e999(self):
        violations = lint_source("def broken(:\n")
        assert len(violations) == 1
        assert violations[0].rule == "E999"

    def test_select_filters_rules(self):
        config = LintConfig(select=frozenset({"R001"}))
        violations = lint_file(FIXTURES / "r002_bad.py", config=config)
        assert violations == []

    def test_violation_format(self):
        v = Violation(path="a.py", line=3, col=4, rule="R001", message="boom")
        assert v.format() == "a.py:3:4: R001 boom"

    def test_iter_python_files_sorted_and_recursive(self):
        files = iter_python_files([FIXTURES])
        assert files == sorted(files)
        assert FIXTURES / "r001_bad.py" in files

    def test_lint_paths_aggregates(self):
        violations = lint_paths([FIXTURES / "r001_bad.py", FIXTURES / "r004_bad.py"])
        assert rules_hit(violations) == {"R001", "R004"}

    def test_rule_catalogue_complete(self):
        assert set(RULES) == {
            "R001", "R002", "R003", "R004", "R005", "R006", "R007", "R008",
            "R009", "R100", "R101",
        }


class TestReporters:
    def test_text_clean(self):
        assert format_text([]) == "clean: no violations"

    def test_text_summary_line(self):
        violations = lint_file(FIXTURES / "r004_bad.py")
        text = format_text(violations)
        assert "found 3 violation(s): R004=3" in text
        assert "r004_bad.py" in text

    def test_json_payload(self):
        violations = lint_file(FIXTURES / "r004_bad.py")
        payload = json.loads(format_json(violations))
        assert payload["count"] == 3
        assert payload["by_rule"] == {"R004": 3}
        assert all(v["rule"] == "R004" for v in payload["violations"])


class TestCli:
    def test_exit_zero_on_clean(self, capsys):
        assert lint_main([str(FIXTURES / "clean.py")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_violations(self, capsys):
        assert lint_main([str(FIXTURES / "r001_bad.py")]) == 1
        assert "R001" in capsys.readouterr().out

    def test_exit_two_on_unknown_rule(self, capsys):
        assert lint_main(["--select", "R999", str(FIXTURES / "clean.py")]) == 2

    def test_exit_two_on_missing_path(self, capsys):
        assert lint_main([str(FIXTURES / "does_not_exist.py")]) == 2

    def test_json_format(self, capsys):
        assert lint_main(["--format", "json", str(FIXTURES / "r004_bad.py")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 3

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out

    def test_select_narrows(self, capsys):
        # r002_bad.py has no R001 violations, so selecting R001 passes.
        assert lint_main(["--select", "R001", str(FIXTURES / "r002_bad.py")]) == 0

    def test_module_execution(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(FIXTURES / "clean.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "clean" in proc.stdout
