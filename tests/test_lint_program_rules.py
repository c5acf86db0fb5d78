"""Whole-program analyses: R100 taint, R101 snapshot completeness."""

from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_file, lint_paths, lint_source
from repro.lint.driver import build_index
from repro.lint.snapshot import snapshot_coverage

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
SRC_ROOT = Path(__file__).parent.parent / "src" / "repro"


def rules_hit(violations):
    return {v.rule for v in violations}


def only(violations, rule):
    return [v for v in violations if v.rule == rule]


class TestR100Taint:
    def test_direct_source_into_sink(self):
        violations = only(lint_file(FIXTURES / "r100_bad.py"), "R100")
        messages = [v.message for v in violations]
        assert any(
            "schedule_at" in m and "time.time" in m for m in messages
        ), messages

    def test_taint_flows_through_call_chain(self):
        violations = only(lint_file(FIXTURES / "r100_bad.py"), "R100")
        chained = [
            v for v in violations if "indirect_stamp" in v.message
        ]
        assert chained, [v.message for v in violations]
        assert "wall_stamp" in chained[0].message  # provenance chain

    def test_snapshot_payload_is_a_sink(self):
        violations = only(lint_file(FIXTURES / "r100_bad.py"), "R100")
        assert any(
            "snapshot_state payload" in v.message and "uuid" in v.message
            for v in violations
        )

    def test_clean_fixture_has_no_r100(self):
        assert only(lint_file(FIXTURES / "r100_clean.py"), "R100") == []

    def test_source_suppression_kills_taint_at_birth(self):
        src = (
            "import time\n"
            "class S:\n"
            "    def go(self, sim):\n"
            "        t = time.perf_counter()  # repro-lint: disable=R002\n"
            "        sim.schedule_at(t, None)\n"
        )
        assert only(lint_source(src, "s.py"), "R100") == []

    def test_sink_suppression(self):
        src = (
            "import time\n"
            "class S:\n"
            "    def go(self, sim):\n"
            "        sim.schedule_at(time.time(), None)  # repro-lint: disable=R100\n"
        )
        violations = lint_source(src, "s.py")
        assert "R100" not in rules_hit(violations)
        assert "R002" in rules_hit(violations)  # the source is still flagged

    def test_cross_module_taint(self):
        violations = only(
            lint_paths(
                [FIXTURES / "r100_cross_helper.py", FIXTURES / "r100_cross_user.py"]
            ),
            "R100",
        )
        assert len(violations) == 1
        v = violations[0]
        assert v.path.endswith("r100_cross_user.py")
        assert "wall_stamp" in v.message and "time.time" in v.message

    def test_cross_module_needs_both_files(self):
        # Linting the user alone cannot resolve the helper: no finding.
        violations = only(lint_file(FIXTURES / "r100_cross_user.py"), "R100")
        assert violations == []

    def test_unordered_set_pick_is_a_source(self):
        src = (
            "class S:\n"
            "    def go(self, sim):\n"
            "        first = next(iter({3, 1, 2}))\n"
            "        sim.schedule_at(first, None)\n"
        )
        violations = only(lint_source(src, "s.py"), "R100")
        assert len(violations) == 1
        assert "unordered set" in violations[0].message


class TestR101Snapshot:
    def test_missing_capture_flagged(self):
        violations = only(lint_file(FIXTURES / "r101_bad.py"), "R101")
        assert any(
            "MissingCapture" in v.message and "'forgotten'" in v.message
            and "not captured" in v.message
            for v in violations
        )

    def test_stale_waiver_flagged(self):
        violations = only(lint_file(FIXTURES / "r101_bad.py"), "R101")
        assert any(
            "StaleWaiver" in v.message and "'ghost'" in v.message
            and "stale waiver" in v.message
            for v in violations
        )

    def test_one_sided_protocol_flagged(self):
        violations = only(lint_file(FIXTURES / "r101_bad.py"), "R101")
        assert any(
            "OneSided" in v.message and "without restore_state" in v.message
            for v in violations
        )

    def test_clean_fixture_passes(self):
        assert only(lint_file(FIXTURES / "r101_clean.py"), "R101") == []

    def test_line_suppression(self):
        src = (
            "class C:\n"
            "    def __init__(self):\n"
            "        self.x = 0  # repro-lint: disable=R101\n"
            "    def snapshot_state(self):\n"
            "        return {}\n"
            "    def restore_state(self, state):\n"
            "        pass\n"
        )
        assert only(lint_source(src, "c.py"), "R101") == []

    def test_deleting_a_field_from_real_checker_fails(self):
        """Acceptance: drop one field from MoasChecker.snapshot_state -> R101."""
        source = (SRC_ROOT / "core" / "checker.py").read_text(encoding="utf-8")
        line = '            "checks": self.checks,\n'
        assert line in source
        broken = source.replace(line, "")
        violations = only(
            lint_source(broken, str(SRC_ROOT / "core" / "checker.py")), "R101"
        )
        assert any(
            "'checks'" in v.message and "not captured" in v.message
            for v in violations
        ), [v.message for v in violations]

    def test_deleting_a_restore_line_fails(self):
        source = (SRC_ROOT / "stream" / "engine.py").read_text(encoding="utf-8")
        line = '        self.alarm_duplicates = int(state["alarm_duplicates"])\n'
        assert line in source
        broken = source.replace(line, "")
        violations = only(
            lint_source(broken, str(SRC_ROOT / "stream" / "engine.py")), "R101"
        )
        assert any(
            "'alarm_duplicates'" in v.message and "not restored" in v.message
            for v in violations
        ), [v.message for v in violations]

    def test_coverage_enumeration(self):
        run = build_index([FIXTURES / "r101_clean.py"], LintConfig())
        coverage = snapshot_coverage(run.summaries)
        assert list(coverage) == ["r101_clean.FullyCovered"]
        report = coverage["r101_clean.FullyCovered"]
        assert report.complete
        assert report.waived == ("_registry",)
        assert set(report.captured) == {"count", "items"}


class TestQueryPackageCoverage:
    """R006/R100 extended to the query subsystem's idioms."""

    def test_server_polling_sleep_trips_r006(self):
        violations = lint_file(FIXTURES / "r006_query_server_bad.py")
        assert rules_hit(violations) == {"R006"}
        assert len(violations) == 1

    def test_injected_sleeper_reload_loop_is_clean(self):
        src = (
            "class Reloader:\n"
            "    def watch(self, index, sleeper):\n"
            "        while True:\n"
            "            index.reload_if_changed()\n"
            "            sleeper(0.5)\n"
        )
        assert lint_source(src, "reloader.py") == []

    def test_wall_clock_into_segment_document_trips_r100(self):
        violations = only(lint_file(FIXTURES / "r100_query_bad.py"), "R100")
        assert any(
            "assemble_segment" in v.message and "time.time" in v.message
            for v in violations
        ), [v.message for v in violations]

    def test_chained_wall_clock_into_manifest_trips_r100(self):
        violations = only(lint_file(FIXTURES / "r100_query_bad.py"), "R100")
        assert any(
            "write_manifest" in v.message and "built_stamp" in v.message
            for v in violations
        ), [v.message for v in violations]

    def test_pure_segment_assembly_is_clean(self):
        src = (
            "from repro.query.segments import assemble_segment, write_manifest\n"
            "def cut(seq, start, end, events, rows):\n"
            "    return assemble_segment(seq, start, end, events, rows)\n"
            "def publish(directory, manifest):\n"
            "    write_manifest(directory, manifest)\n"
        )
        assert only(lint_source(src, "pure.py"), "R100") == []


class TestRealTreeIsProgramClean:
    def test_program_rules_clean_on_src(self):
        violations = [
            v
            for v in lint_paths([SRC_ROOT])
            if v.rule in {"R100", "R101"}
        ]
        assert violations == [], [v.format() for v in violations]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
