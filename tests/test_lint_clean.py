"""Meta-test: the shipped source tree must satisfy its own linter.

This is the enforcement half of the determinism discipline — CI runs
``python -m repro.lint src/repro`` too, but this test keeps the guarantee
inside the tier-1 suite so a violation fails fast locally.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.lint import LintConfig, format_text, lint_paths, snapshot_coverage
from repro.lint.driver import build_index
from repro.lint.rules import iter_python_files

SRC_ROOT = Path(repro.__file__).parent

#: Every class in the tree implementing the snapshot/restore protocol.  New
#: protocol classes must be added here — the enumeration test below fails
#: otherwise, which is the point: snapshot coverage is opt-out, not silent.
EXPECTED_SNAPSHOT_CLASSES = {
    "repro.bgp.damping.RouteFlapDamper",
    "repro.bgp.network.Network",
    "repro.bgp.rib.AdjRibIn",
    "repro.bgp.rib.AdjRibOut",
    "repro.bgp.rib.LocRib",
    "repro.bgp.session.Session",
    "repro.bgp.speaker.BGPSpeaker",
    "repro.core.alarms.AlarmLog",
    "repro.core.checker.MoasChecker",
    "repro.eventsim.rng.RandomStreams",
    "repro.eventsim.simulator.Simulator",
    "repro.net.link.Link",
    "repro.stream.engine.StreamEngine",
}


def test_src_repro_is_lint_clean():
    violations = lint_paths([SRC_ROOT])
    assert violations == [], "\n" + format_text(violations)


def test_src_root_is_the_real_package():
    # Guard against the meta-test silently linting an empty directory.
    files = list(SRC_ROOT.rglob("*.py"))
    assert len(files) > 50


def test_every_snapshot_class_is_enumerated_and_complete():
    """R101's enumeration covers exactly the known protocol classes, and
    every one of them captures, restores or waives every attribute."""
    run = build_index(iter_python_files([SRC_ROOT]), LintConfig())
    assert run.errors == []
    coverage = snapshot_coverage(run.summaries)
    assert set(coverage) == EXPECTED_SNAPSHOT_CLASSES
    for name, report in coverage.items():
        assert report.complete, (
            f"{name} missing capture={report.missing_capture} "
            f"restore={report.missing_restore}"
        )
        assert report.stale_waivers == (), name


def test_snapshot_waivers_are_minimal():
    # A waiver for an attribute that snapshot_state actually captures is
    # dead weight; keep the waiver lists honest.
    run = build_index(iter_python_files([SRC_ROOT]), LintConfig())
    coverage = snapshot_coverage(run.summaries)
    for name, report in coverage.items():
        over_waived = set(report.waived) & set(report.captured) & set(
            report.restored
        )
        assert not over_waived, f"{name} waives captured+restored {over_waived}"
