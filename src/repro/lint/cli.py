"""Command-line entry point for repro-lint.

``repro-lint src/repro`` (or ``python -m repro.lint src/repro``) lints the
tree and exits 0 when clean, 1 on violations, 2 on usage errors or files
the linter could not analyse (unreadable, non-UTF-8, syntax errors) — those
are reported as diagnostics on stderr, never tracebacks.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.driver import run_lint
from repro.lint.reporter import (
    format_json,
    format_rule_catalogue,
    format_sarif,
    format_text,
)
from repro.lint.rules import RULES, LintConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Determinism / pickle-safety static analysis for the "
        "repro codebase (per-file rules R001-R008 plus whole-program "
        "analyses R100-R101).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to enable (default: all)",
    )
    parser.add_argument(
        "--changed", action="store_true",
        help="lint only files reported modified/added/untracked by git, "
        "intersected with the given paths",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="suppress violations recorded in this baseline file",
    )
    parser.add_argument(
        "--write-baseline", default=None, metavar="FILE",
        help="write the current violations as a new baseline and exit 0",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="index cache directory (default: $REPRO_LINT_CACHE or "
        "~/.cache/repro-lint)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk index cache for this run",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print files/cache/duration statistics to stderr",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    return parser


def _changed_python_files(roots: Sequence[Path]) -> Optional[List[Path]]:
    """``.py`` files git reports as changed (staged, unstaged or untracked),
    restricted to ``roots``.  ``None`` signals a git failure."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            capture_output=True,
            text=True,
            check=False,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"repro-lint: cannot run git for --changed: {exc}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        detail = proc.stderr.strip() or f"exit code {proc.returncode}"
        print(f"repro-lint: git status failed for --changed: {detail}", file=sys.stderr)
        return None
    resolved_roots = [root.resolve() for root in roots]
    changed: List[Path] = []
    for raw_line in proc.stdout.splitlines():
        if len(raw_line) < 4 or raw_line[:2] == "D " or raw_line[:2] == " D":
            continue
        name = raw_line[3:]
        if " -> " in name:  # rename: lint the new side
            name = name.split(" -> ", 1)[1]
        if name.startswith('"') and name.endswith('"'):
            name = name[1:-1]
        if not name.endswith(".py"):
            continue
        path = Path(name)
        if not path.exists():
            continue
        resolved = path.resolve()
        for root in resolved_roots:
            if resolved == root or root in resolved.parents:
                changed.append(path)
                break
    return sorted(set(changed))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(format_rule_catalogue())
        return 0

    config = LintConfig()
    if args.select is not None:
        selected = frozenset(
            part.strip().upper() for part in args.select.split(",") if part.strip()
        )
        unknown = selected - frozenset(RULES)
        if unknown:
            print(
                f"repro-lint: unknown rule(s): {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2
        config = LintConfig(select=selected)

    paths: List[Path] = []
    for raw in args.paths:
        path = Path(raw)
        if not path.exists():
            print(f"repro-lint: no such path: {raw}", file=sys.stderr)
            return 2
        paths.append(path)

    if args.changed:
        changed = _changed_python_files(paths)
        if changed is None:
            return 2
        if not changed:
            if args.format == "sarif":
                print(format_sarif([]))
            elif args.format == "json":
                print(format_json([]))
            else:
                print("clean: no changed files to lint")
            return 0
        paths = changed

    baseline = None
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(f"repro-lint: no such baseline: {args.baseline}", file=sys.stderr)
            return 2
        try:
            baseline = load_baseline(baseline_path)
        except ValueError as exc:
            print(f"repro-lint: {exc}", file=sys.stderr)
            return 2

    run = run_lint(
        paths,
        config=config,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        use_cache=not args.no_cache,
    )

    violations = run.violations
    suppressed = 0
    if baseline is not None:
        violations, suppressed = apply_baseline(violations, baseline)

    if args.write_baseline is not None:
        write_baseline(violations, Path(args.write_baseline))
        print(
            f"repro-lint: wrote baseline with {len(violations)} violation(s) "
            f"to {args.write_baseline}",
            file=sys.stderr,
        )
        violations = []

    if args.format == "sarif":
        print(format_sarif(violations))
    elif args.format == "json":
        print(format_json(violations))
    else:
        print(format_text(violations))

    if args.stats:
        print(
            f"repro-lint: {run.files} file(s), {run.cache_hits} cache hit(s), "
            f"{run.cache_misses} miss(es), {run.duration_seconds:.3f}s"
            + (f", {suppressed} baselined" if suppressed else ""),
            file=sys.stderr,
        )

    for error in run.errors:
        print(
            f"repro-lint: {error.path}:{error.line}: {error.code} {error.message}",
            file=sys.stderr,
        )
    if run.errors:
        return 2
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
