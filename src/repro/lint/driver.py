"""The lint driver: index construction, program rules, public entry points.

``run_lint`` is the full pipeline — expand paths, build (or load from the
incremental cache) one :class:`~repro.lint.index.ModuleSummary` per file,
replay the cached per-file violations, then run the whole-program analyses
(R100 taint, R101 snapshot completeness) over the summary set.
``lint_paths`` / ``lint_file`` / ``lint_source`` are the stable library
surface the tests and the meta-test use; they run the same pipeline without
a cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.lint.index import (
    IndexCache,
    LintFileError,
    ModuleSummary,
    build_summary,
    config_digest,
    default_cache_dir,
)
from repro.lint.rules import LintConfig, Violation, iter_python_files
from repro.lint.snapshot import check_snapshot_completeness
from repro.lint.taint import check_taint


@dataclass
class LintRun:
    """Everything one lint invocation produced."""

    violations: List[Violation] = field(default_factory=list)
    errors: List[LintFileError] = field(default_factory=list)
    summaries: Dict[str, ModuleSummary] = field(default_factory=dict)
    files: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    duration_seconds: float = 0.0


def build_index(
    files: Sequence[Path],
    config: LintConfig,
    cache: Optional[IndexCache] = None,
) -> LintRun:
    """Index every file, using/refreshing ``cache`` when given."""
    run = LintRun()
    digest = config_digest(config) if cache is not None else ""
    for file_path in files:
        run.files += 1
        path_str = str(file_path)
        try:
            content = file_path.read_bytes()
        except OSError as exc:
            run.errors.append(
                LintFileError(
                    path=path_str,
                    line=0,
                    message=f"cannot read file: {exc}",
                    code="E902",
                )
            )
            continue
        summary: Optional[ModuleSummary] = None
        key = ""
        if cache is not None:
            key = cache.key_for(path_str, content, digest)
            summary = cache.load(key)
        if summary is None:
            try:
                source = content.decode("utf-8")
            except UnicodeDecodeError as exc:
                run.errors.append(
                    LintFileError(
                        path=path_str,
                        line=0,
                        message=f"not valid UTF-8: {exc}",
                        code="E902",
                    )
                )
                continue
            try:
                summary = build_summary(path_str, source, config)
            except LintFileError as exc:
                run.errors.append(exc)
                continue
            if cache is not None:
                cache.store(key, summary)
        run.summaries[path_str] = summary
    if cache is not None:
        run.cache_hits = cache.hits
        run.cache_misses = cache.misses
    return run


def run_program_rules(
    summaries: Dict[str, ModuleSummary], config: LintConfig
) -> List[Violation]:
    """The whole-program analyses over an indexed summary set."""
    violations: List[Violation] = []
    violations.extend(check_taint(summaries, config))
    violations.extend(check_snapshot_completeness(summaries, config))
    return violations


def run_lint(
    paths: Iterable[Path],
    config: Optional[LintConfig] = None,
    cache_dir: Optional[Path] = None,
    use_cache: bool = False,
) -> LintRun:
    """Full pipeline over files/directories; the CLI's engine.

    With ``use_cache`` the per-file index is persisted under ``cache_dir``
    (default: :func:`~repro.lint.index.default_cache_dir`), making warm
    runs of an unchanged tree skip parsing entirely.
    """
    started = time.perf_counter()  # repro-lint: disable=R002
    cfg = config if config is not None else LintConfig()
    cache = None
    if use_cache:
        cache = IndexCache(cache_dir if cache_dir is not None else default_cache_dir())
    run = build_index(iter_python_files(paths), cfg, cache)
    for summary in run.summaries.values():
        run.violations.extend(
            v for v in summary.violations if cfg.enabled(v.rule)
        )
    run.violations.extend(run_program_rules(run.summaries, cfg))
    run.violations.sort()
    run.duration_seconds = time.perf_counter() - started  # repro-lint: disable=R002
    return run


# -- stable library surface ---------------------------------------------------


def lint_paths(
    paths: Iterable[Path], config: Optional[LintConfig] = None
) -> List[Violation]:
    """Lint every ``.py`` file under ``paths`` (files or directories).

    Runs the per-file rules *and* the whole-program analyses over the given
    set.  Unreadable or unparseable files surface as ``E9xx``
    pseudo-violations, keeping the historical list-of-violations contract.
    """
    run = run_lint(paths, config=config)
    return sorted(run.violations + [e.as_violation() for e in run.errors])


def lint_file(path: Path, config: Optional[LintConfig] = None) -> List[Violation]:
    """Lint one file (per-file rules plus single-module program rules)."""
    return lint_paths([path], config=config)


def lint_source(
    source: str, path: str = "<string>", config: Optional[LintConfig] = None
) -> List[Violation]:
    """Lint python ``source``; ``path`` scopes the path-pattern rules."""
    cfg = config if config is not None else LintConfig()
    try:
        summary = build_summary(path, source, cfg)
    except LintFileError as exc:
        return [exc.as_violation()]
    violations = [v for v in summary.violations if cfg.enabled(v.rule)]
    violations.extend(run_program_rules({path: summary}, cfg))
    return sorted(violations)
