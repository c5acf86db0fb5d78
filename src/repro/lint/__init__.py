"""repro-lint: repo-specific determinism and pickle-safety static analysis.

Every figure in this reproduction depends on an invariant the language does
not enforce: all randomness flows through named seeded streams
(:mod:`repro.eventsim.rng`), nothing in simulation code reads the wall
clock, iteration orders that feed simulation state are deterministic, and
everything that crosses the PR-1 process pool pickles faithfully.  This
package turns those conventions into machine-checked rules:

* **R001** — no unseeded randomness (module-level ``random.*`` calls,
  ``random.seed``, any ``numpy.random`` use); only explicitly seeded
  ``random.Random`` instances are allowed.
* **R002** — no wall-clock or other nondeterministic sources
  (``time.time``/``perf_counter``/…, ``datetime.now``, ``os.urandom``,
  ``uuid.uuid1/uuid4``, ``secrets``).
* **R003** — no order-sensitive iteration over bare ``set``/``frozenset``
  values without a deterministic ``sorted(...)`` wrapper.
* **R004** — no ``hash()``/``id()`` inside sort keys (salted/address-based
  values are not stable orderings).
* **R005** — pickle safety for objects crossing the process pool: no
  lambdas handed to the executor, and immutable ``__slots__`` classes with
  a blocking ``__setattr__`` must define explicit pickle support.
* **R006** — no ``time.sleep`` in library code: blocking on the real clock
  makes services untestable and nondeterministic; take an injectable
  sleeper/clock the way :mod:`repro.stream.service` does.
* **R007** — no ``copy.deepcopy`` in library code: it walks the object
  graph generically, aliases shared immutables unpredictably, and hides
  what state actually got captured; implement the explicit
  ``snapshot_state``/``restore_state`` protocol the way
  :mod:`repro.warmstart` does.

On top of the per-file rules, a whole-program pass builds a project index
(:mod:`repro.lint.index`) — per-module taint summaries and class attribute
models — cached on disk keyed by content hash, and runs two call-graph-aware
analyses over it:

* **R100** — flow-sensitive nondeterminism taint: a value derived from a
  wall clock, unseeded randomness, ``os.urandom``, ``uuid1/4``,
  ``id()``/``hash()`` or an unordered-set pick must not reach a
  determinism-critical sink (event scheduling, alarm evidence, checkpoint
  payloads, manifest records, ``snapshot_state`` outputs), even through
  any number of project-internal calls.
* **R101** — snapshot/restore completeness: every class implementing the
  ``snapshot_state``/``restore_state`` protocol must capture, restore, or
  explicitly waive (``_SNAPSHOT_WAIVED``) every instance attribute.

Violations are suppressed per line with ``# repro-lint: disable=R001`` (or
``disable=all``).  Run as ``python -m repro.lint src/repro`` or via the
``repro-lint`` console script; see ``docs/static-analysis.md``.
"""

from __future__ import annotations

from repro.lint.driver import (
    LintRun,
    lint_file,
    lint_paths,
    lint_source,
    run_lint,
)
from repro.lint.index import IndexCache, LintFileError, ModuleSummary, build_summary
from repro.lint.reporter import format_json, format_sarif, format_text
from repro.lint.rules import RULES, LintConfig, Violation
from repro.lint.snapshot import SnapshotCoverage, snapshot_coverage

__all__ = [
    "RULES",
    "IndexCache",
    "LintConfig",
    "LintFileError",
    "LintRun",
    "ModuleSummary",
    "SnapshotCoverage",
    "Violation",
    "build_summary",
    "format_json",
    "format_sarif",
    "format_text",
    "lint_file",
    "lint_paths",
    "lint_source",
    "run_lint",
    "snapshot_coverage",
]
