"""The whole-program project index behind repro-lint.

Per-file pattern rules (R001-R008) see one AST at a time; the program rules
(R100 taint, R101 snapshot completeness) need a view of the *project*:
which functions call which and what instance attributes a class owns.
This module builds that view as one :class:`ModuleSummary` per file — a
small, pickleable digest of everything the program analyses consume:

* the per-file rule violations (computed once, filtered by ``--select`` at
  report time);
* a function table with **taint summaries**: for every function, the set of
  taint *atoms* its return value may carry and every determinism-critical
  sink it feeds (see :mod:`repro.lint.taint` for the lattice);
* a class attribute model: every ``self.x = ...`` instance attribute, what
  ``snapshot_state`` reads, what ``restore_state`` touches, and the class's
  explicit ``_SNAPSHOT_WAIVED`` waivers;
* the import map used to resolve call atoms across modules.

Summaries are cached on disk keyed by a content hash (source bytes + path +
extraction config + schema version), so a warm lint of an unchanged tree
never re-parses a file: it unpickles ~200 small digests and runs only the
cheap whole-program fixpoints.  A corrupted or stale cache entry is
self-healing — it is discarded and rebuilt, never trusted.
"""

from __future__ import annotations

import ast
import hashlib
import os
import pickle
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.fsio import fsync_dir
from repro.lint.rules import (
    RULES,
    LintConfig,
    Violation,
    _dotted,
    _parse_suppressions,
    _FileChecker,
    _DATETIME_FUNCS,
    _OS_FUNCS,
    _RANDOM_GLOBAL_FUNCS,
    _TIME_FUNCS,
    _UUID_FUNCS,
)

#: Bump when the summary shape or the extraction logic changes: every cache
#: entry written under another schema version silently misses.
SCHEMA_VERSION = 4

#: Taint atom prefixes.  A *direct* atom carries the human-readable source
#: description; a *call* atom carries the callee name as written, resolved
#: against the project symbol table during the global fixpoint.
DIRECT_ATOM = "!"
CALL_ATOM = "@"

#: Builtins that pass their arguments' taint through to their result.
_PASSTHROUGH_BUILTINS: FrozenSet[str] = frozenset(
    {
        "abs",
        "dict",
        "enumerate",
        "float",
        "format",
        "frozenset",
        "int",
        "len",
        "list",
        "max",
        "min",
        "repr",
        "reversed",
        "round",
        "set",
        "sorted",
        "str",
        "sum",
        "tuple",
        "zip",
    }
)


class LintFileError(Exception):
    """A file repro-lint could not analyse at all.

    Raised for unreadable files, non-UTF-8 bytes and syntax errors.  The
    CLI reports these as diagnostics and exits 2; the library surfaces them
    both as exceptions (from :func:`build_summary`) and as ``E9xx``
    pseudo-violations (from the driver) so existing callers keep working.
    """

    def __init__(self, path: str, line: int, message: str, code: str) -> None:
        super().__init__(f"{path}:{line}: {code} {message}")
        self.path = path
        self.line = line
        self.message = message
        self.code = code

    def as_violation(self) -> Violation:
        return Violation(
            path=self.path, line=self.line, col=0, rule=self.code, message=self.message
        )


@dataclass(frozen=True)
class SinkHit:
    """One determinism-critical sink call site inside a function."""

    line: int
    col: int
    label: str
    atoms: Tuple[str, ...]


@dataclass(frozen=True)
class FunctionInfo:
    """Taint summary for one function or method."""

    qualname: str  # "func" or "Class.method"
    class_name: Optional[str]
    lineno: int
    returns: Tuple[str, ...]  # taint atoms the return value may carry
    sinks: Tuple[SinkHit, ...]


@dataclass(frozen=True)
class ClassInfo:
    """Attribute model for one class (the R101 substrate)."""

    name: str
    lineno: int
    #: instance attribute -> line of its first ``self.x = ...`` assignment
    attrs: Tuple[Tuple[str, int], ...]
    waived: Tuple[str, ...]
    waiver_line: Optional[int]
    has_snapshot: bool
    snapshot_line: int
    has_restore: bool
    restore_line: int
    snapshot_reads: Tuple[str, ...]
    restore_touches: Tuple[str, ...]
    methods: Tuple[str, ...]


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the whole-program analyses need from one file."""

    path: str
    module: str
    sha256: str
    violations: Tuple[Violation, ...]  # per-file rules, full select
    suppressions: Mapping[int, FrozenSet[str]]
    functions: Mapping[str, FunctionInfo]
    classes: Mapping[str, ClassInfo]
    imports: Mapping[str, str]


def module_name_for(path: str) -> str:
    """Dotted module name for a source path.

    ``.../src/repro/core/checker.py`` -> ``repro.core.checker``; files
    outside a ``src`` root (test fixtures) fall back to their stem.
    """
    parts = list(Path(path).with_suffix("").parts)
    if "src" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("src"):][1:]
    elif "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else Path(path).stem


# ---------------------------------------------------------------------------
# import / nondeterminism-source tracking
# ---------------------------------------------------------------------------


@dataclass
class _Aliases:
    """Names under which nondeterminism-bearing modules are visible."""

    random: Set[str] = field(default_factory=set)
    numpy: Set[str] = field(default_factory=set)
    time: Set[str] = field(default_factory=set)
    os: Set[str] = field(default_factory=set)
    uuid: Set[str] = field(default_factory=set)
    secrets: Set[str] = field(default_factory=set)
    datetime_mod: Set[str] = field(default_factory=set)
    datetime_cls: Set[str] = field(default_factory=set)
    direct: Dict[str, str] = field(default_factory=dict)  # name -> description


def _collect_imports(
    tree: ast.Module, module: str
) -> Tuple[Dict[str, str], _Aliases]:
    """Build the local-name -> dotted-target map and the nondet alias sets."""
    imports: Dict[str, str] = {}
    aliases = _Aliases()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                imports[bound] = target
                root = alias.name.split(".", 1)[0]
                if root == "random":
                    aliases.random.add(bound)
                elif root == "numpy":
                    aliases.numpy.add(bound)
                elif root == "time":
                    aliases.time.add(bound)
                elif root == "os":
                    aliases.os.add(bound)
                elif root == "uuid":
                    aliases.uuid.add(bound)
                elif root == "secrets":
                    aliases.secrets.add(bound)
                elif root == "datetime":
                    aliases.datetime_mod.add(bound)
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level:
                # Relative import: resolve against the module's package.
                base_parts = module.split(".")
                # level=1 is the current package (strip the module name).
                base_parts = base_parts[: len(base_parts) - node.level]
                prefix = ".".join(base_parts)
                mod = f"{prefix}.{mod}" if mod and prefix else (prefix or mod)
            for alias in node.names:
                bound = alias.asname or alias.name
                imports[bound] = f"{mod}.{alias.name}" if mod else alias.name
                if mod == "random" and alias.name in _RANDOM_GLOBAL_FUNCS:
                    aliases.direct[bound] = f"random.{alias.name}() (unseeded)"
                elif mod == "time" and alias.name in _TIME_FUNCS:
                    aliases.direct[bound] = f"time.{alias.name}() (wall clock)"
                elif mod == "os" and alias.name in _OS_FUNCS:
                    aliases.direct[bound] = f"os.{alias.name}()"
                elif mod == "uuid" and alias.name in _UUID_FUNCS:
                    aliases.direct[bound] = f"uuid.{alias.name}()"
                elif mod == "secrets":
                    aliases.direct[bound] = f"secrets.{alias.name}()"
                elif mod == "datetime" and alias.name in {"datetime", "date"}:
                    aliases.datetime_cls.add(bound)
    return imports, aliases


def _source_description(dotted: str, aliases: _Aliases) -> Optional[str]:
    """Human description if calling ``dotted`` yields a nondeterministic
    value; None otherwise."""
    head, _, rest = dotted.partition(".")
    if not rest:
        if head in aliases.direct:
            return aliases.direct[head]
        if head == "id":
            return "id() (process address)"
        if head == "hash":
            return "hash() (salted per process)"
        return None
    first = rest.split(".", 1)[0]
    if head in aliases.time and first in _TIME_FUNCS:
        return f"time.{first}() (wall clock)"
    if head in aliases.random and (
        first in _RANDOM_GLOBAL_FUNCS or first == "SystemRandom"
    ):
        return f"random.{first} (unseeded)"
    if head in aliases.numpy and first == "random":
        return "numpy.random (unseeded)"
    if head in aliases.os and first in _OS_FUNCS:
        return f"os.{first}()"
    if head in aliases.uuid and first in _UUID_FUNCS:
        return f"uuid.{first}()"
    if head in aliases.secrets:
        return f"secrets.{first}()"
    parts = dotted.split(".")
    if len(parts) >= 2 and parts[-1] in _DATETIME_FUNCS:
        base = parts[-2]
        if base in {"datetime", "date"} and (
            parts[0] in aliases.datetime_mod or parts[0] in aliases.datetime_cls
        ):
            return f"{base}.{parts[-1]}() (wall clock)"
    return None


# ---------------------------------------------------------------------------
# intraprocedural taint extraction
# ---------------------------------------------------------------------------


class _FunctionTaint:
    """Flow-sensitive, path-insensitive taint pass over one function body.

    Variables map to sets of atoms.  The body is executed twice so taint
    carried around a loop back-edge reaches its consumers; branch joins are
    unions.  Sinks record their argument atoms conditionally — whether a
    ``call`` atom is actually tainted is decided by the global fixpoint in
    :mod:`repro.lint.taint`.
    """

    def __init__(
        self,
        aliases: _Aliases,
        suppressions: Mapping[int, FrozenSet[str]],
        config: LintConfig,
        is_snapshot_fn: bool,
    ) -> None:
        self._aliases = aliases
        self._suppressions = suppressions
        self._config = config
        self._is_snapshot_fn = is_snapshot_fn
        self._env: Dict[str, FrozenSet[str]] = {}
        self.returns: Set[str] = set()
        self._sinks: Dict[Tuple[int, int, str], Set[str]] = {}

    # -- public ----------------------------------------------------------

    def run(self, body: Sequence[ast.stmt]) -> Tuple[Tuple[str, ...], Tuple[SinkHit, ...]]:
        for _ in range(2):  # second pass closes loop back-edges
            self._exec_block(body)
        sinks = tuple(
            SinkHit(line=line, col=col, label=label, atoms=tuple(sorted(atoms)))
            for (line, col, label), atoms in sorted(self._sinks.items())
            if atoms
        )
        return tuple(sorted(self.returns)), sinks

    # -- helpers ---------------------------------------------------------

    def _source_suppressed(self, node: ast.AST) -> bool:
        line = getattr(node, "lineno", 0)
        rules = self._suppressions.get(line, frozenset())
        return bool(rules & {"R100", "R001", "R002", "ALL"})

    def _bind(self, target: ast.expr, atoms: FrozenSet[str]) -> None:
        if isinstance(target, ast.Name):
            self._env[target.id] = atoms
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ) and target.value.id == "self":
            self._env[f"self.{target.attr}"] = atoms
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, atoms)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, atoms)

    # -- expression atoms -------------------------------------------------

    def _atoms(self, node: Optional[ast.expr]) -> FrozenSet[str]:
        if node is None or isinstance(node, (ast.Constant, ast.Lambda)):
            return frozenset()
        if isinstance(node, ast.Name):
            return self._env.get(node.id, frozenset())
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return self._env.get(f"self.{node.attr}", frozenset())
            return self._atoms(node.value)
        if isinstance(node, ast.Call):
            return self._call_atoms(node)
        if isinstance(node, ast.NamedExpr):
            atoms = self._atoms(node.value)
            self._bind(node.target, atoms)
            return atoms
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._comp_atoms(node.generators, [node.elt])
        if isinstance(node, ast.DictComp):
            return self._comp_atoms(node.generators, [node.key, node.value])
        # Generic structural union: BinOp, BoolOp, Compare, Subscript,
        # JoinedStr, Tuple, List, Set, Dict, IfExp, Starred, UnaryOp, ...
        atoms: Set[str] = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                atoms |= self._atoms(child)
        return frozenset(atoms)

    def _comp_atoms(
        self, generators: Sequence[ast.comprehension], values: Sequence[ast.expr]
    ) -> FrozenSet[str]:
        atoms: Set[str] = set()
        for gen in generators:
            iter_atoms = self._atoms(gen.iter)
            self._bind(gen.target, iter_atoms)
            atoms |= iter_atoms
        for value in values:
            atoms |= self._atoms(value)
        return frozenset(atoms)

    def _call_atoms(self, node: ast.Call) -> FrozenSet[str]:
        func = node.func
        dotted = _dotted(func)
        arg_atoms: Set[str] = set()
        for arg in node.args:
            arg_atoms |= self._atoms(arg)
        for keyword in node.keywords:
            arg_atoms |= self._atoms(keyword.value)

        self._check_sink(node, dotted, frozenset(arg_atoms))

        # next(iter({...})) / next(iter(set(...))): first element of an
        # unordered set — nondeterministic even though no R003 loop exists.
        if (
            isinstance(func, ast.Name)
            and func.id == "next"
            and node.args
            and isinstance(node.args[0], ast.Call)
        ):
            inner = node.args[0]
            if (
                isinstance(inner.func, ast.Name)
                and inner.func.id == "iter"
                and inner.args
                and self._is_obvious_set(inner.args[0])
                and not self._source_suppressed(node)
            ):
                return frozenset(
                    {f"{DIRECT_ATOM}next(iter(<set>)) (unordered set element)"}
                ) | frozenset(arg_atoms)

        if dotted is not None:
            description = _source_description(dotted, self._aliases)
            if description is not None:
                if self._source_suppressed(node):
                    # The suppression is the human assertion that this
                    # nondeterminism is managed (masked timing field,
                    # injectable clock default, ...): it does not taint.
                    return frozenset()
                return frozenset({f"{DIRECT_ATOM}{description}"})

        result: Set[str] = set()
        if isinstance(func, ast.Name):
            if func.id in _PASSTHROUGH_BUILTINS:
                return frozenset(arg_atoms)
            if dotted is not None:
                result.add(f"{CALL_ATOM}{dotted}")
        elif isinstance(func, ast.Attribute):
            # A method of a tainted object yields a tainted value
            # (tainted.strftime(...), tainted_dict.items(), ...).
            result |= self._atoms(func.value)
            if dotted is not None:
                result.add(f"{CALL_ATOM}{dotted}")
        return frozenset(result)

    @staticmethod
    def _is_obvious_set(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"set", "frozenset"}
        )

    def _check_sink(
        self, node: ast.Call, dotted: Optional[str], arg_atoms: FrozenSet[str]
    ) -> None:
        if not arg_atoms:
            return
        label: Optional[str] = None
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in self._config.taint_sink_methods:
                label = f"{func.attr}()"
        if label is None and dotted is not None:
            tail = dotted.rsplit(".", 1)[-1]
            if tail in self._config.taint_sink_constructors:
                label = f"{tail}(...)"
            elif tail in self._config.taint_sink_methods and not isinstance(
                func, ast.Attribute
            ):
                label = f"{tail}()"
        if label is None:
            return
        key = (node.lineno, node.col_offset, label)
        self._sinks.setdefault(key, set()).update(arg_atoms)

    # -- statements -------------------------------------------------------

    def _exec_block(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._exec_stmt(stmt)

    def _exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            atoms = self._atoms(stmt.value)
            for target in stmt.targets:
                self._bind(target, atoms)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._atoms(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            atoms = self._atoms(stmt.value)
            if isinstance(stmt.target, ast.Name):
                atoms |= self._env.get(stmt.target.id, frozenset())
            self._bind(stmt.target, atoms)
        elif isinstance(stmt, ast.Return):
            atoms = self._atoms(stmt.value)
            self.returns |= atoms
            if self._is_snapshot_fn and atoms:
                key = (stmt.lineno, stmt.col_offset, "snapshot_state payload")
                self._sinks.setdefault(key, set()).update(atoms)
        elif isinstance(stmt, ast.Expr):
            self._atoms(stmt.value)
        elif isinstance(stmt, ast.If):
            self._atoms(stmt.test)
            before = dict(self._env)
            self._exec_block(stmt.body)
            after_body = self._env
            self._env = dict(before)
            self._exec_block(stmt.orelse)
            self._merge_env(after_body)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self._atoms(stmt.iter))
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._atoms(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                atoms = self._atoms(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, atoms)
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._atoms(child)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self._env.pop(target.id, None)
        # Nested FunctionDef / ClassDef bodies are separate scopes: skipped.

    def _merge_env(self, other: Mapping[str, FrozenSet[str]]) -> None:
        for name, atoms in other.items():
            self._env[name] = self._env.get(name, frozenset()) | atoms


# ---------------------------------------------------------------------------
# class attribute model (R101 substrate)
# ---------------------------------------------------------------------------


def _self_attr_target(node: ast.expr) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _collect_class_info(node: ast.ClassDef, config: LintConfig) -> ClassInfo:
    attrs: Dict[str, int] = {}
    waived: List[str] = []
    waiver_line: Optional[int] = None
    snapshot_reads: Set[str] = set()
    restore_touches: Set[str] = set()
    has_snapshot = False
    has_restore = False
    snapshot_line = 0
    restore_line = 0
    methods: List[str] = []

    for stmt in node.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            value = stmt.value
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == config.snapshot_waiver_name
                    and value is not None
                ):
                    waiver_line = stmt.lineno
                    waived = _literal_string_collection(value)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.append(stmt.name)
            if stmt.name == "snapshot_state":
                has_snapshot = True
                snapshot_line = stmt.lineno
                for inner in ast.walk(stmt):
                    attr = _self_attr_target(inner) if isinstance(inner, ast.expr) else None
                    if attr is not None:
                        snapshot_reads.add(attr)
                continue
            if stmt.name == "restore_state":
                has_restore = True
                restore_line = stmt.lineno
                for inner in ast.walk(stmt):
                    attr = _self_attr_target(inner) if isinstance(inner, ast.expr) else None
                    if attr is not None:
                        restore_touches.add(attr)
                continue
            for inner in ast.walk(stmt):
                if isinstance(inner, ast.Assign):
                    for target in inner.targets:
                        _record_attr_targets(target, inner.lineno, attrs)
                elif isinstance(inner, (ast.AnnAssign, ast.AugAssign)):
                    _record_attr_targets(inner.target, inner.lineno, attrs)

    return ClassInfo(
        name=node.name,
        lineno=node.lineno,
        attrs=tuple(sorted(attrs.items())),
        waived=tuple(sorted(set(waived))),
        waiver_line=waiver_line,
        has_snapshot=has_snapshot,
        snapshot_line=snapshot_line,
        has_restore=has_restore,
        restore_line=restore_line,
        snapshot_reads=tuple(sorted(snapshot_reads)),
        restore_touches=tuple(sorted(restore_touches)),
        methods=tuple(sorted(methods)),
    )


def _record_attr_targets(
    target: ast.expr, lineno: int, attrs: Dict[str, int]
) -> None:
    attr = _self_attr_target(target)
    if attr is not None:
        if attr not in attrs:
            attrs[attr] = lineno
        return
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _record_attr_targets(element, lineno, attrs)


def _literal_string_collection(node: ast.expr) -> List[str]:
    """Strings in ``frozenset({"a", "b"})`` / ``("a", "b")`` / ``{"a"}``."""
    if isinstance(node, ast.Call) and node.args:
        return _literal_string_collection(node.args[0])
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        out: List[str] = []
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                out.append(element.value)
        return out
    return []


# ---------------------------------------------------------------------------
# summary construction
# ---------------------------------------------------------------------------


def build_summary(path: str, source: str, config: LintConfig) -> ModuleSummary:
    """Parse ``source`` and extract its :class:`ModuleSummary`.

    Raises :class:`LintFileError` on a syntax error; IO concerns live with
    the caller.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintFileError(
            path=path,
            line=exc.lineno if exc.lineno is not None else 0,
            message=f"syntax error: {exc.msg}",
            code="E999",
        ) from None
    except (ValueError, RecursionError) as exc:
        raise LintFileError(
            path=path, line=0, message=f"cannot parse: {exc}", code="E999"
        ) from None

    module = module_name_for(path)
    suppressions = _parse_suppressions(source)

    # Per-file rules run with every rule enabled; ``--select`` filters at
    # report time so the cached summary is select-independent.
    file_config = replace(config, select=frozenset(RULES))
    checker = _FileChecker(path, source, file_config)
    checker.visit(tree)

    imports, aliases = _collect_imports(tree, module)

    functions: Dict[str, FunctionInfo] = {}
    classes: Dict[str, ClassInfo] = {}
    flat: List[Tuple[Optional[str], ast.AST]] = []

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            flat.append((None, stmt))
        elif isinstance(stmt, ast.ClassDef):
            classes[stmt.name] = _collect_class_info(stmt, config)
            for inner in stmt.body:
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    flat.append((stmt.name, inner))

    for class_name, node in flat:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        qualname = f"{class_name}.{node.name}" if class_name else node.name
        taint = _FunctionTaint(
            aliases=aliases,
            suppressions=suppressions,
            config=config,
            is_snapshot_fn=node.name == "snapshot_state",
        )
        returns, sinks = taint.run(node.body)
        functions[qualname] = FunctionInfo(
            qualname=qualname,
            class_name=class_name,
            lineno=node.lineno,
            returns=returns,
            sinks=sinks,
        )

    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    return ModuleSummary(
        path=path,
        module=module,
        sha256=digest,
        violations=tuple(sorted(checker.violations)),
        suppressions=dict(suppressions),
        functions=functions,
        classes=classes,
        imports=imports,
    )


# ---------------------------------------------------------------------------
# the incremental on-disk cache
# ---------------------------------------------------------------------------


def default_cache_dir() -> Path:
    """Resolve the cache directory: ``REPRO_LINT_CACHE`` wins, then
    ``~/.cache/repro-lint``."""
    override = os.environ.get("REPRO_LINT_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-lint"


def config_digest(config: LintConfig) -> str:
    """Digest of every config field that affects summary extraction.

    ``select`` is deliberately excluded: summaries are select-independent,
    so switching ``--select`` never invalidates the cache.
    """
    fields = (
        SCHEMA_VERSION,
        config.spec_modules,
        config.pool_functions,
        config.hot_path_modules,
        config.taint_sink_methods,
        config.taint_sink_constructors,
        config.snapshot_waiver_name,
    )
    return hashlib.sha256(repr(fields).encode("utf-8")).hexdigest()


class IndexCache:
    """Content-hash-keyed pickle store of :class:`ModuleSummary` objects.

    The key covers the file's bytes, its path and the extraction config, so
    any edit — or any rule change that bumps :data:`SCHEMA_VERSION` —
    misses cleanly.  Corrupt entries (truncated writes, foreign bytes,
    schema drift) are deleted and rebuilt: the cache can only ever cost a
    re-parse, never a wrong answer.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.hits = 0
        self.misses = 0

    def key_for(self, path: str, content: bytes, cfg_digest: str) -> str:
        hasher = hashlib.sha256()
        hasher.update(cfg_digest.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(os.path.abspath(path).encode("utf-8", "surrogateescape"))
        hasher.update(b"\x00")
        hasher.update(content)
        return hasher.hexdigest()

    def _entry(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def load(self, key: str) -> Optional[ModuleSummary]:
        entry = self._entry(key)
        try:
            raw = entry.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            summary = pickle.loads(raw)
        except Exception:  # corrupted entry: self-heal by discarding it
            try:
                entry.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        if not isinstance(summary, ModuleSummary):
            try:
                entry.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def store(self, key: str, summary: ModuleSummary) -> None:
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            entry = self._entry(key)
            tmp = entry.with_name(f".{entry.name}.{os.getpid()}.tmp")
            tmp.write_bytes(pickle.dumps(summary, protocol=pickle.HIGHEST_PROTOCOL))
            os.replace(tmp, entry)
            # The rename itself is not durable until the directory is
            # fsynced (ext4/xfs); a crash could otherwise lose the entry.
            fsync_dir(self.directory)
        except OSError:
            # A read-only or full cache directory degrades to cold linting.
            pass
