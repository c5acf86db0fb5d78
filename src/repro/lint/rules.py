"""The AST checker behind repro-lint.

One :class:`_FileChecker` pass per file implements rules R001-R007 (see
:data:`RULES`).  The checker is deliberately repo-specific: it knows the
project's seeded-stream discipline, which callables fan work out to the
process pool, and which modules hold the immutable value classes that cross
it.  It is *not* a general-purpose linter — precision over recall, so that
``src/repro`` staying clean is a meaningful guarantee rather than a
suppression festival.
"""

from __future__ import annotations

import ast
import fnmatch
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

#: Rule id -> one-line description (the catalogue printed by --list-rules).
RULES: Dict[str, str] = {
    "R001": "unseeded randomness: module-level random.* call, random.seed, "
    "or numpy.random use (seed an explicit random.Random instead)",
    "R002": "nondeterministic source: wall clock, os.urandom, uuid1/uuid4 "
    "or secrets in simulation code",
    "R003": "order-sensitive iteration over a bare set/frozenset without "
    "sorted(...)",
    "R004": "hash()/id() used inside a sort key (salted / address-based "
    "values are not stable orderings)",
    "R005": "pickle-unsafe object may cross the process pool (lambda given "
    "to the executor, or immutable __slots__ class without __reduce__/"
    "__getstate__)",
    "R006": "time.sleep in library code (blocks on the real clock; take an "
    "injectable sleeper/clock the way repro.stream.service does)",
    "R007": "copy.deepcopy in library code (walks the object graph "
    "generically and aliases shared immutables unpredictably; implement the "
    "explicit snapshot_state/restore_state protocol the way repro.warmstart "
    "does)",
    "R008": "bare PathAttributes(...)/AsPath(...) construction in a BGP "
    "hot-path module bypasses the route intern table; wrap the call in "
    "interner.attributes(...)/interner.as_path(...) so equal routes share "
    "one object",
    "R009": "cross-shard ordering hazard in a sharded module: id() (a "
    "process-local address, meaningless across shard boundaries), a direct "
    "call into a speaker delivery handler (cross-shard traffic must ride "
    "the mailbox: BoundaryLink.send -> enqueue_inbound/schedule_remote), or "
    "unordered set consumption inside a mailbox merge/drain path (even "
    "reductions must see a sorted sequence — float sums are "
    "order-dependent)",
    "R100": "nondeterminism taint: a value originating from a wall clock, "
    "unseeded randomness, os.urandom, uuid, id()/hash() or unordered set "
    "access flows (possibly through calls) into a determinism-critical "
    "sink: event scheduling, alarm evidence, checkpoint/manifest payloads "
    "or snapshot_state output",
    "R101": "snapshot completeness: a class implementing snapshot_state/"
    "restore_state has an instance attribute that is neither captured, "
    "restored, nor explicitly waived in _SNAPSHOT_WAIVED — adding a field "
    "must never silently break warm-start or checkpoint resume",
}

#: ``random`` module functions that draw from the implicit global state.
_RANDOM_GLOBAL_FUNCS: FrozenSet[str] = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: ``time`` module functions that read real clocks.
_TIME_FUNCS: FrozenSet[str] = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)

_OS_FUNCS: FrozenSet[str] = frozenset({"urandom", "getrandom"})
_UUID_FUNCS: FrozenSet[str] = frozenset({"uuid1", "uuid4"})
_DATETIME_FUNCS: FrozenSet[str] = frozenset({"now", "utcnow", "today"})

#: Reducers whose result does not depend on iteration order, so a generator
#: expression over a set fed straight into them is deterministic.
_ORDER_INSENSITIVE_CONSUMERS: FrozenSet[str] = frozenset(
    {"any", "all", "sum", "min", "max", "len", "sorted", "set", "frozenset"}
)

#: Names treated as set-typed in annotations.
_SET_ANNOTATIONS: FrozenSet[str] = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)

#: Set methods returning another set.
_SET_RETURNING_METHODS: FrozenSet[str] = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

#: Dunder names any of which count as explicit pickle support (R005).
_PICKLE_SUPPORT: FrozenSet[str] = frozenset(
    {
        "__reduce__",
        "__reduce_ex__",
        "__getstate__",
        "__getnewargs__",
        "__getnewargs_ex__",
    }
)

#: Classes whose bare construction R008 flags in hot-path modules.
_INTERNABLE_CLASSES: FrozenSet[str] = frozenset({"PathAttributes", "AsPath"})

#: Interner methods whose direct argument may be a bare construction —
#: ``interner.attributes(PathAttributes(...))`` is the blessed idiom.
_INTERNER_METHODS: FrozenSet[str] = frozenset({"attributes", "as_path"})

#: Speaker entry points R009 forbids calling directly from sharded modules:
#: delivering an UPDATE by hand skips the order keys the mailbox assigns.
_DIRECT_DELIVERY_METHODS: FrozenSet[str] = frozenset(
    {"handle_update", "handle_wire"}
)

#: Function names that constitute a mailbox merge/drain path (R009): where
#: per-shard streams are combined, every input must arrive in key order.
_MERGE_PATH_RE = re.compile(
    r"merge|drain|mail|inbound|deliver|absorb", re.IGNORECASE
)

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True, order=True)
class Violation:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class LintConfig:
    """What to check.

    ``select`` limits the enabled rules (default: all).  ``spec_modules``
    are fnmatch patterns (matched against the path with ``/`` separators)
    naming modules whose classes cross the PR-1 process pool and therefore
    get the R005 class-level pickle check; the R005 lambda check and rules
    R001-R004 apply everywhere.  ``pool_functions`` are callables that fan
    their function argument out to worker processes.
    """

    select: FrozenSet[str] = frozenset(RULES)
    spec_modules: Tuple[str, ...] = (
        "*/net/addresses.py",
        "*/net/asn.py",
        "*/bgp/attributes.py",
        "*/core/moas_list.py",
        "*/attack/models.py",
        "*/topology/asgraph.py",
        "*/experiments/runner.py",
        "*/experiments/sweep.py",
    )
    pool_functions: Tuple[str, ...] = ("parallel_map", "execute_scenarios")
    #: Modules on the per-event hot path, where every route object must
    #: come out of the intern table (R008).  ``attributes.py`` (defines
    #: the classes), ``interning.py`` (is the table) and batch utilities
    #: like aggregation are deliberately not listed.
    hot_path_modules: Tuple[str, ...] = (
        "*/bgp/speaker.py",
        "*/bgp/session.py",
        "*/bgp/rib.py",
        "*/bgp/network.py",
        "*/bgp/messages.py",
    )
    #: Modules implementing the sharded simulator, where bit-identity with
    #: the serial engine rests on explicit order keys (R009): no id(), no
    #: hand-delivered UPDATEs, no unordered set consumption in merge paths.
    sharded_modules: Tuple[str, ...] = (
        "*/eventsim/sharded.py",
        "*/bgp/shardnet.py",
        "*/experiments/sharded_run.py",
    )
    #: Methods whose arguments are determinism-critical sinks for R100:
    #: event scheduling keys, alarm evidence, checkpoint payloads, and the
    #: query index's durable segment/manifest documents.
    taint_sink_methods: Tuple[str, ...] = (
        "schedule_at",
        "schedule_after",
        "raise_alarm",
        "record_alarm",
        "_record_alarm",
        "write_checkpoint",
        "save_checkpoint",
        "assemble_segment",
        "write_segment",
        "write_manifest",
    )
    #: Constructors whose arguments become durable evidence/payloads (R100).
    taint_sink_constructors: Tuple[str, ...] = (
        "Alarm",
        "StreamAlarm",
        "Event",
        "Checkpoint",
        "ManifestRecord",
    )
    #: Class attribute declaring snapshot-protocol waivers (R101).
    snapshot_waiver_name: str = "_SNAPSHOT_WAIVED"

    def enabled(self, rule: str) -> bool:
        return rule in self.select

    def is_spec_module(self, path: str) -> bool:
        normalised = path.replace("\\", "/")
        return any(fnmatch.fnmatch(normalised, pat) for pat in self.spec_modules)

    def is_hot_path_module(self, path: str) -> bool:
        normalised = path.replace("\\", "/")
        return any(
            fnmatch.fnmatch(normalised, pat) for pat in self.hot_path_modules
        )

    def is_sharded_module(self, path: str) -> bool:
        normalised = path.replace("\\", "/")
        return any(
            fnmatch.fnmatch(normalised, pat) for pat in self.sharded_modules
        )


def _parse_suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> rule ids suppressed on that line."""
    suppressions: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        rules = frozenset(
            part.strip().upper()
            for part in match.group(1).split(",")
            if part.strip()
        )
        suppressions[lineno] = rules
    return suppressions


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` as a string for Name/Attribute chains, else None."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


@dataclass
class _Scope:
    """One lexical scope's statically inferred set-typed names."""

    set_names: Set[str] = field(default_factory=set)


class _FileChecker(ast.NodeVisitor):
    """Single-pass AST visitor accumulating violations for one file."""

    def __init__(self, path: str, source: str, config: LintConfig) -> None:
        self.path = path
        self.config = config
        self.suppressions = _parse_suppressions(source)
        self.violations: List[Violation] = []
        # Aliases under which nondeterminism-bearing modules are imported.
        self._random_aliases: Set[str] = set()
        self._numpy_aliases: Set[str] = set()
        self._time_aliases: Set[str] = set()
        self._os_aliases: Set[str] = set()
        self._uuid_aliases: Set[str] = set()
        self._secrets_aliases: Set[str] = set()
        self._datetime_module_aliases: Set[str] = set()
        self._copy_aliases: Set[str] = set()
        # Names bound by ``from copy import deepcopy`` (R007 on call sites).
        self._deepcopy_names: Set[str] = set()
        # Names bound by ``from datetime import datetime/date``.
        self._datetime_class_names: Set[str] = set()
        # Names of bad functions imported directly (``from time import time``),
        # mapped to (dotted name, rule id) since time.sleep reports as R006
        # while the clock reads report as R002.
        self._direct_bad_calls: Dict[str, Tuple[str, str]] = {}
        self._scopes: List[_Scope] = [_Scope()]
        # Generator expressions already cleared as order-insensitive sinks.
        self._exempt_generators: Set[int] = set()
        # Constructor calls cleared because they feed the interner (R008).
        self._interned_constructions: Set[int] = set()
        self._hot_path = config.is_hot_path_module(path)
        self._sharded = config.is_sharded_module(path)
        # Nesting depth of merge/drain-path functions (R009 set checks).
        self._merge_depth = 0
        self._class_depth = 0

    # -- bookkeeping -------------------------------------------------------

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        if not self.config.enabled(rule):
            return
        lineno = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        suppressed = self.suppressions.get(lineno, frozenset())
        if rule in suppressed or "ALL" in suppressed:
            return
        self.violations.append(
            Violation(path=self.path, line=lineno, col=col, rule=rule, message=message)
        )

    @property
    def _scope(self) -> _Scope:
        return self._scopes[-1]

    def _is_set_name(self, name: str) -> bool:
        return any(name in scope.set_names for scope in reversed(self._scopes))

    # -- set-typed inference (R003) ----------------------------------------

    def _is_set_annotation(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Subscript):
            return self._is_set_annotation(node.value)
        if isinstance(node, ast.Name):
            return node.id in _SET_ANNOTATIONS
        if isinstance(node, ast.Attribute):
            return node.attr in _SET_ANNOTATIONS
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                return False
            return self._is_set_annotation(parsed.body)
        return False

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return self._is_set_name(node.id)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_RETURNING_METHODS
                and self._is_set_expr(func.value)
            ):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "setdefault"
                and len(node.args) == 2
                and self._is_set_expr(node.args[1])
            ):
                # dict.setdefault(key, set()) hands back the set.
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.IfExp):
            return self._is_set_expr(node.body) and self._is_set_expr(node.orelse)
        return False

    def _bind_target(self, target: ast.expr, is_set: bool) -> None:
        if isinstance(target, ast.Name):
            if is_set:
                self._scope.set_names.add(target.id)
            else:
                self._scope.set_names.discard(target.id)

    # -- imports (R001 / R002 alias tracking) ------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".", 1)[0]
            if alias.name == "random":
                self._random_aliases.add(bound)
            elif alias.name in {"numpy", "numpy.random"}:
                self._numpy_aliases.add(bound)
                if alias.name == "numpy.random":
                    self._report(
                        node, "R001", "import of numpy.random (unseeded global state)"
                    )
            elif alias.name == "time":
                self._time_aliases.add(bound)
            elif alias.name == "os":
                self._os_aliases.add(bound)
            elif alias.name == "uuid":
                self._uuid_aliases.add(bound)
            elif alias.name == "secrets":
                self._secrets_aliases.add(bound)
                self._report(node, "R002", "import of secrets (nondeterministic)")
            elif alias.name == "datetime":
                self._datetime_module_aliases.add(bound)
            elif alias.name == "copy":
                self._copy_aliases.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            bound = alias.asname or alias.name
            if module == "random" and alias.name in _RANDOM_GLOBAL_FUNCS:
                self._report(
                    node,
                    "R001",
                    f"from random import {alias.name} draws from the unseeded "
                    "global generator",
                )
            elif module == "numpy" and alias.name == "random":
                self._report(
                    node, "R001", "from numpy import random (unseeded global state)"
                )
            elif module.startswith("numpy.random"):
                self._report(
                    node, "R001", "import from numpy.random (unseeded global state)"
                )
            elif module == "time" and alias.name in _TIME_FUNCS:
                self._direct_bad_calls[bound] = (f"time.{alias.name}", "R002")
            elif module == "time" and alias.name == "sleep":
                self._direct_bad_calls[bound] = ("time.sleep", "R006")
            elif module == "os" and alias.name in _OS_FUNCS:
                self._direct_bad_calls[bound] = (f"os.{alias.name}", "R002")
            elif module == "uuid" and alias.name in _UUID_FUNCS:
                self._direct_bad_calls[bound] = (f"uuid.{alias.name}", "R002")
            elif module == "secrets":
                self._report(node, "R002", "import from secrets (nondeterministic)")
            elif module == "datetime" and alias.name in {"datetime", "date"}:
                self._datetime_class_names.add(bound)
            elif module == "copy" and alias.name == "deepcopy":
                self._deepcopy_names.add(bound)
                self._report(
                    node,
                    "R007",
                    "from copy import deepcopy; state capture must go through "
                    "the explicit snapshot_state/restore_state protocol",
                )
        self.generic_visit(node)

    # -- scopes ------------------------------------------------------------

    def _visit_function(self, node: ast.AST, args: ast.arguments) -> None:
        self._scopes.append(_Scope())
        all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for arg in all_args:
            if arg.annotation is not None and self._is_set_annotation(arg.annotation):
                self._scope.set_names.add(arg.arg)
        self.generic_visit(node)
        self._scopes.pop()

    def _visit_named_function(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef", name: str
    ) -> None:
        merge_path = self._sharded and bool(_MERGE_PATH_RE.search(name))
        if merge_path:
            self._merge_depth += 1
        self._visit_function(node, node.args)
        if merge_path:
            self._merge_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_named_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_named_function(node, node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_function(node, node.args)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._class_depth == 0 and self.config.is_spec_module(self.path):
            self._check_class_pickle_safety(node)
        self._class_depth += 1
        self._scopes.append(_Scope())
        self.generic_visit(node)
        self._scopes.pop()
        self._class_depth -= 1

    # -- assignments (R003 inference) --------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = self._is_set_expr(node.value)
        for target in node.targets:
            self._bind_target(target, is_set)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        is_set = self._is_set_annotation(node.annotation) or (
            node.value is not None and self._is_set_expr(node.value)
        )
        self._bind_target(node.target, is_set)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # ``s |= other`` keeps a set a set; anything else leaves it alone.
        self.generic_visit(node)

    # -- iteration sites (R003) --------------------------------------------

    def _check_iteration(self, iter_node: ast.expr, context: str) -> None:
        if self._is_set_expr(iter_node):
            self._report(
                iter_node,
                "R003",
                f"{context} iterates a set in nondeterministic order; wrap it "
                "in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, "for loop")
        # The loop variable is whatever the set held, not a set.
        self._bind_target(node.target, False)
        self.generic_visit(node)

    def _check_comprehension(
        self, node: ast.expr, generators: Sequence[ast.comprehension], label: str
    ) -> None:
        if id(node) in self._exempt_generators:
            return
        for gen in generators:
            self._check_iteration(gen.iter, label)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node, node.generators, "list comprehension")
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node, node.generators, "dict comprehension")
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node, node.generators, "generator expression")
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # A set built from a set is order-insensitive by construction.
        self.generic_visit(node)

    # -- calls (R001 / R002 / R003 / R004 / R005) ---------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func

        # Order-insensitive reducers make their generator argument exempt
        # from R003 (``any(x in s for x in other_set)`` is deterministic).
        # In a sharded merge path the exemption does not apply: even
        # reductions must consume a sorted sequence (R009), because float
        # accumulation is order-dependent and reproducibility across shard
        # counts is the whole contract.
        if isinstance(func, ast.Name) and func.id in _ORDER_INSENSITIVE_CONSUMERS:
            for arg in node.args:
                if isinstance(arg, ast.GeneratorExp):
                    self._exempt_generators.add(id(arg))
                    if self._sharded and self._merge_depth > 0:
                        for gen in arg.generators:
                            if self._is_set_expr(gen.iter):
                                self._report(
                                    gen.iter,
                                    "R009",
                                    f"{func.id}() over a set inside a mailbox "
                                    "merge path; sort the input — reduction "
                                    "order must match the serial engine "
                                    "bit-for-bit",
                                )

        # R009: ordering hazards that only exist across shard boundaries.
        if self._sharded:
            if (
                isinstance(func, ast.Name)
                and func.id == "id"
                and len(node.args) == 1
            ):
                self._report(
                    node,
                    "R009",
                    "id() is a process-local address; shards must order and "
                    "deduplicate by explicit keys, never by address",
                )
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _DIRECT_DELIVERY_METHODS
            ):
                self._report(
                    node,
                    "R009",
                    f"direct call to {func.attr}() hand-delivers an UPDATE "
                    "outside the mailbox; cross-shard traffic must go "
                    "through BoundaryLink.send / enqueue_inbound so it "
                    "carries an order key",
                )
            if (
                self._merge_depth > 0
                and isinstance(func, ast.Attribute)
                and func.attr == "pop"
                and not node.args
                and self._is_set_expr(func.value)
            ):
                self._report(
                    node,
                    "R009",
                    "set.pop() removes an arbitrary element inside a "
                    "mailbox merge path; pop from a sorted sequence instead",
                )

        # R003: materialising a set into an ordered container.
        if (
            isinstance(func, ast.Name)
            and func.id in {"list", "tuple"}
            and len(node.args) == 1
            and self._is_set_expr(node.args[0])
        ):
            self._report(
                node,
                "R003",
                f"{func.id}() over a set materialises a nondeterministic "
                "order; use sorted(...)",
            )

        dotted = _dotted(func)
        if dotted is not None:
            self._check_nondeterministic_call(node, dotted)

        # R004: hash()/id() inside sort keys.
        self._check_sort_key(node)

        # R005: lambdas handed to the pool.
        if isinstance(func, ast.Name) and func.id in self.config.pool_functions:
            for arg in node.args:
                if isinstance(arg, ast.Lambda):
                    self._report(
                        arg,
                        "R005",
                        f"lambda passed to {func.id}() cannot be pickled "
                        "across the process pool; use a module-level function",
                    )

        # R008: route objects built on the hot path must come out of the
        # intern table.  A construction that is the *direct* argument of an
        # interner method is the blessed idiom
        # (``interner.attributes(PathAttributes(...))``); mark those before
        # descending into the argument.
        if isinstance(func, ast.Attribute) and func.attr in _INTERNER_METHODS:
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Call):
                    self._interned_constructions.add(id(arg))
        if self._hot_path:
            ctor: Optional[str] = None
            if isinstance(func, ast.Name) and func.id in _INTERNABLE_CLASSES:
                ctor = func.id
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _INTERNABLE_CLASSES
            ):
                ctor = func.attr
            if ctor is not None and id(node) not in self._interned_constructions:
                method = (
                    "attributes" if ctor == "PathAttributes" else "as_path"
                )
                self._report(
                    node,
                    "R008",
                    f"bare {ctor}(...) on the BGP hot path bypasses the "
                    f"route intern table; wrap it as "
                    f"interner.{method}({ctor}(...)) so equal routes share "
                    "one object",
                )

        self.generic_visit(node)

    def _check_nondeterministic_call(self, node: ast.Call, dotted: str) -> None:
        head, _, rest = dotted.partition(".")

        if head in self._deepcopy_names and not rest:
            self._report(
                node,
                "R007",
                "deepcopy() walks the object graph generically; implement "
                "snapshot_state/restore_state (see repro.warmstart) instead",
            )
            return

        if head in self._copy_aliases and rest == "deepcopy":
            self._report(
                node,
                "R007",
                "copy.deepcopy() walks the object graph generically; "
                "implement snapshot_state/restore_state (see repro.warmstart) "
                "instead",
            )
            return

        if head in self._direct_bad_calls and not rest:
            dotted_name, rule = self._direct_bad_calls[head]
            if rule == "R006":
                self._report(
                    node,
                    "R006",
                    "call to time.sleep blocks on the real clock; library "
                    "code must take an injectable sleeper",
                )
            else:
                self._report(
                    node,
                    rule,
                    f"call to {dotted_name} (nondeterministic source) in "
                    "simulation code",
                )
            return

        if head in self._random_aliases and rest:
            attr = rest.split(".", 1)[0]
            if attr == "seed":
                self._report(
                    node, "R001", "random.seed mutates shared global state; "
                    "construct a seeded random.Random instead"
                )
            elif attr in _RANDOM_GLOBAL_FUNCS:
                self._report(
                    node,
                    "R001",
                    f"random.{attr}() draws from the unseeded global "
                    "generator; use an explicit random.Random or an "
                    "eventsim.rng stream",
                )
            elif attr == "SystemRandom":
                self._report(
                    node, "R001", "random.SystemRandom is inherently nondeterministic"
                )
            return

        if head in self._numpy_aliases and rest.startswith("random"):
            self._report(
                node,
                "R001",
                "numpy.random use; draw through a seeded generator passed in "
                "explicitly",
            )
            return

        if head in self._time_aliases and rest in _TIME_FUNCS:
            self._report(
                node,
                "R002",
                f"time.{rest}() reads a real clock; simulation code must use "
                "simulator virtual time",
            )
            return

        if head in self._time_aliases and rest == "sleep":
            self._report(
                node,
                "R006",
                "time.sleep() blocks on the real clock; library code must "
                "take an injectable sleeper (see repro.stream.service)",
            )
            return

        if head in self._os_aliases and rest in _OS_FUNCS:
            self._report(node, "R002", f"os.{rest}() is a nondeterministic source")
            return

        if head in self._uuid_aliases and rest in _UUID_FUNCS:
            self._report(
                node, "R002", f"uuid.{rest}() is time/host dependent; derive ids "
                "from seeded streams"
            )
            return

        if head in self._secrets_aliases and rest:
            self._report(node, "R002", "secrets.* is inherently nondeterministic")
            return

        parts = dotted.split(".")
        if len(parts) >= 2 and parts[-1] in _DATETIME_FUNCS:
            base = parts[-2]
            root = parts[0]
            if base in {"datetime", "date"} and (
                root in self._datetime_module_aliases
                or parts[0] in self._datetime_class_names
            ):
                self._report(
                    node,
                    "R002",
                    f"{base}.{parts[-1]}() reads the wall clock; simulation "
                    "code must use simulator virtual time",
                )

    def _check_sort_key(self, node: ast.Call) -> None:
        func = node.func
        is_sorting = (
            isinstance(func, ast.Name) and func.id in {"sorted", "min", "max"}
        ) or (isinstance(func, ast.Attribute) and func.attr == "sort")
        if not is_sorting:
            return
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            value = keyword.value
            if isinstance(value, ast.Name) and value.id in {"hash", "id"}:
                self._report(
                    value,
                    "R004",
                    f"key={value.id} orders by a salted/address-based value",
                )
            elif isinstance(value, ast.Lambda):
                for inner in ast.walk(value.body):
                    if (
                        isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Name)
                        and inner.func.id in {"hash", "id"}
                    ):
                        self._report(
                            inner,
                            "R004",
                            f"{inner.func.id}() inside a sort key is not a "
                            "stable ordering",
                        )

    # -- R005 class check ---------------------------------------------------

    def _check_class_pickle_safety(self, node: ast.ClassDef) -> None:
        if not self.config.enabled("R005"):
            return
        has_slots = False
        blocking_setattr = False
        has_pickle_support = False
        is_dataclass = any(
            (isinstance(dec, ast.Name) and dec.id == "dataclass")
            or (isinstance(dec, ast.Attribute) and dec.attr == "dataclass")
            or (
                isinstance(dec, ast.Call)
                and (
                    (isinstance(dec.func, ast.Name) and dec.func.id == "dataclass")
                    or (
                        isinstance(dec.func, ast.Attribute)
                        and dec.func.attr == "dataclass"
                    )
                )
            )
            for dec in node.decorator_list
        )
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == "__slots__":
                        has_slots = True
            elif isinstance(stmt, ast.AnnAssign):
                if (
                    isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "__slots__"
                ):
                    has_slots = True
            elif isinstance(stmt, ast.FunctionDef):
                if stmt.name in _PICKLE_SUPPORT:
                    has_pickle_support = True
                elif stmt.name == "__setattr__":
                    blocking_setattr = any(
                        isinstance(inner, ast.Raise) for inner in ast.walk(stmt)
                    )
        if is_dataclass:
            return
        if has_slots and blocking_setattr and not has_pickle_support:
            self._report(
                node,
                "R005",
                f"class {node.name} blocks __setattr__ with __slots__ but "
                "defines no __reduce__/__getstate__; instances cannot cross "
                "the process pool",
            )


def check_file_rules(
    source: str, path: str, config: LintConfig
) -> List[Violation]:
    """Run only the per-file rules (R001–R008) over already-parsed source.

    The project-level entry points (``lint_source``/``lint_file``/
    ``lint_paths``) now live in :mod:`repro.lint.driver`, which layers the
    whole-program analyses (R100–R101) on top of this pass.
    """
    tree = ast.parse(source, filename=path)
    checker = _FileChecker(path, source, config)
    checker.visit(tree)
    return sorted(checker.violations)


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            out.update(path.rglob("*.py"))
        else:
            out.add(path)
    return sorted(out)
