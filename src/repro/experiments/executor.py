"""Parallel execution of independent simulation scenarios.

Every figure in the paper averages 15 independent ``(origin-set,
attacker-set)`` runs per attacker fraction, and the runs share nothing: each
builds its own :class:`~repro.bgp.network.Network` from a common (read-only)
topology.  That makes them embarrassingly parallel, and this module is the
one place that knows how to fan them out.

Design rules, in order of priority:

1. **Determinism.**  Results are collected *in submission order*
   (``ProcessPoolExecutor.map`` semantics), and all randomness is drawn
   before submission (scenario specs carry their seeds).  A parallel run is
   therefore bit-identical to a serial run of the same scenario list — the
   common-random-numbers discipline across deployment arms survives.
2. **Serial fallback.**  ``workers=1`` (the default) executes fully
   in-process with no pool, no pickling and no subprocesses — identical to
   the historical code path, and what tests use unless they opt in.
3. **Configurability.**  The worker count resolves as: explicit argument →
   ``REPRO_WORKERS`` environment variable → 1.
4. **Attribution.**  A failing item raises :class:`ParallelTaskError`
   carrying the submission index and the item's seed, so a 10k-scenario
   sweep never dies with a bare pool traceback.

``wall_seconds`` inside each outcome is measured in the worker and is —
together with the manifest's ``worker`` field — the only non-deterministic
data a run produces.  Pass ``manifest=`` to :func:`execute_scenarios` to
emit a JSONL run manifest (see :mod:`repro.obs.manifest`).

**Graph deduplication.**  A sweep's scenarios all reference the same
:class:`~repro.topology.asgraph.ASGraph` object, but naive pickling would
serialise one full copy of the topology *per scenario* into the pool.
:func:`execute_scenarios` instead dedupes graphs by content digest, ships
each distinct topology to each worker exactly once (through the pool
initializer), and replaces the per-scenario graph with a tiny
:class:`_GraphRef` that the worker resolves locally.

**Warm starts.**  ``warm_start=`` threads a baseline-cache spec (see
:func:`repro.warmstart.resolve_warm_start`) into every run.  On the pooled
path the spec must be a *mode string* (or None, deferring to
``REPRO_WARMSTART``), which each worker resolves to its own process-local
cache — a live :class:`~repro.warmstart.WarmStartCache` object cannot
cross the pool boundary.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
    cast,
)

from repro.experiments.runner import (
    HijackOutcome,
    HijackScenario,
    InstrumentedRun,
    WarmStartSpec,
    run_hijack_scenario,
    run_hijack_scenario_instrumented,
    scenario_spec,
)
from repro.obs.manifest import ManifestRecord, ManifestWriter
from repro.topology.asgraph import ASGraph
from repro.warmstart import WarmStartCache

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV_VAR = "REPRO_WORKERS"


class ParallelTaskError(RuntimeError):
    """One item of a :func:`parallel_map` batch failed.

    Carries the submission ``index`` and the item's ``seed`` (when the item
    has one — scenarios do), so a failure deep inside a sweep points at the
    exact scenario to re-run.  On the serial path the original exception is
    chained as ``__cause__``; across the process pool the original type and
    message survive inside :attr:`message` (pickling drops ``__cause__``).
    """

    def __init__(self, index: int, seed: Optional[int], message: str) -> None:
        self.index = index
        self.seed = seed
        self.message = message
        seed_part = f"seed={seed}" if seed is not None else "no seed"
        super().__init__(
            f"parallel task #{index} ({seed_part}) failed: {message}"
        )

    def __reduce__(
        self,
    ) -> Tuple[type, Tuple[int, Optional[int], str]]:
        # Exceptions pickle via their __init__ args by default; ours are
        # (index, seed, message), which the default reduction would pass
        # through str(self).  Spell it out so the attributes survive the
        # pool crossing intact.
        return (type(self), (self.index, self.seed, self.message))


class _AttributedCall:
    """Wrap ``fn`` so a failure names the submission index and seed.

    Module-level and slot-only: instances must pickle into pool workers.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[T], R]) -> None:
        self.fn = fn

    def __call__(self, pair: Tuple[int, T]) -> R:
        index, item = pair
        try:
            return self.fn(item)
        except ParallelTaskError:
            raise  # already attributed (nested parallel_map)
        except Exception as exc:
            seed = getattr(item, "seed", None)
            raise ParallelTaskError(
                index, seed, f"{type(exc).__name__}: {exc}"
            ) from exc


def _pool_context() -> Optional[multiprocessing.context.BaseContext]:
    """The multiprocessing context used for scenario pools.

    ``fork`` where available: workers inherit the parent's imported
    modules and warmed caches (prefix parse tables, topology digests)
    copy-on-write, so the first scenario in each worker runs at
    steady-state speed.  This also pins the behaviour against the
    interpreter's default start method changing (3.14 moves Linux to
    ``forkserver``, which would cold-start every worker).  ``None`` on
    platforms without ``fork`` — the executor then uses the default.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve the effective worker count.

    ``workers`` wins when given; otherwise :data:`WORKERS_ENV_VAR` is
    consulted; otherwise 1 (serial).  Zero and negative counts are rejected
    rather than silently clamped, malformed environment values raise.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            # The int() parse traceback adds nothing the message doesn't
            # already say; suppress the chained context.
            raise ValueError(
                f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: Optional[int] = None,
) -> List[R]:
    """Apply ``fn`` to every item, preserving input order in the output.

    With an effective worker count of 1 (or fewer than two items) this is a
    plain in-process loop.  Otherwise the items are fanned out over a
    :class:`ProcessPoolExecutor`; ``fn`` and the items must be picklable,
    and ``fn`` must be a pure function of its argument (module-level, no
    closure state) for the parallel path to equal the serial one.

    A failing item raises :class:`ParallelTaskError` with the submission
    index and the item's ``seed`` attribute (if any) attached, on both the
    serial and the pooled path.
    """
    work = list(items)
    count = resolve_workers(workers)
    call: _AttributedCall = _AttributedCall(fn)
    if count == 1 or len(work) < 2:
        return [call((index, item)) for index, item in enumerate(work)]
    count = min(count, len(work))
    # A chunk per worker per ~4 waves keeps pickling overhead low while
    # still load-balancing runs of uneven cost (large attacker fractions
    # converge slower than small ones).
    chunksize = max(1, len(work) // (count * 4))
    with ProcessPoolExecutor(
        max_workers=count, mp_context=_pool_context()
    ) as pool:
        return list(pool.map(call, enumerate(work), chunksize=chunksize))


class _GraphRef:
    """Placeholder standing in for a deduplicated topology in a pickled
    scenario; resolved against the worker's graph table by content digest.

    Module-level and slot-only: instances must pickle into pool workers.
    """

    __slots__ = ("digest",)

    def __init__(self, digest: str) -> None:
        self.digest = digest


#: Worker-local graph table, populated once per worker by the pool
#: initializer; ``_ScenarioRunner`` resolves ``_GraphRef`` against it.
_POOL_GRAPHS: Dict[str, ASGraph] = {}


def _init_scenario_worker(graphs: Dict[str, ASGraph]) -> None:
    """Pool initializer: install the deduplicated graph table, warm.

    Runs once per worker process, so each distinct topology crosses the
    pool boundary exactly once regardless of how many scenarios share it.
    Re-deriving each graph's content digest here both warms the worker's
    digest cache (warm-start keys and manifest specs hash the topology;
    under a non-fork start method the unpickled copy starts cold) and
    verifies the table survived the crossing intact.
    """
    _POOL_GRAPHS.clear()
    for digest, graph in graphs.items():
        if graph.content_digest() != digest:
            raise RuntimeError(
                f"graph table corrupted crossing the pool: digest "
                f"{digest[:12]}… does not match its topology"
            )
        _POOL_GRAPHS[digest] = graph


class _ScenarioRunner:
    """The per-scenario work function: resolve the graph, run, warm-start.

    Module-level and slot-only: instances must pickle into pool workers.
    ``warm_spec`` is None or a mode string on the pooled path (each worker
    resolves it to a process-local cache); a live cache object is only
    legal serially.
    """

    __slots__ = ("instrumented", "warm_spec")

    def __init__(self, instrumented: bool, warm_spec: WarmStartSpec) -> None:
        self.instrumented = instrumented
        self.warm_spec = warm_spec

    def __call__(self, scenario: HijackScenario) -> object:
        graph = scenario.graph
        if isinstance(graph, _GraphRef):
            try:
                resolved = _POOL_GRAPHS[graph.digest]
            except KeyError:
                raise RuntimeError(
                    f"worker has no graph for digest {graph.digest[:12]}…; "
                    "pool initializer did not run or graph table is stale"
                ) from None
            scenario = dataclasses.replace(scenario, graph=resolved)
        if self.instrumented:
            return run_hijack_scenario_instrumented(
                scenario, warm_start=self.warm_spec
            )
        return run_hijack_scenario(scenario, warm_start=self.warm_spec)


def _dedupe_graphs(
    scenarios: Sequence[HijackScenario],
) -> Tuple[Dict[str, ASGraph], List[HijackScenario]]:
    """One graph per content digest, plus scenarios rewritten to refs.

    Graph identity is checked by ``id()`` first so the digest is computed
    once per distinct object, then by content digest so even structurally
    equal copies collapse to one shipped topology.
    """
    digest_by_id: Dict[int, str] = {}
    graphs: Dict[str, ASGraph] = {}
    rewritten: List[HijackScenario] = []
    for scenario in scenarios:
        digest = digest_by_id.get(id(scenario.graph))
        if digest is None:
            digest = scenario.graph.content_digest()
            digest_by_id[id(scenario.graph)] = digest
            graphs.setdefault(digest, scenario.graph)
        rewritten.append(
            dataclasses.replace(scenario, graph=_GraphRef(digest))
        )
    return graphs, rewritten


def execute_scenarios(
    scenarios: Sequence[HijackScenario],
    workers: Optional[int] = None,
    manifest: Optional[Union[str, Path]] = None,
    warm_start: WarmStartSpec = None,
) -> List[HijackOutcome]:
    """Run independent hijack scenarios, serially or across processes.

    Outcomes are returned in scenario order regardless of completion order,
    so aggregation downstream (mean/min/max over the paper's 15 runs) sees
    exactly the sequence the serial path would produce.

    With ``manifest`` set, every scenario runs with metrics and phase spans
    enabled and one :class:`~repro.obs.manifest.ManifestRecord` per scenario
    is written (in submission order) to the given JSONL path.  Manifests
    from different worker counts are bit-identical after masking the
    documented timing fields.

    ``warm_start`` selects a baseline cache for every run (see
    :func:`repro.warmstart.resolve_warm_start`).  On the pooled path each
    worker keeps its own cache, so hits accrue as each worker re-encounters
    a baseline it has already built.
    """
    count = resolve_workers(workers)
    work: Sequence[HijackScenario] = scenarios
    pooled = count > 1 and len(scenarios) >= 2
    if pooled and isinstance(warm_start, WarmStartCache):
        raise ValueError(
            "a WarmStartCache instance cannot cross the process pool; "
            "pass a warm-start mode string (e.g. 'mem') for workers > 1"
        )
    runner = _ScenarioRunner(
        instrumented=manifest is not None, warm_spec=warm_start
    )
    call: _AttributedCall = _AttributedCall(runner)

    if not pooled:
        results = [call((index, item)) for index, item in enumerate(work)]
    else:
        graphs, work = _dedupe_graphs(scenarios)
        count = min(count, len(work))
        chunksize = max(1, len(work) // (count * 4))
        with ProcessPoolExecutor(
            max_workers=count,
            mp_context=_pool_context(),
            initializer=_init_scenario_worker,
            initargs=(graphs,),
        ) as pool:
            results = list(
                pool.map(call, enumerate(work), chunksize=chunksize)
            )

    if manifest is None:
        return cast(List[HijackOutcome], results)

    runs = cast(List[InstrumentedRun], results)
    with ManifestWriter(manifest) as writer:
        for index, (scenario, run) in enumerate(zip(scenarios, runs)):
            writer.write(
                ManifestRecord(
                    index=index,
                    seed=scenario.seed,
                    spec=scenario_spec(scenario),
                    outcome=run.outcome.to_dict(),
                    metrics=run.metrics,
                    worker=run.worker,
                    wall_seconds=run.outcome.wall_seconds,
                    warm_start=run.warm_start,
                )
            )
    return [run.outcome for run in runs]
