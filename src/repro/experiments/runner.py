"""One hijack simulation run.

The paper's unit of measurement: on a given topology, a prefix is
legitimately originated by one or two stub ASes; M attacker ASes falsely
originate it; after convergence we measure the percentage of the remaining
(non-attacker) ASes whose best route leads to an attacker.
"""

from __future__ import annotations

import dataclasses
import enum
import os
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (
    Any,
    ContextManager,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.attack.models import AttackStrategy, NaiveFalseOrigin
from repro.bgp.network import Network
from repro.bgp.speaker import SpeakerConfig
from repro.core.alarms import Alarm, AlarmLog
from repro.core.checker import CheckerMode, MoasChecker
from repro.core.deployment import DeploymentPlan
from repro.core.moas_list import moas_communities
from repro.core.origin_verification import GroundTruthOracle, PrefixOriginRegistry
from repro.eventsim.simulator import Simulator
from repro.net.addresses import Prefix
from repro.net.asn import ASN
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.topology.asgraph import ASGraph
from repro.warmstart import (
    BaselineKey,
    BaselineSnapshot,
    WarmStartCache,
    compute_baseline_key,
    resolve_warm_start,
    snapshot_is_seed_free,
)

#: Link propagation delay used by every harness run (the Network default,
#: pinned here because it participates in the warm-start baseline key).
LINK_DELAY = 0.01

#: A warm-start spec: a ready cache, a mode string for
#: :func:`repro.warmstart.resolve_warm_start`, or None (environment decides).
WarmStartSpec = Union[None, str, WarmStartCache]


class DeploymentKind(enum.Enum):
    """The three arms of the paper's figures."""

    NONE = "normal-bgp"
    PARTIAL = "partial-moas-detection"
    FULL = "full-moas-detection"


#: The prefix under attack in every run (its identity is arbitrary).
TARGET_PREFIX = Prefix.parse("198.51.100.0/24")


class AttackTiming(enum.Enum):
    """When the false origination is injected.

    The paper's experiments race valid and false announcements from a cold
    start (``SIMULTANEOUS``) — this is what leaves a residual of poisoned
    ASes even under full deployment: nodes the valid announcement never
    reaches see no conflict.  ``POST_CONVERGENCE`` models hijacking an
    established prefix instead; detection is then near-perfect because
    every AS already holds the genuine MOAS list.
    """

    SIMULTANEOUS = "simultaneous"
    POST_CONVERGENCE = "post-convergence"


@dataclass
class HijackScenario:
    """Everything one run needs."""

    graph: ASGraph
    origins: Sequence[ASN]
    attackers: Sequence[ASN]
    deployment: DeploymentKind = DeploymentKind.NONE
    partial_fraction: float = 0.5
    strategy: AttackStrategy = field(default_factory=NaiveFalseOrigin)
    checker_mode: CheckerMode = CheckerMode.DETECT_AND_SUPPRESS
    timing: AttackTiming = AttackTiming.SIMULTANEOUS
    prefix: Prefix = TARGET_PREFIX
    seed: int = 0

    def validate(self) -> None:
        overlap = set(self.origins) & set(self.attackers)
        if overlap:
            raise ValueError(f"origins and attackers overlap: {sorted(overlap)}")
        for asn in list(self.origins) + list(self.attackers):
            if asn not in self.graph:
                raise ValueError(f"AS{asn} is not in the topology")
        if not self.origins:
            raise ValueError("need at least one genuine origin")


@dataclass(frozen=True)
class HijackOutcome:
    """The measured result of one run.

    Besides the paper's measurements, every outcome carries throughput
    counters (simulator events processed, BGP updates sent, wall-clock
    seconds) so benchmarks and perf work have a stable metric surface.
    The counters are deterministic except ``wall_seconds``, which is a
    measurement of this process, not of the simulated system.
    """

    poisoned: FrozenSet[ASN]
    n_remaining: int
    alarms: int
    routes_suppressed: int
    capable: FrozenSet[ASN]
    events_processed: int = 0
    updates_sent: int = 0
    wall_seconds: float = 0.0

    @property
    def poisoned_fraction(self) -> float:
        """Fraction of non-attacker ASes adopting a false route — the
        y-axis of Figures 9-11."""
        if self.n_remaining == 0:
            return 0.0
        return len(self.poisoned) / self.n_remaining

    @property
    def events_per_sec(self) -> float:
        """Simulator events processed per wall-clock second of this run."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events_processed / self.wall_seconds

    def masked_timing(self) -> "HijackOutcome":
        """A copy with every timing field zeroed.

        ``wall_seconds`` measures this process, not the simulated system;
        any determinism comparison between outcomes must go through this
        helper (or :func:`outcomes_equivalent`) or it will flake.
        """
        return dataclasses.replace(self, wall_seconds=0.0)

    def equivalent_to(self, other: "HijackOutcome") -> bool:
        """Equality modulo timing fields — the determinism comparison."""
        return self.masked_timing() == other.masked_timing()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe rendering for run manifests."""
        return {
            "poisoned": sorted(self.poisoned),
            "n_remaining": self.n_remaining,
            "poisoned_fraction": self.poisoned_fraction,
            "alarms": self.alarms,
            "routes_suppressed": self.routes_suppressed,
            "capable_count": len(self.capable),
            "events_processed": self.events_processed,
            "updates_sent": self.updates_sent,
            "wall_seconds": self.wall_seconds,
        }


def outcomes_equivalent(
    a: Sequence[HijackOutcome], b: Sequence[HijackOutcome]
) -> bool:
    """Element-wise outcome equality with timing fields masked."""
    if len(a) != len(b):
        return False
    return all(x.equivalent_to(y) for x, y in zip(a, b))


def scenario_spec(scenario: HijackScenario) -> Dict[str, Any]:
    """A JSON-safe description of a scenario for run manifests.

    Carries everything needed to attribute (and with the original topology
    generator, re-create) the run; the graph itself is summarised by size.
    """
    return {
        "topology_size": len(scenario.graph),
        "origins": sorted(scenario.origins),
        "attackers": sorted(scenario.attackers),
        "n_attackers": len(scenario.attackers),
        "deployment": scenario.deployment.value,
        "partial_fraction": scenario.partial_fraction,
        "strategy": type(scenario.strategy).__name__,
        "checker_mode": scenario.checker_mode.value,
        "timing": scenario.timing.value,
        "prefix": str(scenario.prefix),
        "seed": scenario.seed,
    }


@dataclass
class InstrumentedRun:
    """One scenario's outcome plus its observability payload.

    ``metrics`` is the per-run instrument snapshot (deterministic);
    ``spans`` is the phase-span forest (wall fields quarantined);
    ``worker`` identifies the producing process (nondeterministic by
    nature, masked in manifest comparisons).
    """

    outcome: HijackOutcome
    metrics: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    worker: int = 0
    alarms: List[Alarm] = field(default_factory=list)
    warm_start: Dict[str, Any] = field(default_factory=dict)


def _deployment_plan(scenario: HijackScenario) -> DeploymentPlan:
    """Materialise the scenario's deployment plan (PARTIAL draws from the
    scenario seed, so the capable set is a deterministic scenario fact)."""
    if scenario.deployment is DeploymentKind.FULL:
        return DeploymentPlan.full(scenario.graph.asns())
    if scenario.deployment is DeploymentKind.PARTIAL:
        return DeploymentPlan.random_fraction(
            scenario.graph.asns(),
            scenario.partial_fraction,
            random.Random(scenario.seed ^ 0x5EED),
        )
    return DeploymentPlan.none()


def _originate_genuine(
    network: Network, origins: FrozenSet[ASN], prefix: Prefix
) -> None:
    # Genuine origination: multiple origins agree on and attach the MOAS
    # list; a single origin attaches nothing (§4.3: "routes that originate
    # from a single AS need not attach a MOAS list").
    communities = moas_communities(origins) if len(origins) > 1 else ()
    for origin in sorted(origins):
        network.originate(origin, prefix, communities=communities)


def _capture_baseline(
    network: Network,
    checkers: Dict[ASN, MoasChecker],
    alarm_log: AlarmLog,
    key: BaselineKey,
    sim: Optional[Simulator],
) -> Optional[BaselineSnapshot]:
    """Snapshot the converged baseline, or None if it is seed-dependent."""
    network_state = network.snapshot_state()
    if not snapshot_is_seed_free(network_state):
        # The baseline key omits the scenario seed; state that consumed
        # randomness must not be shared across seeds.
        return None
    metrics_state = None
    if sim is not None and sim.metrics is not None:
        metrics_state = sim.metrics.snapshot()
    return BaselineSnapshot(
        key_digest=key.digest(),
        network=network_state,
        checkers={asn: checkers[asn].snapshot_state() for asn in sorted(checkers)},
        alarms=alarm_log.snapshot_state(),
        metrics=metrics_state,
    )


def _execute_scenario(
    scenario: HijackScenario,
    sim: Optional[Simulator] = None,
    tracer: Optional[SpanTracer] = None,
    warm: Optional[WarmStartCache] = None,
    artifacts: Optional[Dict[str, Any]] = None,
) -> HijackOutcome:
    """The run itself; ``sim``/``tracer`` are None on the plain path.

    With ``warm`` set, the pre-attack baseline is looked up in (and on a
    miss, captured into) the cache.  ``artifacts``, when given, receives
    the run's alarm log and warm-start attribution for the instrumented
    wrapper — the returned outcome is identical either way.
    """
    # wall_seconds is the one documented nondeterministic outcome field: it
    # measures this process, not the simulated system.
    started = time.perf_counter()  # repro-lint: disable=R002
    scenario.validate()
    if sim is None:
        # Plain path: the scenario runner never reads the trace, so record
        # nothing — category-filtered recording is a single set probe per
        # call site.  Tracing is a Simulator argument, not a Network one,
        # which is why the sim is built here rather than left to Network.
        sim = Simulator(seed=scenario.seed, trace_categories=frozenset())
    origins = frozenset(scenario.origins)
    attackers = frozenset(scenario.attackers)
    prefix = scenario.prefix

    def span(name: str) -> ContextManager[Any]:
        return tracer.span(name) if tracer is not None else nullcontext()

    registry = PrefixOriginRegistry()
    registry.register(prefix, origins)
    oracle = GroundTruthOracle(registry)
    alarm_log = AlarmLog()
    plan = _deployment_plan(scenario)
    config = SpeakerConfig(mrai=0.0)
    instrumented = sim is not None and sim.metrics is not None

    warm_info: Dict[str, Any] = {
        "enabled": warm is not None,
        "hit": False,
        "key": None,
        "restore_seconds": 0.0,
    }
    key: Optional[BaselineKey] = None
    cached: Optional[BaselineSnapshot] = None
    if warm is not None:
        key = compute_baseline_key(
            scenario, plan.capable, config, LINK_DELAY, instrumented
        )
        warm_info["key"] = key.digest()
        cached = warm.get(key)

    if cached is not None:
        assert warm is not None
        restore_started = time.perf_counter()  # repro-lint: disable=R002
        with span("baseline_restore"):
            network = Network(
                scenario.graph,
                sim=sim,
                config=config,
                link_delay=LINK_DELAY,
                seed=scenario.seed,
            )
            checkers: Dict[ASN, MoasChecker] = plan.apply(
                network,
                oracle,
                mode=scenario.checker_mode,
                shared_alarm_log=alarm_log,
            )
            network.restore_state(cached.network)
            for asn in sorted(cached.checkers):
                checkers[asn].restore_state(cached.checkers[asn])
            alarm_log.restore_state(cached.alarms)
            if instrumented and cached.metrics is not None:
                assert sim is not None and sim.metrics is not None
                sim.metrics.restore_snapshot(cached.metrics)
        restore_seconds = time.perf_counter() - restore_started  # repro-lint: disable=R002
        warm.observe_restore_seconds(restore_seconds)
        warm_info["hit"] = True
        warm_info["restore_seconds"] = restore_seconds
    else:
        with span("topology_build"):
            network = Network(
                scenario.graph,
                sim=sim,
                config=config,
                link_delay=LINK_DELAY,
                seed=scenario.seed,
            )
            checkers = plan.apply(
                network,
                oracle,
                mode=scenario.checker_mode,
                shared_alarm_log=alarm_log,
            )
        with span("establish_sessions"):
            network.establish_sessions()
        if scenario.timing is AttackTiming.POST_CONVERGENCE:
            with span("origination"):
                _originate_genuine(network, origins, prefix)
            with span("initial_convergence"):
                network.run_to_convergence()
        if warm is not None:
            assert key is not None
            baseline = _capture_baseline(network, checkers, alarm_log, key, sim)
            if baseline is None:
                warm.note_uncacheable()
            else:
                warm.put(key, baseline)

    if scenario.timing is AttackTiming.SIMULTANEOUS:
        with span("origination"):
            _originate_genuine(network, origins, prefix)

    with span("fault_injection"):
        for attacker in sorted(attackers):
            scenario.strategy.launch(network, attacker, prefix, origins)
    # Recovery: the network re-converges with the false originations (and
    # any MOAS-triggered suppression) in play.
    with span("recovery_convergence"):
        network.run_to_convergence()

    with span("measurement"):
        poisoned = frozenset(
            asn
            for asn, best_origin in network.best_origins(prefix).items()
            if asn not in attackers and best_origin in attackers
        )
    n_remaining = len(scenario.graph) - len(attackers)
    if artifacts is not None:
        artifacts["alarm_log"] = alarm_log
        artifacts["warm_info"] = warm_info
    return HijackOutcome(
        poisoned=poisoned,
        n_remaining=n_remaining,
        alarms=len(alarm_log),
        routes_suppressed=sum(c.routes_suppressed for c in checkers.values()),
        capable=plan.capable,
        events_processed=network.sim.events_processed,
        updates_sent=network.total_updates_sent(),
        wall_seconds=time.perf_counter() - started,  # repro-lint: disable=R002
    )


def run_hijack_scenario(
    scenario: HijackScenario,
    warm_start: WarmStartSpec = None,
) -> HijackOutcome:
    """Execute one run and measure false-route adoption.

    ``warm_start`` selects a baseline cache (see
    :func:`repro.warmstart.resolve_warm_start`); the default None defers to
    the ``REPRO_WARMSTART`` environment variable.  Warm or cold, the
    outcome is bit-identical (timing fields aside).
    """
    warm = resolve_warm_start(warm_start)
    return _execute_scenario(scenario, warm=warm)


def run_hijack_scenario_instrumented(
    scenario: HijackScenario,
    warm_start: WarmStartSpec = None,
) -> InstrumentedRun:
    """Execute one run with metrics and phase spans enabled.

    The simulated behaviour — and therefore the outcome and the metric
    snapshot — is bit-identical to :func:`run_hijack_scenario`;
    instrumentation only observes.  Module-level and single-argument, so
    the executor can fan it out across the process pool.
    """
    warm = resolve_warm_start(warm_start)
    metrics = MetricsRegistry()
    sim = Simulator(
        seed=scenario.seed, metrics=metrics, trace_categories=frozenset()
    )
    tracer = SpanTracer(clock=lambda: sim.now)
    artifacts: Dict[str, Any] = {}
    outcome = _execute_scenario(
        scenario, sim=sim, tracer=tracer, warm=warm, artifacts=artifacts
    )
    alarm_log: AlarmLog = artifacts["alarm_log"]
    return InstrumentedRun(
        outcome=outcome,
        metrics=metrics.snapshot(),
        spans=tracer.as_dicts(),
        worker=os.getpid(),
        alarms=alarm_log.all(),
        warm_start=artifacts["warm_info"],
    )
