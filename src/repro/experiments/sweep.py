"""Attacker-fraction sweeps with the paper's 15-run averaging.

"Rather than simulating all the possible selections, we perform 15 runs
for a given number of origin ASes and attackers ... we first select 3 sets
of origin ASes from the stub ASes.  Then we select 5 sets of attackers for
each set of origin ASes."  Each data point below is that same average.

The same (origin-set, attacker-set) draws are used for every deployment
arm at a given attacker fraction — common random numbers, so the arms of
one figure differ only in the mechanism under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.attack.models import AttackStrategy, NaiveFalseOrigin
from repro.attack.placement import place_attackers, place_origins
from repro.core.checker import CheckerMode
from repro.eventsim.rng import RandomStreams
from repro.experiments.executor import execute_scenarios
from repro.experiments.runner import (
    AttackTiming,
    DeploymentKind,
    HijackScenario,
    WarmStartSpec,
)
from repro.topology.asgraph import ASGraph

#: The attacker fractions swept in Figures 9-11 (x-axis, as fractions).
DEFAULT_ATTACKER_FRACTIONS: Tuple[float, ...] = (
    0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40,
)


@dataclass
class SweepConfig:
    """Parameters of one sweep (one curve of a figure)."""

    graph: ASGraph
    n_origins: int = 1
    deployment: DeploymentKind = DeploymentKind.NONE
    partial_fraction: float = 0.5
    attacker_fractions: Sequence[float] = DEFAULT_ATTACKER_FRACTIONS
    n_origin_sets: int = 3
    n_attacker_sets: int = 5
    strategy: AttackStrategy = field(default_factory=NaiveFalseOrigin)
    checker_mode: CheckerMode = CheckerMode.DETECT_AND_SUPPRESS
    timing: AttackTiming = AttackTiming.SIMULTANEOUS
    seed: int = 0


@dataclass(frozen=True)
class SweepPoint:
    """One data point: mean over the 15 runs at one attacker fraction."""

    attacker_fraction: float
    n_attackers: int
    mean_poisoned_fraction: float
    min_poisoned_fraction: float
    max_poisoned_fraction: float
    mean_alarms: float
    runs: int


@dataclass
class SweepResult:
    """One curve: deployment arm + points."""

    deployment: DeploymentKind
    n_origins: int
    topology_size: int
    points: List[SweepPoint] = field(default_factory=list)

    def as_percent_series(self) -> List[Tuple[float, float]]:
        """(attacker %, poisoned %) pairs — directly plottable."""
        return [
            (p.attacker_fraction * 100.0, p.mean_poisoned_fraction * 100.0)
            for p in self.points
        ]

    def point_at(self, attacker_fraction: float) -> SweepPoint:
        for point in self.points:
            if abs(point.attacker_fraction - attacker_fraction) < 1e-9:
                return point
        raise KeyError(f"no point at attacker fraction {attacker_fraction}")


def build_sweep_scenarios(
    config: SweepConfig,
) -> List[Tuple[float, int, List[HijackScenario]]]:
    """Materialise every scenario of one sweep, fraction by fraction.

    All random draws happen here, in the exact nested order the historical
    serial loop used — fraction outer, origin set, then attacker set — so
    the common-random-numbers discipline across deployment arms (and the
    per-scenario seed derivation) is preserved verbatim.  The returned
    scenarios are self-contained and picklable, which is what lets the
    executor fan them out across processes.
    """
    graph = config.graph
    n_ases = len(graph)
    streams = RandomStreams(config.seed)

    per_fraction: List[Tuple[float, int, List[HijackScenario]]] = []
    for fraction in config.attacker_fractions:
        n_attackers = max(1, round(fraction * n_ases))
        scenarios: List[HijackScenario] = []
        for origin_set_index in range(config.n_origin_sets):
            origin_rng = streams.stream(f"origins/{origin_set_index}")
            origins = place_origins(graph, config.n_origins, origin_rng)
            for attacker_set_index in range(config.n_attacker_sets):
                attacker_rng = streams.stream(
                    f"attackers/{fraction}/{origin_set_index}/{attacker_set_index}"
                )
                attackers = place_attackers(
                    graph, n_attackers, attacker_rng, exclude=origins
                )
                scenarios.append(
                    HijackScenario(
                        graph=graph,
                        origins=origins,
                        attackers=attackers,
                        deployment=config.deployment,
                        partial_fraction=config.partial_fraction,
                        strategy=config.strategy,
                        checker_mode=config.checker_mode,
                        timing=config.timing,
                        seed=config.seed
                        + 7919 * origin_set_index
                        + 104729 * attacker_set_index,
                    )
                )
        per_fraction.append((fraction, n_attackers, scenarios))
    return per_fraction


def run_sweep(
    config: SweepConfig,
    workers: Optional[int] = None,
    manifest: Optional[str] = None,
    warm_start: WarmStartSpec = None,
) -> SweepResult:
    """Run one curve: every attacker fraction, 15 runs each.

    ``workers`` > 1 fans the independent runs of the *whole* curve out over
    a process pool (see :mod:`repro.experiments.executor`); the resulting
    :class:`SweepPoint` values are bit-identical to a serial run.
    ``manifest`` additionally writes one JSONL record per scenario (spec,
    seed, outcome, metric snapshot, worker id) to the given path.
    ``warm_start`` enables the baseline cache
    (:mod:`repro.warmstart`) — the sweep's repeated (topology, origin-set,
    deployment) baselines are then built once and restored thereafter,
    with results guaranteed identical to a cold run.
    """
    result = SweepResult(
        deployment=config.deployment,
        n_origins=config.n_origins,
        topology_size=len(config.graph),
    )

    per_fraction = build_sweep_scenarios(config)
    # One flat batch across all fractions: better pool utilisation than
    # fraction-at-a-time, and order-preserving collection keeps aggregation
    # identical to the serial loop.
    flat = [s for _, _, scenarios in per_fraction for s in scenarios]
    all_outcomes = execute_scenarios(
        flat, workers=workers, manifest=manifest, warm_start=warm_start
    )

    cursor = 0
    for fraction, n_attackers, scenarios in per_fraction:
        outcomes = []
        alarms = []
        for outcome in all_outcomes[cursor:cursor + len(scenarios)]:
            outcomes.append(outcome.poisoned_fraction)
            alarms.append(outcome.alarms)
        cursor += len(scenarios)

        result.points.append(
            SweepPoint(
                attacker_fraction=fraction,
                n_attackers=n_attackers,
                mean_poisoned_fraction=sum(outcomes) / len(outcomes),
                min_poisoned_fraction=min(outcomes),
                max_poisoned_fraction=max(outcomes),
                mean_alarms=sum(alarms) / len(alarms),
                runs=len(outcomes),
            )
        )
    return result
