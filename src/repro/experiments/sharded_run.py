"""One hijack run, sharded across forked worker processes.

The driver behind ``--shards N``: speakers are partitioned across N
workers (:func:`repro.eventsim.sharded.partition_speakers`), each worker
owning a :class:`~repro.bgp.shardnet.ShardNetwork` slice on its own
:class:`~repro.eventsim.sharded.ShardSimulator`.  The parent process is a
pure coordinator — it holds no network state, only the barrier clock,
the mail router and the merged logs.

Barrier protocol (one *tick* = one simulated instant, two round trips):

1. Workers finish a tick and report **status**: their drained outbox
   (cross-shard mail, batched per destination) and the time of their next
   local event.
2. The coordinator routes the mail and picks the next tick time ``T`` —
   the minimum over reported next-event times and routed delivery times.
   Positive link delay is the *lookahead*: mail produced at a tick is
   always due strictly later, so once every status is in, the set of
   events due at ``T`` is closed.  No times and no mail means global
   quiescence.
3. Workers that may have events due at ``T`` receive the tick (plus their
   inbound mail), insert the mail, and reply with their sorted due-key
   lists; the coordinator k-way merges the lists into global ranks and
   sends each worker its slice; workers fire the tick's events with exact
   global ranks and report status again.  When only one worker can be due
   at ``T`` its local order *is* the global order, so the rank exchange is
   skipped (a **solo tick**, one round trip — the common case once a
   wavefront localises).

Determinism: every scheduled event carries an order key that reproduces
the serial engine's ``(time, priority, seq)`` total order (see
``repro.eventsim.sharded``), so outcomes, alarm logs and masked metric
snapshots are bit-identical to the serial engine's.  Alarms are tagged
with their firing's ``(epoch, rank)`` at raise time and merged back into
emission order; metric counters and histogram buckets sum across shards.

POSIX only: workers are :class:`~repro.procpool.WorkerPool` forks, so the
graph and scenario are inherited copy-on-write instead of pickled.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.bgp.shardnet import (
    MailRecord,
    ShardNetwork,
    merge_network_snapshots,
    split_network_snapshot,
)
from repro.bgp.speaker import SpeakerConfig
from repro.core.alarms import Alarm, AlarmLog
from repro.core.checker import MoasChecker
from repro.core.moas_list import moas_communities
from repro.core.origin_verification import GroundTruthOracle, PrefixOriginRegistry
from repro.eventsim.sharded import ShardSimulator, partition_speakers
from repro.net.asn import ASN
from repro.obs.metrics import MetricsRegistry
from repro.procpool import STOP, WorkerPool
from repro.warmstart import (
    BaselineKey,
    BaselineSnapshot,
    WarmStartCache,
    compute_baseline_key,
    resolve_warm_start,
    snapshot_is_seed_free,
)

if TYPE_CHECKING:  # runner imports this module lazily; avoid the cycle
    from repro.experiments.runner import (
        HijackOutcome,
        HijackScenario,
        WarmStartSpec,
    )

#: An alarm's merge tag: the raising firing's (epoch, rank) plus a local
#: emission index — sorting merged per-shard logs by tag reproduces the
#: serial emission order exactly (a firing runs on exactly one shard).
AlarmTag = Tuple[int, int, int]

#: A worker's status reply body: its drained outbox (cross-shard mail by
#: destination shard) and the time of its next local event.
_Status = Tuple[Dict[int, List[MailRecord]], Optional[float]]

#: Metric names whose values are legitimately shard-dependent and are
#: dropped by :func:`masked_metrics` before serial-vs-sharded comparison:
#: ``sim.queue_depth`` is sampled per *process-local* event cadence, and
#: ``shard.*`` instruments do not exist serially at all.
NONPORTABLE_METRICS = ("sim.queue_depth",)
SHARD_METRIC_PREFIX = "shard."


@dataclass
class ShardStats:
    """Coordinator-side counters for one sharded run (stats only — never
    part of an outcome or a metrics comparison)."""

    n_shards: int = 0
    shard_sizes: List[int] = field(default_factory=list)
    cut_edges: int = 0
    total_edges: int = 0
    ticks: int = 0
    solo_ticks: int = 0
    cross_messages: int = 0
    cross_batches: int = 0
    max_batch_size: int = 0
    barrier_wait_seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_shards": self.n_shards,
            "shard_sizes": list(self.shard_sizes),
            "cut_edges": self.cut_edges,
            "total_edges": self.total_edges,
            "ticks": self.ticks,
            "solo_ticks": self.solo_ticks,
            "cross_messages": self.cross_messages,
            "cross_batches": self.cross_batches,
            "max_batch_size": self.max_batch_size,
            "mean_batch_size": (
                self.cross_messages / self.cross_batches
                if self.cross_batches
                else 0.0
            ),
            "barrier_wait_seconds": round(self.barrier_wait_seconds, 4),
        }


@dataclass
class ShardedRun:
    """Everything a sharded execution produced."""

    outcome: "HijackOutcome"
    alarms: List[Alarm]
    metrics: Optional[Dict[str, Any]]
    warm_info: Dict[str, Any]
    stats: ShardStats


def masked_metrics(snapshot: Mapping[str, Any]) -> Dict[str, Any]:
    """A metrics snapshot with shard-dependent instruments removed.

    Serial-vs-sharded determinism comparisons must go through this (the
    moral twin of ``HijackOutcome.masked_timing``) or they will flake on
    queue-depth sampling and shard-only instruments.
    """
    return {
        name: value
        for name, value in snapshot.items()
        if name not in NONPORTABLE_METRICS
        and not name.startswith(SHARD_METRIC_PREFIX)
    }


def merge_metric_snapshots(
    snapshots: Sequence[Mapping[str, Any]]
) -> Dict[str, Any]:
    """Fold per-shard metric snapshots into one registry-shaped snapshot.

    Counters and histogram buckets are extensive quantities and sum;
    gauges keep the maximum of each field (only ``sim.queue_depth`` is a
    gauge on this path, and it is masked from comparisons anyway).
    """
    merged: Dict[str, Any] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            held = merged.get(name)
            if held is None:
                merged[name] = (
                    dict(value) if isinstance(value, dict) else value
                )
            elif isinstance(value, dict):
                if "buckets" in value:
                    held["count"] += value["count"]
                    held["sum"] += value["sum"]
                    held["buckets"] = [
                        a + b for a, b in zip(held["buckets"], value["buckets"])
                    ]
                else:
                    held["value"] = max(held["value"], value["value"])
                    held["max"] = max(held["max"], value["max"])
            else:
                merged[name] = held + value
    return {name: merged[name] for name in sorted(merged)}


class _TaggedAlarmLog(AlarmLog):
    """An alarm log that records each alarm's global position at raise
    time, so per-shard logs merge back into exact serial order."""

    def __init__(self, sim: ShardSimulator) -> None:
        super().__init__()
        self._sim = sim
        self.tags: List[AlarmTag] = []

    def raise_alarm(self, alarm: Alarm) -> None:
        super().raise_alarm(alarm)
        epoch, rank = self._sim.order_context
        self.tags.append((epoch, rank, len(self.tags)))

    def tagged(self) -> List[Tuple[AlarmTag, Alarm]]:
        return list(zip(self.tags, self.all()))


def merge_tagged_alarms(
    per_shard: Sequence[Sequence[Tuple[AlarmTag, Alarm]]]
) -> List[Alarm]:
    """Merge per-shard tagged alarm lists into serial emission order."""
    combined = [entry for shard in per_shard for entry in shard]
    combined.sort(key=lambda entry: entry[0])
    return [alarm for _, alarm in combined]


# -- worker process -----------------------------------------------------------


def _worker_main(
    conn: Any,
    shard_id: int,
    scenario: "HijackScenario",
    assignment: Dict[ASN, int],
    capable: FrozenSet[ASN],
    instrumented: bool,
) -> None:
    """One shard: build the slice, then obey coordinator commands.

    Runs in a :class:`~repro.procpool.WorkerPool` child, which owns the
    pipe's lifetime and reports a raise to the coordinator as a
    :class:`~repro.procpool.WorkerError`.
    """
    # Same rationale as Simulator.run's suspension, applied for the whole
    # worker lifetime: per-event garbage is acyclic, and gen-2 scans of the
    # O(topology) graph would otherwise recur every barrier window.  Unlike
    # Simulator.run, nothing re-enables the collector: the worker process
    # exits after one simulation, so no later work runs without it.
    gc.disable()
    from repro.core.deployment import DeploymentPlan
    from repro.experiments.runner import LINK_DELAY

    metrics = MetricsRegistry() if instrumented else None
    sim = ShardSimulator(
        shard_id,
        seed=scenario.seed,
        trace_categories=frozenset(),
        metrics=metrics,
    )
    config = SpeakerConfig(mrai=0.0)
    network = ShardNetwork(
        scenario.graph,
        assignment,
        shard_id,
        sim,
        config=config,
        link_delay=LINK_DELAY,
    )
    origins = frozenset(scenario.origins)
    attackers = frozenset(scenario.attackers)
    prefix = scenario.prefix
    registry = PrefixOriginRegistry()
    registry.register(prefix, origins)
    oracle = GroundTruthOracle(registry)
    alarm_log = _TaggedAlarmLog(sim)
    plan = DeploymentPlan(capable=capable)
    checkers: Dict[ASN, MoasChecker] = plan.apply(
        network,
        oracle,
        mode=scenario.checker_mode,
        shared_alarm_log=alarm_log,
    )

    # "is not None" throughout: an empty MetricsRegistry is falsy.
    m_in = (
        metrics.counter("shard.cross_messages_in")
        if metrics is not None
        else None
    )
    m_ticks = metrics.counter("shard.ticks") if metrics is not None else None
    m_solo = (
        metrics.counter("shard.solo_ticks") if metrics is not None else None
    )

    def status() -> Tuple[str, _Status]:
        return ("status", (network.outbox.drain(), sim.queue.peek_time()))

    def logs() -> Dict[str, Any]:
        snapshot = metrics.snapshot() if metrics is not None else None
        return {"alarms": alarm_log.tagged(), "metrics": snapshot}

    def take_mail(records: List[MailRecord]) -> None:
        if records:
            network.deliver_inbound(records)
            if m_in is not None:
                m_in.inc(len(records))

    while True:
        command = conn.recv()
        op = command[0]
        if op == "ops":
            _, phase, epoch, now = command
            sim.begin_ops(epoch, now)
            if phase == "establish":
                network.establish_ops()
            elif phase == "originate":
                communities = (
                    moas_communities(origins) if len(origins) > 1 else ()
                )
                network.originate_ops(sorted(origins), prefix, communities)
            elif phase == "attack":
                network.attack_ops(
                    scenario.strategy, sorted(attackers), prefix, origins
                )
            else:
                raise ValueError(f"unknown ops phase {phase!r}")
            conn.send(status())
        elif op == "tick":
            _, tick_time, epoch, inbound = command
            take_mail(inbound)
            if m_ticks is not None:
                m_ticks.inc()
            conn.send(("due", sim.due_report(tick_time)))
            _, ranks, due = conn.recv()
            sim.process_tick(tick_time, epoch, due, ranks)
            conn.send(status())
        elif op == "solo":
            _, tick_time, epoch, inbound = command
            take_mail(inbound)
            if m_ticks is not None:
                m_ticks.inc()
            if m_solo is not None:
                m_solo.inc()
            due = sim.due_report(tick_time)
            sim.process_tick(tick_time, epoch, due, sim.solo_ranks(due))
            conn.send(status())
        elif op == "mail":
            _, inbound = command
            take_mail(inbound)
            conn.send(status())
        elif op == "check_established":
            network.check_established()
            conn.send(("ok", None))
        elif op == "measure":
            measured = {
                "best_origins": network.best_origins(prefix),
                "updates_sent": network.total_updates_sent(),
                "events_processed": sim.events_processed,
                "routes_suppressed": sum(
                    checker.routes_suppressed for checker in checkers.values()
                ),
                **logs(),
            }
            conn.send(("measured", measured))
        elif op == "snapshot":
            state = {
                "network": network.snapshot_state(),
                "checkers": {
                    asn: checkers[asn].snapshot_state()
                    for asn in sorted(checkers)
                },
                **logs(),
            }
            conn.send(("slice", state))
        elif op == "restore":
            _, payload = command
            network.restore_state(payload["network"])
            for asn, state in payload["checkers"].items():
                checkers[asn].restore_state(state)
            if payload["metrics"] is not None:
                assert metrics is not None
                metrics.restore_snapshot(payload["metrics"])
            conn.send(("ok", None))
        elif command == STOP:
            return
        else:
            raise ValueError(f"unknown command {op!r}")


# -- coordinator --------------------------------------------------------------


class _Coordinator:
    """Owns the worker fleet, the barrier clock and the merged logs."""

    def __init__(
        self,
        scenario: "HijackScenario",
        n_shards: int,
        capable: FrozenSet[ASN],
        instrumented: bool,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        graph = scenario.graph
        self.scenario = scenario
        self.n_shards = n_shards
        self.assignment: Dict[ASN, int] = partition_speakers(
            graph.asns(), graph.edges(), n_shards
        )
        self.stats = ShardStats(n_shards=n_shards)
        sizes = [0] * n_shards
        for shard in self.assignment.values():
            sizes[shard] += 1
        self.stats.shard_sizes = sizes
        edges = graph.edges()
        self.stats.total_edges = len(edges)
        self.stats.cut_edges = sum(
            1 for a, b in edges if self.assignment[a] != self.assignment[b]
        )
        self.now = 0.0
        self.epoch = 0
        # Mail routed but not yet handed to its destination worker.
        self.inbound: Dict[int, List[MailRecord]] = {
            shard: [] for shard in range(n_shards)
        }
        self.peek: Dict[int, Optional[float]] = {}
        self.pool = WorkerPool(
            _worker_main,
            n_shards,
            (scenario, self.assignment, capable, instrumented),
            name="sim-shard",
        )

    def _absorb_status(self, shard_id: int) -> None:
        mail, peek_time = self.pool.recv(shard_id, "status")
        self.peek[shard_id] = peek_time
        for dest, records in sorted(mail.items()):
            self.inbound[dest].extend(records)
            self.stats.cross_messages += len(records)
            self.stats.cross_batches += 1
            self.stats.max_batch_size = max(
                self.stats.max_batch_size, len(records)
            )

    # -- phases --------------------------------------------------------------

    def inject_phase(self, phase: str) -> None:
        """Broadcast one global setup-ops phase (no ticking).

        Kept separate from :meth:`run_to_quiescence` because SIMULTANEOUS
        timing *races* origination against the attack: both phases inject
        back-to-back at the same global instant and only then does the
        network converge — exactly the serial runner's phase order.
        """
        self.epoch += 1
        for shard_id in range(self.n_shards):
            self.pool.send(shard_id, ("ops", phase, self.epoch, self.now))
        for shard_id in range(self.n_shards):
            self._absorb_status(shard_id)

    def run_phase(self, phase: str) -> None:
        """Inject one global setup phase, then drive ticks to quiescence."""
        self.inject_phase(phase)
        self.run_to_quiescence()

    def run_to_quiescence(self) -> None:
        pool = self.pool
        while True:
            times = [t for t in self.peek.values() if t is not None]
            times.extend(
                record[2]
                for records in self.inbound.values()
                for record in records
            )
            if not times:
                return
            tick = min(times)
            self.epoch += 1
            self.now = tick
            self.stats.ticks += 1
            due_shards = [
                shard_id
                for shard_id in range(self.n_shards)
                if self.peek[shard_id] == tick
                or any(record[2] == tick for record in self.inbound[shard_id])
            ]
            mail_shards = [
                shard_id
                for shard_id in range(self.n_shards)
                if shard_id not in due_shards and self.inbound[shard_id]
            ]

            def take_inbound(shard_id: int) -> List[MailRecord]:
                records = self.inbound[shard_id]
                self.inbound[shard_id] = []
                return records

            if len(due_shards) == 1:
                # Solo tick: the one due shard's local order is already the
                # global order, so the rank exchange round trip is skipped.
                self.stats.solo_ticks += 1
                solo = due_shards[0]
                pool.send(solo, ("solo", tick, self.epoch, take_inbound(solo)))
                for shard_id in mail_shards:
                    pool.send(shard_id, ("mail", take_inbound(shard_id)))
                self._absorb_status(solo)
            else:
                for shard_id in due_shards:
                    pool.send(
                        shard_id,
                        ("tick", tick, self.epoch, take_inbound(shard_id)),
                    )
                for shard_id in mail_shards:
                    pool.send(shard_id, ("mail", take_inbound(shard_id)))
                reports: Dict[int, List[Any]] = {
                    shard_id: pool.recv(shard_id, "due")
                    for shard_id in due_shards
                }
                ranks = self._merge_ranks(reports)
                for shard_id in due_shards:
                    pool.send(
                        shard_id,
                        ("ranks", ranks[shard_id], reports[shard_id]),
                    )
                for shard_id in due_shards:
                    self._absorb_status(shard_id)
            for shard_id in mail_shards:
                self._absorb_status(shard_id)

    @staticmethod
    def _merge_ranks(
        reports: Dict[int, List[Any]]
    ) -> Dict[int, List[int]]:
        """K-way merge of sorted per-shard due-key lists into global ranks."""
        entries = [
            (key, shard_id, index)
            for shard_id, keys in reports.items()
            for index, key in enumerate(keys)
        ]
        entries.sort(key=lambda entry: entry[0])
        ranks = {
            shard_id: [0] * len(keys) for shard_id, keys in reports.items()
        }
        for global_rank, (_, shard_id, index) in enumerate(entries):
            ranks[shard_id][index] = global_rank
        return ranks

    # -- state exchange ------------------------------------------------------

    def capture_baseline(
        self, key: BaselineKey, instrumented: bool
    ) -> Optional[BaselineSnapshot]:
        """Merge per-shard slices into a serial-format baseline snapshot."""
        slices = self.pool.broadcast(("snapshot",), "slice")
        network_state = merge_network_snapshots(
            [part["network"] for part in slices]
        )
        if not snapshot_is_seed_free(network_state):
            return None
        checkers: Dict[ASN, Dict[str, Any]] = {}
        for part in slices:
            checkers.update(part["checkers"])
        alarms = merge_tagged_alarms([part["alarms"] for part in slices])
        metrics_state = None
        if instrumented:
            metrics_state = merge_metric_snapshots(
                [part["metrics"] for part in slices]
            )
        return BaselineSnapshot(
            key_digest=key.digest(),
            network=network_state,
            checkers={asn: checkers[asn] for asn in sorted(checkers)},
            alarms=alarms,
            metrics=metrics_state,
        )

    def restore_baseline(self, cached: BaselineSnapshot) -> None:
        """Split a serial-format baseline across the shard fleet."""
        graph = self.scenario.graph
        messages = []
        for shard_id in range(self.n_shards):
            payload = {
                "network": split_network_snapshot(
                    cached.network, graph, self.assignment, shard_id
                ),
                "checkers": {
                    asn: state
                    for asn, state in cached.checkers.items()
                    if self.assignment[asn] == shard_id
                },
                # The full metric baseline rides on shard 0 (merge sums
                # counters, so splitting them would double-count).
                "metrics": cached.metrics if shard_id == 0 else None,
            }
            messages.append(("restore", payload))
        self.pool.gather(messages, "ok")
        self.now = float(cached.network["sim"]["now"])


def run_sharded(
    scenario: "HijackScenario",
    n_shards: int,
    warm_start: "WarmStartSpec" = None,
    instrumented: bool = False,
) -> ShardedRun:
    """Execute one hijack scenario across ``n_shards`` worker processes.

    Phase structure, warm-start behaviour and the measured outcome mirror
    :func:`repro.experiments.runner._execute_scenario` exactly — a sharded
    run is bit-identical to the serial engine (outcome, alarm order,
    masked metrics), it just spends less wall time getting there.  The
    baseline cache is shared with serial runs: captures merge into the
    serial snapshot format and restores split it back per shard.
    """
    from repro.experiments.runner import (
        LINK_DELAY,
        AttackTiming,
        HijackOutcome,
        _deployment_plan,
    )

    started = time.perf_counter()  # repro-lint: disable=R002
    scenario.validate()
    config = SpeakerConfig(mrai=0.0)
    if config.hold_time > 0:  # pragma: no cover - harness pins hold_time=0
        raise ValueError(
            "sharded runs require hold_time=0: keepalive timers never "
            "quiesce, so the barrier loop would not terminate"
        )
    plan = _deployment_plan(scenario)
    warm = resolve_warm_start(warm_start)
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

    attackers = frozenset(scenario.attackers)
    baseline_alarms: List[Alarm] = []
    coordinator = _Coordinator(scenario, n_shards, plan.capable, instrumented)
    try:
        if cached is not None:
            assert warm is not None
            restore_started = time.perf_counter()  # repro-lint: disable=R002
            coordinator.restore_baseline(cached)
            baseline_alarms = list(cached.alarms)
            restore_seconds = (
                time.perf_counter() - restore_started  # repro-lint: disable=R002
            )
            warm.observe_restore_seconds(restore_seconds)
            warm_info["hit"] = True
            warm_info["restore_seconds"] = restore_seconds
        else:
            coordinator.run_phase("establish")
            coordinator.pool.broadcast(("check_established",), "ok")
            if scenario.timing is AttackTiming.POST_CONVERGENCE:
                coordinator.run_phase("originate")
            if warm is not None:
                assert key is not None
                baseline = coordinator.capture_baseline(key, instrumented)
                if baseline is None:
                    warm.note_uncacheable()
                else:
                    warm.put(key, baseline)

        if scenario.timing is AttackTiming.SIMULTANEOUS:
            coordinator.inject_phase("originate")
        coordinator.inject_phase("attack")
        coordinator.run_to_quiescence()

        reports = coordinator.pool.broadcast(("measure",), "measured")
    finally:
        coordinator.pool.close()
    coordinator.stats.barrier_wait_seconds = coordinator.pool.wait_seconds

    best_origins: Dict[ASN, Optional[ASN]] = {}
    for report in reports:
        best_origins.update(report["best_origins"])
    poisoned = frozenset(
        asn
        for asn, best_origin in best_origins.items()
        if asn not in attackers and best_origin in attackers
    )
    alarms = baseline_alarms + merge_tagged_alarms(
        [report["alarms"] for report in reports]
    )
    metrics = None
    if instrumented:
        metrics = merge_metric_snapshots(
            [report["metrics"] for report in reports]
        )
    outcome = HijackOutcome(
        poisoned=poisoned,
        n_remaining=len(scenario.graph) - len(attackers),
        alarms=len(alarms),
        routes_suppressed=sum(r["routes_suppressed"] for r in reports),
        capable=plan.capable,
        events_processed=sum(r["events_processed"] for r in reports),
        updates_sent=sum(r["updates_sent"] for r in reports),
        wall_seconds=time.perf_counter() - started,  # repro-lint: disable=R002
    )
    return ShardedRun(
        outcome=outcome,
        alarms=alarms,
        metrics=metrics,
        warm_info=warm_info,
        stats=coordinator.stats,
    )


def run_hijack_scenario_sharded(
    scenario: "HijackScenario",
    n_shards: int,
    warm_start: "WarmStartSpec" = None,
) -> "HijackOutcome":
    """The sharded twin of :func:`repro.experiments.runner.run_hijack_scenario`."""
    return run_sharded(scenario, n_shards, warm_start=warm_start).outcome
