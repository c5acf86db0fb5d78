"""``sweep``: the paper's Figure 9 workload, one scenario at a time.

One closed-loop caller runs ``run_hijack_scenario`` on Fig-9 style
scenarios: 63-AS paper topologies, the full MOAS-deployment arm only,
simultaneous announcement, attacker fractions 2-40 %, 3 origin sets x 5
attacker sets per fraction.  Eight topologies and two placement draws
each are pooled and shuffled, so any prefix of the pool is a fair sample of the
whole and a faster program samples the same mix.  A single arm keeps the
latency distribution unimodal.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from typing import Any, Dict, List, Sequence

from common import (
    Accumulator,
    BenchError,
    GCPauses,
    latency_summary,
    mark_ready,
    median_ms,
    min_samples_for,
    peak_rss_mb,
)

from repro.experiments.runner import (
    AttackTiming,
    DeploymentKind,
    HijackOutcome,
    HijackScenario,
    run_hijack_scenario,
    run_hijack_scenario_instrumented,
)
from repro.experiments.sweep import SweepConfig, build_sweep_scenarios
from repro.topology.generators import generate_paper_topology
from repro.topology.sampling import SamplingError

TOPOLOGY_SIZE = 63
#: Scenario cost depends on the topology (one 63-AS draw in twelve costs
#: half as much again as the rest), so a run pools many topologies.
TOPOLOGIES = 8
DRAWS_PER_TOPOLOGY = 2
#: Every this-many-th executed scenario is re-run instrumented as the
#: oracle (the instrumented path must give the same outcome).
ORACLE_STRIDE = 8
#: Peak RSS is read after exactly this many scenarios: the simulator
#: suspends the collector, so RSS grows with the work a process has done
#: and a reading after a fixed amount of work is the comparable one.
RSS_AFTER_OPS = 300
#: Scenarios of the traced run, each run both untraced and traced; at
#: least ``DIGEST_SCENARIOS`` so the digest oracle runs there too.
TRACE_OPS = 150
#: The seed whose first ``DIGEST_SCENARIOS`` outcomes are pinned below.
DEFAULT_SEED = 0
DIGEST_SCENARIOS = 135
#: sha256 of the masked outcomes of the first 135 pooled scenarios of
#: ``DEFAULT_SEED`` (see :func:`outcome_digest`).
DEFAULT_DIGEST = "67c8bf28ea85325d6b4ec419abceedd2c49b42ab51f868c9f5b8c80e977cb06a"


def _topology(seed: int, index: int) -> Any:
    base = seed * 1009 + index * 101
    for attempt in range(10):
        try:
            return generate_paper_topology(TOPOLOGY_SIZE, seed=base + attempt)
        except SamplingError:
            continue
    raise BenchError(f"no {TOPOLOGY_SIZE}-AS topology near seed {base}")


def build_pool(seed: int, layers: Accumulator) -> List[HijackScenario]:
    """Every scenario this seed can run, in a seeded shuffled order."""
    pool: List[HijackScenario] = []
    for t in range(TOPOLOGIES):
        started = time.perf_counter()
        graph = _topology(seed, t)
        layers.add("topology.generate_s", time.perf_counter() - started, keep=True)
        for draw in range(DRAWS_PER_TOPOLOGY):
            config = SweepConfig(
                graph=graph,
                n_origins=1 + draw % 2,
                deployment=DeploymentKind.FULL,
                timing=AttackTiming.SIMULTANEOUS,
                seed=seed * 7919 + t * 131 + draw,
            )
            started = time.perf_counter()
            for _, _, scenarios in build_sweep_scenarios(config):
                pool.extend(scenarios)
            layers.add(
                "experiments.build_scenarios_s",
                time.perf_counter() - started,
                keep=True,
            )
    random.Random(seed).shuffle(pool)
    return pool


def outcome_digest(outcomes: Sequence[HijackOutcome]) -> str:
    docs = [o.masked_timing().to_dict() for o in outcomes]
    blob = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _loop(
    pool: Sequence[HijackScenario], seconds: float, call: Any, min_ops: int
) -> Dict[str, Any]:
    """Closed loop: next scenario as soon as the previous one returns.

    Runs for ``seconds`` and at least ``min_ops`` scenarios; cycles the
    pool if the program outruns it.
    """
    rss = 0.0
    latencies: List[float] = []
    outcomes: List[Any] = []
    started = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and len(latencies) >= min_ops:
            break
        op_started = time.perf_counter()
        outcomes.append(call(pool[i % len(pool)]))
        latencies.append(time.perf_counter() - op_started)
        i += 1
        if i == RSS_AFTER_OPS:
            rss = peak_rss_mb()
    return {
        "elapsed": time.perf_counter() - started,
        "latencies": latencies,
        "outcomes": outcomes,
        "peak_rss_mb": rss,
    }


def _plain(scenario: HijackScenario) -> HijackOutcome:
    return run_hijack_scenario(scenario, warm_start="off")


def digest_problems(
    seed: int, pool: Sequence[HijackScenario], outcomes: Sequence[HijackOutcome]
) -> List[str]:
    """The default seed must reproduce its pinned digest."""
    if seed != DEFAULT_SEED:
        return []
    head = list(outcomes[:DIGEST_SCENARIOS])
    for i in range(len(head), DIGEST_SCENARIOS):
        head.append(_plain(pool[i]))
    digest = outcome_digest(head)
    if digest != DEFAULT_DIGEST:
        return [f"outcome digest {digest} != pinned {DEFAULT_DIGEST}"]
    return []


def check(
    seed: int, pool: Sequence[HijackScenario], outcomes: Sequence[HijackOutcome]
) -> List[str]:
    """The instrumented path agrees with the timed one; the default seed
    also reproduces its pinned digest."""
    problems = []
    for i in range(0, len(outcomes), ORACLE_STRIDE):
        traced = run_hijack_scenario_instrumented(pool[i % len(pool)], warm_start="off")
        if not traced.outcome.equivalent_to(outcomes[i]):
            problems.append(f"scenario {i}: instrumented outcome differs")
    return problems + digest_problems(seed, pool, outcomes)


def run_child(mode: str, seed: int, seconds: float, workdir: Any) -> Dict[str, Any]:
    layers = Accumulator()
    pool = build_pool(seed, layers)
    ready = mark_ready()
    if mode == "setup":
        return {"ready": ready}
    if mode == "trace":
        return _trace(seed, pool, layers, ready)
    # Enough scenarios for a p90 with ten samples above it and for the
    # peak-RSS reading.
    run = _loop(pool, seconds, _plain, max(min_samples_for(0.90), RSS_AFTER_OPS))
    problems = check(seed, pool, run["outcomes"])
    return {
        "ready": ready,
        "ops": len(run["latencies"]),
        "failed": len(problems),
        "problems": problems,
        "throughput_per_s": len(run["latencies"]) / run["elapsed"],
        "peak_rss_mb": run["peak_rss_mb"],
        **latency_summary(run["latencies"]),
    }


#: Phase span -> per-layer metric (milliseconds per scenario, median).
SPAN_METRICS = {
    "topology_build": "bgp.build_ms",
    "establish_sessions": "bgp.establish_ms",
    "fault_injection": "attack.launch_ms",
    "recovery_convergence": "eventsim.converge_ms",
}


def _trace(
    seed: int, pool: Sequence[HijackScenario], layers: Accumulator, ready: float
) -> Dict[str, Any]:
    """Each scenario untraced and traced, in alternating order so neither
    gains from running second; per-layer numbers come from the program's
    own phase spans and instruments.  The oracle is the timed run's: the
    traced outcome must equal the untraced one, and the default seed must
    reproduce its digest."""
    clock = time.perf_counter
    n = TRACE_OPS
    plain_s = traced_s = 0.0
    spans: Dict[str, List[float]] = {name: [] for name in SPAN_METRICS}
    counters: Dict[str, float] = {}
    depth_max = 0.0
    outcomes: List[HijackOutcome] = []
    problems: List[str] = []
    gcp = GCPauses()
    for i in range(n):
        scenario = pool[i % len(pool)]
        for timed in ((False, True) if i % 2 else (True, False)):
            started = clock()
            if not timed:
                outcome = _plain(scenario)
                plain_s += clock() - started
                continue
            with gcp:
                run = run_hijack_scenario_instrumented(scenario, warm_start="off")
            traced_s += clock() - started
            gcp.end_op()
            for span in run.spans:
                if span["name"] in spans:
                    spans[span["name"]].append(span["wall_seconds"])
            for key, value in run.metrics.items():
                if isinstance(value, (int, float)):
                    counters[key] = counters.get(key, 0) + value
            depth_max = max(depth_max, run.metrics.get("sim.queue_depth", {}).get("max", 0.0))
        outcomes.append(outcome)
        if not run.outcome.equivalent_to(outcome):
            problems.append(f"scenario {i}: instrumented outcome differs")
    problems.extend(digest_problems(seed, pool, outcomes))
    sim_s = sum(spans["establish_sessions"]) + sum(spans["recovery_convergence"])
    lookups = counters.get("bgp.export_cache_hits", 0) + counters.get("bgp.export_cache_misses", 0)
    checks = counters.get("checker.checks", 0)
    metrics = {
        "topology.generate_s": median_ms(layers.samples["topology.generate_s"]) / 1000.0,
        "experiments.build_scenarios_s": median_ms(layers.samples["experiments.build_scenarios_s"]) / 1000.0,
        "eventsim.events": counters.get("sim.events", 0) / n,
        "eventsim.events_per_s": counters.get("sim.events", 0) / sim_s if sim_s else 0.0,
        "eventsim.queue_depth_max": depth_max,
        "bgp.updates_sent": counters.get("bgp.updates_sent", 0) / n,
        "bgp.decision_runs": counters.get("bgp.decision_runs", 0) / n,
        "bgp.export_cache_hit_ratio": counters.get("bgp.export_cache_hits", 0) / lookups if lookups else 0.0,
        "core.checks": checks / n,
        "core.alarms": counters.get("checker.alarms", 0) / n,
        "core.routes_suppressed": counters.get("checker.routes_suppressed", 0) / n,
        "core.conflict_ratio": counters.get("checker.list_conflicts", 0) / checks if checks else 0.0,
        "trace.overhead.sweep": traced_s / plain_s - 1.0,
        **gcp.metrics("gc.pause_ms.sweep"),
    }
    for span_name, metric in SPAN_METRICS.items():
        metrics[metric] = median_ms(spans[span_name])
    return {"ready": ready, "ops": n, "failed": len(problems), "problems": problems, "layers": metrics}
