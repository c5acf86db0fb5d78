"""Command-line interface.

Exposes the reproduction's main entry points without writing any Python:

* ``repro figure <id>`` — regenerate a figure (fig4/fig5/fig8/fig9/fig10/
  fig11/headline) and print the paper-vs-measured table;
* ``repro study`` — run the §3 measurement study and print its summary;
* ``repro monitor <dump>`` — run the §4.2 off-line monitor over a
  RouteViews-style dump file;
* ``repro topology`` — generate a paper-style topology and describe it;
* ``repro hijack`` — run one hijack scenario and report the outcome;
* ``repro profile`` — run one hijack scenario under cProfile and print
  the hottest functions (``--output`` dumps raw pstats data);
* ``repro sweep`` — run an attacker-fraction sweep, optionally emitting a
  JSONL run manifest (``--manifest``);
* ``repro report`` — aggregate a run manifest back into the paper's tables;
* ``repro stream gen`` / ``repro stream run`` — produce a BGP update feed
  from the synthetic trace, and run the online detection service over a
  feed with checkpoint/resume (see ``docs/streaming.md``).

Unknown subcommands exit 2 with a usage message; ``main()`` returns exit
codes rather than raising ``SystemExit`` so it can be driven in-process.
Also runnable as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, List, Optional, Sequence

QUICK_FRACTIONS = (0.05, 0.20, 0.40)
FULL_FRACTIONS = (0.05, 0.10, 0.20, 0.30, 0.40)


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import format_series_table, format_sweep_table

    fractions = QUICK_FRACTIONS if args.quick else FULL_FRACTIONS
    figure_id = args.id.lower()

    if figure_id in ("fig4", "fig5"):
        from repro.experiments.measurement_repro import run_measurement_study
        from repro.measurement.trace import TraceConfig

        config = TraceConfig(days=200 if args.quick else 1279)
        if args.quick:
            # Keep the fault days inside the shortened trace.
            from repro.measurement.trace import FaultSpike

            config.faults = (
                FaultSpike(day=60, faulty_as=8584, n_prefixes=300),
                FaultSpike(day=150, faulty_as=15412, n_prefixes=900),
            )
        study = run_measurement_study(
            config, seed=args.seed,
            duration_cutoff=config.days if args.quick else 983,
        )
        if figure_id == "fig4":
            print(format_series_table(
                study.figure4_series(), headers=("day", "MOAS cases"),
                title="Figure 4 — daily MOAS cases", max_rows=30,
            ))
        else:
            from repro.experiments.ascii_chart import render_histogram

            bins = study.tracker.binned_histogram([1, 2, 5, 10, 30, 100, 300])
            print(render_histogram(bins, title="Figure 5 — MOAS durations"))
        for label, value in study.summary.rows():
            print(f"{label:28s} {value}")
        return 0

    if figure_id == "fig8":
        from repro.topology.generators import generate_paper_topology

        for size in (25, 46, 63):
            graph = generate_paper_topology(size, seed=args.seed)
            print(
                f"{size}-AS: {graph.num_links()} links, "
                f"{len(graph.transit_asns())} transit, "
                f"{len(graph.stub_asns())} stubs, "
                f"avg degree {graph.average_degree():.2f}"
            )
        return 0

    if figure_id in ("fig9", "headline"):
        from repro.experiments.exp_effectiveness import figure9

        if figure_id == "headline":
            # The headline always needs the ~4% and 30% grid points.
            fractions = (0.05, 0.30)
        result = figure9(
            attacker_fractions=fractions, seed=args.seed, workers=args.workers
        )
        for n_origins, curves in sorted(result.panels.items()):
            print(format_sweep_table(
                curves, title=f"--- {n_origins} origin AS(es) ---"
            ))
        if figure_id == "headline":
            for label, value in result.headline().items():
                print(f"{label:12s} {value:.2f}%")
        return 0

    if figure_id == "fig10":
        from repro.experiments.exp_topology_size import figure10

        result = figure10(
            attacker_fractions=fractions, origin_counts=(1,), seed=args.seed,
            workers=args.workers,
        )
        for size, curves in sorted(result.panels[1].items()):
            print(format_sweep_table(curves, title=f"--- {size}-AS ---"))
        return 0

    if figure_id == "fig11":
        from repro.experiments.exp_partial import figure11

        result = figure11(
            attacker_fractions=fractions, seed=args.seed, workers=args.workers
        )
        for size, curves in sorted(result.panels.items()):
            print(format_sweep_table(curves, title=f"--- {size}-AS ---"))
        return 0

    print(f"unknown figure id: {args.id}", file=sys.stderr)
    return 2


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.experiments.measurement_repro import run_measurement_study
    from repro.measurement.trace import TraceConfig

    config = TraceConfig() if args.days is None else None
    if args.days is not None:
        config = TraceConfig(days=args.days, faults=())
    study = run_measurement_study(
        config, seed=args.seed,
        duration_cutoff=(args.days if args.days is not None else 983),
    )
    for label, value in study.summary.rows():
        print(f"{label:28s} {value}")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.core.monitor import OfflineMonitor
    from repro.topology.routeviews import parse_table_dump

    with open(args.dump) as handle:
        table = parse_table_dump(handle.read())
    monitor = OfflineMonitor()
    report = monitor.check_table(table)
    print(report.summary())
    for finding in report.conflicts:
        print(
            f"CONFLICT {finding.prefix}: origins "
            f"{sorted(finding.origins_seen)}"
        )
    for finding in report.moas_prefixes:
        if finding.consistent:
            print(
                f"moas-ok  {finding.prefix}: origins "
                f"{sorted(finding.origins_seen)}"
            )
    return 1 if report.conflicts else 0


def _cmd_topology(args: argparse.Namespace) -> int:
    from repro.topology.generators import generate_paper_topology

    graph = generate_paper_topology(args.size, seed=args.seed)
    print(
        f"{len(graph)} ASes, {graph.num_links()} links, "
        f"{len(graph.transit_asns())} transit, "
        f"{len(graph.stub_asns())} stubs, "
        f"avg degree {graph.average_degree():.2f}"
    )
    if args.edges:
        for a, b in graph.edges():
            print(f"{a} -- {b}")
    return 0


def _cmd_hijack(args: argparse.Namespace) -> int:
    import json

    from repro.attack.placement import place_attackers, place_origins
    from repro.eventsim.rng import RandomStreams
    from repro.experiments.executor import execute_scenarios
    from repro.experiments.runner import (
        AttackTiming,
        DeploymentKind,
        HijackScenario,
        run_hijack_scenario,
        run_hijack_scenario_instrumented,
    )
    from repro.topology.generators import (
        generate_paper_topology,
        generate_scale_topology,
    )

    if args.size <= 100:
        graph = generate_paper_topology(args.size, seed=args.seed)
    else:
        graph = generate_scale_topology(args.size, seed=args.seed)
    streams = RandomStreams(args.seed)
    origins = place_origins(graph, args.origins, streams.stream("origins"))
    n_attackers = max(1, round(args.attackers * len(graph)))
    attackers = place_attackers(
        graph, n_attackers, streams.stream("attackers"), exclude=origins
    )
    deployment = {
        "none": DeploymentKind.NONE,
        "partial": DeploymentKind.PARTIAL,
        "full": DeploymentKind.FULL,
    }[args.deployment]
    timing = {
        "simultaneous": AttackTiming.SIMULTANEOUS,
        "post-convergence": AttackTiming.POST_CONVERGENCE,
    }[args.timing]
    scenario = HijackScenario(
        graph=graph,
        origins=origins,
        attackers=attackers,
        deployment=deployment,
        timing=timing,
        seed=args.seed,
    )
    if args.manifest:
        # The single-record manifest path: spec + outcome + metrics.
        outcomes = execute_scenarios(
            [scenario], manifest=args.manifest, warm_start=args.warm_start
        )
        outcome = outcomes[0]
        print(f"manifest written: {args.manifest}")
    elif args.spans:
        run = run_hijack_scenario_instrumented(
            scenario, warm_start=args.warm_start
        )
        outcome = run.outcome
    else:
        outcome = run_hijack_scenario(scenario, warm_start=args.warm_start)
    if args.spans:
        if args.manifest:
            # Manifest runs discard spans in the pool crossing; re-run
            # instrumented in-process for the span dump.
            run = run_hijack_scenario_instrumented(
                scenario, warm_start=args.warm_start
            )
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump(run.spans, handle, indent=2)
            handle.write("\n")
        print(f"spans written: {args.spans}")
    print(f"topology: {args.size} ASes; origins {origins}; "
          f"{n_attackers} attackers")
    print(f"deployment: {args.deployment}")
    print(f"poisoned: {len(outcome.poisoned)}/{outcome.n_remaining} "
          f"({outcome.poisoned_fraction:.1%})")
    print(f"alarms: {outcome.alarms}; routes suppressed: "
          f"{outcome.routes_suppressed}")
    print(f"throughput: {outcome.events_processed} events, "
          f"{outcome.updates_sent} updates in {outcome.wall_seconds:.3f}s "
          f"({outcome.events_per_sec:,.0f} events/sec)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import io
    import pstats

    from repro.attack.placement import place_attackers, place_origins
    from repro.eventsim.rng import RandomStreams
    from repro.experiments.runner import (
        AttackTiming,
        DeploymentKind,
        HijackScenario,
        run_hijack_scenario,
    )
    from repro.topology.generators import (
        generate_paper_topology,
        generate_scale_topology,
    )

    if args.size <= 100:
        graph = generate_paper_topology(args.size, seed=args.seed)
    else:
        graph = generate_scale_topology(args.size, seed=args.seed)
    streams = RandomStreams(args.seed)
    origins = place_origins(graph, args.origins, streams.stream("origins"))
    n_attackers = max(1, round(args.attackers * len(graph)))
    attackers = place_attackers(
        graph, n_attackers, streams.stream("attackers"), exclude=origins
    )
    scenario = HijackScenario(
        graph=graph,
        origins=origins,
        attackers=attackers,
        deployment={
            "none": DeploymentKind.NONE,
            "partial": DeploymentKind.PARTIAL,
            "full": DeploymentKind.FULL,
        }[args.deployment],
        timing={
            "simultaneous": AttackTiming.SIMULTANEOUS,
            "post-convergence": AttackTiming.POST_CONVERGENCE,
        }[args.timing],
        seed=args.seed,
    )
    if args.warm:
        # Pull one-time costs (prefix parse caches, import machinery) out
        # of the profile so it shows the steady-state hot path.
        run_hijack_scenario(scenario)

    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(args.repeat):
        outcome = run_hijack_scenario(scenario)
    profiler.disable()

    if args.output:
        profiler.dump_stats(args.output)
        print(f"profile written: {args.output}")
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    print(buffer.getvalue().rstrip())
    print(
        f"scenario: {len(graph)} ASes, {args.deployment} deployment, "
        f"{args.timing}, x{args.repeat}"
    )
    print(
        f"last run: {outcome.events_processed} events in "
        f"{outcome.wall_seconds:.3f}s ({outcome.events_per_sec:,.0f} "
        f"events/sec)"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.runner import AttackTiming, DeploymentKind
    from repro.experiments.sweep import SweepConfig, run_sweep
    from repro.topology.generators import generate_paper_topology

    graph = generate_paper_topology(args.size, seed=args.seed)
    deployment = {
        "none": DeploymentKind.NONE,
        "partial": DeploymentKind.PARTIAL,
        "full": DeploymentKind.FULL,
    }[args.deployment]
    timing = {
        "simultaneous": AttackTiming.SIMULTANEOUS,
        "post-convergence": AttackTiming.POST_CONVERGENCE,
    }[args.timing]
    fractions = tuple(
        float(part) for part in args.fractions.split(",") if part.strip()
    )
    if not fractions:
        print("no attacker fractions given", file=sys.stderr)
        return 2
    result = run_sweep(
        SweepConfig(
            graph=graph,
            n_origins=args.origins,
            deployment=deployment,
            attacker_fractions=fractions,
            n_origin_sets=args.origin_sets,
            n_attacker_sets=args.attacker_sets,
            timing=timing,
            seed=args.seed,
        ),
        workers=args.workers,
        manifest=args.manifest,
        warm_start=args.warm_start,
    )
    from repro.experiments.reporting import format_sweep_table

    print(format_sweep_table(
        [result], title=f"sweep — {args.size} ASes, {args.deployment}"
    ))
    if args.manifest:
        print(f"manifest written: {args.manifest}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.reporting import format_manifest_report
    from repro.obs.manifest import aggregate_manifest, read_manifest

    records = read_manifest(args.manifest)
    if not records:
        print(f"{args.manifest}: manifest holds no records", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(aggregate_manifest(records), indent=2, sort_keys=True))
    else:
        print(format_manifest_report(
            records, title=f"run manifest — {args.manifest}"
        ))
    return 0


def _cmd_stream_gen(args: argparse.Namespace) -> int:
    import random

    from repro.measurement.trace import TraceConfig, TraceGenerator
    from repro.stream.feed import FeedWriter, snapshot_deltas

    if args.days < 1:
        print(f"--days must be >= 1, got {args.days}", file=sys.stderr)
        return 2
    defaults = TraceConfig()
    # Keep only the fault spikes that land inside the shortened trace, and
    # size the background pool so every fault victim exists beforehand —
    # that pre-existence is what turns a spike into inconsistent-list
    # alarms on the stream path.
    faults = tuple(f for f in defaults.faults if f.day < args.days)
    needed = sum(f.n_prefixes for f in faults)
    config = TraceConfig(
        days=args.days,
        faults=faults,
        n_background_prefixes=max(2000, needed),
        include_background=True,
    )
    generator = TraceGenerator(config, random.Random(args.seed))
    with FeedWriter(args.out) as writer:
        total = writer.write_all(
            snapshot_deltas(generator.snapshots(), refresh=args.refresh)
        )
    print(
        f"feed written: {args.out} ({total} records, {args.days} days, "
        f"{len(faults)} fault spike(s), seed {args.seed}"
        f"{', refresh mode' if args.refresh else ''})"
    )
    return 0


def _cmd_stream_run(args: argparse.Namespace) -> int:
    from repro.obs.manifest import ManifestWriter
    from repro.obs.metrics import MetricsRegistry
    from repro.procpool import WorkerError
    from repro.stream.checkpoint import CheckpointError
    from repro.stream.service import StreamService

    if args.resume and args.checkpoint is None:
        print("--resume requires --checkpoint", file=sys.stderr)
        return 2
    if args.follow and (args.shards > 1 or len(args.feed) > 1):
        print("--follow is not supported with several feeds or shards", file=sys.stderr)
        return 2
    metrics = MetricsRegistry()
    service = StreamService(
        args.feed,
        args.alarms,
        args.checkpoint,
        shards=args.shards,
        window=args.window,
        checkpoint_every=args.checkpoint_every,
        full_every=args.full_every,
        follow=args.follow,
        poll_interval=args.poll,
        throttle=args.throttle,
        max_records=args.max_records,
        metrics=metrics,
        index=args.index,
    )
    service.install_signal_handlers()
    try:
        summary = service.run(resume=args.resume)
    except (CheckpointError, FileNotFoundError, ValueError, WorkerError) as exc:
        print(f"stream run failed: {exc}", file=sys.stderr)
        return 1
    if args.manifest:
        with ManifestWriter(args.manifest) as writer:
            writer.write(
                service.manifest_record(
                    summary,
                    spec={"resume": args.resume, "seed": None},
                    metrics=metrics,
                )
            )
        print(f"manifest written: {args.manifest}")
    print(
        f"processed {summary.records} records to offset {summary.offset} "
        f"({summary.days_ticked} days)"
    )
    print(
        f"alarms: {summary.alarms_emitted} emitted "
        f"(+{summary.alarm_duplicates} duplicates), "
        f"{summary.alarm_lines} lines durable in {args.alarms}"
    )
    print(
        f"state: {summary.state_prefixes} prefixes, "
        f"{summary.moas_active} in MOAS"
    )
    print(
        f"checkpoints: {summary.checkpoints} "
        f"({summary.checkpoint_fulls} full, {summary.checkpoint_deltas} "
        f"delta, {summary.checkpoint_seconds:.3f}s total)"
    )
    if summary.shards > 1:
        print(f"shards: {summary.shards} engines over {len(args.feed)} feed(s)")
    print(
        f"throughput: {summary.records} records in "
        f"{summary.wall_seconds:.3f}s ({summary.events_per_sec:,.0f} "
        f"records/sec)"
    )
    if summary.stopped:
        print("stopped on request; resume with --resume to continue")
    if args.index:
        print(f"query index maintained in {args.index}")
    return 0


# -- query subcommands --------------------------------------------------------


def _cmd_query_build(args: argparse.Namespace) -> int:
    from repro.query import build_index

    try:
        info = build_index(
            args.feeds,
            args.alarms,
            args.out,
            segment_days=args.segment_days,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"query build failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"index built: {args.out} ({info['segments']} segment(s), "
        f"{info['records']} records, {info['days']} days, "
        f"{info['feeds']} feed(s))"
    )
    return 0


def _cmd_query_scan(args: argparse.Namespace) -> int:
    from repro.query import answers_doc, canonical_json, scan_state

    try:
        state = scan_state(args.feeds, args.alarms)
    except (FileNotFoundError, ValueError) as exc:
        print(f"query scan failed: {exc}", file=sys.stderr)
        return 1
    print(canonical_json(answers_doc(state, args.k)))
    return 0


def _cmd_query_dump(args: argparse.Namespace) -> int:
    from repro.query import QueryIndex, answers_doc, canonical_json

    try:
        index = QueryIndex(args.index)
    except (FileNotFoundError, ValueError) as exc:
        print(f"query dump failed: {exc}", file=sys.stderr)
        return 1
    print(canonical_json(answers_doc(index.state, args.k)))
    return 0


def _cmd_query_stats(args: argparse.Namespace) -> int:
    from repro.query import QueryIndex, canonical_json

    try:
        index = QueryIndex(args.index)
    except (FileNotFoundError, ValueError) as exc:
        print(f"query stats failed: {exc}", file=sys.stderr)
        return 1
    print(canonical_json(index.stats()))
    return 0


def _cmd_query_prefix(args: argparse.Namespace) -> int:
    from repro.query import QueryIndex, canonical_json

    try:
        index = QueryIndex(args.index)
    except (FileNotFoundError, ValueError) as exc:
        print(f"query prefix failed: {exc}", file=sys.stderr)
        return 1
    print(canonical_json(index.prefix(args.prefix)))
    return 0


def _cmd_query_top(args: argparse.Namespace) -> int:
    from repro.query import QueryIndex, canonical_json

    try:
        index = QueryIndex(args.index)
        rows = index.top(args.k, args.by)
    except (FileNotFoundError, ValueError) as exc:
        print(f"query top failed: {exc}", file=sys.stderr)
        return 1
    print(canonical_json(rows))
    return 0


def _cmd_query_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.obs.metrics import MetricsRegistry
    from repro.query.server import make_server

    metrics = MetricsRegistry()
    try:
        server = make_server(
            args.index, args.host, args.port, metrics=metrics
        )
    except (FileNotFoundError, ValueError, OSError) as exc:
        print(f"query serve failed: {exc}", file=sys.stderr)
        return 1
    host, port = server.server_address[:2]
    print(
        f"serving query API at http://{host}:{port} (index: {args.index}, "
        f"generation {server.index.generation}); SIGTERM/Ctrl-C to stop",
        flush=True,
    )
    stop = threading.Event()

    def _on_signal(signum: int, frame: Any) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    thread = threading.Thread(
        target=server.serve_forever, name="query-server", daemon=True
    )
    thread.start()
    stop.wait()
    server.shutdown()
    thread.join()
    server.server_close()
    print("query server stopped")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Detection of Invalid Routing "
        "Announcement in the Internet' (DSN 2002)",
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="enable runtime invariant checking (RIB consistency, MOAS "
        "attachment round-trips, monotonic event times); equivalent to "
        "setting REPRO_SANITIZE=1",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figure = sub.add_parser("figure", help="regenerate one of the paper's figures")
    figure.add_argument(
        "id",
        help="fig4 | fig5 | fig8 | fig9 | fig10 | fig11 | headline",
    )
    figure.add_argument("--quick", action="store_true",
                        help="smaller grids for a fast look")
    figure.add_argument("--seed", type=int, default=8)
    figure.add_argument(
        "--workers", type=int, default=None,
        help="parallel simulation workers for fig9/fig10/fig11/headline "
        "(default: REPRO_WORKERS env var, else 1 = serial); results are "
        "identical at any worker count",
    )
    figure.set_defaults(func=_cmd_figure)

    study = sub.add_parser("study", help="run the §3 measurement study")
    study.add_argument("--days", type=int, default=None)
    study.add_argument("--seed", type=int, default=42)
    study.set_defaults(func=_cmd_study)

    monitor = sub.add_parser("monitor", help="off-line MOAS monitor over a dump")
    monitor.add_argument("dump", help="path to a RouteViews-style dump file")
    monitor.set_defaults(func=_cmd_monitor)

    topology = sub.add_parser("topology", help="generate a paper-style topology")
    topology.add_argument("--size", type=int, default=46)
    topology.add_argument("--seed", type=int, default=8)
    topology.add_argument("--edges", action="store_true", help="print edge list")
    topology.set_defaults(func=_cmd_topology)

    hijack = sub.add_parser("hijack", help="run one hijack scenario")
    hijack.add_argument(
        "--size", type=int, default=46,
        help="topology size; <=100 uses the paper generator, larger sizes "
        "the Internet-like scale generator (default 46)",
    )
    hijack.add_argument("--origins", type=int, default=1)
    hijack.add_argument("--attackers", type=float, default=0.1,
                        help="attacker fraction of ASes")
    hijack.add_argument("--deployment", choices=("none", "partial", "full"),
                        default="full")
    hijack.add_argument(
        "--timing", choices=("simultaneous", "post-convergence"),
        default="simultaneous",
        help="when the false origination is injected: racing the genuine "
        "announcement from a cold start, or against an already-converged "
        "prefix",
    )
    hijack.add_argument(
        "--warm-start", default=None, metavar="MODE",
        help="baseline cache: 'mem' (in-process LRU), 'disk' "
        "(~/.cache/repro-warmstart), or a directory path; default: the "
        "REPRO_WARMSTART env var, else off; results are identical either "
        "way (see docs/warmstart.md)",
    )
    hijack.add_argument("--seed", type=int, default=8)
    hijack.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="write a one-record JSONL run manifest (spec, seed, outcome, "
        "metric snapshot, worker id) to PATH",
    )
    hijack.add_argument(
        "--spans", default=None, metavar="PATH",
        help="write the phase-span trace (topology build, convergence, "
        "fault injection, recovery) as JSON to PATH",
    )
    hijack.set_defaults(func=_cmd_hijack)

    profile = sub.add_parser(
        "profile",
        help="profile one hijack scenario under cProfile and print the "
        "hottest functions",
    )
    profile.add_argument(
        "--size", type=int, default=63,
        help="topology size; <=100 uses the paper generator, larger sizes "
        "the Internet-like scale generator (default 63)",
    )
    profile.add_argument("--origins", type=int, default=1)
    profile.add_argument("--attackers", type=float, default=0.1,
                         help="attacker fraction of ASes")
    profile.add_argument("--deployment", choices=("none", "partial", "full"),
                         default="full")
    profile.add_argument(
        "--timing", choices=("simultaneous", "post-convergence"),
        default="simultaneous",
    )
    profile.add_argument("--seed", type=int, default=8)
    profile.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="profile N back-to-back runs (averages out noise on small "
        "topologies)",
    )
    profile.add_argument(
        "--warm", action="store_true",
        help="run the scenario once unprofiled first so one-time caches "
        "don't pollute the profile",
    )
    profile.add_argument(
        "--sort", default="cumulative",
        choices=("cumulative", "tottime", "ncalls", "calls", "time"),
        help="pstats sort key (default cumulative)",
    )
    profile.add_argument("--limit", type=int, default=25, metavar="N",
                         help="print the top N entries (default 25)")
    profile.add_argument(
        "--output", default=None, metavar="PATH",
        help="also dump raw pstats data to PATH (for snakeviz etc.)",
    )
    profile.set_defaults(func=_cmd_profile)

    sweep = sub.add_parser(
        "sweep", help="run an attacker-fraction sweep (optionally manifested)"
    )
    sweep.add_argument("--size", type=int, default=46)
    sweep.add_argument("--origins", type=int, default=1)
    sweep.add_argument("--fractions", default="0.05,0.20,0.40",
                       help="comma-separated attacker fractions")
    sweep.add_argument("--deployment", choices=("none", "partial", "full"),
                       default="full")
    sweep.add_argument("--origin-sets", type=int, default=3)
    sweep.add_argument("--attacker-sets", type=int, default=5)
    sweep.add_argument(
        "--timing", choices=("simultaneous", "post-convergence"),
        default="simultaneous",
        help="attack timing for every scenario of the sweep "
        "(post-convergence baselines are where --warm-start pays off)",
    )
    sweep.add_argument(
        "--warm-start", default=None, metavar="MODE",
        help="baseline cache: 'mem' (in-process LRU), 'disk' "
        "(~/.cache/repro-warmstart), or a directory path; workers resolve "
        "the mode to worker-local caches; default: the REPRO_WARMSTART env "
        "var, else off; results are identical either way",
    )
    sweep.add_argument("--seed", type=int, default=8)
    sweep.add_argument(
        "--workers", type=int, default=None,
        help="parallel simulation workers (default: REPRO_WORKERS env var, "
        "else 1 = serial); results are identical at any worker count",
    )
    sweep.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="write one JSONL manifest record per scenario to PATH",
    )
    sweep.set_defaults(func=_cmd_sweep)

    report = sub.add_parser(
        "report", help="aggregate a JSONL run manifest into the paper's tables"
    )
    report.add_argument("manifest", help="path to a .jsonl run manifest")
    report.add_argument("--json", action="store_true",
                        help="emit the aggregation as JSON instead of a table")
    report.set_defaults(func=_cmd_report)

    stream = sub.add_parser(
        "stream",
        help="online MOAS detection over a BGP update feed "
        "(gen a feed, run the service with checkpoint/resume)",
    )
    stream_sub = stream.add_subparsers(dest="stream_command", required=True)

    gen = stream_sub.add_parser(
        "gen", help="diff the synthetic trace into an update-feed file"
    )
    gen.add_argument("--days", type=int, default=200,
                     help="trace length in days (default 200)")
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--out", required=True, metavar="PATH",
                     help="feed file to write")
    gen.add_argument(
        "--refresh", action="store_true",
        help="re-announce every live (prefix, origin) pair daily instead of "
        "deltas only (a cooperative RIB-dump replay; much larger feed)",
    )
    gen.set_defaults(func=_cmd_stream_gen)

    run = stream_sub.add_parser(
        "run", help="tail a feed file and detect MOAS conflicts online"
    )
    run.add_argument("feed", nargs="+",
                     help="update-feed file(s); several vantage-point feeds "
                     "are merged at day ticks")
    run.add_argument("--alarms", required=True, metavar="PATH",
                     help="alarm log to write (one JSON line per alarm)")
    run.add_argument("--checkpoint", default=None, metavar="PATH",
                     help="checkpoint file for kill-and-resume")
    run.add_argument("--checkpoint-every", type=int, default=1000,
                     metavar="N", help="checkpoint at the first day tick "
                     "after every N records")
    run.add_argument("--full-every", type=int, default=32, metavar="N",
                     help="compact the delta chain into a full snapshot "
                     "every N checkpoints (default 32)")
    run.add_argument("--shards", type=int, default=1, metavar="S",
                     help="partition the prefix space across S engine "
                     "processes (1: one engine in this process)")
    run.add_argument("--resume", action="store_true",
                     help="resume from --checkpoint instead of starting fresh")
    run.add_argument("--follow", action="store_true",
                     help="keep tailing at EOF (live feed); stop with SIGTERM")
    run.add_argument("--poll", type=float, default=0.2, metavar="SECONDS",
                     help="EOF poll interval in follow mode")
    run.add_argument(
        "--throttle", type=float, default=0.0, metavar="SECONDS",
        help="sleep after each day (rate-limits a replay so it can be "
        "interrupted mid-stream)",
    )
    run.add_argument("--max-records", type=int, default=None, metavar="N",
                     help="stop at the first day tick after N records "
                     "(deterministic interruption)")
    run.add_argument("--window", type=float, default=30.0, metavar="TICKS",
                     help="evict dead-prefix evidence after this many quiet "
                     "ticks")
    run.add_argument("--manifest", default=None, metavar="PATH",
                     help="write a one-record JSONL run manifest to PATH")
    run.add_argument("--index", default=None, metavar="DIR",
                     help="maintain a query index in DIR, one segment per "
                     "checkpoint boundary (serve it with 'repro query')")
    run.set_defaults(func=_cmd_stream_run)

    query = sub.add_parser(
        "query",
        help="looking-glass queries over alarm/MOAS history "
        "(build indexes, inspect them, serve them over HTTP)",
    )
    query_sub = query.add_subparsers(dest="query_command", required=True)

    qbuild = query_sub.add_parser(
        "build", help="build a complete index from a feed + alarm log"
    )
    qbuild.add_argument("feeds", nargs="+", metavar="FEED",
                        help="feed file(s); several = router-interleaved")
    qbuild.add_argument("--alarms", required=True, metavar="PATH",
                        help="the run's alarm log")
    qbuild.add_argument("--out", required=True, metavar="DIR",
                        help="index directory to (re)build")
    qbuild.add_argument("--segment-days", type=int, default=30, metavar="N",
                        help="cut a segment every N trace days (default 30)")
    qbuild.set_defaults(func=_cmd_query_build)

    qscan = query_sub.add_parser(
        "scan",
        help="answer every query by brute-force scan of the raw artefacts "
        "(the oracle an index is diffed against)",
    )
    qscan.add_argument("feeds", nargs="+", metavar="FEED")
    qscan.add_argument("--alarms", required=True, metavar="PATH")
    qscan.add_argument("--k", type=int, default=10, metavar="K",
                       help="top-K depth in the answer document")
    qscan.set_defaults(func=_cmd_query_scan)

    qdump = query_sub.add_parser(
        "dump", help="print every answer from an index (same document as "
        "'scan' — diff them to verify an index)"
    )
    qdump.add_argument("index", metavar="DIR")
    qdump.add_argument("--k", type=int, default=10, metavar="K")
    qdump.set_defaults(func=_cmd_query_dump)

    qstats = query_sub.add_parser(
        "stats", help="global aggregates from an index"
    )
    qstats.add_argument("index", metavar="DIR")
    qstats.set_defaults(func=_cmd_query_stats)

    qprefix = query_sub.add_parser(
        "prefix", help="one prefix's timeline, origin sets, and MOAS stats"
    )
    qprefix.add_argument("index", metavar="DIR")
    qprefix.add_argument("prefix", metavar="PREFIX")
    qprefix.set_defaults(func=_cmd_query_prefix)

    qtop = query_sub.add_parser(
        "top", help="the K noisiest prefixes under a ranking key"
    )
    qtop.add_argument("index", metavar="DIR")
    qtop.add_argument("--k", type=int, default=10, metavar="K")
    qtop.add_argument("--by", choices=("alarms", "transitions", "moas_days"),
                      default="alarms")
    qtop.set_defaults(func=_cmd_query_top)

    qserve = query_sub.add_parser(
        "serve", help="serve the JSON query API over HTTP (stdlib only)"
    )
    qserve.add_argument("index", metavar="DIR")
    qserve.add_argument("--host", default="127.0.0.1")
    qserve.add_argument("--port", type=int, default=8642,
                        help="TCP port (0 = ephemeral)")
    qserve.set_defaults(func=_cmd_query_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse raises for --help (code 0) and usage errors (code 2,
        # message already printed).  Surface both as return codes so
        # in-process callers never see a traceback or a raw SystemExit.
        if exc.code is None:
            return 0
        if isinstance(exc.code, int):
            return exc.code
        print(exc.code, file=sys.stderr)
        return 2
    if args.sanitize:
        # Via the environment so worker processes inherit it too.
        import os

        from repro.sanitize import SANITIZE_ENV_VAR

        os.environ[SANITIZE_ENV_VAR] = "1"
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
