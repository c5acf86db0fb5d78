"""Query subsystem benchmark — indexing overhead and point-query rate.

Two measurements back the looking-glass design:

1. **Index-build overhead**: the checkpointed stream service over a
   120-day refresh-mode feed with and without ``--index``.  Maintaining
   the per-prefix index at checkpoint boundaries must cost under the
   budget (``REPRO_BENCH_QUERY_OVERHEAD_BUDGET``, default 15% for noisy
   CI boxes; the on-box target is <10% of ingest).
2. **Warm point-query throughput**: ``prefix_report`` against a loaded
   :class:`QueryIndex` across every indexed prefix, in queries/sec.  The
   floor (``REPRO_BENCH_QUERY_QPS_FLOOR``, default 10 000/sec) is
   asserted unconditionally — answers come from in-memory folded state,
   so even a single-core box clears it by orders of magnitude.

Results land in ``benchmarks/results/BENCH_query.json``.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time

from conftest import emit

from repro.measurement.trace import FaultSpike, TraceConfig, TraceGenerator
from repro.query import QueryIndex
from repro.query.model import prefix_report
from repro.stream.feed import FeedWriter, snapshot_deltas
from repro.stream.service import StreamService

BENCH_CONFIG = TraceConfig(
    days=120,
    faults=(FaultSpike(day=60, faulty_as=8584, n_prefixes=300),),
    n_background_prefixes=500,
    include_background=True,
)
BENCH_SEED = 11

OVERHEAD_BUDGET_ENV = "REPRO_BENCH_QUERY_OVERHEAD_BUDGET"
QPS_FLOOR_ENV = "REPRO_BENCH_QUERY_QPS_FLOOR"


def _write_feed(path):
    generator = TraceGenerator(BENCH_CONFIG, random.Random(BENCH_SEED))
    with FeedWriter(path) as writer:
        return writer.write_all(
            snapshot_deltas(generator.snapshots(), refresh=True)
        )


def _run_service(feed, out_dir, tag, index=None):
    service = StreamService(
        feed,
        out_dir / f"alarms_{tag}.jsonl",
        out_dir / f"cp_{tag}.json",
        checkpoint_every=2000,
        full_every=32,
        index=index,
    )
    started = time.perf_counter()
    summary = service.run()
    return time.perf_counter() - started, summary


def test_bench_query(results_dir, tmp_path):
    feed = tmp_path / "feed.jsonl"
    records = _write_feed(feed)

    # Warm the page cache, then three pairs of runs, each a plain run
    # directly followed by an indexed one, so both sides see the same
    # drift of the box; compare the best of each side.
    _run_service(feed, tmp_path, "warm")
    plain_runs, indexed_runs = [], []
    for i in range(3):
        plain_runs.append(_run_service(feed, tmp_path, f"plain{i}"))
        indexed_runs.append(
            _run_service(feed, tmp_path, f"idx{i}", index=tmp_path / f"idx{i}")
        )
    plain_secs, plain = min(plain_runs, key=lambda pair: pair[0])
    indexed_secs, indexed = min(indexed_runs, key=lambda pair: pair[0])
    assert plain.records == indexed.records == records
    assert plain.alarms_emitted == indexed.alarms_emitted > 0

    plain_rate = records / plain_secs if plain_secs > 0 else 0.0
    indexed_rate = records / indexed_secs if indexed_secs > 0 else 0.0
    overhead_pct = (
        (plain_rate / indexed_rate - 1.0) * 100.0 if indexed_rate > 0 else 0.0
    )

    # Warm point queries: cycle through every indexed prefix.
    index = QueryIndex(tmp_path / "idx0")
    state = index.state
    prefixes = sorted(state.prefixes)
    assert prefixes
    pool = list(itertools.islice(itertools.cycle(prefixes), 20_000))
    for prefix in pool[:100]:  # warm-up
        prefix_report(state, prefix)
    started = time.perf_counter()
    for prefix in pool:
        prefix_report(state, prefix)
    query_secs = time.perf_counter() - started
    qps = len(pool) / query_secs if query_secs > 0 else 0.0

    cores = os.cpu_count() or 1
    record = {
        "days": BENCH_CONFIG.days,
        "feed_records": records,
        "alarms_emitted": plain.alarms_emitted,
        "cores": cores,
        "ingest_plain": {
            "wall_seconds": round(plain_secs, 3),
            "updates_per_sec": round(plain_rate, 1),
        },
        "ingest_indexed": {
            "checkpoint_every": 2000,
            "segments": index.generation,
            "wall_seconds": round(indexed_secs, 3),
            "updates_per_sec": round(indexed_rate, 1),
            "overhead_pct": round(overhead_pct, 1),
        },
        "point_queries": {
            "indexed_prefixes": len(prefixes),
            "queries": len(pool),
            "wall_seconds": round(query_secs, 3),
            "queries_per_sec": round(qps, 1),
        },
    }
    (results_dir / "BENCH_query.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    lines = [
        "Query index: build overhead and warm point-query rate",
        f"  feed records: {records:,}   alarms: {plain.alarms_emitted}"
        f"   cores: {cores}",
        f"  ingest plain   {plain_secs:7.2f} s   {plain_rate:,.0f} updates/sec",
        f"  ingest +index  {indexed_secs:7.2f} s   {indexed_rate:,.0f} "
        f"updates/sec (overhead {overhead_pct:+.1f}%)",
        f"  point queries  {query_secs:7.2f} s   {qps:,.0f} queries/sec "
        f"over {len(prefixes)} prefixes",
    ]
    emit(results_dir, "BENCH_query", "\n".join(lines))

    budget = float(os.environ.get(OVERHEAD_BUDGET_ENV, "15.0"))
    assert overhead_pct <= budget, (
        f"index overhead {overhead_pct:.1f}% blew the {budget:.1f}% budget "
        f"(plain {plain_rate:,.0f}/s vs indexed {indexed_rate:,.0f}/s)"
    )
    floor = float(os.environ.get(QPS_FLOOR_ENV, "10000.0"))
    assert qps >= floor, (
        f"warm point-query rate {qps:,.0f}/s is under the {floor:,.0f}/s floor"
    )
