"""Stream service benchmark — throughput, checkpoint overhead, sharding.

Four measurements back the online detector's viability:

1. **Throughput**: a refresh-mode feed (every live pair re-announced every
   day — the worst-case cooperative workload) over a paper-scale trace
   segment, measured end-to-end through ``StreamService`` in sustained
   updates/sec.
2. **Chain checkpoint overhead**: the same feed with delta-encoded
   incremental checkpoints every 2 000 records versus none at all.  The
   overhead is asserted against a budget
   (``REPRO_BENCH_STREAM_OVERHEAD_BUDGET``, default 15% for noisy CI
   boxes; the on-box target is <10%).
3. **Legacy full-snapshot cost**: the identical cadence with
   ``full_every=1`` — every boundary a full snapshot, the pre-chain
   behaviour — to keep the win visible (it used to cost ~60%).
4. **Sharded aggregate**: ``StreamService(shards=4)`` over the same
   feed.  The aggregate rate is recorded unconditionally; the ≥3× scaling
   assertion only runs on boxes with ≥4 cores (the CI container is
   single-core, where sharding can only add IPC cost).

Results land in ``benchmarks/results/BENCH_stream.json``.
"""

from __future__ import annotations

import json
import os
import random
import time

from conftest import emit

from repro.measurement.trace import FaultSpike, TraceConfig, TraceGenerator
from repro.stream.feed import FeedWriter, snapshot_deltas
from repro.stream.service import StreamService

#: A 120-day paper-calibrated segment with one fault spike; refresh mode
#: turns this into a few hundred thousand update records.
BENCH_CONFIG = TraceConfig(
    days=120,
    faults=(FaultSpike(day=60, faulty_as=8584, n_prefixes=300),),
    n_background_prefixes=500,
    include_background=True,
)
BENCH_SEED = 11

OVERHEAD_BUDGET_ENV = "REPRO_BENCH_STREAM_OVERHEAD_BUDGET"


def _write_feed(path):
    generator = TraceGenerator(BENCH_CONFIG, random.Random(BENCH_SEED))
    with FeedWriter(path) as writer:
        return writer.write_all(
            snapshot_deltas(generator.snapshots(), refresh=True)
        )


def _run_service(feed, out_dir, tag, checkpoint_every=None, full_every=32):
    kwargs = {}
    if checkpoint_every is not None:
        kwargs["checkpoint"] = out_dir / f"cp_{tag}.json"
        kwargs["checkpoint_every"] = checkpoint_every
        kwargs["full_every"] = full_every
    service = StreamService(feed, out_dir / f"alarms_{tag}.jsonl", **kwargs)
    started = time.perf_counter()
    summary = service.run()
    return time.perf_counter() - started, summary


def _run_sharded(feed, out_dir, tag, shards):
    service = StreamService(
        feed,
        out_dir / f"alarms_{tag}.jsonl",
        out_dir / f"cp_{tag}.json",
        shards=shards,
        checkpoint_every=2000,
    )
    started = time.perf_counter()
    summary = service.run()
    return time.perf_counter() - started, summary


def test_bench_stream_throughput(results_dir, tmp_path):
    feed = tmp_path / "feed.jsonl"
    records = _write_feed(feed)

    # Warm the page cache, then best-of-three for each variant.
    _run_service(feed, tmp_path, "warm")
    plain_secs, plain = min(
        (_run_service(feed, tmp_path, f"plain{i}") for i in range(3)),
        key=lambda pair: pair[0],
    )
    ckpt_secs, ckpt = min(
        (
            _run_service(feed, tmp_path, f"ckpt{i}", checkpoint_every=2000)
            for i in range(3)
        ),
        key=lambda pair: pair[0],
    )
    legacy_secs, legacy = min(
        (
            _run_service(
                feed, tmp_path, f"legacy{i}", checkpoint_every=2000,
                full_every=1,
            )
            for i in range(2)
        ),
        key=lambda pair: pair[0],
    )
    shard_secs, sharded = min(
        (_run_sharded(feed, tmp_path, f"shard{i}", shards=4) for i in range(2)),
        key=lambda pair: pair[0],
    )

    assert plain.records == ckpt.records == legacy.records == records
    assert plain.alarms_emitted == ckpt.alarms_emitted > 0
    assert sharded.alarms_emitted == plain.alarms_emitted
    assert ckpt.checkpoint_deltas > ckpt.checkpoint_fulls  # chains in use
    assert legacy.checkpoint_deltas == 0  # every boundary a full snapshot

    plain_rate = records / plain_secs if plain_secs > 0 else 0.0
    ckpt_rate = records / ckpt_secs if ckpt_secs > 0 else 0.0
    legacy_rate = records / legacy_secs if legacy_secs > 0 else 0.0
    shard_rate = records / shard_secs if shard_secs > 0 else 0.0
    overhead_pct = (
        (plain_rate / ckpt_rate - 1.0) * 100.0 if ckpt_rate > 0 else 0.0
    )
    legacy_overhead_pct = (
        (plain_rate / legacy_rate - 1.0) * 100.0 if legacy_rate > 0 else 0.0
    )
    cores = os.cpu_count() or 1

    record = {
        "days": BENCH_CONFIG.days,
        "feed_records": records,
        "alarms_emitted": plain.alarms_emitted,
        "cores": cores,
        "plain": {
            "wall_seconds": round(plain_secs, 3),
            "updates_per_sec": round(plain_rate, 1),
        },
        "checkpointed": {
            "checkpoint_every": 2000,
            "checkpoints": ckpt.checkpoints,
            "fulls": ckpt.checkpoint_fulls,
            "deltas": ckpt.checkpoint_deltas,
            "wall_seconds": round(ckpt_secs, 3),
            "updates_per_sec": round(ckpt_rate, 1),
            "checkpoint_seconds": round(ckpt.checkpoint_seconds, 3),
            "overhead_pct": round(overhead_pct, 1),
        },
        "legacy_full_snapshots": {
            "checkpoint_every": 2000,
            "checkpoints": legacy.checkpoints,
            "wall_seconds": round(legacy_secs, 3),
            "updates_per_sec": round(legacy_rate, 1),
            "overhead_pct": round(legacy_overhead_pct, 1),
        },
        "sharded": {
            "shards": 4,
            "wall_seconds": round(shard_secs, 3),
            "updates_per_sec": round(shard_rate, 1),
            "speedup_vs_single": round(
                shard_rate / ckpt_rate if ckpt_rate > 0 else 0.0, 2
            ),
        },
    }
    (results_dir / "BENCH_stream.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    lines = [
        "Stream service: sustained throughput (120-day refresh-mode feed)",
        f"  feed records: {records:,}   alarms: {plain.alarms_emitted}"
        f"   cores: {cores}",
        f"  plain        {plain_secs:7.2f} s   {plain_rate:,.0f} updates/sec",
        f"  chain ckpt   {ckpt_secs:7.2f} s   {ckpt_rate:,.0f} updates/sec "
        f"({ckpt.checkpoint_fulls} fulls + {ckpt.checkpoint_deltas} deltas, "
        f"overhead {overhead_pct:+.1f}%)",
        f"  legacy fulls {legacy_secs:7.2f} s   {legacy_rate:,.0f} "
        f"updates/sec (overhead {legacy_overhead_pct:+.1f}%)",
        f"  4 shards     {shard_secs:7.2f} s   {shard_rate:,.0f} updates/sec "
        f"aggregate ({record['sharded']['speedup_vs_single']}x single)",
    ]
    emit(results_dir, "BENCH_stream", "\n".join(lines))

    assert plain_rate > 0.0
    # Checkpoints land on day ticks, the first at or past every
    # checkpoint_every records (one a day here: a day holds ~4,000).
    assert ckpt.checkpoints >= records // (2 * 2048)
    # The delta chain must keep checkpointing cheap: the budget is
    # generous for noisy CI boxes, the on-box target is <10%.
    budget = float(os.environ.get(OVERHEAD_BUDGET_ENV, "15.0"))
    assert overhead_pct <= budget, (
        f"checkpoint overhead {overhead_pct:.1f}% blew the {budget:.1f}% "
        f"budget (plain {plain_rate:,.0f}/s vs chain {ckpt_rate:,.0f}/s)"
    )
    # Scaling is only demonstrable with real cores under the shards.
    if cores >= 4:
        assert shard_rate >= 3.0 * ckpt_rate, (
            f"4-shard aggregate {shard_rate:,.0f}/s is under 3x the "
            f"single-engine {ckpt_rate:,.0f}/s on a {cores}-core box"
        )
