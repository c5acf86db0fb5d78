"""repro.stream — online MOAS detection over live BGP update feeds.

The batch pipeline answers "what happened in this archive"; this package
answers "what is happening right now".  It consists of:

* :mod:`repro.stream.feed` — the line-delimited update-feed format plus its
  two producers (daily-snapshot diffing, live simulator tap);
* :mod:`repro.stream.engine` — the incremental detector (checker conflict
  rules per update, bounded-window eviction, alarm dedup/aggregation);
* :mod:`repro.stream.delta` — the delta-encoding state algebra for
  incremental checkpoints;
* :mod:`repro.stream.checkpoint` — versioned checkpoint chains: atomic
  full snapshots plus fsynced delta appends with periodic compaction;
* :mod:`repro.stream.service` — the one ingest driver (1..N vantage
  feeds on 1..S shards, committed at day ticks) and its
  ``BoundaryCommitter``: transactional alarm flushing, async
  double-buffered checkpointing, kill-and-resume bit-identity,
  checkpoint metrics;
* :mod:`repro.stream.router` — the shards as worker processes, each
  record line routed by prefix.

See ``docs/streaming.md`` for the feed format, checkpoint-chain layout,
sharding, and resume semantics.
"""

from repro.stream.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    ChainWriter,
    Checkpoint,
    CheckpointError,
    load_chain,
    load_checkpoint,
    reap_stale_tmp,
    save_checkpoint,
)
from repro.stream.delta import apply_engine_delta, apply_state_delta
from repro.stream.engine import StreamAlarm, StreamEngine
from repro.stream.feed import (
    FEED_FORMAT,
    FEED_VERSION,
    FeedError,
    FeedRecord,
    FeedWriter,
    SimulatorTap,
    feed_header_line,
    parse_feed_line,
    snapshot_deltas,
)
from repro.stream.service import StreamService, StreamSummary, merged_daily_counts

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "ChainWriter",
    "Checkpoint",
    "CheckpointError",
    "FEED_FORMAT",
    "FEED_VERSION",
    "FeedError",
    "FeedRecord",
    "FeedWriter",
    "SimulatorTap",
    "StreamAlarm",
    "StreamEngine",
    "StreamService",
    "StreamSummary",
    "apply_engine_delta",
    "apply_state_delta",
    "feed_header_line",
    "load_chain",
    "load_checkpoint",
    "merged_daily_counts",
    "parse_feed_line",
    "reap_stale_tmp",
    "save_checkpoint",
    "snapshot_deltas",
]
