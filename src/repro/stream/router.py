"""Sharded online detection — N vantage-point feeds fanned into S engines.

A single :class:`~repro.stream.engine.StreamEngine` tops out around one
core's worth of per-update work.  :class:`FeedRouter` scales the service
across processes by partitioning the prefix space: each **shard** is a
forked :class:`~repro.procpool.WorkerPool` worker owning one engine, and
the parent routes every announce / withdraw line to
``crc32(prefix) % shards`` without parsing it (a raw-byte substring scan —
the canonical feed serialisation makes ``"p":"…"`` the only place a prefix
appears).  Because the dedup key of every alarm starts with its prefix,
shards never produce duplicate alarms across the fleet, and the
MOAS-active count for a day is simply the sum of the shard counts.

**Day-boundary synchronisation.**  Each feed carries one tick per day.  The
router walks its feeds with :class:`~repro.stream.feed.FeedFleet` (every
feed up to its day-``D`` tick: the interleave the index replay and the
scan oracle share), flushes the routed lines, then broadcasts exactly one
``tick(D)`` barrier to every shard — satisfying the engine's
one-tick-per-day invariant and giving eviction the same global day clock
a single engine would see.  The barrier reply carries each
shard's alarm lines since the previous barrier; the parent concatenates
them in shard-index order, so the merged log's line order is a pure
function of the feed contents — ``(day, shard, emission order)`` — no
matter where checkpoints or interruptions fall.

**One durability domain.**  The parent owns the only alarm log, checkpoint
chain and index, through the same
:class:`~repro.stream.service.BoundaryCommitter` the single-engine service
uses.  At a boundary (the first day barrier after ``checkpoint_every``
routed records) every shard also returns its engine payload — a full
:meth:`~StreamEngine.snapshot_state` or a
:meth:`~StreamEngine.delta_state` — and the parent commits the merged alarm
lines and one composite chain record (``shard_count``, per-shard states,
per-feed byte offsets, the completed day).  Without a chain the boundary
still commits the alarm lines (and index).  Kill-and-resume is therefore
exactly the single-engine story: the committer loads the chain and rolls
the alarm log back; the router refuses a shard- or feed-count mismatch,
restores each shard and seeks each feed — and the concatenated logs are
bit-identical to an uninterrupted sharded run.

A graceful stop (SIGTERM) finishes the in-flight day first, so every
checkpoint sits on a day boundary and the merged-log ordering above holds
across interruptions.  A shard that raises (on a malformed line, say) or
dies ends the run with a :class:`~repro.procpool.WorkerError` naming it.
"""

from __future__ import annotations

import zlib
from functools import partial
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.obs.metrics import MetricsRegistry
from repro.procpool import STOP, WorkerPool
from repro.stream.checkpoint import (
    DEFAULT_FULL_EVERY,
    Checkpoint,
    CheckpointError,
    FaultHook,
)
from repro.stream.engine import StreamEngine
from repro.stream.feed import (
    OP_TICK,
    PREFIX_MARK,
    FeedFleet,
    FeedRecord,
    parse_record_line,
)
from repro.stream.service import (
    BoundaryCommitter,
    StreamSummary,
    _real_clock,
    _real_sleep,
    _StreamDriver,
    capture_state,
)


class RouterError(ValueError):
    """Raised for feed/shard misconfiguration the router refuses to run."""


def shard_for_prefix(prefix_bytes: bytes, shards: int) -> int:
    """Stable prefix -> shard assignment (crc32, never the salted builtin
    ``hash``) — must agree across runs for resume to hold."""
    return zlib.crc32(prefix_bytes) % shards


def route_line(line: bytes, shards: int) -> Optional[int]:
    """Classify one raw feed line: a shard index for announce/withdraw,
    ``None`` for ticks and headers (handled by the parent)."""
    start = line.find(PREFIX_MARK)
    if start < 0:
        return None
    start += len(PREFIX_MARK)
    end = line.index(b'"', start)
    return shard_for_prefix(line[start:end], shards)


def merged_daily_counts(shard_states: Sequence[Dict[str, Any]]) -> Dict[int, int]:
    """Global per-day MOAS counts: the sum of the shard counts."""
    totals: Dict[int, int] = {}
    for state in shard_states:
        for day, count in state["daily_counts"]:
            totals[int(day)] = totals.get(int(day), 0) + int(count)
    return dict(sorted(totals.items()))


# -- the shard worker --------------------------------------------------------


def _shard_worker(
    conn: Any, index: int, window: float, index_enabled: bool
) -> None:
    """One shard: an engine fed raw lines, answering barrier requests.

    Runs in a :class:`~repro.procpool.WorkerPool` child, which owns the
    pipe's lifetime and reports a raise (a malformed line, say) to the
    parent as a :class:`~repro.procpool.WorkerError`.

    With ``index_enabled`` the shard also runs a
    :class:`~repro.query.track.OriginTracker` beside the engine and ships
    the index events it produced back with each barrier reply (the third
    body element) — the parent's :class:`~repro.query.builder.IndexBuilder`
    adopts them in shard-index order.  A shard's per-prefix event order is
    the parent's read order for that prefix, which is why a byte-range
    replay reproduces the live-built index exactly.
    """
    engine = StreamEngine(window=window)
    tracker = None
    if index_enabled:
        from repro.query.track import OriginTracker

        tracker = OriginTracker()
    pending: List[str] = []
    events: List[List[Any]] = []

    def apply(record: FeedRecord) -> None:
        for alarm in engine.apply(record):
            pending.append(alarm.to_json_line())
        if tracker is not None:
            event = tracker.apply(record)
            if event is not None:
                events.append(event)

    while True:
        message = conn.recv()
        tag = message[0]
        if tag == "lines":
            for raw in message[1]:
                apply(parse_record_line(raw))
        elif tag == "barrier":
            day, kind = message[1], message[2]
            if day is not None:
                apply(FeedRecord(op=OP_TICK, time=day))
            payload = capture_state(engine, kind)
            lines, pending = pending, []
            shipped, events = events, []
            conn.send(("barrier", (lines, payload, shipped)))
        elif tag == "restore":
            engine.restore_state(message[1])
            if tracker is not None:
                from repro.query.track import OriginTracker

                tracker = OriginTracker.from_engine_state(message[1])
                events = []
            conn.send(("ok", None))
        elif message == STOP:
            return


class FeedRouter(_StreamDriver):
    """Fan N feeds into S shard processes under one durability domain."""

    def __init__(
        self,
        feeds: Sequence[Union[str, Path]],
        alarms: Union[str, Path],
        checkpoint: Optional[Union[str, Path]] = None,
        *,
        shards: int = 2,
        window: float = 30.0,
        checkpoint_every: int = 1000,
        full_every: int = DEFAULT_FULL_EVERY,
        throttle: float = 0.0,
        max_records: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
        sleeper: Optional[Callable[[float], None]] = None,
        fault: Optional[FaultHook] = None,
        index: Optional[Union[str, Path]] = None,
    ) -> None:
        if not feeds:
            raise RouterError("the router needs at least one feed")
        if shards < 1:
            raise RouterError(f"shards must be >= 1, got {shards}")
        if checkpoint_every < 1:
            raise RouterError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.feed_paths = [Path(feed) for feed in feeds]
        self.shards = shards
        self.window = window
        self.checkpoint_every = checkpoint_every
        self.full_every = full_every
        self.throttle = throttle
        self.max_records = max_records
        self._pending: List[str] = []
        self._records_total = 0
        self._epoch: Optional[float] = None
        # Quarantined timing/pacing injection points, as in StreamService.
        self._clock = clock if clock is not None else _real_clock
        self._sleeper = sleeper if sleeper is not None else _real_sleep
        self._committer = BoundaryCommitter(
            alarms,
            checkpoint,
            feeds=self.feed_paths,
            composite=True,
            full_every=full_every,
            clock=self._clock,
            metrics=metrics,
            fault=fault,
            index=index,
        )
        self._m_records = None
        self._m_barriers = None
        if metrics is not None:
            self._m_records = metrics.counter("router.records")
            self._m_barriers = metrics.counter("router.barriers")
            metrics.gauge("router.shards").set(shards)

    # -- shard barriers --------------------------------------------------------

    def _barrier(
        self,
        pool: WorkerPool,
        buffers: List[List[bytes]],
        day: Optional[float],
        kind: Optional[str],
    ) -> List[Optional[Dict[str, Any]]]:
        """Synchronise every shard; gather alarms (always, in shard-index
        order — this is what fixes the merged-log ordering) and, when
        ``kind`` is set, the per-shard checkpoint payloads."""
        for index, buffer in enumerate(buffers):
            if buffer:
                pool.send(index, ("lines", buffer))
                buffers[index] = []
        builder = self._committer.builder
        payloads: List[Optional[Dict[str, Any]]] = []
        for lines, payload, events in pool.broadcast(
            ("barrier", day, kind), "barrier"
        ):
            self._pending.extend(lines)
            payloads.append(payload)
            if builder is not None and events:
                # Shard-index order, like the alarm lines: a prefix lives
                # in exactly one shard, so per-prefix event order is
                # already the parent's read order.
                builder.ingest_events(events)
        if self._m_barriers is not None:
            self._m_barriers.inc()
        return payloads

    # -- checkpointing ---------------------------------------------------------

    def _commit(
        self,
        fleet: FeedFleet,
        kind: Optional[str],
        payloads: List[Optional[Dict[str, Any]]],
    ) -> None:
        """Hand one boundary to the committer: the merged alarm lines and,
        with ``kind``, the composite chain document of the shard payloads."""
        offsets = fleet.offsets
        state: Optional[Dict[str, Any]] = None
        if kind is not None:
            state = {"epoch": self._epoch, "feed_offsets": offsets, "shards": payloads}
            if kind == "full":
                state.update(shard_count=self.shards, window=self.window)
        pending, self._pending = self._pending, []
        self._committer.commit(
            pending, kind, state, records=self._records_total, feed=offsets
        )

    def _restore(
        self,
        fleet: FeedFleet,
        pool: WorkerPool,
        checkpoint: Checkpoint,
    ) -> None:
        state = checkpoint.engine_state
        if int(state["shard_count"]) != self.shards:
            raise CheckpointError(
                f"checkpoint was written by {state['shard_count']} shards, "
                f"cannot resume with {self.shards}"
            )
        offsets = state["feed_offsets"]
        if len(offsets) != len(fleet.cursors):
            raise CheckpointError(
                f"checkpoint recorded {len(offsets)} feeds, "
                f"got {len(fleet.cursors)}"
            )
        pool.gather(
            [("restore", shard_state) for shard_state in state["shards"]], "ok"
        )
        for cursor, offset in zip(fleet.cursors, offsets):
            cursor.seek(int(offset))
        self._epoch = state["epoch"]
        self._records_total = checkpoint.offset

    # -- the run loop ----------------------------------------------------------

    def run(self, resume: bool = False) -> StreamSummary:
        started = self._clock()
        committer = self._committer
        fleet = FeedFleet(self.feed_paths)
        pool = WorkerPool(
            _shard_worker,
            self.shards,
            (self.window, committer.builder is not None),
            name="stream-shard",
        )
        buffers: List[List[bytes]] = [[] for _ in range(self.shards)]
        shards = self.shards
        stopped_early = False
        reached_eof = False
        try:
            committer.open(
                partial(self._restore, fleet, pool) if resume else None
            )
            walk = iter(fleet)
            applied = 0
            since_checkpoint = 0
            while True:
                if self._stop_requested:
                    stopped_early = True
                    break
                if self.max_records is not None and applied >= self.max_records:
                    stopped_early = True
                    break
                # Route one fleet day: every feed's lines up to its tick.
                day: Optional[float] = None
                routed = 0
                for item in walk:
                    if isinstance(item, float):
                        day = item
                        break
                    for line in item:
                        buffers[route_line(line, shards)].append(line)
                    routed += len(item)
                applied += routed
                since_checkpoint += routed
                self._records_total += routed
                if self._m_records is not None:
                    self._m_records.inc(routed)
                if day is None:
                    reached_eof = True
                    break
                self._records_total += 1  # the day's tick, applied fleet-wide
                applied += 1
                since_checkpoint += 1
                boundary = since_checkpoint >= self.checkpoint_every
                kind = committer.next_kind() if boundary else None
                payloads = self._barrier(pool, buffers, day, kind)
                self._epoch = day
                if boundary:
                    self._commit(fleet, kind, payloads)
                    since_checkpoint = 0
                if self.throttle > 0.0:
                    self._sleeper(self.throttle)
            # Final barrier: collect the remaining alarms and a full composite
            # state (the summary needs it), committed as the closing full
            # chain record when a chain is configured.
            final = self._barrier(pool, buffers, None, "full")
            states = [payload for payload in final if payload is not None]
            self._commit(fleet, "full" if committer.chained else None, final)
            committer.close()
            wall = self._clock() - started
            daily = merged_daily_counts(states)
            totals: Dict[str, int] = {}
            for state in states:
                for row in state["alarm_counts"]:
                    kind_name = str(row[1])
                    totals[kind_name] = totals.get(kind_name, 0) + int(row[5])
            return StreamSummary(
                records=applied,
                offset=self._records_total,
                alarms_emitted=sum(s["alarms_emitted"] for s in states),
                alarm_duplicates=sum(s["alarm_duplicates"] for s in states),
                alarm_lines=committer.alarm_lines,
                checkpoints=committer.checkpoints,
                checkpoint_fulls=committer.fulls,
                checkpoint_deltas=committer.deltas,
                moas_active=sum(s["moas_active"] for s in states),
                state_prefixes=sum(
                    len(
                        {name for name, _ in s["origins"]}
                        | {name for name, _ in s["observed"]}
                    )
                    for s in states
                ),
                days_ticked=len(daily),
                stopped=stopped_early,
                eof=reached_eof,
                wall_seconds=wall,
                events_per_sec=applied / wall if wall > 0 else 0.0,
                checkpoint_seconds=committer.seconds,
                shards=self.shards,
                alarm_totals=dict(sorted(totals.items())),
                daily_series=list(daily.values()),
            )
        finally:
            pool.close()
            fleet.close()

    def _manifest_spec(self) -> Dict[str, Any]:
        return {
            "kind": "stream-router",
            "feeds": [str(path) for path in self.feed_paths],
            "shards": self.shards,
            "window": self.window,
            "checkpoint_every": self.checkpoint_every,
            "full_every": self.full_every,
        }
