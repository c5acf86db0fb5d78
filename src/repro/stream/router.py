"""Sharded online detection — the service's shards as worker processes.

A single :class:`~repro.stream.engine.StreamEngine` tops out around one
core's worth of per-update work.  With ``shards=S > 1``
:class:`~repro.stream.service.StreamService` scales across processes by
partitioning the prefix space: each shard is a forked
:class:`~repro.procpool.WorkerPool` worker running one
:class:`~repro.stream.service.Shard` — the same class the service runs in
its own process at ``shards=1`` — and the parent routes every announce /
withdraw line to ``crc32(prefix) % S`` without parsing it (a raw-byte
substring scan — the canonical feed serialisation makes ``"p":"…"`` the
only place a prefix appears).  Because the dedup key of every alarm starts
with its prefix, shards never produce duplicate alarms across the fleet,
and the MOAS-active count for a day is simply the sum of the shard counts.

**Day barriers.**  At each fleet day tick the parent flushes the routed
lines, then broadcasts exactly one ``tick(D)`` barrier to every shard —
satisfying the engine's one-tick-per-day invariant and giving eviction the
same global day clock a single engine would see.  The barrier reply
carries each shard's alarm lines since the previous barrier (and, at a
checkpoint boundary, its engine payload); the service concatenates them in
shard-index order, so the merged log's line order is a pure function of
the feed contents — ``(day, shard, emission order)`` — no matter where
checkpoints or interruptions fall.  A shard that raises (on a malformed
line, say) or dies ends the run with a
:class:`~repro.procpool.WorkerError` naming it.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.procpool import STOP, WorkerPool
from repro.query.builder import IndexBuilder
from repro.query.track import IndexEvent, OriginTracker
from repro.stream.feed import PREFIX_MARK, FeedRecord
from repro.stream.service import Shard


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


class _ShardTracker:
    """A worker shard's origin tracker; its index events ride the next
    barrier reply to the parent's index builder."""

    __slots__ = ("tracker", "events")

    def __init__(self, tracker: OriginTracker) -> None:
        self.tracker = tracker
        self.events: List[IndexEvent] = []

    def observe(self, record: FeedRecord) -> None:
        event = self.tracker.apply(record)
        if event is not None:
            self.events.append(event)


def _shard_worker(
    conn: Any, index: int, window: float, index_enabled: bool
) -> None:
    """One shard's receive loop around a :class:`Shard`.

    Runs in a :class:`~repro.procpool.WorkerPool` child, which owns the
    pipe's lifetime and reports a raise to the parent as a
    :class:`~repro.procpool.WorkerError`.  With ``index_enabled`` the shard
    also runs an origin tracker and ships the index events it produced with
    each barrier reply.  A shard's per-prefix event order is the parent's
    read order for that prefix, which is why a byte-range replay reproduces
    the live-built index exactly.
    """
    tracked = _ShardTracker(OriginTracker()) if index_enabled else None
    shard = Shard(window, observe=None if tracked is None else tracked.observe)
    while True:
        message = conn.recv()
        tag = message[0]
        if tag == "lines":
            shard.apply_lines(message[1])
        elif tag == "barrier":
            lines, payload, counters = shard.barrier(message[1], message[2])
            events: List[IndexEvent] = []
            if tracked is not None:
                events, tracked.events = tracked.events, []
            conn.send(("barrier", (lines, payload, counters, events)))
        elif tag == "restore":
            shard.engine.restore_state(message[1])
            if tracked is not None:
                tracked.tracker = OriginTracker.from_engine_state(
                    {"shards": [message[1]]}
                )
                tracked.events = []
            conn.send(("ok", None))
        elif message == STOP:
            return


class ShardPool:
    """``shards`` forked :class:`Shard` workers behind routed lines and
    day barriers; ``builder`` adopts the index events they ship."""

    def __init__(
        self, shards: int, window: float, builder: Optional[IndexBuilder]
    ) -> None:
        self._builder = builder
        self._buffers: List[List[bytes]] = [[] for _ in range(shards)]
        self._pool = WorkerPool(
            _shard_worker,
            shards,
            (window, builder is not None),
            name="stream-shard",
        )

    def route(self, lines: Sequence[bytes]) -> None:
        """Hold each record line for its shard until the next barrier."""
        buffers = self._buffers
        shards = len(buffers)
        for line in lines:
            shard = route_line(line, shards)
            assert shard is not None  # the feed walk hands over record lines
            buffers[shard].append(line)

    def barrier(
        self, day: Optional[float], kind: Optional[str]
    ) -> List[Tuple[List[str], Optional[Dict[str, Any]], Optional[Dict[str, Any]]]]:
        """Flush the routed lines, then run :meth:`Shard.barrier` on every
        shard; replies come back in shard-index order."""
        pool = self._pool
        for index, buffer in enumerate(self._buffers):
            if buffer:
                pool.send(index, ("lines", buffer))
                self._buffers[index] = []
        replies = []
        for lines, payload, counters, events in pool.broadcast(
            ("barrier", day, kind), "barrier"
        ):
            if self._builder is not None and events:
                # Shard-index order, like the alarm lines: a prefix lives
                # in exactly one shard, so per-prefix event order is
                # already the parent's read order.
                self._builder.ingest_events(events)
            replies.append((lines, payload, counters))
        return replies

    def restore(self, states: Sequence[Dict[str, Any]]) -> None:
        """Restore shard ``i`` from engine state ``states[i]``."""
        self._pool.gather([("restore", state) for state in states], "ok")

    def close(self) -> None:
        self._pool.close()
