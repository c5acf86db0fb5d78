"""Origin-set tracking: feed records -> index events, plus file replay.

The index builder does not re-run detection — alarms come from the alarm
log the engine already wrote.  What it must derive from the feed is the
part the log cannot answer: *which origins were live when*.
:class:`OriginTracker` is that fold, deliberately tiny: a live origin set
per prefix, emitting one JSON-safe **index event** whenever a record
changes observable state:

* ``["o", time, prefix, [origins...]]`` — the live origin set after an
  announce added a new origin or a withdraw removed one (re-announcements
  and unknown withdrawals emit nothing, mirroring
  :class:`~repro.stream.engine.StreamEngine` exactly);
* ``["d", day, moas_active]`` — at each period tick, this tracker's count
  of prefixes with two or more live origins.  A sharded deployment runs
  one tracker per shard and the builder *sums* same-day events, which is
  why the event carries a contribution rather than a global truth.

Events are plain lists so they cross shard pipes and land in segment
files unchanged.  The replay helpers at the bottom re-derive events from
byte ranges of feed/alarm files — the resume catch-up path and the
brute-force scan both use them, so "rebuilt index == live-built index"
is replay determinism, pinned by tests.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.stream.feed import OP_ANNOUNCE, OP_TICK, OP_WITHDRAW, FeedError, FeedFleet, FeedRecord

#: One JSON-safe index event (see the module docstring for the shapes).
IndexEvent = List[Any]

#: One parsed alarm-log line, keyed by prefix:
#: ``(prefix, [time, kind, [observed...], [conflicting...]|None, origin|None])``.
AlarmRow = Tuple[str, List[Any]]


class QueryError(ValueError):
    """Raised for missing, torn, or inconsistent query-index state."""


class OriginTracker:
    """Fold announce/withdraw/tick records into origin-set transitions."""

    __slots__ = ("live", "moas_active")

    def __init__(self) -> None:
        self.live: Dict[str, Set[int]] = {}
        self.moas_active = 0

    @classmethod
    def from_live(cls, live: Mapping[str, Iterable[int]]) -> "OriginTracker":
        """Rebuild a tracker from known live origin sets (restore path)."""
        tracker = cls()
        for prefix in sorted(live):
            origins = {int(asn) for asn in live[prefix]}
            if not origins:
                continue
            tracker.live[prefix] = origins
            if len(origins) >= 2:
                tracker.moas_active += 1
        return tracker

    @classmethod
    def from_engine_state(cls, state: Mapping[str, Any]) -> "OriginTracker":
        """Rebuild a tracker from a checkpointed engine document.

        ``state`` is one :meth:`~repro.stream.engine.StreamEngine.snapshot_state`
        document, or a router composite whose shards' prefix sets are
        disjoint.  An engine's ``origins`` are exactly the live origin sets
        a tracker folds from the same records (both drop an origin on its
        withdrawal and a prefix with its last origin; eviction only touches
        prefixes with none), so this equals the tracker at the same feed
        position.
        """
        shards = state["shards"] if "shards" in state else [state]
        return cls.from_live(
            {
                prefix: [origin for origin, _ in pairs]
                for shard in shards
                for prefix, pairs in shard["origins"]
            }
        )

    def live_state(self) -> Dict[str, List[int]]:
        """JSON-safe live origin sets (sorted), for hand-off and tests."""
        return {prefix: sorted(self.live[prefix]) for prefix in sorted(self.live)}

    def apply(self, record: FeedRecord) -> Optional[IndexEvent]:
        """Apply one feed record; return the event it produced, if any."""
        if record.op == OP_ANNOUNCE:
            assert record.prefix is not None and record.origin is not None
            prefix = str(record.prefix)
            origin = int(record.origin)
            origins = self.live.get(prefix)
            if origins is None:
                origins = set()
                self.live[prefix] = origins
            if origin in origins:
                return None  # re-announcement: origin set unchanged
            was_multiple = len(origins) >= 2
            origins.add(origin)
            if not was_multiple and len(origins) >= 2:
                self.moas_active += 1
            return ["o", record.time, prefix, sorted(origins)]
        if record.op == OP_WITHDRAW:
            assert record.prefix is not None and record.origin is not None
            prefix = str(record.prefix)
            origin = int(record.origin)
            origins = self.live.get(prefix)
            if origins is None or origin not in origins:
                return None  # withdrawing an unknown route is a no-op
            was_multiple = len(origins) >= 2
            origins.discard(origin)
            if was_multiple and len(origins) < 2:
                self.moas_active -= 1
            if not origins:
                del self.live[prefix]
            return ["o", record.time, prefix, sorted(origins)]
        assert record.op == OP_TICK
        return ["d", int(record.time), self.moas_active]


# -- alarm-log parsing --------------------------------------------------------


def alarm_row_from_line(line: str) -> AlarmRow:
    """Parse one alarm-log line (see StreamAlarm.to_json_line) into a row."""
    try:
        data = json.loads(line)
        prefix = str(data["prefix"])
        row: List[Any] = [
            data["time"],
            str(data["kind"]),
            [int(asn) for asn in data["observed"]],
            None
            if data.get("conflicting") is None
            else [int(asn) for asn in data["conflicting"]],
            None if data.get("origin") is None else int(data["origin"]),
        ]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise QueryError(f"malformed alarm line {line!r}: {exc}") from exc
    return prefix, row


def alarm_rows_from_range(
    path: Union[str, Path], start: int, end: Optional[int]
) -> List[AlarmRow]:
    """Parse alarm-log bytes ``[start, end)`` (``None`` = to EOF).

    The range must begin and end on line boundaries — alarm byte
    coordinates always do, because the service accounts whole lines.
    """
    target = Path(path)
    rows: List[AlarmRow] = []
    with target.open("rb") as handle:
        handle.seek(start)
        position = start
        while end is None or position < end:
            line = handle.readline()
            if not line:
                if end is not None and position < end:
                    raise QueryError(
                        f"alarm log {target} ends at byte {position}, "
                        f"expected {end}"
                    )
                break
            position += len(line)
            if end is not None and position > end:
                raise QueryError(
                    f"alarm range [{start}, {end}) of {target} does not end "
                    f"on a line boundary"
                )
            if not line.endswith(b"\n"):
                break  # torn tail past the durable range: not ours to index
            rows.append(alarm_row_from_line(line.decode("utf-8")))
    return rows


# -- feed replay --------------------------------------------------------------


def replay_range(
    paths: Sequence[Union[str, Path]],
    starts: Sequence[int],
    ends: Optional[Sequence[int]],
    tracker: OriginTracker,
    out: List[IndexEvent],
) -> int:
    """Replay feed bytes ``[starts[i], ends[i])`` through ``tracker``.

    ``ends=None`` replays every feed to EOF.  The walk is
    :class:`~repro.stream.feed.FeedFleet`'s: one feed replays the
    single-engine service's order, several the router's day-barrier
    interleave.  Per-prefix event order matches a sharded run because a
    prefix lives in exactly one shard and a shard applies its lines in the
    parent's read order — which is this order.  Returns the records applied
    (record lines plus one per fleet tick, headers and blank lines
    excluded), matching both drivers' accounting.  A feed the walk refuses
    raises :class:`QueryError`.
    """
    records = 0
    try:
        with FeedFleet(paths, starts, ends) as fleet:
            for record in fleet.records():
                records += 1
                event = tracker.apply(record)
                if event is not None:
                    out.append(event)
    except FeedError as exc:
        raise QueryError(str(exc)) from exc
    return records
