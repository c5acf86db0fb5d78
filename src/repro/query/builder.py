"""The index builder: boundary-coupled segment construction.

:class:`IndexBuilder` rides the stream's checkpoint boundaries.  During a
batch it accumulates index events — from its own
:class:`~repro.query.track.OriginTracker` on the single-engine path
(:meth:`observe`), or shipped back from shard trackers at router barriers
(:meth:`ingest_events`).  At each boundary the service calls
:meth:`prepare_boundary` *synchronously* (cheap: drains buffers into a
canonical segment document and the next manifest) and executes the
returned :class:`IndexJob` on its writer path **after** the alarm fsync
and the chain write::

    alarm append+fsync  ->  chain record  ->  segment file  ->  manifest

That ordering is the whole durability argument: the manifest is the
index's commit point and always lands last, so the on-disk index can only
ever be *at or behind* the checkpoint chain, never ahead.  Resume is
therefore always :meth:`resume`'s catch-up — seed tracker state from the
chain tip when the manifest is at it, or else fold the manifested
segments back into tracker state, replay the feed/alarm byte gap up to
the chain tip and publish one catch-up segment — or, when the manifest is
missing, foreign, or ahead of the chain (a stale index from some other
run), a from-scratch rebuild.  A manifest that exists but cannot be parsed is
**refused** (:class:`~repro.query.track.QueryError`), never overwritten:
rebuild-or-refuse, no torn state.

:func:`build_index` is the offline path — same builder, cutting segments
every N trace days instead of every service boundary.  Answers are
segmentation-invariant, so all three producers serve identical queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.obs.metrics import Counter, MetricsRegistry
from repro.query.model import StoreState
from repro.query.segments import (
    MANIFEST_NAME,
    assemble_segment,
    load_manifest,
    load_segment,
    manifest_doc,
    manifest_entry,
    read_segment,
    reap_unreferenced,
    write_manifest,
    write_segment,
)
from repro.query.track import (
    AlarmRow,
    IndexEvent,
    OriginTracker,
    QueryError,
    alarm_row_from_line,
    alarm_rows_from_range,
    replay_range,
)
from repro.stream.checkpoint import FaultHook
from repro.stream.feed import FeedFleet, FeedRecord

#: Index modes: one tailer feed vs the sharded router's N vantage feeds.
MODE_SINGLE = "single"
MODE_ROUTER = "router"


def coordinates(
    mode: str, records: int, alarm_bytes: int, offsets: Sequence[int]
) -> Dict[str, Any]:
    """Boundary coordinates; only the feed key differs per mode."""
    if mode == MODE_ROUTER:
        return {
            "records": records,
            "alarm_bytes": alarm_bytes,
            "feed_offsets": list(offsets),
        }
    return {"records": records, "alarm_bytes": alarm_bytes, "feed_bytes": offsets[0]}


def feed_offsets(coords: Dict[str, Any]) -> List[int]:
    """The per-feed byte offsets of either mode's coordinates."""
    if "feed_offsets" in coords:
        return [int(offset) for offset in coords["feed_offsets"]]
    return [int(coords["feed_bytes"])]


@dataclass
class IndexJob:
    """One boundary's durable index work, prepared on the ingest path."""

    segment: Optional[Dict[str, Any]]
    manifest: Dict[str, Any]


class IndexBuilder:
    """Accumulate index events; cut a segment + manifest at each boundary."""

    def __init__(
        self,
        index_dir: Union[str, Path],
        *,
        metrics: Optional[MetricsRegistry] = None,
        fault: Optional[FaultHook] = None,
    ) -> None:
        self.index_dir = Path(index_dir)
        self._fault = fault
        self._tracker = OriginTracker()
        self._events: List[IndexEvent] = []
        self._alarm_rows: List[AlarmRow] = []
        self._entries: List[Dict[str, Any]] = []
        self._generation = 0
        self._mode = MODE_SINGLE
        self._last_end: Dict[str, Any] = coordinates(MODE_SINGLE, 0, 0, [0])
        self.segments_written = 0
        self.manifests_written = 0
        self.catchup_records = 0
        self._m_segments: Optional[Counter] = None
        self._m_manifests: Optional[Counter] = None
        self._m_events: Optional[Counter] = None
        self._m_alarm_rows: Optional[Counter] = None
        self._m_catchup: Optional[Counter] = None
        if metrics is not None:
            self._m_segments = metrics.counter("query.segments")
            self._m_manifests = metrics.counter("query.manifest_writes")
            self._m_events = metrics.counter("query.events")
            self._m_alarm_rows = metrics.counter("query.alarm_rows")
            self._m_catchup = metrics.counter("query.catchup_records")

    # -- lifecycle -----------------------------------------------------------

    def start_fresh(self, mode: str = MODE_SINGLE, feed_count: int = 1) -> None:
        """Begin an empty index, wiping any previous one in the directory.

        Mirrors the service's fresh-run alarm-log truncation: a fresh run
        invalidates every byte coordinate an old index could refer to.
        """
        self.index_dir.mkdir(parents=True, exist_ok=True)
        manifest_path = self.index_dir / MANIFEST_NAME
        if manifest_path.exists():
            manifest_path.unlink()
        reap_unreferenced(self.index_dir, None)
        self._mode = mode
        self._tracker = OriginTracker()
        self._events = []
        self._alarm_rows = []
        self._entries = []
        self._generation = 0
        self._last_end = coordinates(mode, 0, 0, [0] * feed_count)

    def resume(
        self,
        *,
        feeds: Sequence[Union[str, Path]],
        alarms: Union[str, Path],
        end: Dict[str, Any],
        tip: Dict[str, Any],
    ) -> None:
        """Bring the on-disk index up to the chain tip's coordinates.

        ``end`` comes from
        :meth:`repro.stream.checkpoint.Checkpoint.index_coordinates`, and
        ``tip`` is the same checkpoint's engine document.  The manifest
        (the index commit point) can only be at or behind it; a manifest
        *ahead* of the chain is a stale index from a longer prior run and
        triggers a from-scratch rebuild, as does a mode or feed-count
        mismatch.

        A manifest that ends exactly at ``end`` (every graceful stop) seeds
        the origin tracker from ``tip``'s live origin sets and decodes no
        segment: resume costs O(live state) plus one ``sha256`` over the
        index bytes.  Only a manifest behind
        the tip (a crash between the chain write and the manifest publish)
        folds the manifested segments back into the tracker and replays the
        feed/alarm byte gap, published at once as one catch-up segment so
        the run loop starts from a clean buffer.  Either way every
        manifested segment is checked against its manifest digest, and a
        missing or altered one is refused.
        """
        mode = MODE_ROUTER if "feed_offsets" in end else MODE_SINGLE
        self.index_dir.mkdir(parents=True, exist_ok=True)
        manifest = load_manifest(self.index_dir)  # refuses torn manifests
        reap_unreferenced(self.index_dir, manifest)
        if manifest is not None and not self._compatible(manifest, mode, end):
            manifest = None  # stale or foreign: rebuild from scratch
        if manifest is None:
            self.start_fresh(mode, feed_count=len(feeds))
            start = dict(self._last_end)
        else:
            self._mode = mode
            self._entries = [dict(entry) for entry in manifest["segments"]]
            self._generation = int(manifest["generation"])
            self._last_end = dict(manifest["end"])
            if self._last_end == dict(end):
                for entry in self._entries:
                    read_segment(
                        self.index_dir / str(entry["name"]),
                        str(entry["digest"]),
                    )
                self._tracker = OriginTracker.from_engine_state(tip)
            else:
                self._restore_tracker()
            start = dict(self._last_end)
        self.catchup_records += self._replay_gap(feeds, alarms, start, end)
        if self._m_catchup is not None and self.catchup_records:
            self._m_catchup.inc(self.catchup_records)
        job = self.prepare_boundary(end, [])
        if job is not None:
            self.commit(job)

    def _compatible(
        self, manifest: Dict[str, Any], mode: str, end: Dict[str, Any]
    ) -> bool:
        if manifest["mode"] != mode:
            return False
        manifest_end = manifest["end"]
        if int(manifest_end["records"]) > int(end["records"]):
            return False
        if int(manifest_end["alarm_bytes"]) > int(end["alarm_bytes"]):
            return False
        offsets = feed_offsets(manifest_end)
        targets = feed_offsets(end)
        if len(offsets) != len(targets):
            return False
        return all(offset <= target for offset, target in zip(offsets, targets))

    def _restore_tracker(self) -> None:
        """Rebuild live origin sets by folding the manifested segments."""
        state = StoreState()
        for entry in self._entries:
            doc = load_segment(
                self.index_dir / str(entry["name"]),
                expect_digest=str(entry["digest"]),
            )
            state.fold_segment(doc)
        live = {
            prefix: [int(asn) for asn in history.transitions[-1][1]]
            for prefix, history in state.prefixes.items()
            if history.transitions and history.transitions[-1][1]
        }
        self._tracker = OriginTracker.from_live(live)

    def _replay_gap(
        self,
        feeds: Sequence[Union[str, Path]],
        alarms: Union[str, Path],
        start: Dict[str, Any],
        end: Dict[str, Any],
    ) -> int:
        expected = int(end["records"]) - int(start["records"])
        if expected == 0:
            return 0
        records = replay_range(
            feeds,
            feed_offsets(start),
            feed_offsets(end),
            self._tracker,
            self._events,
        )
        if records != expected:
            raise QueryError(
                f"index catch-up replayed {records} records but coordinates "
                f"claim {expected}; the index does not belong to this feed"
            )
        self._alarm_rows.extend(
            alarm_rows_from_range(
                alarms, int(start["alarm_bytes"]), int(end["alarm_bytes"])
            )
        )
        return records

    # -- ingest --------------------------------------------------------------

    def observe(self, record: FeedRecord) -> None:
        """Single-engine hot path: fold one already-parsed feed record."""
        event = self._tracker.apply(record)
        if event is not None:
            self._events.append(event)

    def ingest_events(self, events: Iterable[IndexEvent]) -> None:
        """Router path: adopt events a shard tracker computed."""
        self._events.extend(events)

    # -- boundaries ----------------------------------------------------------

    def prepare_boundary(
        self, end: Dict[str, Any], alarm_lines: Sequence[str]
    ) -> Optional[IndexJob]:
        """Drain buffers into one boundary's segment + manifest documents.

        Synchronous state capture, no I/O — safe on the ingest path; the
        returned job's :meth:`commit` does the durable writes.  Returns
        ``None`` when nothing changed since the previous boundary.
        """
        for line in alarm_lines:
            self._alarm_rows.append(alarm_row_from_line(line))
        events, self._events = self._events, []
        rows, self._alarm_rows = self._alarm_rows, []
        if self._m_events is not None and events:
            self._m_events.inc(len(events))
        if self._m_alarm_rows is not None and rows:
            self._m_alarm_rows.inc(len(rows))
        seq = self._entries[-1]["seq"] + 1 if self._entries else 1
        doc = assemble_segment(seq, self._last_end, dict(end), events, rows)
        if doc is None and dict(self._last_end) == dict(end):
            return None
        if doc is not None:
            self._entries.append(manifest_entry(doc))
        self._generation += 1
        self._last_end = dict(end)
        manifest = manifest_doc(
            self._generation, self._mode, self._last_end, list(self._entries)
        )
        return IndexJob(segment=doc, manifest=manifest)

    def commit(self, job: IndexJob) -> None:
        """Durably publish one prepared boundary (segment first, then the
        manifest — the commit point)."""
        if job.segment is not None:
            write_segment(self.index_dir, job.segment, self._fault)
            self.segments_written += 1
            if self._m_segments is not None:
                self._m_segments.inc()
        write_manifest(self.index_dir, job.manifest, self._fault)
        self.manifests_written += 1
        if self._m_manifests is not None:
            self._m_manifests.inc()


# -- offline builds -----------------------------------------------------------


def build_index(
    feeds: Sequence[Union[str, Path]],
    alarms: Union[str, Path],
    index_dir: Union[str, Path],
    *,
    segment_days: int = 30,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, Any]:
    """Build a complete index from a finished feed + alarm log.

    Cuts a segment every ``segment_days`` trace days (day-aligned
    boundaries: at a tick for day D every record and alarm with time <= D
    is final, so the alarm byte cursor advances in lockstep with no
    guessing).  Returns a JSON-safe build summary.
    """
    if segment_days < 1:
        raise ValueError(f"segment_days must be >= 1, got {segment_days}")
    feed_paths = [Path(feed) for feed in feeds]
    alarms_path = Path(alarms)
    mode = MODE_ROUTER if len(feed_paths) > 1 else MODE_SINGLE
    builder = IndexBuilder(index_dir, metrics=metrics)
    builder.start_fresh(mode, feed_count=len(feed_paths))

    alarm_cursor = _AlarmCursor(alarms_path)
    records = 0
    days_seen = 0

    def cut(records: int, offsets: List[int]) -> None:
        end = coordinates(mode, records, alarm_cursor.position, offsets)
        job = builder.prepare_boundary(end, [])
        if job is not None:
            builder.commit(job)

    with FeedFleet(feed_paths) as fleet:
        for record in fleet.records():
            records += 1
            builder.observe(record)
            if record.is_tick:
                days_seen += 1
                if days_seen % segment_days == 0:
                    builder._alarm_rows.extend(
                        alarm_cursor.take_through(record.time)
                    )
                    cut(records, fleet.offsets)
        builder._alarm_rows.extend(alarm_cursor.take_through(None))
        cut(records, fleet.offsets)
    alarm_cursor.close()
    return {
        "records": records,
        "days": days_seen,
        "segments": builder.segments_written,
        "mode": mode,
    }


class _AlarmCursor:
    """Lockstep reader over the alarm log, consuming lines by day.

    Alarm-log times are nondecreasing (the engine emits in feed order and
    feed time never rewinds), so "every alarm with time <= D" is a prefix
    of the file — which keeps the byte coordinate exact.
    """

    def __init__(self, path: Path) -> None:
        self._handle = path.open("rb") if path.exists() else None
        self.position = 0
        self._held: Optional[AlarmRow] = None
        self._held_bytes = 0

    def take_through(self, day: Optional[float]) -> List[AlarmRow]:
        """Rows with time <= ``day`` (``None`` = everything remaining)."""
        rows: List[AlarmRow] = []
        if self._handle is None:
            return rows
        while True:
            if self._held is None:
                line = self._handle.readline()
                if not line or not line.endswith(b"\n"):
                    break
                self._held = alarm_row_from_line(line.decode("utf-8"))
                self._held_bytes = len(line)
            if day is not None and float(self._held[1][0]) > day:
                break
            rows.append(self._held)
            self.position += self._held_bytes
            self._held = None
        return rows

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
