"""The line-delimited BGP update-feed format and its producers.

A *feed* is the streaming counterpart of the daily routing-table snapshots
the §3 study consumes: an unbounded sequence of per-origin announce /
withdraw events plus periodic *tick* records marking measurement-period
boundaries (one tick per day for trace-derived feeds).  The format is one
JSON object per line — tail-able and diffable — with a
single header line identifying the format version:

.. code-block:: text

    {"format": "repro-stream-feed", "version": 1}
    {"op": "A", "p": "10.0.0.0/24", "t": 0, "o": 701, "m": [701, 702]}
    {"op": "W", "p": "10.0.0.0/24", "t": 3, "o": 702}
    {"op": "T", "t": 3}

Field semantics (compact keys keep multi-million-record feeds small):

* ``op`` — ``A`` announce, ``W`` withdraw, ``T`` tick (period boundary);
* ``t``  — event time: the day index for trace feeds, simulator virtual
  time for live taps;
* ``p``  — the prefix (announce/withdraw only);
* ``o``  — the origin AS the event is about;
* ``m``  — the MOAS list carried by an announcement, as a sorted AS list
  (the §4.1 community encoding, decoded); absent means the footnote-3
  implicit singleton ``{origin}``;
* ``r``  — optional vantage/peer AS (live taps record it; trace diffs
  have no vantage).

Two producers are provided:

* :func:`snapshot_deltas` — diffs consecutive daily snapshots from
  :mod:`repro.measurement.trace` into an update stream (optionally in
  ``refresh`` mode, re-announcing the full table every day the way a
  daily RIB dump replay would);
* :class:`SimulatorTap` — hooks a running :class:`~repro.bgp.speaker.
  BGPSpeaker`'s import/withdrawal extension points and serialises its
  live UPDATE traffic as feed records.
"""

from __future__ import annotations

import json
import os
import stat
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    IO,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.bgp.attributes import PathAttributes
from repro.bgp.speaker import BGPSpeaker
from repro.core.moas_list import extract_moas_list
from repro.net.addresses import Prefix
from repro.net.asn import ASN, validate_asn

#: The feed header, written as the first line of every produced feed.
FEED_FORMAT = "repro-stream-feed"
FEED_VERSION = 1

OP_ANNOUNCE = "A"
OP_WITHDRAW = "W"
OP_TICK = "T"

#: A day's view, as produced by ``TraceGenerator.snapshots()``.
Snapshot = Mapping[Prefix, FrozenSet[ASN]]


class FeedError(ValueError):
    """Raised for malformed feed lines or headers."""


@dataclass(frozen=True)
class FeedRecord:
    """One update-feed event (announce, withdraw, or period tick)."""

    op: str
    time: float
    prefix: Optional[Prefix] = None
    origin: Optional[ASN] = None
    moas: Optional[Tuple[ASN, ...]] = None
    peer: Optional[ASN] = None

    def __post_init__(self) -> None:
        if self.op not in (OP_ANNOUNCE, OP_WITHDRAW, OP_TICK):
            raise FeedError(f"unknown feed op {self.op!r}")
        if self.op == OP_TICK:
            if self.prefix is not None or self.origin is not None:
                raise FeedError("tick records carry no prefix or origin")
            return
        if self.prefix is None:
            raise FeedError(f"{self.op!r} record needs a prefix")
        if self.origin is None:
            raise FeedError(f"{self.op!r} record needs an origin")
        validate_asn(self.origin)
        if self.moas is not None:
            if self.op == OP_WITHDRAW:
                raise FeedError("withdraw records carry no MOAS list")
            if not self.moas:
                raise FeedError("an explicit MOAS list cannot be empty")
            for asn in self.moas:
                validate_asn(asn)
        if self.peer is not None:
            validate_asn(self.peer)

    @property
    def is_tick(self) -> bool:
        return self.op == OP_TICK

    def effective_moas(self) -> Tuple[ASN, ...]:
        """The MOAS list the announcement effectively carries (footnote 3:
        no explicit list means the implicit singleton ``{origin}``)."""
        if self.op != OP_ANNOUNCE:
            raise FeedError(f"{self.op!r} records carry no MOAS list")
        if self.moas is not None:
            return tuple(sorted(set(self.moas)))
        assert self.origin is not None  # enforced in __post_init__
        return (self.origin,)

    def to_json_line(self) -> str:
        """Canonical one-line serialisation (sorted keys, no whitespace)."""
        data: Dict[str, Any] = {"op": self.op, "t": self.time}
        if self.prefix is not None:
            data["p"] = str(self.prefix)
        if self.origin is not None:
            data["o"] = self.origin
        if self.moas is not None:
            data["m"] = sorted(set(self.moas))
        if self.peer is not None:
            data["r"] = self.peer
        return json.dumps(data, sort_keys=True, separators=(",", ":"))


def feed_header_line() -> str:
    return json.dumps(
        {"format": FEED_FORMAT, "version": FEED_VERSION},
        sort_keys=True,
        separators=(",", ":"),
    )


def _require_int(value: Any, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise FeedError(f"{what} must be an integer, got {value!r}")
    return value


def parse_feed_line(line: str) -> Optional[FeedRecord]:
    """Parse one feed line; returns ``None`` for headers and blank lines."""
    text = line.strip()
    if not text:
        return None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FeedError(f"not valid feed JSON: {text[:80]!r}") from exc
    if not isinstance(data, dict):
        raise FeedError(f"feed line must be a JSON object: {text[:80]!r}")
    if "format" in data:
        if data.get("format") != FEED_FORMAT:
            raise FeedError(f"not a {FEED_FORMAT} feed: {data.get('format')!r}")
        version = data.get("version")
        if version != FEED_VERSION:
            raise FeedError(f"unsupported feed version {version!r}")
        return None
    op = data.get("op")
    if not isinstance(op, str):
        raise FeedError(f"feed record missing op: {text[:80]!r}")
    time_value = data.get("t")
    if not isinstance(time_value, (int, float)) or isinstance(time_value, bool):
        raise FeedError(f"feed record missing numeric t: {text[:80]!r}")
    prefix: Optional[Prefix] = None
    if "p" in data:
        raw_prefix = data["p"]
        if not isinstance(raw_prefix, str):
            raise FeedError(f"prefix must be a string, got {raw_prefix!r}")
        prefix = Prefix.parse(raw_prefix)
    origin = _require_int(data["o"], "origin") if "o" in data else None
    moas: Optional[Tuple[ASN, ...]] = None
    if "m" in data:
        raw_moas = data["m"]
        if not isinstance(raw_moas, list):
            raise FeedError(f"MOAS list must be a list, got {raw_moas!r}")
        moas = tuple(_require_int(asn, "MOAS member") for asn in raw_moas)
    peer = _require_int(data["r"], "peer") if "r" in data else None
    return FeedRecord(
        op=op,
        time=float(time_value),
        prefix=prefix,
        origin=origin,
        moas=moas,
        peer=peer,
    )


class FeedWriter:
    """Writes a header plus records to a line-delimited feed file.

    Usable as a context manager.  Lines are flushed per record so a
    following service sees them immediately (the live-tap case).
    """

    def __init__(self, target: Union[str, Path, IO[str]]) -> None:
        if isinstance(target, (str, Path)):
            self._handle: IO[str] = Path(target).open("w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self.records_written = 0
        self._handle.write(feed_header_line() + "\n")
        self._handle.flush()

    def write(self, record: FeedRecord) -> None:
        self._handle.write(record.to_json_line() + "\n")
        self._handle.flush()
        self.records_written += 1

    def write_all(self, records: Iterable[FeedRecord]) -> int:
        count = 0
        for record in records:
            self.write(record)
            count += 1
        return count

    def close(self) -> None:
        if self._owns_handle and not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "FeedWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- the feed walk: one cursor per vantage feed, one day-barrier interleave --

#: Raw-byte markers in the canonical feed serialisation (sorted keys,
#: compact separators — see FeedRecord.to_json_line).
PREFIX_MARK = b'"p":"'

#: Lines a cursor reads at most per call, so a feed with few ticks still
#: streams in bounded memory.
_BATCH = 4096
_UNBOUNDED = sys.maxsize


def parse_record_line(line: bytes) -> FeedRecord:
    """Parse a line :class:`FeedCursor` handed over unparsed (it carries
    :data:`PREFIX_MARK`): it must be an announce or a withdraw."""
    record = parse_feed_line(line.decode("utf-8"))
    if record is None:
        raise FeedError(f"not an announce or withdraw: {line[:80]!r}")
    return record


class FeedCursor:
    """One vantage feed read as raw bytes, with an exact byte offset.

    Reads ``[start, end)``, or to EOF when ``end`` is ``None``.  The feed
    must be a regular file: offsets are resume coordinates, so a pipe is
    refused.  With an ``end``, a line running past it and a file stopping
    short of it are both refused: checkpoint and manifest coordinates must
    fall on line boundaries of this very file.  Without one, a partial last
    line ends the read (its writer may still be appending it) and stays
    unconsumed, so a later read of a growing feed retries it.

    Every line follows one rule.  A line carrying the canonical prefix
    marker is a record line, handed over unparsed (whoever parses it
    refuses one that is not an announce or withdraw).  Every other line
    goes through :func:`parse_feed_line`: blank lines are skipped, headers
    are checked (an unsupported format or version is refused) and skipped,
    a tick ends the read, and a record without the canonical prefix marker
    is refused as unroutable.  An error names the byte the line starts at.
    """

    __slots__ = ("path", "position", "end", "done", "_handle")

    def __init__(
        self, path: Union[str, Path], start: int = 0, end: Optional[int] = None
    ) -> None:
        self.path = Path(path)
        if not stat.S_ISREG(os.stat(self.path).st_mode):
            raise FeedError(f"feed {self.path} is not a regular file")
        self._handle: IO[bytes] = self.path.open("rb")
        self.end = end
        self.done = False
        self.seek(start)

    def seek(self, offset: int) -> None:
        self._handle.seek(offset)
        self.position = offset

    def read(self) -> Tuple[List[bytes], Optional[float]]:
        """Record lines up to the next tick, and that tick's day.

        The day is ``None`` when the read stopped first: after ``_BATCH``
        lines, or at the feed's end (then :attr:`done` is set until the
        next read).
        """
        lines: List[bytes] = []
        append = lines.append
        readline = self._handle.readline
        end = _UNBOUNDED if self.end is None else self.end
        position = self.position
        self.done = False
        try:
            for _ in range(_BATCH):
                if position >= end:
                    self.done = True
                    break
                line = readline()
                if not line.endswith(b"\n"):
                    if self.end is not None:
                        raise FeedError(
                            f"feed {self.path} ends at byte {position}, "
                            f"expected {end}"
                        )
                    if line:
                        self._handle.seek(position)
                    self.done = True
                    break
                position += len(line)
                if position > end:
                    raise FeedError(
                        f"feed {self.path} overran its end offset {end} "
                        f"(at {position})"
                    )
                if PREFIX_MARK in line:
                    append(line)
                    continue
                try:
                    record = parse_feed_line(line.decode("utf-8"))
                except ValueError as exc:
                    raise FeedError(
                        f"{self.path} at byte {position - len(line)}: {exc}"
                    ) from exc
                if record is None:
                    continue  # a blank line or a valid header
                if not record.is_tick:
                    raise FeedError(
                        f"{self.path} at byte {position - len(line)}: "
                        f"unroutable feed line {line[:80]!r}"
                    )
                return lines, record.time
            return lines, None
        finally:
            self.position = position

    def close(self) -> None:
        self._handle.close()


class FeedFleet:
    """N vantage feeds merged at day barriers — the one interleave rule.

    Iterating yields, in fleet order, lists of raw announce/withdraw lines
    and, once per day, that day as a ``float``:

    * each live feed is read up to its next tick, in feed order;
    * the feeds that ticked must agree on the day (else
      :class:`FeedError`), and one tick then closes it fleet-wide;
    * a feed that ends mid-day adds its lines but no tick.

    One feed is the N=1 case: its lines, then its tick, mid-day ``end``
    included.  A one-feed walk that ended at the feed's end can be started
    again to pick up what was appended since (the service's follow mode).
    """

    def __init__(
        self,
        paths: Sequence[Union[str, Path]],
        starts: Optional[Sequence[int]] = None,
        ends: Optional[Sequence[int]] = None,
    ) -> None:
        count = len(paths)
        for offsets in (starts, ends):
            if offsets is not None and len(offsets) != count:
                raise FeedError(
                    f"feed/offset count mismatch: {count} feeds, "
                    f"{len(offsets)} offsets"
                )
        self.cursors: List[FeedCursor] = []
        try:
            for index, path in enumerate(paths):
                self.cursors.append(
                    FeedCursor(
                        path,
                        0 if starts is None else int(starts[index]),
                        None if ends is None else int(ends[index]),
                    )
                )
        except BaseException:
            self.close()
            raise
        #: The cursor being read: the source of the last yielded lines.
        self.current: Optional[FeedCursor] = None

    @property
    def offsets(self) -> List[int]:
        return [cursor.position for cursor in self.cursors]

    def __iter__(self) -> Iterator[Union[List[bytes], float]]:
        live = list(self.cursors)
        while live:
            days = set()
            for cursor in live:
                self.current = cursor
                while True:
                    lines, day = cursor.read()
                    if lines:
                        yield lines
                    if day is not None:
                        days.add(day)
                        break
                    if cursor.done:
                        break
            live = [cursor for cursor in live if not cursor.done]
            if days:
                if len(days) != 1:
                    raise FeedError(
                        f"vantage feeds disagree on the current day: "
                        f"{sorted(days)}"
                    )
                yield days.pop()

    def records(self) -> Iterator[FeedRecord]:
        """The same walk, parsed: one record per line, one tick per day."""
        for item in self:
            if isinstance(item, float):
                yield FeedRecord(op=OP_TICK, time=item)
                continue
            assert self.current is not None
            for line in item:
                try:
                    record = parse_record_line(line)
                except ValueError as exc:
                    raise FeedError(f"{self.current.path}: {exc}") from exc
                yield record

    def close(self) -> None:
        for cursor in self.cursors:
            cursor.close()

    def __enter__(self) -> "FeedFleet":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- producer 1: snapshot diffing ------------------------------------------


def snapshot_deltas(
    snapshots: Iterable[Tuple[int, Snapshot]],
    refresh: bool = False,
) -> Iterator[FeedRecord]:
    """Diff consecutive daily snapshots into an update stream.

    For each day the producer emits, in deterministic prefix order:

    * for a prefix *born* that day, one announce per origin carrying the
      full origin set as its MOAS list — a coordinated multi-homing
      arrangement where every member attaches the complete list (§4.1);
    * for an origin *added* to an already-live prefix, one announce with
      **no** MOAS list — a unilateral arrival that did not coordinate with
      the incumbents, so footnote 3's implicit ``{origin}`` applies.  This
      is exactly what a fault or hijack looks like in an update stream, and
      it is what lets the online detector raise inconsistent-list alarms on
      the trace's fault spikes (the incumbents' coordinated list is already
      on file as conflicting evidence);
    * a withdraw for every ``(prefix, origin)`` pair that disappeared;
    * one tick closing the day.

    With ``refresh=True`` every live pair instead re-announces the day's
    full origin set every day — the shape of a cooperative daily RIB-dump
    replay, ~2.6M records over the full 1279-day trace — rather than deltas
    only.  Both modes leave a consuming
    :class:`~repro.stream.engine.StreamEngine` holding exactly the day's
    snapshot state at each tick, so daily MOAS counts match the batch
    observer bit for bit (list contents never affect the count).
    """
    previous: Dict[Prefix, FrozenSet[ASN]] = {}
    for day, snapshot in snapshots:
        current = {prefix: frozenset(origins) for prefix, origins in snapshot.items()}
        touched = set(previous) | set(current)
        for prefix in sorted(touched, key=lambda p: p.sort_key):
            old = previous.get(prefix, frozenset())
            new = current.get(prefix, frozenset())
            if new and (refresh or not old):
                # Birth (or cooperative refresh): the members announce the
                # coordinated full list.
                moas = tuple(sorted(new))
                for origin in sorted(new):
                    yield FeedRecord(
                        op=OP_ANNOUNCE,
                        time=float(day),
                        prefix=prefix,
                        origin=origin,
                        moas=moas,
                    )
            else:
                # Unilateral arrivals: no communities, implicit {origin}.
                for origin in sorted(new - old):
                    yield FeedRecord(
                        op=OP_ANNOUNCE,
                        time=float(day),
                        prefix=prefix,
                        origin=origin,
                    )
            for origin in sorted(old - new):
                yield FeedRecord(
                    op=OP_WITHDRAW, time=float(day), prefix=prefix, origin=origin
                )
        yield FeedRecord(op=OP_TICK, time=float(day))
        previous = current


# -- producer 2: live simulator tap ----------------------------------------


class SimulatorTap:
    """Serialises a running speaker's UPDATE traffic as feed records.

    The tap attaches through the speaker's public extension points — an
    import validator that always accepts (it observes every announcement
    surviving import policy) and a withdrawal listener — and reference-counts
    ``(prefix, origin)`` pairs across vantage peers, so the emitted stream
    carries one announce per new origin (or changed MOAS list) and one
    withdraw when the last peer-path to an origin goes away.  Timestamps are
    simulator virtual time, read through the injected ``clock`` (usually
    ``lambda: sim.now``), keeping the tap deterministic.
    """

    def __init__(
        self, sink: Callable[[FeedRecord], None], clock: Callable[[], float]
    ) -> None:
        self._sink = sink
        self._clock = clock
        # (prefix, origin) -> set of peers currently providing the pair.
        self._providers: Dict[Tuple[Prefix, ASN], List[ASN]] = {}
        # (peer, prefix) -> origin that peer last announced.
        self._peer_routes: Dict[Tuple[ASN, Prefix], ASN] = {}
        # (prefix, origin) -> last emitted MOAS list.
        self._last_moas: Dict[Tuple[Prefix, ASN], Tuple[ASN, ...]] = {}
        self.records_emitted = 0

    def attach(self, speaker: BGPSpeaker) -> None:
        """Observe one speaker's imported announcements and withdrawals."""
        speaker.add_import_validator(self._on_announce)
        speaker.add_withdrawal_listener(self._on_withdraw)

    def tick(self) -> None:
        """Emit a period-boundary record at the current virtual time."""
        self._emit(FeedRecord(op=OP_TICK, time=self._clock()))

    def _emit(self, record: FeedRecord) -> None:
        self.records_emitted += 1
        self._sink(record)

    def _on_announce(
        self, peer: ASN, prefix: Prefix, attributes: PathAttributes
    ) -> bool:
        origin = attributes.origin_asn
        moas_list = extract_moas_list(attributes)
        if origin is None or moas_list is None:
            return True  # nothing originated (AS_SET tail); observe only
        moas = tuple(sorted(moas_list.origins))
        self._replace_peer_route(peer, prefix, origin)
        key = (prefix, origin)
        providers = self._providers.setdefault(key, [])
        if peer not in providers:
            providers.append(peer)
        if len(providers) == 1 or self._last_moas.get(key) != moas:
            self._last_moas[key] = moas
            self._emit(
                FeedRecord(
                    op=OP_ANNOUNCE,
                    time=self._clock(),
                    prefix=prefix,
                    origin=origin,
                    moas=moas,
                    peer=peer,
                )
            )
        return True

    def _on_withdraw(self, peer: ASN, prefix: Prefix) -> None:
        self._replace_peer_route(peer, prefix, None)

    def _replace_peer_route(
        self, peer: ASN, prefix: Prefix, new_origin: Optional[ASN]
    ) -> None:
        """Point ``(peer, prefix)`` at ``new_origin``, emitting a withdraw
        when an origin loses its last provider."""
        route_key = (peer, prefix)
        old_origin = self._peer_routes.get(route_key)
        if old_origin == new_origin:
            return
        if old_origin is not None:
            pair = (prefix, old_origin)
            providers = self._providers.get(pair, [])
            if peer in providers:
                providers.remove(peer)
            if not providers:
                self._providers.pop(pair, None)
                self._last_moas.pop(pair, None)
                self._emit(
                    FeedRecord(
                        op=OP_WITHDRAW,
                        time=self._clock(),
                        prefix=prefix,
                        origin=old_origin,
                        peer=peer,
                    )
                )
        if new_origin is None:
            self._peer_routes.pop(route_key, None)
        else:
            self._peer_routes[route_key] = new_origin
