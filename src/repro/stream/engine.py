"""The incremental online MOAS detector.

:class:`StreamEngine` is the streaming counterpart of both halves of the
batch pipeline.  It maintains the live per-prefix origin state the §3
observer derives from daily table dumps, so MOAS counts fall out of the
same state, updated in O(1) per event instead of a full-table rescan.  And
it runs every announcement through a
:class:`~repro.core.detection.MoasDetector` — the same §4.2 rule body the
batch :class:`~repro.core.checker.MoasChecker` runs — turning each finding
into a :class:`StreamAlarm`.

Because a long-running service cannot keep evidence forever, the detector's
evidence for *dead* prefixes (no live origin) is forgotten once the prefix
has been quiet for a configurable window of ticks.  Alarms are
deduplicated on their full evidence (prefix, kind, observed list,
conflicting list, suspect origin): the first occurrence emits a
:class:`StreamAlarm` record, repeats only bump an aggregate count, so a
route flapping through the same conflict a thousand times costs one alarm
line and a counter.

All engine state round-trips through :meth:`snapshot_state` /
:meth:`restore_state` as canonical JSON-safe structures (sorted lists of
pairs, never raw dicts), which is what makes checkpoint/resume produce
bit-identical alarm logs.  A snapshot and a delta are one encoding: the
snapshot is the delta from an empty engine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.detection import DEFAULT_EVIDENCE_WINDOW, MoasDetector
from repro.core.moas_list import MoasList
from repro.net.addresses import Prefix
from repro.net.asn import ASN
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.stream.feed import OP_ANNOUNCE, OP_TICK, OP_WITHDRAW, FeedRecord

#: Dedup key: (prefix, kind, observed list, conflicting list, suspect origin).
AlarmKey = Tuple[str, str, Tuple[ASN, ...], Optional[Tuple[ASN, ...]], Optional[ASN]]


@dataclass(frozen=True)
class StreamAlarm:
    """One deduplicated alarm emitted by the online detector."""

    time: float
    prefix: str
    kind: str
    observed: Tuple[ASN, ...]
    conflicting: Optional[Tuple[ASN, ...]] = None
    origin: Optional[ASN] = None

    def key(self) -> AlarmKey:
        return (self.prefix, self.kind, self.observed, self.conflicting, self.origin)

    def to_json_line(self) -> str:
        data: Dict[str, Any] = {
            "time": self.time,
            "prefix": self.prefix,
            "kind": self.kind,
            "observed": list(self.observed),
        }
        if self.conflicting is not None:
            data["conflicting"] = list(self.conflicting)
        if self.origin is not None:
            data["origin"] = self.origin
        return json.dumps(data, sort_keys=True, separators=(",", ":"))


class StreamEngine:
    """Per-update MOAS detection over an unbounded feed."""

    # Metric counters/gauges are observability wiring, re-resolved from the
    # registry on construction — not detector state to checkpoint.  The
    # dirty sets are since-last-checkpoint bookkeeping for delta encoding:
    # a restored engine starts clean by definition (the chain on disk
    # already covers everything up to the restore point), so they are
    # deliberately not part of the snapshot.  ``window`` is configuration:
    # the composite checkpoint document carries the run's one copy, and the
    # service refuses a resume with another.  ``_moas_active`` is derived
    # from the origins, and restore_state recounts it.  ``evictions``
    # counts this process's work only: nothing reads a run-long eviction
    # count.
    _SNAPSHOT_WAIVED = frozenset(
        {
            "window",
            "_moas_active",
            "evictions",
            "_m_updates",
            "_m_announces",
            "_m_withdrawals",
            "_m_ticks",
            "_m_alarms",
            "_m_duplicates",
            "_m_evictions",
            "_g_prefixes",
            "_g_moas",
            "_dirty_origins",
            "_dirty_observed",
            "_dirty_activity",
            "_dirty_alarms",
            "_dirty_days",
        }
    )

    def __init__(
        self,
        window: float = DEFAULT_EVIDENCE_WINDOW,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if window <= 0:
            raise ValueError(f"eviction window must be positive, got {window}")
        self.window = window
        # Live state: which origins currently announce each prefix, and the
        # MOAS list each one last attached.
        self._origins: Dict[Prefix, Dict[ASN, MoasList]] = {}
        # Conflict evidence: every distinct list observed for a prefix since
        # its evidence was last evicted.
        self._detector = MoasDetector()
        self._last_activity: Dict[Prefix, float] = {}
        # Alarm dedup/aggregation: evidence key -> occurrence count.
        self._alarm_counts: Dict[AlarmKey, int] = {}
        # Keys dirtied since the last checkpoint boundary (delta encoding).
        # Tracked per component, so a change to one component of a prefix
        # never re-serialises the (unchanged) others at the next boundary.
        self._dirty_origins: Set[Prefix] = set()
        self._dirty_observed: Set[Prefix] = set()
        self._dirty_activity: Set[Prefix] = set()
        self._dirty_alarms: Set[AlarmKey] = set()
        self._dirty_days: Set[int] = set()
        # Prefixes currently in a MOAS state, maintained on 1<->2 origin
        # transitions so a tick is O(1) for the count itself.
        self._moas_active = 0
        self.daily_counts: Dict[int, int] = {}
        self.alarm_duplicates = 0
        self.evictions = 0
        self._m_updates: Optional[Counter] = None
        self._m_announces: Optional[Counter] = None
        self._m_withdrawals: Optional[Counter] = None
        self._m_ticks: Optional[Counter] = None
        self._m_alarms: Optional[Counter] = None
        self._m_duplicates: Optional[Counter] = None
        self._m_evictions: Optional[Counter] = None
        self._g_prefixes: Optional[Gauge] = None
        self._g_moas: Optional[Gauge] = None
        if metrics is not None:
            self._m_updates = metrics.counter("stream.updates")
            self._m_announces = metrics.counter("stream.announces")
            self._m_withdrawals = metrics.counter("stream.withdrawals")
            self._m_ticks = metrics.counter("stream.ticks")
            self._m_alarms = metrics.counter("stream.alarms")
            self._m_duplicates = metrics.counter("stream.alarm_duplicates")
            self._m_evictions = metrics.counter("stream.evictions")
            self._g_prefixes = metrics.gauge("stream.state_prefixes")
            self._g_moas = metrics.gauge("stream.moas_active")

    # -- introspection -------------------------------------------------------

    @property
    def moas_active(self) -> int:
        """Prefixes currently announced by more than one origin."""
        return self._moas_active

    @property
    def state_prefixes(self) -> int:
        """Prefixes the engine holds any state for (live or evidence)."""
        return len(self._origins.keys() | self._detector.observed.keys())

    def live_origins(self, prefix: Prefix) -> Tuple[ASN, ...]:
        return tuple(sorted(self._origins.get(prefix, {})))

    def alarm_totals(self) -> Dict[str, int]:
        """Aggregate occurrence counts per alarm kind (dedup included)."""
        totals: Dict[str, int] = {}
        for key, count in self._alarm_counts.items():
            totals[key[1]] = totals.get(key[1], 0) + count
        return dict(sorted(totals.items()))

    def daily_series(self) -> List[int]:
        """MOAS counts ordered by day — Figure 4 from the stream path."""
        return [self.daily_counts[day] for day in sorted(self.daily_counts)]

    # -- the per-update hot path ---------------------------------------------

    def apply(self, record: FeedRecord) -> List[StreamAlarm]:
        """Apply one feed record; returns newly emitted (first-seen) alarms."""
        if self._m_updates is not None:
            self._m_updates.inc()
        if record.op == OP_ANNOUNCE:
            return self._apply_announce(record)
        if record.op == OP_WITHDRAW:
            self._apply_withdraw(record)
            return []
        self._apply_tick(record)
        return []

    def _apply_announce(self, record: FeedRecord) -> List[StreamAlarm]:
        if self._m_announces is not None:
            self._m_announces.inc()
        prefix, origin = record.prefix, record.origin
        assert prefix is not None and origin is not None  # FeedRecord invariant
        # Only _evict reads a stamp, and only a dead prefix's: an announce
        # makes the prefix live, and the withdrawal that next kills it
        # stamps it again.  So drop the stamp, and dirty it only if one
        # was there — a refresh of a live table dirties nothing.
        if self._last_activity.pop(prefix, None) is not None:
            self._dirty_activity.add(prefix)
        moas_list = MoasList(record.effective_moas())
        # A malformed announcement (origin missing from its own list) still
        # becomes live state: the engine only ever raises alarms.
        kind, conflicting, is_new = self._detector.check(prefix, origin, moas_list)
        if is_new:
            self._dirty_observed.add(prefix)
        alarms: List[StreamAlarm] = []
        if kind is not None:
            self._record_alarm(
                StreamAlarm(
                    time=record.time,
                    prefix=str(prefix),
                    kind=kind.value,
                    observed=tuple(moas_list),
                    conflicting=None if conflicting is None else tuple(conflicting),
                    origin=origin,
                ),
                alarms,
            )
        self._install(prefix, origin, moas_list)
        return alarms

    def _install(self, prefix: Prefix, origin: ASN, moas_list: MoasList) -> None:
        live = self._origins.setdefault(prefix, {})
        if live.get(origin) == moas_list:
            return  # a refresh of the identical route changes nothing
        was_moas = len(live) > 1
        live[origin] = moas_list
        self._dirty_origins.add(prefix)
        if len(live) > 1 and not was_moas:
            self._moas_active += 1

    def _apply_withdraw(self, record: FeedRecord) -> None:
        if self._m_withdrawals is not None:
            self._m_withdrawals.inc()
        prefix, origin = record.prefix, record.origin
        assert prefix is not None and origin is not None  # FeedRecord invariant
        self._last_activity[prefix] = record.time
        self._dirty_activity.add(prefix)
        live = self._origins.get(prefix)
        if live is None or origin not in live:
            return  # withdrawing an unknown route is a no-op, as in BGP
        was_moas = len(live) > 1
        del live[origin]
        self._dirty_origins.add(prefix)
        if was_moas and len(live) <= 1:
            self._moas_active -= 1
        if not live:
            del self._origins[prefix]

    def _apply_tick(self, record: FeedRecord) -> None:
        if self._m_ticks is not None:
            self._m_ticks.inc()
        day = int(record.time)
        if day in self.daily_counts:
            raise ValueError(f"day {day} was already ticked")
        self.daily_counts[day] = self._moas_active
        self._dirty_days.add(day)
        self._evict(record.time)
        if self._g_prefixes is not None:
            self._g_prefixes.set(self.state_prefixes)
        if self._g_moas is not None:
            self._g_moas.set(self._moas_active)

    def _evict(self, now: float) -> None:
        """Drop evidence and dedup state for long-dead prefixes.

        A prefix is evictable once it has no live origin and has been quiet
        for at least ``window``; its conflict evidence, activity stamp and
        alarm-dedup entries all go, bounding state by the live table plus
        one window of churn.  Runs once per tick, iterating in prefix order
        so eviction is deterministic.
        """
        horizon = now - self.window
        stale = sorted(
            (
                prefix
                for prefix, last in self._last_activity.items()
                if last <= horizon and prefix not in self._origins
            ),
            key=lambda p: p.sort_key,
        )
        if not stale:
            return
        stale_names = {str(prefix) for prefix in stale}
        # Eviction drops evidence and activity; the live-origin component
        # was already deleted (and dirtied) by the withdrawal that killed
        # the prefix.
        self._dirty_observed.update(stale)
        self._dirty_activity.update(stale)
        for prefix in stale:
            self._detector.forget(prefix)
            del self._last_activity[prefix]
        for key in [k for k in self._alarm_counts if k[0] in stale_names]:
            del self._alarm_counts[key]
            self._dirty_alarms.add(key)
        self.evictions += len(stale)
        if self._m_evictions is not None:
            self._m_evictions.inc(len(stale))

    def _record_alarm(self, alarm: StreamAlarm, out: List[StreamAlarm]) -> None:
        key = alarm.key()
        count = self._alarm_counts.get(key, 0)
        self._alarm_counts[key] = count + 1
        self._dirty_alarms.add(key)
        if count == 0:
            if self._m_alarms is not None:
                self._m_alarms.inc()
            out.append(alarm)
        else:
            self.alarm_duplicates += 1
            if self._m_duplicates is not None:
                self._m_duplicates.inc()

    # -- checkpointable state ------------------------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """The whole engine state: its delta from an empty engine.

        The same document as :meth:`delta_state`, with every key present
        and so no ``None`` entry; folding it into an empty
        :class:`~repro.stream.delta.EngineFold` gives it back unchanged.
        """
        return self._encode(
            self.alarm_duplicates,
            self.daily_counts,
            self._origins,
            self._detector.observed,
            self._last_activity,
            self._alarm_counts,
        )

    def delta_state(self) -> Dict[str, Any]:
        """Canonical delta: only keys dirtied since :meth:`mark_clean`.

        Entries use set-to-value semantics — each dirty key carries its
        complete current value, ``None`` meaning deleted — so a
        :class:`~repro.stream.delta.EngineFold` holding a prior
        :meth:`snapshot_state` document folds them in to reproduce this
        engine's state exactly.  The three per-prefix components are
        tracked (and emitted) independently, and a live prefix carries no
        activity stamp: a refresh-mode workload re-announces the whole
        live table daily, yet its identical routes leave all three
        untouched — that is what keeps incremental checkpoints cheap at
        exactly the workload where full snapshots are dearest.
        Does not clear the dirty sets; pair with :meth:`mark_clean` once
        the payload is handed to the writer.
        """
        return self._encode(
            self.alarm_duplicates,
            self._dirty_days,
            self._dirty_origins,
            self._dirty_observed,
            self._dirty_activity,
            self._dirty_alarms,
        )

    def _encode(
        self,
        duplicates: int,
        days: Iterable[int],
        origins: Iterable[Prefix],
        observed: Iterable[Prefix],
        activity: Iterable[Prefix],
        alarms: Iterable[AlarmKey],
    ) -> Dict[str, Any]:
        """The one engine-state encoding, over the given keys: each one
        carries its current value (``None``: gone), as sorted lists."""
        live = self._origins
        evidence = self._detector.observed
        stamps = self._last_activity
        counts = self._alarm_counts
        return {
            "alarm_duplicates": duplicates,
            "days": [[day, self.daily_counts[day]] for day in sorted(days)],
            "origins": [
                [str(prefix), _origin_pairs(live.get(prefix))]
                for prefix in sorted(origins, key=_prefix_order)
            ],
            "observed": [
                [str(prefix), _evidence_lists(evidence.get(prefix))]
                for prefix in sorted(observed, key=_prefix_order)
            ],
            "activity": [
                [str(prefix), stamps.get(prefix)]
                for prefix in sorted(activity, key=_prefix_order)
            ],
            "alarms": [
                [
                    key[0],
                    key[1],
                    list(key[2]),
                    None if key[3] is None else list(key[3]),
                    key[4],
                    counts.get(key),
                ]
                for key in sorted(alarms, key=_alarm_order)
            ],
        }

    def mark_clean(self) -> None:
        """Forget dirty tracking — the caller has captured a boundary."""
        self._dirty_origins.clear()
        self._dirty_observed.clear()
        self._dirty_activity.clear()
        self._dirty_alarms.clear()
        self._dirty_days.clear()

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Rebuild engine state from a :meth:`snapshot_state` document."""
        self.alarm_duplicates = int(state["alarm_duplicates"])
        self.daily_counts = {int(day): int(count) for day, count in state["days"]}
        self._origins = {
            Prefix.parse(prefix): {
                int(origin): MoasList(members) for origin, members in live
            }
            for prefix, live in state["origins"]
        }
        self._moas_active = sum(1 for live in self._origins.values() if len(live) > 1)
        self._detector.observed = {
            Prefix.parse(prefix): {MoasList(members) for members in lists}
            for prefix, lists in state["observed"]
        }
        self._last_activity = {
            Prefix.parse(prefix): float(last) for prefix, last in state["activity"]
        }
        # A restored engine is clean: the chain on disk already covers
        # everything up to this state.
        self._dirty_origins = set()
        self._dirty_observed = set()
        self._dirty_activity = set()
        self._dirty_alarms = set()
        self._dirty_days = set()
        self._alarm_counts = {}
        for raw in state["alarms"]:
            prefix_str, kind, observed, conflicting, origin, count = raw
            key: AlarmKey = (
                str(prefix_str),
                str(kind),
                tuple(int(a) for a in observed),
                None if conflicting is None else tuple(int(a) for a in conflicting),
                None if origin is None else int(origin),
            )
            self._alarm_counts[key] = int(count)


def _prefix_order(prefix: Prefix) -> Tuple[Any, ...]:
    return prefix.sort_key


def _alarm_order(key: AlarmKey) -> Tuple[Any, ...]:
    return (key[0], key[1], key[2], key[3] or (), key[4] or -1)


def _origin_pairs(live: Optional[Dict[ASN, MoasList]]) -> Optional[List[Any]]:
    if live is None:
        return None
    return [[origin, sorted(live[origin].origins)] for origin in sorted(live)]


def _evidence_lists(lists: Optional[Set[MoasList]]) -> Optional[List[Any]]:
    return None if lists is None else sorted(sorted(m.origins) for m in lists)
