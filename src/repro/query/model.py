"""The query data model: per-prefix histories and canonical answers.

Everything the query subsystem serves — per-prefix timelines, origin sets,
MOAS duration statistics, top-K rankings, daily series — is a pure function
of one in-memory structure, :class:`StoreState`: a map from prefix to its
ordered event history plus two global day-counter series.  Both the
segment-backed reader (:mod:`repro.query.reader`) and the brute-force scan
(:mod:`repro.query.scan`) *fold into the same structure and call the same
answer functions below*, so "every query answer is bit-identical to a full
scan" is a property of the fold, not of two parallel answer
implementations that could drift.

Event rows are JSON-safe lists (they live inside segment files):

* **transition** — ``[time, [origins...]]``: the prefix's live origin set
  *after* an announce/withdraw changed it (empty = the prefix went dark);
* **alarm** — ``[time, kind, [observed...], [conflicting...] | None,
  origin | None]``: one parsed alarm-log line.

Within a prefix both lists are in event order; the canonical timeline
merge is a stable sort on ``(time, kind-rank)`` with alarms ranked before
transitions — the engine raises an announcement's alarms before
installing the route, so this reproduces the true causal order.

A MOAS interval opens when a transition takes the live origin set to two
or more origins and closes when a later transition drops it below two;
durations are in days (feed time units).  The Live-Long-and-Prosper split
counts completed intervals of at least :data:`LONG_LIVED_DAYS` days as
long-lived.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

#: Completed MOAS intervals at least this many days long count as
#: "long-lived" (the Live Long and Prosper split; see PAPERS.md).
LONG_LIVED_DAYS = 30.0

#: Ranking keys accepted by :func:`ranking` and :func:`top_answer`.
TOP_KEYS = ("alarms", "transitions", "moas_days")


def canonical_json(doc: Any) -> str:
    """The one serialisation every artefact and answer uses (sorted keys,
    compact separators) — identical values are identical bytes."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass
class PrefixHistory:
    """One prefix's ordered alarm and origin-set-transition rows."""

    alarms: List[List[Any]] = field(default_factory=list)
    transitions: List[List[Any]] = field(default_factory=list)


@dataclass
class StoreState:
    """The folded history store: per-prefix events plus day series."""

    prefixes: Dict[str, PrefixHistory] = field(default_factory=dict)
    alarm_days: Dict[int, int] = field(default_factory=dict)
    moas_days: Dict[int, int] = field(default_factory=dict)
    records: int = 0

    def history(self, prefix: str) -> PrefixHistory:
        entry = self.prefixes.get(prefix)
        if entry is None:
            entry = PrefixHistory()
            self.prefixes[prefix] = entry
        return entry

    def fold_events(
        self,
        events: Sequence[List[Any]],
        alarm_rows: Sequence[Tuple[str, List[Any]]],
    ) -> None:
        """Fold raw builder buffers (see :mod:`repro.query.track`)."""
        for event in events:
            if event[0] == "o":
                self.history(event[2]).transitions.append([event[1], event[3]])
            else:  # "d": one tick's MOAS-active contribution
                day = int(event[1])
                self.moas_days[day] = self.moas_days.get(day, 0) + int(event[2])
        for prefix, row in alarm_rows:
            self.history(prefix).alarms.append(row)
            day = int(row[0])
            self.alarm_days[day] = self.alarm_days.get(day, 0) + 1

    def fold_segment(self, doc: Dict[str, Any]) -> None:
        """Fold one immutable segment document (oldest first)."""
        for day, count in doc["alarm_days"]:
            day = int(day)
            self.alarm_days[day] = self.alarm_days.get(day, 0) + int(count)
        for day, count in doc["moas_days"]:
            day = int(day)
            self.moas_days[day] = self.moas_days.get(day, 0) + int(count)
        for prefix, history in doc["prefixes"]:
            entry = self.history(prefix)
            entry.alarms.extend(history["alarms"])
            entry.transitions.extend(history["origins"])
        self.records = int(doc["end"]["records"])


# -- derived per-prefix facts -------------------------------------------------


def live_origins(history: PrefixHistory) -> List[int]:
    """The origin set after the last transition (empty = dark)."""
    if not history.transitions:
        return []
    return [int(asn) for asn in history.transitions[-1][1]]


def ever_origins(history: PrefixHistory) -> List[int]:
    """Every origin that was ever live for the prefix, sorted."""
    seen: Set[int] = set()
    for _, origins in history.transitions:
        seen.update(int(asn) for asn in origins)
    return sorted(seen)


def moas_intervals(
    history: PrefixHistory,
) -> Tuple[List[List[float]], Optional[float]]:
    """Completed ``[start, end]`` MOAS intervals plus the open start."""
    completed: List[List[float]] = []
    open_since: Optional[float] = None
    for time, origins in history.transitions:
        multiple = len(origins) >= 2
        if open_since is None and multiple:
            open_since = float(time)
        elif open_since is not None and not multiple:
            completed.append([open_since, float(time)])
            open_since = None
    return completed, open_since


def duration_stats(
    durations: Sequence[float], long_threshold: float = LONG_LIVED_DAYS
) -> Dict[str, Any]:
    """Deterministic summary stats over completed MOAS durations (days).

    ``median`` averages the middle pair for even counts; ``p95`` is the
    nearest-rank percentile; the sum behind ``mean`` runs over the sorted
    values so it is independent of input order.
    """
    values = sorted(float(d) for d in durations)
    n = len(values)
    if n == 0:
        return {
            "count": 0,
            "min": None,
            "max": None,
            "mean": None,
            "median": None,
            "p95": None,
            "long_lived": 0,
            "short_lived": 0,
        }
    if n % 2:
        median = values[n // 2]
    else:
        median = (values[n // 2 - 1] + values[n // 2]) / 2.0
    p95 = values[max(0, math.ceil(0.95 * n) - 1)]
    long_lived = sum(1 for value in values if value >= long_threshold)
    return {
        "count": n,
        "min": values[0],
        "max": values[-1],
        "mean": sum(values) / n,
        "median": median,
        "p95": p95,
        "long_lived": long_lived,
        "short_lived": n - long_lived,
    }


def _alarm_kind_counts(history: PrefixHistory) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for row in history.alarms:
        kind = str(row[1])
        counts[kind] = counts.get(kind, 0) + 1
    return dict(sorted(counts.items()))


# -- answers ------------------------------------------------------------------


def prefix_report(state: StoreState, prefix: str) -> Dict[str, Any]:
    """The looking-glass answer for one prefix (timeline + derived sets)."""
    history = state.prefixes.get(prefix)
    if history is None:
        history = PrefixHistory()
    completed, open_since = moas_intervals(history)
    tagged: List[Tuple[float, int, Dict[str, Any]]] = []
    for row in history.alarms:
        tagged.append(
            (
                float(row[0]),
                0,
                {
                    "type": "alarm",
                    "time": row[0],
                    "kind": row[1],
                    "observed": row[2],
                    "conflicting": row[3],
                    "origin": row[4],
                },
            )
        )
    for time, origins in history.transitions:
        tagged.append(
            (float(time), 1, {"type": "origins", "time": time, "origins": origins})
        )
    tagged.sort(key=lambda item: (item[0], item[1]))  # stable: ties keep order
    return {
        "prefix": prefix,
        "found": prefix in state.prefixes,
        "live_origins": live_origins(history),
        "ever_origins": ever_origins(history),
        "alarms": {
            "total": len(history.alarms),
            "by_kind": _alarm_kind_counts(history),
        },
        "timeline": [entry for _, _, entry in tagged],
        "moas": {
            "completed": completed,
            "open_since": open_since,
            "durations": duration_stats(
                [end - start for start, end in completed]
            ),
        },
    }


def stats_answer(state: StoreState) -> Dict[str, Any]:
    """Global aggregates over the whole store."""
    alarm_total = 0
    by_kind: Dict[str, int] = {}
    live_pairs = 0
    ever_pairs = 0
    moas_open = 0
    moas_ever = 0
    completed_total = 0
    durations: List[float] = []
    for prefix in sorted(state.prefixes):
        history = state.prefixes[prefix]
        alarm_total += len(history.alarms)
        for kind, count in _alarm_kind_counts(history).items():
            by_kind[kind] = by_kind.get(kind, 0) + count
        live_pairs += len(live_origins(history))
        ever_pairs += len(ever_origins(history))
        completed, open_since = moas_intervals(history)
        if open_since is not None:
            moas_open += 1
        if completed or open_since is not None:
            moas_ever += 1
        completed_total += len(completed)
        durations.extend(end - start for start, end in completed)
    days = sorted(set(state.alarm_days) | set(state.moas_days))
    return {
        "records": state.records,
        "prefixes": len(state.prefixes),
        "alarms": {"total": alarm_total, "by_kind": dict(sorted(by_kind.items()))},
        "origins": {"live_pairs": live_pairs, "ever_pairs": ever_pairs},
        "moas": {
            "active": moas_open,
            "ever": moas_ever,
            "completed": completed_total,
            "durations": duration_stats(durations),
        },
        "days": {
            "first": days[0] if days else None,
            "last": days[-1] if days else None,
            "ticked": len(state.moas_days),
        },
    }


def ranking(state: StoreState, by: str = "alarms") -> List[Dict[str, Any]]:
    """Every prefix with a nonzero ``by`` count, noisiest first (ties
    broken by prefix string, ascending — fully deterministic)."""
    if by not in TOP_KEYS:
        raise ValueError(f"unknown ranking key {by!r}; expected one of {TOP_KEYS}")
    rows: List[Dict[str, Any]] = []
    for prefix in sorted(state.prefixes):
        history = state.prefixes[prefix]
        completed, _ = moas_intervals(history)
        row: Dict[str, Any] = {
            "prefix": prefix,
            "alarms": len(history.alarms),
            "transitions": len(history.transitions),
            "moas_days": sum(end - start for start, end in sorted(completed)),
        }
        if row[by]:
            rows.append(row)
    rows.sort(key=lambda row: (-float(row[by]), row["prefix"]))
    return rows


def top_answer(state: StoreState, k: int, by: str = "alarms") -> List[Dict[str, Any]]:
    """The K noisiest prefixes: the head of :func:`ranking`."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return ranking(state, by)[:k]


def daily_answer(state: StoreState, kind: str = "alarms") -> List[List[int]]:
    """``[[day, count], ...]`` sorted by day, for alarms or MOAS."""
    if kind == "alarms":
        series = state.alarm_days
    elif kind == "moas":
        series = state.moas_days
    else:
        raise ValueError(f"unknown daily series {kind!r}; expected alarms|moas")
    return [[day, series[day]] for day in sorted(series)]


def answers_doc(state: StoreState, k: int = 10) -> Dict[str, Any]:
    """Every answer at once — the document CI diffs against a full scan."""
    return {
        "stats": stats_answer(state),
        "daily": {
            "alarms": daily_answer(state, "alarms"),
            "moas": daily_answer(state, "moas"),
        },
        "top": {key: top_answer(state, k, key) for key in TOP_KEYS},
        "prefixes": {
            prefix: prefix_report(state, prefix)
            for prefix in sorted(state.prefixes)
        },
    }
