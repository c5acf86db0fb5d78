"""Delta encoding for engine checkpoints — the state algebra.

A full :meth:`~repro.stream.engine.StreamEngine.snapshot_state` document
is O(live table): at collector scale serialising it at every checkpoint
boundary is what cost the service ~60% of its throughput.  An *incremental*
checkpoint instead records only the keys dirtied since the previous
boundary — per-prefix origin sets / evidence / activity stamps, alarm-dedup
counts, ticked days — plus the alarm-duplicate count.  There is one
encoding: a full snapshot is the delta from an empty engine, with every key
present and no ``None``.

This module owns the pure state algebra, deliberately free of any file
I/O so it can be property-tested in isolation:

* :class:`EngineFold` — one engine's state, unpacked into dicts.  It
  starts empty; ``apply`` folds a full snapshot or a delta into it, and
  ``document`` sorts and materialises the canonical document once, equal
  to what ``snapshot_state`` would have produced at the last folded
  boundary;
* :class:`CompositeFold` — a full composite document (one engine state per
  shard plus the feed coordinates) folded into one :class:`EngineFold` per
  shard, then each composite delta on top.  The chain loader
  (:func:`repro.stream.checkpoint.load_chain`) folds the full snapshot and
  every delta line of a chain through one fold, so replaying a chain costs
  O(state + delta bytes) and computes each prefix's sort key once, however
  long the chain;
* :func:`apply_engine_delta` / :func:`apply_state_delta` — one-delta calls
  of the same folds, for one engine state and for a composite document.

Delta semantics are **set-to-value**: each dirtied key carries its complete
current value, with ``None`` meaning "deleted".  Applying a delta is
therefore idempotent, and replay order is the only thing that matters —
which is exactly what the chain loader enforces with sequence numbers.
Every check a document can fail (a missing key, a malformed entry, an
unparsable prefix, a shard-count mismatch) raises from :meth:`apply`, so
the loader can name the offending file or line.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.net.addresses import Prefix

#: Composite keys a delta overwrites besides its shards.
COMPOSITE_KEYS = ("feed_offsets",)


def _prefix_order(name: str) -> Tuple[Any, ...]:
    return Prefix.parse(name).sort_key


def _alarm_sort_key(entry: List[Any]) -> Tuple[Any, ...]:
    prefix, kind, observed, conflicting, origin = entry[:5]
    return (
        prefix,
        kind,
        tuple(observed),
        tuple(conflicting) if conflicting is not None else (),
        origin if origin is not None else -1,
    )


class EngineFold:
    """One engine's state, unpacked into dicts and folded in place."""

    __slots__ = ("_duplicates", "_days", "_origins", "_observed", "_activity",
                 "_alarms", "_order")

    def __init__(self) -> None:
        self._duplicates = 0
        self._days: Dict[int, int] = {}
        self._origins: Dict[str, Any] = {}
        self._observed: Dict[str, Any] = {}
        self._activity: Dict[str, Any] = {}
        self._alarms: Dict[Tuple[Any, ...], List[Any]] = {}
        # Each prefix's sort key, parsed once for the life of the fold.
        self._order: Dict[str, Tuple[Any, ...]] = {}

    def _fold_prefixes(
        self, table: Dict[str, Any], entries: List[Any]
    ) -> None:
        order = self._order
        for name, value in entries:
            if value is None:
                table.pop(name, None)
                continue
            if name not in order:
                order[name] = _prefix_order(name)
            table[name] = value

    def apply(self, delta: Dict[str, Any]) -> "EngineFold":
        """Fold one engine document: a full snapshot or a delta (see
        :meth:`StreamEngine.delta_state`); every key is required."""
        duplicates = int(delta["alarm_duplicates"])
        for day, count in delta["days"]:
            self._days[int(day)] = int(count)
        # The three per-prefix components are dirtied (and shipped)
        # independently — see StreamEngine.delta_state.
        self._fold_prefixes(self._origins, delta["origins"])
        self._fold_prefixes(self._observed, delta["observed"])
        self._fold_prefixes(self._activity, delta["activity"])
        for entry in delta["alarms"]:
            key = _alarm_sort_key(entry)
            if entry[5] is None:
                self._alarms.pop(key, None)
            else:
                self._alarms[key] = entry
        self._duplicates = duplicates
        return self

    def _sorted_pairs(self, table: Dict[str, Any]) -> List[List[Any]]:
        order = self._order
        return [
            [name, table[name]]
            for name in sorted(table, key=order.__getitem__)
        ]

    def document(self) -> Dict[str, Any]:
        """The canonical document, sorted exactly as ``snapshot_state``."""
        days = self._days
        return {
            "alarm_duplicates": self._duplicates,
            "days": [[day, days[day]] for day in sorted(days)],
            "origins": self._sorted_pairs(self._origins),
            "observed": self._sorted_pairs(self._observed),
            "activity": self._sorted_pairs(self._activity),
            "alarms": [self._alarms[key] for key in sorted(self._alarms)],
        }


class CompositeFold:
    """A composite checkpoint document: one :class:`EngineFold` per shard.

    Every shard's full snapshot is folded at construction, which is what
    checks it.  A shard no delta has touched since keeps its document
    object as given: it is already canonical, and is not sorted again.
    """

    __slots__ = ("_doc", "_states", "_folds", "_touched")

    def __init__(self, state: Dict[str, Any]) -> None:
        self._doc = dict(state)
        self._states: List[Dict[str, Any]] = list(state["shards"])
        self._folds = [EngineFold().apply(shard) for shard in self._states]
        self._touched = [False] * len(self._states)

    def apply(self, delta: Dict[str, Any]) -> "CompositeFold":
        """Fold one composite delta: one engine delta (or ``None``) per
        shard, in shard order, plus the feed fan-in coordinates."""
        shard_deltas: List[Optional[Dict[str, Any]]] = list(delta["shards"])
        if len(self._states) != len(shard_deltas):
            raise ValueError(
                f"delta has {len(shard_deltas)} shards, state has "
                f"{len(self._states)}"
            )
        for index, shard_delta in enumerate(shard_deltas):
            if shard_delta is not None:
                self._folds[index].apply(shard_delta)
                self._touched[index] = True
        for key in COMPOSITE_KEYS:
            if key in delta:
                self._doc[key] = delta[key]
        return self

    def document(self) -> Dict[str, Any]:
        merged = dict(self._doc)
        merged["shards"] = [
            fold.document() if touched else state
            for state, fold, touched in zip(
                self._states, self._folds, self._touched
            )
        ]
        return merged


def apply_engine_delta(
    state: Dict[str, Any], delta: Dict[str, Any]
) -> Dict[str, Any]:
    """Fold one engine delta into a full engine-state document.

    Both inputs are canonical JSON-safe structures in the one encoding;
    the result is again canonical (sorted exactly as ``snapshot_state``
    sorts), so chains of deltas replay to bit-identical documents
    regardless of where the full snapshot fell.
    """
    return EngineFold().apply(state).apply(delta).document()


def apply_state_delta(
    state: Dict[str, Any], delta: Dict[str, Any]
) -> Dict[str, Any]:
    """Fold a delta into a composite checkpoint document.

    Composite documents hold one engine state per shard under ``"shards"``
    plus the feed coordinates; their deltas carry one engine delta (or
    ``None``) per shard in shard order.
    """
    return CompositeFold(state).apply(delta).document()
