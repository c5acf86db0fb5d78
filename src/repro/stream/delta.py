"""Delta encoding for engine checkpoints — the state algebra.

A full :meth:`~repro.stream.engine.StreamEngine.snapshot_state` document
is O(live table): at collector scale serialising it at every checkpoint
boundary is what cost the service ~60% of its throughput.  An *incremental*
checkpoint instead records only the keys dirtied since the previous
boundary — per-prefix origin sets / evidence / activity stamps, alarm-dedup
counts, ticked days — plus the handful of scalar counters, all in the same
canonical JSON-safe shape as the full snapshot.

This module owns the pure state algebra, deliberately free of any file
I/O so it can be property-tested in isolation:

* :class:`CompositeFold` — unpack a full composite document (one engine
  state per shard plus feed coordinates) into dicts once, one
  :class:`EngineFold` per shard a delta touches; each ``apply`` folds one
  delta into them, and ``document`` sorts and materialises the canonical
  document once, equal to what ``snapshot_state`` would have produced at
  the last folded boundary.  The chain loader
  (:func:`repro.stream.checkpoint.load_chain`) folds every delta line of
  a chain through one fold, so replaying a chain costs O(state + delta
  bytes) and computes each prefix's sort key once, however long the chain;
* :func:`apply_engine_delta` / :func:`apply_state_delta` — one-delta calls
  of the same folds, for one engine state and for a composite document.

Delta semantics are **set-to-value**: each dirtied key carries its complete
current value, with ``None`` meaning "deleted".  Applying a delta is
therefore idempotent, and replay order is the only thing that matters —
which is exactly what the chain loader enforces with sequence numbers.
Every check a delta can fail (a missing scalar, a malformed entry, an
unparsable prefix, a shard-count mismatch) raises from :meth:`apply`, so
the loader can name the offending line.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.net.addresses import Prefix

#: Scalar counters carried (and overwritten) by every delta.
ENGINE_SCALARS = (
    "window",
    "offset",
    "moas_active",
    "alarms_emitted",
    "alarm_duplicates",
    "evictions",
)

#: Composite keys a delta may overwrite besides its shards.
COMPOSITE_KEYS = ("feed_offsets", "epoch", "feed_ticks")


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
    """One engine-state document, unpacked into dicts and folded in place."""

    __slots__ = ("_scalars", "_days", "_origins", "_observed", "_activity",
                 "_alarms", "_order")

    def __init__(self, state: Dict[str, Any]) -> None:
        self._scalars = {name: state[name] for name in ENGINE_SCALARS}
        self._days = {
            int(day): int(count) for day, count in state["daily_counts"]
        }
        self._origins = {name: live for name, live in state["origins"]}
        self._observed = {name: lists for name, lists in state["observed"]}
        self._activity = {name: last for name, last in state["last_activity"]}
        self._alarms: Dict[Tuple[Any, ...], List[Any]] = {
            _alarm_sort_key(entry): entry for entry in state["alarm_counts"]
        }
        # Each prefix's sort key, parsed once for the life of the fold.
        order: Dict[str, Tuple[Any, ...]] = {}
        for table in (self._origins, self._observed, self._activity):
            for name in table:
                if name not in order:
                    order[name] = _prefix_order(name)
        self._order = order

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
        """Fold one engine delta (see :meth:`StreamEngine.delta_state`)."""
        scalars = {name: delta[name] for name in ENGINE_SCALARS}
        for day, count in delta.get("days", []):
            self._days[int(day)] = int(count)
        # The three per-prefix components are dirtied (and shipped)
        # independently — see StreamEngine.delta_state.
        self._fold_prefixes(self._origins, delta.get("origins", []))
        self._fold_prefixes(self._observed, delta.get("observed", []))
        self._fold_prefixes(self._activity, delta.get("activity", []))
        for entry in delta.get("alarms", []):
            key = _alarm_sort_key(entry)
            if entry[5] is None:
                self._alarms.pop(key, None)
            else:
                self._alarms[key] = entry
        self._scalars = scalars
        return self

    def _sorted_pairs(self, table: Dict[str, Any]) -> List[List[Any]]:
        order = self._order
        return [
            [name, table[name]]
            for name in sorted(table, key=order.__getitem__)
        ]

    def document(self) -> Dict[str, Any]:
        """The canonical document, sorted exactly as ``snapshot_state``."""
        merged: Dict[str, Any] = dict(self._scalars)
        days = self._days
        merged["daily_counts"] = [[day, days[day]] for day in sorted(days)]
        merged["origins"] = self._sorted_pairs(self._origins)
        merged["observed"] = self._sorted_pairs(self._observed)
        merged["last_activity"] = self._sorted_pairs(self._activity)
        merged["alarm_counts"] = [
            self._alarms[key] for key in sorted(self._alarms)
        ]
        return merged


class CompositeFold:
    """A composite checkpoint document: one :class:`EngineFold` per shard.

    A shard no delta has touched yet keeps its document object as given,
    unfolded and unsorted.
    """

    __slots__ = ("_doc", "_states", "_folds")

    def __init__(self, state: Dict[str, Any]) -> None:
        self._doc = dict(state)
        self._states: List[Dict[str, Any]] = list(state["shards"])
        self._folds: List[Optional[EngineFold]] = [None] * len(self._states)

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
            if shard_delta is None:
                continue
            fold = self._folds[index]
            if fold is None:
                fold = self._folds[index] = EngineFold(self._states[index])
            fold.apply(shard_delta)
        for key in COMPOSITE_KEYS:
            if key in delta:
                self._doc[key] = delta[key]
        return self

    def document(self) -> Dict[str, Any]:
        merged = dict(self._doc)
        merged["shards"] = [
            state if fold is None else fold.document()
            for state, fold in zip(self._states, self._folds)
        ]
        return merged


def apply_engine_delta(
    state: Dict[str, Any], delta: Dict[str, Any]
) -> Dict[str, Any]:
    """Fold one engine delta into a full engine-state document.

    Both inputs are canonical JSON-safe structures; the result is again
    canonical (sorted exactly as ``snapshot_state`` sorts), so chains of
    deltas replay to bit-identical documents regardless of where the full
    snapshot fell.
    """
    return EngineFold(state).apply(delta).document()


def apply_state_delta(
    state: Dict[str, Any], delta: Dict[str, Any]
) -> Dict[str, Any]:
    """Fold a delta into a composite checkpoint document.

    Composite documents hold one engine state per shard under ``"shards"``
    plus the feed coordinates; their deltas carry one engine delta (or
    ``None``) per shard in shard order.
    """
    return CompositeFold(state).apply(delta).document()
