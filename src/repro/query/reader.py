"""Segment-merging reader: the warm, serve-side view of the index.

:class:`QueryIndex` loads the manifest, digest-checks every referenced
segment, and folds them (oldest first) into one
:class:`~repro.query.model.StoreState` — after which every answer is a
pure in-memory function, which is where the >=10k point-queries/sec
budget comes from.  Because segments are write-once and the manifest only
ever *appends* to the segment list while ingest runs,
:meth:`reload_if_changed` can refresh concurrently with a live stream:
same generation → no-op; a manifest whose segment list extends the loaded
one → fold just the new segments; anything else (a fresh run rebuilt the
index) → full reload.  Readers never take locks against the writer — the
atomic manifest replace is the only synchronisation point.

The whole-store answers (:meth:`QueryIndex.stats` and the full ranking
behind :meth:`QueryIndex.top`, one per key in
:data:`~repro.query.model.TOP_KEYS`) depend only on the loaded
generation, so each is computed once per generation and memoised (the
statistics as their canonical JSON).  Every fold drops the memo — the
appended segments of an extending manifest as well as a full rebuild —
and each call returns a fresh copy, so a caller that mutates an answer
cannot change the next one.  The per-prefix and daily answers are cheap
and are computed per call.  A ``QueryIndex`` is not locked: callers that
share one across threads serialise their calls, as the HTTP server does
under its lock.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.metrics import Counter, MetricsRegistry
from repro.query.model import (
    StoreState,
    answers_doc,
    canonical_json,
    daily_answer,
    prefix_report,
    ranking,
    stats_answer,
)
from repro.query.segments import load_manifest, load_segment, manifest_etag
from repro.query.track import QueryError


class QueryIndex:
    """A read-only view over one index directory's manifest + segments."""

    def __init__(
        self,
        index_dir: Union[str, Path],
        *,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.index_dir = Path(index_dir)
        self._m_segments: Optional[Counter] = None
        self._m_reloads: Optional[Counter] = None
        if metrics is not None:
            self._m_segments = metrics.counter("query.segments_loaded")
            self._m_reloads = metrics.counter("query.reloads")
        manifest = load_manifest(self.index_dir)
        if manifest is None:
            raise QueryError(
                f"no index manifest in {self.index_dir}; build one with "
                f"'repro query build' or stream with --index"
            )
        self._manifest = manifest
        self._state = StoreState()
        self._stats: Optional[str] = None
        self._rankings: Dict[str, List[Dict[str, Any]]] = {}
        self._fold_entries(manifest["segments"])

    def _fold_entries(self, entries: List[Dict[str, Any]]) -> None:
        self._stats = None
        self._rankings = {}
        for entry in entries:
            doc = load_segment(
                self.index_dir / str(entry["name"]),
                expect_digest=str(entry["digest"]),
            )
            self._state.fold_segment(doc)
            if self._m_segments is not None:
                self._m_segments.inc()
        self._state.records = int(self._manifest["end"]["records"])

    @property
    def generation(self) -> int:
        return int(self._manifest["generation"])

    @property
    def etag(self) -> str:
        return manifest_etag(self._manifest)

    @property
    def records(self) -> int:
        return self._state.records

    @property
    def state(self) -> StoreState:
        """The folded store.  Read-only: the memoised answers assume
        only a fold changes it."""
        return self._state

    def reload_if_changed(self) -> bool:
        """Refresh from disk; returns True when anything was reloaded.

        Incremental when the new manifest's segment list is a pure
        extension of the loaded one (the live-ingest steady state); a full
        rebuild otherwise.
        """
        manifest = load_manifest(self.index_dir)
        if manifest is None:
            raise QueryError(
                f"index manifest vanished from {self.index_dir} while serving"
            )
        if int(manifest["generation"]) == self.generation:
            return False
        old = self._manifest["segments"]
        new = manifest["segments"]
        extends = len(new) >= len(old) and all(
            new[i]["name"] == old[i]["name"]
            and new[i]["digest"] == old[i]["digest"]
            for i in range(len(old))
        )
        self._manifest = manifest
        if extends:
            self._fold_entries(list(new[len(old):]))
        else:
            self._state = StoreState()
            self._fold_entries(list(new))
        if self._m_reloads is not None:
            self._m_reloads.inc()
        return True

    # -- answers (the shared model's, whole-store ones memoised) --------------

    def stats(self) -> Dict[str, Any]:
        if self._stats is None:
            self._stats = canonical_json(stats_answer(self._state))
        return json.loads(self._stats)

    def prefix(self, prefix: str) -> Dict[str, Any]:
        return prefix_report(self._state, prefix)

    def top(self, k: int, by: str = "alarms") -> List[Dict[str, Any]]:
        """:func:`~repro.query.model.top_answer`, sliced from the memoised
        ranking."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        rows = self._rankings.get(by)
        if rows is None:
            rows = self._rankings[by] = ranking(self._state, by)
        return [dict(row) for row in rows[:k]]

    def daily(self, kind: str = "alarms") -> List[List[int]]:
        return daily_answer(self._state, kind)

    def answers(self, k: int = 10) -> Dict[str, Any]:
        return answers_doc(self._state, k)
