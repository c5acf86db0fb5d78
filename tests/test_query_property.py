"""Property tests: segment merging and answer memoisation are invisible.

Random operation sequences, folded once as a flat event stream and once
through ``assemble_segment``/``fold_segment`` with random segmentation
points, must produce bit-identical ``answers_doc`` output.  This is the
merge-correctness half of the index: any interleaving of boundary cuts
yields the same served history as a single unsegmented pass.  The same
sequences, written as an index and served by :class:`QueryIndex`, must
give the unmemoised top-K and statistics at every ``k``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addresses import Prefix
from repro.query import QueryIndex
from repro.query.builder import INDEX_MODE
from repro.query.model import (
    TOP_KEYS,
    StoreState,
    answers_doc,
    canonical_json,
    moas_intervals,
    stats_answer,
)
from repro.query.segments import (
    assemble_segment,
    manifest_doc,
    manifest_entry,
    write_manifest,
    write_segment,
)
from repro.query.track import OriginTracker
from repro.stream.feed import FeedRecord

PREFIXES = ["10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24"]
ORIGINS = [3, 7, 9, 8584]
KINDS = ["inconsistent-lists", "origin-not-in-own-list"]

ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("A"),
            st.sampled_from(PREFIXES),
            st.sampled_from(ORIGINS),
        ),
        st.tuples(
            st.just("W"),
            st.sampled_from(PREFIXES),
            st.sampled_from(ORIGINS),
        ),
        st.tuples(st.just("T")),
    ),
    min_size=1,
    max_size=60,
)

alarm_draws = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=59),
        st.sampled_from(PREFIXES),
        st.sampled_from(KINDS),
    ),
    max_size=10,
)


def record_for(op, position):
    """Time is the op's position, so every record time is distinct and
    ticks land on distinct days."""
    if op[0] == "T":
        return FeedRecord(op="T", time=float(position))
    return FeedRecord(
        op=op[0], time=float(position),
        prefix=Prefix.parse(op[1]), origin=op[2],
    )


def coords(position):
    # Synthetic but monotonic coordinates; answers never look inside them
    # beyond the final record count.
    return {
        "records": position,
        "alarm_bytes": position * 10,
        "feed_bytes": position * 100,
    }


def alarm_rows(positions, n):
    """Alarm rows for the drawn positions inside an ``n``-op sequence, in
    time order; each falls between two records."""
    return sorted(
        (
            (prefix, [pos + 0.25, kind, [3, 7], None, None])
            for pos, prefix, kind in positions
            if pos < n
        ),
        key=lambda item: item[1][0],
    )


@settings(max_examples=60, deadline=None)
@given(
    sequence=ops,
    cut_seed=st.integers(min_value=0, max_value=2**30),
    alarm_positions=alarm_draws,
)
def test_segmented_fold_equals_flat_fold(sequence, cut_seed, alarm_positions):
    n = len(sequence)
    rows = alarm_rows(alarm_positions, n)

    # Derive segmentation points from the seed: every position is a cut
    # with probability 1/3, giving segments of wildly varying width
    # (including empty ones, which assemble to None).
    cuts = [pos for pos in range(1, n) if (cut_seed >> (pos % 30)) & 1 and pos % 3 != 0]
    bounds = [0] + cuts + [n]

    tracker = OriginTracker()
    flat_events = []
    segmented = StoreState()
    seq = 0
    for lo, hi in zip(bounds, bounds[1:]):
        chunk_events = []
        for position in range(lo, hi):
            event = tracker.apply(record_for(sequence[position], position))
            if event is not None:
                chunk_events.append(event)
                flat_events.append(event)
        chunk_rows = [row for row in rows if lo <= row[1][0] < hi]
        seq += 1
        doc = assemble_segment(seq, coords(lo), coords(hi), chunk_events, chunk_rows)
        if doc is not None:
            segmented.fold_segment(doc)

    flat = StoreState()
    flat.fold_events(flat_events, rows)
    flat.records = n
    segmented.records = n

    assert canonical_json(answers_doc(segmented)) == canonical_json(
        answers_doc(flat)
    )


def unmemoised_top(state, k, by):
    """The top-K computation as it stood before rankings were memoised:
    a full pass over the store per call."""
    rows = []
    for prefix in sorted(state.prefixes):
        history = state.prefixes[prefix]
        completed, _ = moas_intervals(history)
        row = {
            "prefix": prefix,
            "alarms": len(history.alarms),
            "transitions": len(history.transitions),
            "moas_days": sum(end - start for start, end in sorted(completed)),
        }
        if row[by]:
            rows.append(row)
    rows.sort(key=lambda row: (-float(row[by]), row["prefix"]))
    return rows[:k]


@settings(max_examples=40, deadline=None)
@given(
    sequence=ops,
    cut=st.integers(min_value=0, max_value=60),
    alarm_positions=alarm_draws,
)
def test_memoised_top_equals_unmemoised(sequence, cut, alarm_positions):
    n = len(sequence)
    cut = min(cut, n)
    tracker = OriginTracker()
    events = []
    for position, op in enumerate(sequence):
        event = tracker.apply(record_for(op, position))
        if event is not None:
            events.append(event)
    rows = alarm_rows(alarm_positions, n)
    flat = StoreState()
    flat.fold_events(events, rows)
    flat.records = n

    with tempfile.TemporaryDirectory() as tmp:
        index_dir = Path(tmp)
        entries = []
        # Two segments split at ``cut``, so the index folds more than one.
        for seq, lo, hi in ((1, 0, cut), (2, cut, n)):
            doc = assemble_segment(
                seq,
                coords(lo),
                coords(hi),
                [event for event in events if lo <= event[1] < hi],
                [row for row in rows if lo <= row[1][0] < hi],
            )
            if doc is not None:
                write_segment(index_dir, doc)
                entries.append(manifest_entry(doc))
        write_manifest(index_dir, manifest_doc(1, INDEX_MODE, coords(n), entries))
        index = QueryIndex(index_dir)
        for by in TOP_KEYS:
            for k in range(1, len(index.state.prefixes) + 2):
                assert index.top(k, by) == unmemoised_top(flat, k, by)
        assert index.stats() == index.stats() == stats_answer(flat)
