"""Brute-force scan: the oracle every index answer is checked against.

:func:`scan_state` rebuilds a :class:`~repro.query.model.StoreState`
straight from the raw artefacts — the full feed file(s) and the full
alarm log — using the *same* replay fold the index builder uses
(:mod:`repro.query.track`) and the *same* answer functions
(:mod:`repro.query.model`).  Index and scan can therefore only disagree
if the index missed or duplicated events, which is exactly what the
bit-identity tests and the CI smoke diff exist to catch.  O(full history)
per call by design: correctness oracle, not a serving path.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence, Union

from repro.query.model import StoreState
from repro.query.track import (
    IndexEvent,
    OriginTracker,
    alarm_rows_from_range,
    replay_range,
)


def scan_state(
    feeds: Sequence[Union[str, Path]],
    alarms: Union[str, Path],
) -> StoreState:
    """Fold the complete feed(s) + alarm log into a fresh store state.

    One feed path replays the single-engine order; several replay the
    router's day-barrier interleave.  The alarm log may be absent (a run
    that never alarmed) — that is an empty alarm history, not an error.
    """
    tracker = OriginTracker()
    events: List[IndexEvent] = []
    records = replay_range(feeds, [0] * len(feeds), None, tracker, events)
    alarms_path = Path(alarms)
    rows = (
        alarm_rows_from_range(alarms_path, 0, None)
        if alarms_path.exists()
        else []
    )
    state = StoreState()
    state.fold_events(events, rows)
    state.records = records
    return state
