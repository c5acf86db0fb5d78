"""Tests for the incremental online MOAS detector."""

from __future__ import annotations

import json

import pytest

from repro.core.checker import AlarmKind
from repro.net.addresses import Prefix
from repro.obs.metrics import MetricsRegistry
from repro.stream.engine import StreamAlarm, StreamEngine
from repro.stream.feed import FeedRecord

P1 = Prefix.parse("10.0.0.0/24")
P2 = Prefix.parse("10.0.1.0/24")


def announce(time, prefix, origin, moas=None):
    return FeedRecord(op="A", time=time, prefix=prefix, origin=origin, moas=moas)


def withdraw(time, prefix, origin):
    return FeedRecord(op="W", time=time, prefix=prefix, origin=origin)


def tick(time):
    return FeedRecord(op="T", time=time)


def run(engine, records):
    alarms = []
    for record in records:
        alarms.extend(engine.apply(record))
    return alarms


class TestConsistencyRules:
    def test_consistent_moas_raises_no_alarm(self):
        engine = StreamEngine()
        alarms = run(
            engine,
            [
                announce(0.0, P1, 7, moas=(7, 9)),
                announce(0.0, P1, 9, moas=(7, 9)),
                tick(0.0),
            ],
        )
        assert alarms == []
        assert engine.moas_active == 1

    def test_inconsistent_lists_alarm(self):
        engine = StreamEngine()
        alarms = run(
            engine,
            [
                announce(0.0, P1, 7, moas=(7,)),
                announce(0.0, P1, 9, moas=(9,)),
            ],
        )
        assert [a.kind for a in alarms] == [AlarmKind.INCONSISTENT_LISTS.value]
        assert alarms[0].observed == (9,)
        assert alarms[0].conflicting == (7,)

    def test_implicit_singleton_vs_explicit_list(self):
        # An unwitnessed unilateral announce conflicts with the incumbent's
        # coordinated list (paper footnote 3: no communities => {origin}).
        engine = StreamEngine()
        alarms = run(
            engine,
            [
                announce(0.0, P1, 7, moas=(7, 9)),
                announce(0.0, P1, 9, moas=(7, 9)),
                announce(1.0, P1, 11),
            ],
        )
        assert [a.kind for a in alarms] == [AlarmKind.INCONSISTENT_LISTS.value]
        assert alarms[0].observed == (11,)

    def test_origin_not_in_own_list(self):
        engine = StreamEngine()
        alarms = run(engine, [announce(0.0, P1, 7, moas=(8, 9))])
        assert [a.kind for a in alarms] == [
            AlarmKind.ORIGIN_NOT_IN_OWN_LIST.value
        ]
        # The route is still installed (ALARM_ONLY semantics)...
        assert engine.live_origins(P1) == (7,)
        # ...but the bogus list is not usable as step-3 evidence.
        follow_on = run(engine, [announce(0.0, P1, 9, moas=(8, 9))])
        assert follow_on == []

    def test_repeat_of_known_list_is_not_a_new_alarm(self):
        engine = StreamEngine()
        first = run(
            engine,
            [announce(0.0, P1, 7, moas=(7,)), announce(0.0, P1, 9, moas=(9,))],
        )
        assert len(first) == 1
        # Origin 9 refreshes the same inconsistent list: already-seen
        # evidence, so no new alarm is recorded at all.
        again = run(engine, [announce(1.0, P1, 9, moas=(9,))])
        assert again == []
        assert len(first) + len(again) == 1

    def test_repeated_malformed_announce_dedups(self):
        engine = StreamEngine()
        first = run(engine, [announce(0.0, P1, 7, moas=(8, 9))])
        assert len(first) == 1
        again = run(engine, [announce(1.0, P1, 7, moas=(8, 9))])
        assert again == []
        assert engine.alarm_duplicates == 1
        totals = engine.alarm_totals()
        assert totals == {AlarmKind.ORIGIN_NOT_IN_OWN_LIST.value: 2}

    def test_alarm_totals_aggregates_by_kind(self):
        engine = StreamEngine()
        run(
            engine,
            [
                announce(0.0, P1, 7, moas=(7,)),
                announce(0.0, P1, 9, moas=(9,)),
                announce(1.0, P2, 3, moas=(4,)),
            ],
        )
        assert engine.alarm_totals() == {
            AlarmKind.INCONSISTENT_LISTS.value: 1,
            AlarmKind.ORIGIN_NOT_IN_OWN_LIST.value: 1,
        }


class TestWithdrawals:
    def test_withdraw_removes_origin(self):
        engine = StreamEngine()
        run(engine, [announce(0.0, P1, 7, moas=(7, 9)), announce(0.0, P1, 9, moas=(7, 9))])
        assert engine.moas_active == 1
        run(engine, [withdraw(1.0, P1, 9)])
        assert engine.live_origins(P1) == (7,)
        assert engine.moas_active == 0

    def test_withdraw_unknown_route_is_noop(self):
        engine = StreamEngine()
        assert run(engine, [withdraw(0.0, P1, 7)]) == []
        assert engine.state_prefixes == 0

    def test_withdraw_last_origin_empties_prefix(self):
        engine = StreamEngine()
        run(engine, [announce(0.0, P1, 7)])
        run(engine, [withdraw(1.0, P1, 7)])
        assert engine.live_origins(P1) == ()


class TestTicksAndSeries:
    def test_daily_counts_track_moas(self):
        engine = StreamEngine()
        run(
            engine,
            [
                announce(0.0, P1, 7, moas=(7, 9)),
                announce(0.0, P1, 9, moas=(7, 9)),
                tick(0.0),
                withdraw(1.0, P1, 9),
                tick(1.0),
            ],
        )
        assert engine.daily_counts == {0: 1, 1: 0}
        assert engine.daily_series() == [1, 0]

    def test_duplicate_day_tick_rejected(self):
        engine = StreamEngine()
        run(engine, [tick(0.0)])
        with pytest.raises(ValueError, match="already ticked"):
            run(engine, [tick(0.0)])

    def test_eviction_after_window(self):
        engine = StreamEngine(window=2.0)
        run(
            engine,
            [
                announce(0.0, P1, 7, moas=(7,)),
                announce(0.0, P1, 9, moas=(9,)),  # alarm evidence
                withdraw(0.0, P1, 7),
                withdraw(0.0, P1, 9),
                tick(0.0),
                tick(1.0),
            ],
        )
        # Still within the window: observed evidence retained.
        assert engine.evictions == 0
        run(engine, [tick(2.0)])
        assert engine.evictions == 1
        # After eviction the same inconsistent pair alarms afresh.
        alarms = run(
            engine,
            [announce(3.0, P1, 7, moas=(7,)), announce(3.0, P1, 9, moas=(9,))],
        )
        assert len(alarms) == 1
        assert engine.alarm_duplicates == 0

    def test_live_prefix_is_never_evicted(self):
        engine = StreamEngine(window=1.0)
        run(engine, [announce(0.0, P1, 7)])
        run(engine, [tick(t) for t in (0.0, 1.0, 2.0, 3.0)])
        assert engine.evictions == 0
        assert engine.live_origins(P1) == (7,)


class TestAlarmSerialisation:
    def test_alarm_json_line_is_canonical(self):
        alarm = StreamAlarm(
            time=1.0,
            prefix=str(P1),
            kind=AlarmKind.INCONSISTENT_LISTS.value,
            observed=(9,),
            conflicting=(7,),
        )
        payload = json.loads(alarm.to_json_line())
        assert payload["prefix"] == "10.0.0.0/24"
        assert payload["observed"] == [9]
        assert alarm.to_json_line() == alarm.to_json_line()


class TestStateRoundTrip:
    def _busy_engine(self):
        engine = StreamEngine(window=5.0)
        run(
            engine,
            [
                announce(0.0, P1, 7, moas=(7, 9)),
                announce(0.0, P1, 9, moas=(7, 9)),
                announce(0.0, P2, 3, moas=(3,)),
                announce(0.0, P2, 4, moas=(4,)),
                tick(0.0),
                withdraw(1.0, P2, 4),
                tick(1.0),
            ],
        )
        return engine

    def test_snapshot_restore_identity(self):
        engine = self._busy_engine()
        state = engine.snapshot_state()
        clone = StreamEngine(window=5.0)
        clone.restore_state(state)
        assert clone.snapshot_state() == state
        assert clone.daily_counts == engine.daily_counts
        assert clone.moas_active == engine.moas_active
        assert clone.alarm_totals() == engine.alarm_totals()

    def test_snapshot_is_json_safe(self):
        engine = self._busy_engine()
        state = engine.snapshot_state()
        assert json.loads(json.dumps(state, sort_keys=True)) == state

    def test_restored_engine_continues_identically(self):
        engine = self._busy_engine()
        clone = StreamEngine(window=5.0)
        clone.restore_state(engine.snapshot_state())
        tail = [
            announce(2.0, P2, 3, moas=(3,)),  # repeat: dedup on both
            announce(2.0, P1, 11),  # fresh conflict on both
            tick(2.0),
        ]
        a = run(engine, list(tail))
        b = run(clone, list(tail))
        assert [x.to_json_line() for x in a] == [x.to_json_line() for x in b]
        assert engine.snapshot_state() == clone.snapshot_state()


class TestMetrics:
    def test_instruments_registered_and_updated(self):
        registry = MetricsRegistry()
        engine = StreamEngine(metrics=registry)
        run(
            engine,
            [
                announce(0.0, P1, 7, moas=(7,)),
                announce(0.0, P1, 9, moas=(9,)),
                withdraw(0.0, P1, 9),
                tick(0.0),
            ],
        )
        snapshot = registry.snapshot()
        assert snapshot["stream.updates"] == 4
        assert snapshot["stream.announces"] == 2
        assert snapshot["stream.withdrawals"] == 1
        assert snapshot["stream.ticks"] == 1
        assert snapshot["stream.alarms"] == 1
        assert snapshot["stream.state_prefixes"]["value"] == 1
        assert snapshot["stream.moas_active"]["value"] == 0
