"""Unit tests for origin-set tracking and byte-range replay."""

from __future__ import annotations

import pytest

from repro.net.addresses import Prefix
from repro.stream import feed as feed_module
from repro.stream.feed import FeedRecord, FeedWriter
from repro.query.track import (
    OriginTracker,
    QueryError,
    alarm_row_from_line,
    alarm_rows_from_range,
    replay_range,
)

P1 = Prefix.parse("10.0.0.0/24")
P2 = Prefix.parse("10.0.1.0/24")


def announce(prefix, origin, t=0.0):
    return FeedRecord(op="A", time=t, prefix=prefix, origin=origin)


def withdraw(prefix, origin, t=0.0):
    return FeedRecord(op="W", time=t, prefix=prefix, origin=origin)


def tick(t):
    return FeedRecord(op="T", time=t)


class TestOriginTracker:
    def test_announce_emits_transition_with_sorted_origins(self):
        tracker = OriginTracker()
        assert tracker.apply(announce(P1, 7)) == ["o", 0.0, "10.0.0.0/24", [7]]
        assert tracker.apply(announce(P1, 3, t=1.0)) == [
            "o", 1.0, "10.0.0.0/24", [3, 7],
        ]
        assert tracker.moas_active == 1

    def test_reannouncement_emits_nothing(self):
        tracker = OriginTracker()
        tracker.apply(announce(P1, 7))
        assert tracker.apply(announce(P1, 7, t=5.0)) is None
        assert tracker.moas_active == 0

    def test_unknown_withdraw_emits_nothing(self):
        tracker = OriginTracker()
        assert tracker.apply(withdraw(P1, 7)) is None
        tracker.apply(announce(P1, 7))
        assert tracker.apply(withdraw(P1, 9)) is None

    def test_withdraw_to_empty_deletes_and_emits_empty_set(self):
        tracker = OriginTracker()
        tracker.apply(announce(P1, 7))
        event = tracker.apply(withdraw(P1, 7, t=2.0))
        assert event == ["o", 2.0, "10.0.0.0/24", []]
        assert tracker.live == {}

    def test_moas_active_crossings(self):
        tracker = OriginTracker()
        tracker.apply(announce(P1, 1))
        tracker.apply(announce(P1, 2))
        tracker.apply(announce(P1, 3))
        assert tracker.moas_active == 1  # only the 1 -> 2 crossing counts
        tracker.apply(withdraw(P1, 3))
        assert tracker.moas_active == 1
        tracker.apply(withdraw(P1, 2))
        assert tracker.moas_active == 0

    def test_tick_emits_day_event(self):
        tracker = OriginTracker()
        tracker.apply(announce(P1, 1))
        tracker.apply(announce(P1, 2))
        tracker.apply(announce(P2, 9))
        assert tracker.apply(tick(3.0)) == ["d", 3, 1]

    def test_from_live_and_live_state_round_trip(self):
        tracker = OriginTracker()
        tracker.apply(announce(P1, 7))
        tracker.apply(announce(P1, 3))
        tracker.apply(announce(P2, 9))
        rebuilt = OriginTracker.from_live(tracker.live_state())
        assert rebuilt.live_state() == tracker.live_state()
        assert rebuilt.moas_active == tracker.moas_active

    def test_from_live_skips_empty_sets(self):
        rebuilt = OriginTracker.from_live({"10.0.0.0/24": [], "10.0.1.0/24": [5]})
        assert rebuilt.live_state() == {"10.0.1.0/24": [5]}


class TestAlarmRows:
    GOOD = (
        '{"kind":"inconsistent-lists","observed":[1,2],"prefix":"10.0.0.0/24",'
        '"time":3.5}'
    )

    def test_parses_canonical_line(self):
        prefix, row = alarm_row_from_line(self.GOOD)
        assert prefix == "10.0.0.0/24"
        assert row == [3.5, "inconsistent-lists", [1, 2], None, None]

    def test_malformed_line_raises_query_error(self):
        with pytest.raises(QueryError, match="malformed alarm line"):
            alarm_row_from_line("{broken")
        with pytest.raises(QueryError, match="malformed alarm line"):
            alarm_row_from_line('{"prefix": "10.0.0.0/24"}')

    def test_range_reads_line_aligned_bytes(self, tmp_path):
        log = tmp_path / "alarms.log"
        line = self.GOOD + "\n"
        log.write_text(line * 3)
        assert len(alarm_rows_from_range(log, 0, None)) == 3
        assert len(alarm_rows_from_range(log, len(line), len(line) * 2)) == 1
        assert alarm_rows_from_range(log, len(line) * 3, None) == []

    def test_range_past_eof_raises(self, tmp_path):
        log = tmp_path / "alarms.log"
        log.write_text(self.GOOD + "\n")
        with pytest.raises(QueryError, match="ends at byte"):
            alarm_rows_from_range(log, 0, 10_000)

    def test_misaligned_range_raises(self, tmp_path):
        log = tmp_path / "alarms.log"
        log.write_text(self.GOOD + "\n")
        with pytest.raises(QueryError, match="line boundary"):
            alarm_rows_from_range(log, 0, 5)

    def test_torn_tail_at_eof_is_dropped(self, tmp_path):
        log = tmp_path / "alarms.log"
        log.write_text(self.GOOD + "\n" + self.GOOD[:20])
        assert len(alarm_rows_from_range(log, 0, None)) == 1


class TestReplayFeedRange:
    """One feed: ``replay_range``'s N=1 case, the service's record order."""

    def write_feed(self, path, records):
        with FeedWriter(path) as writer:
            return writer.write_all(records)

    def test_full_replay_counts_records_not_header(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        records = [announce(P1, 7), announce(P1, 3, t=1.0), tick(1.0)]
        self.write_feed(feed, records)
        tracker = OriginTracker()
        out = []
        assert replay_range([feed], [0], None, tracker, out) == 3
        assert [event[0] for event in out] == ["o", "o", "d"]

    def test_range_replay_matches_tailer_offsets(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        self.write_feed(feed, [announce(P1, 7), tick(0.0), announce(P2, 9, t=1.0)])
        data = feed.read_bytes().splitlines(keepends=True)
        mid = len(data[0]) + len(data[1]) + len(data[2])  # header + 2 records
        tracker = OriginTracker()
        out = []
        assert replay_range([feed], [mid], None, tracker, out) == 1
        assert out == [["o", 1.0, "10.0.1.0/24", [9]]]

    def test_short_file_raises(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        self.write_feed(feed, [announce(P1, 7)])
        with pytest.raises(QueryError, match="ends at byte"):
            replay_range([feed], [0], [10_000], OriginTracker(), [])

    def test_end_inside_a_line_raises(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        self.write_feed(feed, [announce(P1, 7), tick(0.0)])
        with pytest.raises(QueryError, match="overran"):
            replay_range([feed], [0], [feed.stat().st_size - 3], OriginTracker(), [])

    def test_mid_day_end_counts_lines_without_the_tick(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        self.write_feed(
            feed,
            [announce(P1, 7), tick(0.0), announce(P1, 3, t=1.0),
             announce(P2, 9, t=1.0), tick(1.0)],
        )
        data = feed.read_bytes().splitlines(keepends=True)
        mid = sum(len(line) for line in data[:4])  # header .. day 1's first line
        tracker = OriginTracker()
        out = []
        assert replay_range([feed], [0], [mid], tracker, out) == 3
        assert [event[0] for event in out] == ["o", "d", "o"]
        # The rest of the day resumes from the same coordinate.
        rest = []
        assert replay_range([feed], [mid], None, tracker, rest) == 2
        assert rest == [["o", 1.0, "10.0.1.0/24", [9]], ["d", 1, 1]]


class TestReplayRouterRange:
    """Several feeds: ``replay_range`` walks the router's interleave."""

    def write_feeds(self, tmp_path):
        """Two vantage feeds agreeing on days 0 and 1."""
        a = tmp_path / "feed_a.jsonl"
        b = tmp_path / "feed_b.jsonl"
        with FeedWriter(a) as writer:
            writer.write_all(
                [announce(P1, 7), tick(0.0), announce(P1, 3, t=1.0), tick(1.0)]
            )
        with FeedWriter(b) as writer:
            writer.write_all(
                [announce(P2, 9), tick(0.0), withdraw(P2, 9, t=1.0), tick(1.0)]
            )
        return a, b

    def test_interleaves_with_one_tick_per_day(self, tmp_path):
        a, b = self.write_feeds(tmp_path)
        tracker = OriginTracker()
        out = []
        # 4 announce/withdraw lines + 2 fleet ticks
        assert replay_range([a, b], [0, 0], None, tracker, out) == 6
        # Fan-in order: feed a's day, then feed b's, then the fleet tick.
        assert out == [
            ["o", 0.0, "10.0.0.0/24", [7]],
            ["o", 0.0, "10.0.1.0/24", [9]],
            ["d", 0, 0],
            ["o", 1.0, "10.0.0.0/24", [3, 7]],
            ["o", 1.0, "10.0.1.0/24", []],
            ["d", 1, 1],
        ]

    def test_read_batch_size_is_invisible(self, tmp_path, monkeypatch):
        a, b = self.write_feeds(tmp_path)
        whole = []
        assert replay_range([a, b], [0, 0], None, OriginTracker(), whole) == 6
        monkeypatch.setattr(feed_module, "_BATCH", 1)
        split = []
        assert replay_range([a, b], [0, 0], None, OriginTracker(), split) == 6
        assert split == whole

    def test_disagreeing_days_raise(self, tmp_path):
        a = tmp_path / "feed_a.jsonl"
        b = tmp_path / "feed_b.jsonl"
        with FeedWriter(a) as writer:
            writer.write_all([tick(0.0)])
        with FeedWriter(b) as writer:
            writer.write_all([tick(5.0)])
        with pytest.raises(QueryError, match="disagree"):
            replay_range([a, b], [0, 0], None, OriginTracker(), [])

    def test_count_mismatch_raises(self, tmp_path):
        a, b = self.write_feeds(tmp_path)
        with pytest.raises(QueryError, match="count mismatch"):
            replay_range([a, b], [0], None, OriginTracker(), [])
