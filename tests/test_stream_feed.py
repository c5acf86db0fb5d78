"""Tests for the update-feed format and its two producers."""

from __future__ import annotations

import random

import pytest

from repro.bgp.network import Network
from repro.core.moas_list import moas_communities
from repro.measurement.trace import TraceConfig, TraceGenerator
from repro.net.addresses import Prefix
from repro.stream import feed as feed_module
from repro.stream.feed import (
    FEED_FORMAT,
    FeedCursor,
    FeedError,
    FeedFleet,
    FeedRecord,
    FeedWriter,
    SimulatorTap,
    feed_header_line,
    parse_feed_line,
    snapshot_deltas,
)

P1 = Prefix.parse("10.0.0.0/24")
P2 = Prefix.parse("10.0.1.0/24")


def read_records(path):
    with FeedFleet([path]) as fleet:
        return list(fleet.records())


class TestFeedRecord:
    def test_unknown_op_rejected(self):
        with pytest.raises(FeedError, match="unknown feed op"):
            FeedRecord(op="X", time=0.0, prefix=P1, origin=7)

    def test_tick_carries_no_prefix(self):
        with pytest.raises(FeedError, match="no prefix"):
            FeedRecord(op="T", time=0.0, prefix=P1)

    def test_announce_needs_prefix_and_origin(self):
        with pytest.raises(FeedError, match="needs a prefix"):
            FeedRecord(op="A", time=0.0, origin=7)
        with pytest.raises(FeedError, match="needs an origin"):
            FeedRecord(op="A", time=0.0, prefix=P1)

    def test_withdraw_carries_no_moas_list(self):
        with pytest.raises(FeedError, match="no MOAS list"):
            FeedRecord(op="W", time=0.0, prefix=P1, origin=7, moas=(7,))

    def test_explicit_moas_list_cannot_be_empty(self):
        with pytest.raises(FeedError, match="cannot be empty"):
            FeedRecord(op="A", time=0.0, prefix=P1, origin=7, moas=())

    def test_effective_moas_explicit(self):
        record = FeedRecord(op="A", time=0.0, prefix=P1, origin=7, moas=(9, 7))
        assert record.effective_moas() == (7, 9)

    def test_effective_moas_implicit_singleton(self):
        record = FeedRecord(op="A", time=0.0, prefix=P1, origin=7)
        assert record.effective_moas() == (7,)

    def test_effective_moas_only_for_announces(self):
        record = FeedRecord(op="W", time=0.0, prefix=P1, origin=7)
        with pytest.raises(FeedError):
            record.effective_moas()


class TestLineFormat:
    def test_round_trip(self):
        record = FeedRecord(
            op="A", time=3.0, prefix=P1, origin=7, moas=(7, 9), peer=12
        )
        assert parse_feed_line(record.to_json_line()) == record

    def test_header_parses_to_none(self):
        assert parse_feed_line(feed_header_line()) is None

    def test_blank_line_parses_to_none(self):
        assert parse_feed_line("   \n") is None

    def test_wrong_format_rejected(self):
        with pytest.raises(FeedError, match="not a " + FEED_FORMAT):
            parse_feed_line('{"format": "something-else", "version": 1}')

    def test_wrong_version_rejected(self):
        with pytest.raises(FeedError, match="unsupported feed version"):
            parse_feed_line('{"format": "%s", "version": 99}' % FEED_FORMAT)

    def test_invalid_json_rejected(self):
        with pytest.raises(FeedError, match="not valid feed JSON"):
            parse_feed_line("{nope")

    def test_non_object_rejected(self):
        with pytest.raises(FeedError, match="JSON object"):
            parse_feed_line("[1, 2]")

    def test_missing_op_rejected(self):
        with pytest.raises(FeedError, match="missing op"):
            parse_feed_line('{"t": 0}')

    def test_missing_time_rejected(self):
        with pytest.raises(FeedError, match="numeric t"):
            parse_feed_line('{"op": "T"}')

    def test_canonical_serialisation_is_stable(self):
        record = FeedRecord(op="A", time=1.0, prefix=P1, origin=7, moas=(9, 7))
        assert record.to_json_line() == record.to_json_line()
        assert '"m":[7,9]' in record.to_json_line()


class TestFeedWriter:
    def test_writes_header_then_records(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        with FeedWriter(path) as writer:
            writer.write(FeedRecord(op="A", time=0.0, prefix=P1, origin=7))
            writer.write(FeedRecord(op="T", time=0.0))
        lines = path.read_text().splitlines()
        assert lines[0] == feed_header_line()
        assert len(lines) == 3
        assert writer.records_written == 2

    def test_records_round_trip(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        records = [
            FeedRecord(op="A", time=0.0, prefix=P1, origin=7, moas=(7, 9)),
            FeedRecord(op="W", time=1.0, prefix=P1, origin=9),
            FeedRecord(op="T", time=1.0),
        ]
        with FeedWriter(path) as writer:
            assert writer.write_all(records) == 3
        assert read_records(path) == records


class TestFeedCursor:
    def write(self, path, records):
        with FeedWriter(path) as writer:
            writer.write_all(records)
        return path.read_bytes().splitlines(keepends=True)

    def test_reads_batches_skipping_header(self, tmp_path, monkeypatch):
        monkeypatch.setattr(feed_module, "_BATCH", 2)
        path = tmp_path / "feed.jsonl"
        records = [
            FeedRecord(op="A", time=0.0, prefix=P1, origin=7),
            FeedRecord(op="W", time=1.0, prefix=P1, origin=7),
            FeedRecord(op="T", time=1.0),
        ]
        lines = self.write(path, records)
        cursor = FeedCursor(path)
        try:
            # The batch counts lines: the header is read, and yields nothing.
            assert cursor.read() == ([lines[1]], None)
            assert cursor.read() == ([lines[2]], 1.0)
            assert not cursor.done
            assert cursor.read() == ([], None)
            assert cursor.done
            assert cursor.position == path.stat().st_size
        finally:
            cursor.close()

    def test_partial_line_left_unconsumed(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        with path.open("w") as handle:
            handle.write(FeedRecord(op="T", time=0.0).to_json_line() + "\n")
            handle.write('{"op": "T", "t": 1')  # no trailing newline
        cursor = FeedCursor(path)
        try:
            assert cursor.read() == ([], 0.0)
            resumable = cursor.position
            assert cursor.read() == ([], None)
            assert cursor.done
            assert cursor.position == resumable
            # The producer finishes the line; the next read picks it up.
            with path.open("a") as handle:
                handle.write(".5}\n")
            assert cursor.read() == ([], 1.5)
            assert not cursor.done
            assert cursor.position == path.stat().st_size
        finally:
            cursor.close()

    def test_byte_offset_survives_seek(self, tmp_path, monkeypatch):
        monkeypatch.setattr(feed_module, "_BATCH", 3)
        path = tmp_path / "feed.jsonl"
        records = [
            FeedRecord(op="A", time=0.0, prefix=P1, origin=origin)
            for origin in range(1, 6)
        ]
        self.write(path, records)
        first = FeedCursor(path)
        first.read()
        mark = first.position
        rest = first.read()
        first.close()
        assert len(rest[0]) == 3
        second = FeedCursor(path)
        try:
            second.seek(mark)
            assert second.read() == rest
        finally:
            second.close()

    def test_bad_line_error_names_file_and_byte(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text('{"op": "T", "t": 0}\n{broken\n')
        cursor = FeedCursor(path)
        try:
            assert cursor.read() == ([], 0.0)
            with pytest.raises(FeedError, match=f"{path} at byte 20: not valid"):
                cursor.read()
        finally:
            cursor.close()


class TestSnapshotDeltas:
    def test_birth_announces_coordinated_full_list(self):
        feed = list(snapshot_deltas([(0, {P1: frozenset({7, 9})})]))
        announces = [r for r in feed if r.op == "A"]
        assert [(r.origin, r.moas) for r in announces] == [
            (7, (7, 9)),
            (9, (7, 9)),
        ]
        assert feed[-1].op == "T" and feed[-1].time == 0.0

    def test_added_origin_is_unilateral(self):
        snaps = [
            (0, {P1: frozenset({7})}),
            (1, {P1: frozenset({7, 9})}),
        ]
        feed = list(snapshot_deltas(snaps))
        day1 = [r for r in feed if r.time == 1.0 and r.op == "A"]
        assert [(r.origin, r.moas) for r in day1] == [(9, None)]
        assert day1[0].effective_moas() == (9,)

    def test_removed_origin_withdraws(self):
        snaps = [
            (0, {P1: frozenset({7, 9})}),
            (1, {P1: frozenset({7})}),
        ]
        feed = list(snapshot_deltas(snaps))
        withdrawals = [r for r in feed if r.op == "W"]
        assert [(r.time, r.origin) for r in withdrawals] == [(1.0, 9)]

    def test_dead_prefix_withdraws_every_origin(self):
        snaps = [(0, {P1: frozenset({7, 9})}), (1, {})]
        feed = list(snapshot_deltas(snaps))
        withdrawals = [r for r in feed if r.op == "W"]
        assert sorted(r.origin for r in withdrawals) == [7, 9]

    def test_quiet_day_still_ticks(self):
        snaps = [(0, {P1: frozenset({7})}), (1, {P1: frozenset({7})})]
        feed = list(snapshot_deltas(snaps))
        assert [r.time for r in feed if r.op == "T"] == [0.0, 1.0]
        assert sum(1 for r in feed if r.op == "A") == 1

    def test_refresh_mode_reannounces_daily(self):
        snaps = [(0, {P1: frozenset({7})}), (1, {P1: frozenset({7})})]
        feed = list(snapshot_deltas(snaps, refresh=True))
        announces = [r for r in feed if r.op == "A"]
        assert [(r.time, r.moas) for r in announces] == [(0.0, (7,)), (1.0, (7,))]

    def test_prefix_order_is_deterministic(self):
        snaps = [(0, {P2: frozenset({9}), P1: frozenset({7})})]
        feed = list(snapshot_deltas(snaps))
        assert [r.prefix for r in feed if r.op == "A"] == [P1, P2]

    def test_trace_sized_feed_is_parseable(self, tmp_path):
        config = TraceConfig(days=20, faults=())
        generator = TraceGenerator(config, random.Random(5))
        path = tmp_path / "trace.jsonl"
        with FeedWriter(path) as writer:
            written = writer.write_all(snapshot_deltas(generator.snapshots()))
        records = read_records(path)
        assert len(records) == written
        assert sum(1 for r in records if r.op == "T") == 20


class TestSimulatorTap:
    def _tapped_network(self, figure6_graph, observer_asn=4):
        network = Network(figure6_graph)
        records = []
        tap = SimulatorTap(records.append, clock=lambda: network.sim.now)
        tap.attach(network.speaker(observer_asn))
        network.establish_sessions()
        return network, tap, records

    def test_announce_records_origin_and_list(self, figure6_graph):
        network, tap, records = self._tapped_network(figure6_graph)
        communities = moas_communities([1, 2])
        network.originate(1, P1, communities=communities)
        network.originate(2, P1, communities=communities)
        network.run_to_convergence()
        announces = [r for r in records if r.op == "A"]
        assert {r.origin for r in announces} == {1, 2}
        assert all(r.moas == (1, 2) for r in announces)
        assert all(r.peer is not None for r in announces)

    def test_same_origin_via_second_peer_not_reannounced(self, figure6_graph):
        network, tap, records = self._tapped_network(figure6_graph)
        network.originate(1, P1)
        network.run_to_convergence()
        announces = [r for r in records if r.op == "A" and r.origin == 1]
        # AS 4 hears origin 1 from several peers; one pair, one record.
        assert len(announces) == 1
        assert announces[0].effective_moas() == (1,)

    def test_withdrawal_emits_after_last_provider_gone(self, figure6_graph):
        network, tap, records = self._tapped_network(figure6_graph)
        network.originate(1, P1)
        network.run_to_convergence()
        network.speaker(1).withdraw_origination(P1)
        network.run_to_convergence()
        # Path hunting may surface transient stale paths, so announce and
        # withdraw counts balance rather than being exactly one each.
        announces = sum(1 for r in records if r.op == "A")
        withdrawals = [r for r in records if r.op == "W"]
        assert announces == len(withdrawals) >= 1
        assert all((r.prefix, r.origin) == (P1, 1) for r in withdrawals)
        assert records[-1].op == "W"

    def test_tick_stamps_virtual_time(self, figure6_graph):
        network, tap, records = self._tapped_network(figure6_graph)
        network.originate(1, P1)
        network.run_to_convergence()
        tap.tick()
        assert records[-1].op == "T"
        assert records[-1].time == network.sim.now
        assert tap.records_emitted == len(records)

    def test_feed_from_tap_is_serialisable(self, figure6_graph, tmp_path):
        network, tap, records = self._tapped_network(figure6_graph)
        network.originate(1, P1, communities=moas_communities([1, 2]))
        network.originate(2, P1, communities=moas_communities([1, 2]))
        network.run_to_convergence()
        tap.tick()
        path = tmp_path / "tap.jsonl"
        with FeedWriter(path) as writer:
            writer.write_all(records)
        assert read_records(path) == records
