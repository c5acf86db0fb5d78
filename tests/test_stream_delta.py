"""Tests for delta-encoded checkpoint chains.

Two layers: the pure state algebra (``repro.stream.delta`` must fold an
engine delta into a prior snapshot and reproduce ``snapshot_state``
bit-for-bit), and the chain writer/loader (compaction, torn tails,
corruption refusal, stale-temp reaping) with the committer's full/delta
cadence.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.measurement.trace import FaultSpike, TraceConfig, TraceGenerator
from repro.stream.checkpoint import (
    ChainWriter,
    Checkpoint,
    CheckpointError,
    delta_path_for,
    load_chain,
    load_checkpoint,
    reap_stale_tmp,
    save_checkpoint,
)
from repro.net.addresses import Prefix
from repro.stream.delta import apply_engine_delta, apply_state_delta
from repro.stream.engine import StreamEngine
from repro.stream.feed import OP_ANNOUNCE, FeedRecord, snapshot_deltas
from repro.stream.service import BoundaryCommitter

TRACE_CONFIG = TraceConfig(
    days=30,
    faults=(FaultSpike(day=8, faulty_as=8584, n_prefixes=20),),
    n_background_prefixes=150,
    include_background=True,
)


def trace_records(seed=3, config=TRACE_CONFIG):
    generator = TraceGenerator(config, random.Random(seed))
    return list(snapshot_deltas(generator.snapshots()))


def roundtrip(document):
    """Checkpoint documents live as canonical JSON; compare post-roundtrip."""
    return json.loads(json.dumps(document, sort_keys=True))


class TestEngineDeltaAlgebra:
    def test_delta_folds_to_the_full_snapshot(self):
        records = trace_records()
        engine = StreamEngine(window=5.0)
        state = None
        boundary = 0
        for index, record in enumerate(records):
            engine.apply(record)
            if (index + 1) % 257 == 0 or index == len(records) - 1:
                boundary += 1
                if state is None:
                    state = roundtrip(engine.snapshot_state())
                else:
                    delta = roundtrip(engine.delta_state())
                    state = apply_engine_delta(state, delta)
                engine.mark_clean()
                assert state == roundtrip(engine.snapshot_state())
        assert boundary > 5  # the fold was exercised repeatedly

    def test_delta_covers_evictions_and_deletions(self):
        records = trace_records()
        engine = StreamEngine(window=2.0)  # aggressive eviction
        base = None
        saw_eviction = False
        for index, record in enumerate(records):
            before = engine.evictions
            engine.apply(record)
            saw_eviction = saw_eviction or engine.evictions > before
            if (index + 1) % 401 == 0:
                if base is None:
                    base = roundtrip(engine.snapshot_state())
                else:
                    base = apply_engine_delta(
                        base, roundtrip(engine.delta_state())
                    )
                engine.mark_clean()
                assert base == roundtrip(engine.snapshot_state())
        assert saw_eviction  # the window actually evicted state

    def test_refresh_dirties_only_activity(self):
        """The overhead-critical asymmetry: refresh mode re-announces the
        whole live table daily, but identical routes must dirty only their
        activity stamps — never the origin maps or evidence sets."""
        engine = StreamEngine()
        announce = FeedRecord(
            op=OP_ANNOUNCE,
            time=1.0,
            prefix=Prefix.parse("10.0.0.0/24"),
            origin=65001,
            moas=(65001, 65002),
        )
        engine.apply(announce)
        engine.mark_clean()
        engine.apply(
            FeedRecord(
                op=OP_ANNOUNCE,
                time=2.0,
                prefix=Prefix.parse("10.0.0.0/24"),
                origin=65001,
                moas=(65001, 65002),
            )
        )
        delta = engine.delta_state()
        assert delta["origins"] == []
        assert delta["observed"] == []
        assert delta["activity"] == [["10.0.0.0/24", 2.0]]
        # Folding the activity-only delta still reproduces the snapshot.
        base = roundtrip(self._snapshot_at(announce))
        merged = apply_engine_delta(base, roundtrip(delta))
        assert merged == roundtrip(engine.snapshot_state())
        assert merged != base  # the stamp really moved

    @staticmethod
    def _snapshot_at(record):
        engine = StreamEngine()
        engine.apply(record)
        return engine.snapshot_state()

    def test_clean_engine_emits_empty_delta(self):
        engine = StreamEngine()
        for record in trace_records()[:500]:
            engine.apply(record)
        engine.mark_clean()
        delta = engine.delta_state()
        assert delta["origins"] == []
        assert delta["observed"] == []
        assert delta["activity"] == []
        assert delta["alarms"] == []
        assert delta["days"] == []

    def test_restore_resets_dirty_tracking(self):
        engine = StreamEngine()
        for record in trace_records()[:500]:
            engine.apply(record)
        restored = StreamEngine()
        restored.restore_state(engine.snapshot_state())
        delta = restored.delta_state()
        assert delta["origins"] == [] and delta["activity"] == []
        assert delta["observed"] == [] and delta["alarms"] == []

    def test_router_composite_delta(self):
        state = {
            "shard_count": 2,
            "window": 30.0,
            "epoch": 3.0,
            "feed_offsets": [100],
            "shards": [
                {
                    "window": 30.0,
                    "offset": 5,
                    "moas_active": 0,
                    "alarms_emitted": 0,
                    "alarm_duplicates": 0,
                    "evictions": 0,
                    "daily_counts": [[0, 0]],
                    "origins": [],
                    "observed": [],
                    "last_activity": [],
                    "alarm_counts": [],
                },
            ]
            * 2,
        }
        delta = {
            "epoch": 4.0,
            "feed_offsets": [150],
            "shards": [
                None,
                {
                    "window": 30.0,
                    "offset": 9,
                    "moas_active": 1,
                    "alarms_emitted": 0,
                    "alarm_duplicates": 0,
                    "evictions": 0,
                    "days": [[1, 1]],
                    "origins": [], "observed": [], "activity": [],
                    "alarms": [],
                },
            ],
        }
        merged = apply_state_delta(state, delta)
        assert merged["epoch"] == 4.0
        assert merged["feed_offsets"] == [150]
        assert merged["shards"][0] == state["shards"][0]  # None = unchanged
        assert merged["shards"][1]["offset"] == 9
        assert merged["shards"][1]["daily_counts"] == [[0, 0], [1, 1]]
        assert merged["shard_count"] == 2

    def test_shard_count_mismatch_raises(self):
        state = {"shards": [{}, {}], "shard_count": 2}
        with pytest.raises(ValueError, match="shards"):
            apply_state_delta(state, {"shards": [None]})


def make_checkpoint(offset, **state):
    base = {
        "window": 30.0,
        "offset": offset,
        "moas_active": 0,
        "alarms_emitted": 0,
        "alarm_duplicates": 0,
        "evictions": 0,
        "daily_counts": [],
        "origins": [],
        "observed": [],
        "last_activity": [],
        "alarm_counts": [],
    }
    base.update(state)
    return Checkpoint(
        offset=offset,
        byte_offset=offset * 10,
        alarm_lines=0,
        engine_state=base,
        alarm_bytes=0,
    )


class TestChainWriter:
    def test_full_then_deltas_replay_to_tip(self, tmp_path):
        path = tmp_path / "cp.json"
        writer = ChainWriter(path)
        writer.write_full(make_checkpoint(100))
        for offset in (150, 200, 250):
            writer.append_delta(
                offset=offset,
                byte_offset=offset * 10,
                alarm_lines=0,
                alarm_bytes=0,
                delta={
                    "window": 30.0,
                    "offset": offset,
                    "moas_active": 0,
                    "alarms_emitted": 0,
                    "alarm_duplicates": 0,
                    "evictions": 0,
                    "days": [],
                    "origins": [], "observed": [], "activity": [],
                    "alarms": [],
                },
            )
        chain = load_chain(path)
        assert chain.seq == 3
        assert chain.full.offset == 100
        assert chain.checkpoint.offset == 250
        assert chain.checkpoint.byte_offset == 2500
        assert chain.torn_tail_bytes == 0
        assert load_checkpoint(path).offset == 250

    def test_delta_before_full_refused(self, tmp_path):
        writer = ChainWriter(tmp_path / "cp.json")
        with pytest.raises(CheckpointError, match="before any full"):
            writer.append_delta(
                offset=1, byte_offset=1, alarm_lines=0, alarm_bytes=0, delta={}
            )

    def test_compaction_resets_the_delta_file(self, tmp_path):
        path = tmp_path / "cp.json"
        writer = ChainWriter(path)
        writer.write_full(make_checkpoint(1))
        writer.append_delta(
            offset=2, byte_offset=20, alarm_lines=0, alarm_bytes=0,
            delta={"window": 30.0, "offset": 2, "moas_active": 0,
                   "alarms_emitted": 0, "alarm_duplicates": 0, "evictions": 0,
                   "days": [], "origins": [], "observed": [], "activity": [], "alarms": []},
        )
        writer.write_full(make_checkpoint(3))
        assert delta_path_for(path).read_bytes() == b""
        chain = load_chain(path)
        assert chain.seq == 0
        assert chain.checkpoint.offset == 3

    def test_committer_compacts_every_full_every_boundaries(self, tmp_path):
        empty_delta = {
            "window": 30.0, "moas_active": 0, "alarms_emitted": 0,
            "alarm_duplicates": 0, "evictions": 0, "days": [], "origins": [],
            "observed": [], "activity": [], "alarms": [],
        }

        def committer():
            return BoundaryCommitter(
                tmp_path / "alarms.jsonl", tmp_path / "cp.json",
                feeds=[tmp_path / "feed.jsonl"], composite=False,
                full_every=3, clock=lambda: 0.0,
            )

        def commit(target, offset):
            kind = target.next_kind()
            state = (
                make_checkpoint(offset).engine_state if kind == "full"
                else dict(empty_delta, offset=offset)
            )
            target.commit([], kind, state, records=offset, feed=offset * 10)
            return kind

        first = committer()
        first.open()
        kinds = [commit(first, offset) for offset in range(1, 6)]
        assert kinds == ["full", "delta", "delta", "full", "delta"]
        assert (first.fulls, first.deltas, first.checkpoints) == (2, 3, 5)
        # A resumed committer continues the cadence from the chain's
        # sequence number: one more delta, then the compacting full.
        resumed = committer()
        resumed.open(restore=lambda checkpoint: None)
        assert [commit(resumed, offset) for offset in (6, 7)] == [
            "delta", "full",
        ]
        assert load_chain(tmp_path / "cp.json").checkpoint.offset == 7

    def test_torn_tail_is_dropped_and_resumable(self, tmp_path):
        path = tmp_path / "cp.json"
        writer = ChainWriter(path)
        writer.write_full(make_checkpoint(1))
        writer.append_delta(
            offset=2, byte_offset=20, alarm_lines=0, alarm_bytes=0,
            delta={"window": 30.0, "offset": 2, "moas_active": 0,
                   "alarms_emitted": 0, "alarm_duplicates": 0, "evictions": 0,
                   "days": [], "origins": [], "observed": [], "activity": [], "alarms": []},
        )
        deltas = delta_path_for(path)
        intact = deltas.read_bytes()
        with deltas.open("ab") as handle:
            handle.write(b'{"format":"repro-stream-che')  # crash mid-append
        chain = load_chain(path)
        assert chain.seq == 1
        assert chain.checkpoint.offset == 2
        assert chain.torn_tail_bytes > 0
        # Resuming the writer truncates the torn tail before appending.
        resumed = ChainWriter(path)
        resumed.resume(chain)
        assert deltas.read_bytes() == intact

    def test_complete_but_corrupt_line_refuses(self, tmp_path):
        path = tmp_path / "cp.json"
        writer = ChainWriter(path)
        writer.write_full(make_checkpoint(1))
        with delta_path_for(path).open("ab") as handle:
            handle.write(b'{"not": "a delta"}\n')
        with pytest.raises(CheckpointError, match="not a"):
            load_chain(path)

    def test_base_digest_mismatch_refuses(self, tmp_path):
        path = tmp_path / "cp.json"
        writer = ChainWriter(path)
        writer.write_full(make_checkpoint(1))
        writer.append_delta(
            offset=2, byte_offset=20, alarm_lines=0, alarm_bytes=0,
            delta={"window": 30.0, "offset": 2, "moas_active": 0,
                   "alarms_emitted": 0, "alarm_duplicates": 0, "evictions": 0,
                   "days": [], "origins": [], "observed": [], "activity": [], "alarms": []},
        )
        # A full snapshot published without resetting the chain (cannot
        # happen through ChainWriter; simulated corruption).
        save_path = tmp_path / "other.json"
        save_checkpoint(save_path, make_checkpoint(9))
        path.write_bytes(save_path.read_bytes())
        with pytest.raises(CheckpointError, match="chains from base"):
            load_chain(path)

    def test_sequence_gap_refuses(self, tmp_path):
        path = tmp_path / "cp.json"
        writer = ChainWriter(path)
        writer.write_full(make_checkpoint(1))
        for offset in (2, 3):
            writer.append_delta(
                offset=offset, byte_offset=offset, alarm_lines=0, alarm_bytes=0,
                delta={"window": 30.0, "offset": offset, "moas_active": 0,
                       "alarms_emitted": 0, "alarm_duplicates": 0,
                       "evictions": 0, "days": [], "origins": [], "observed": [], "activity": [],
                       "alarms": []},
            )
        deltas = delta_path_for(path)
        lines = deltas.read_bytes().splitlines(keepends=True)
        deltas.write_bytes(lines[1])  # drop seq 1, keep seq 2
        with pytest.raises(CheckpointError, match="chain gap"):
            load_chain(path)

    def test_offset_rewind_refuses(self, tmp_path):
        path = tmp_path / "cp.json"
        writer = ChainWriter(path)
        writer.write_full(make_checkpoint(100))
        writer.append_delta(
            offset=50, byte_offset=1, alarm_lines=0, alarm_bytes=0,
            delta={"window": 30.0, "offset": 50, "moas_active": 0,
                   "alarms_emitted": 0, "alarm_duplicates": 0,
                   "evictions": 0, "days": [], "origins": [], "observed": [], "activity": [],
                   "alarms": []},
        )
        with pytest.raises(CheckpointError, match="rewinds offset"):
            load_chain(path)

    def test_v1_checkpoint_refused(self, tmp_path):
        path = tmp_path / "cp.json"
        document = {
            "format": "repro-stream-checkpoint",
            "version": 1,
            "offset": 7,
            "byte_offset": 70,
            "alarm_lines": 2,
            "engine": make_checkpoint(7).engine_state,
        }
        path.write_text(json.dumps(document, sort_keys=True))
        with pytest.raises(CheckpointError, match="version 1"):
            load_checkpoint(path)

    def test_reap_stale_tmp(self, tmp_path):
        path = tmp_path / "cp.json"
        save_checkpoint(path, make_checkpoint(1))
        (tmp_path / "cp.json.tmp").write_text("stranded")
        (tmp_path / "cp.json.deltas.tmp").write_text("stranded")
        (tmp_path / "unrelated.tmp").write_text("not ours")
        removed = reap_stale_tmp(path)
        assert removed == ["cp.json.deltas.tmp", "cp.json.tmp"]
        assert (tmp_path / "unrelated.tmp").exists()
        assert load_checkpoint(path).offset == 1
        assert reap_stale_tmp(path) == []
