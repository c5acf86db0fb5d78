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
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.stream.delta import CompositeFold, EngineFold
from repro.stream.engine import StreamEngine
from repro.stream.feed import (
    OP_ANNOUNCE,
    OP_TICK,
    OP_WITHDRAW,
    FeedRecord,
    snapshot_deltas,
)
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


PROPERTY_PREFIXES = [
    Prefix.parse(name)
    for name in ("10.0.0.0/24", "10.0.1.0/24", "10.0.0.0/16", "192.0.2.0/24")
]
PROPERTY_ORIGINS = (64500, 64501)

#: Random engine runs: announces (with a MOAS list that may leave the
#: origin out), withdrawals, day ticks and checkpoint boundaries.
engine_runs = st.lists(
    st.one_of(
        st.tuples(
            st.just("A"),
            st.sampled_from(PROPERTY_PREFIXES),
            st.sampled_from(PROPERTY_ORIGINS),
            st.sets(st.sampled_from(PROPERTY_ORIGINS + (64502,)), max_size=3),
        ),
        st.tuples(
            st.just("W"),
            st.sampled_from(PROPERTY_PREFIXES),
            st.sampled_from(PROPERTY_ORIGINS),
        ),
        st.just(("T",)),
        st.just(("B",)),
    ),
    min_size=20,
    max_size=120,
)


class TestOneEncoding:
    @settings(max_examples=80, deadline=None)
    @given(run=engine_runs, window=st.sampled_from([1.0, 2.0, 30.0]))
    def test_empty_snapshot_plus_deltas_is_the_snapshot(self, run, window):
        """At every boundary, the full snapshot of a fresh engine folded
        with every delta since equals ``snapshot_state()``; a short window
        makes evictions (deletions in every table) common."""
        engine = StreamEngine(window=window)
        fold = EngineFold().apply(roundtrip(StreamEngine().snapshot_state()))
        day = 0
        for op in run + [("B",)]:
            if op[0] == "A":
                engine.apply(FeedRecord(
                    op=OP_ANNOUNCE, time=day + 0.5, prefix=op[1],
                    origin=op[2], moas=tuple(sorted(op[3])) or None,
                ))
            elif op[0] == "W":
                engine.apply(FeedRecord(
                    op=OP_WITHDRAW, time=day + 0.5, prefix=op[1], origin=op[2]
                ))
            elif op[0] == "T":
                day += 1
                engine.apply(FeedRecord(op=OP_TICK, time=float(day)))
            else:
                snapshot = roundtrip(engine.snapshot_state())
                fold.apply(roundtrip(engine.delta_state()))
                engine.mark_clean()
                assert fold.document() == snapshot
                assert EngineFold().apply(snapshot).document() == snapshot
                assert not any(
                    value is None
                    for table in ("origins", "observed", "activity")
                    for _, value in snapshot[table]
                )

    def test_fold_refuses_a_snapshot_missing_a_table(self):
        snapshot = StreamEngine().snapshot_state()
        for key in snapshot:
            partial = {k: v for k, v in snapshot.items() if k != key}
            with pytest.raises(KeyError, match=key):
                EngineFold().apply(partial)


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
                    state = EngineFold().apply(state).apply(delta).document()
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
                    base = (
                        EngineFold()
                        .apply(base)
                        .apply(roundtrip(engine.delta_state()))
                        .document()
                    )
                engine.mark_clean()
                assert base == roundtrip(engine.snapshot_state())
        assert saw_eviction  # the window actually evicted state

    def test_refresh_dirties_nothing(self):
        """The overhead-critical case: refresh mode re-announces the whole
        live table daily, and an identical route must dirty nothing — not
        the origin map, not the evidence set, and no activity stamp (only
        eviction reads a stamp, and only a dead prefix's)."""
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
        assert delta["activity"] == []
        # Folding the empty delta still reproduces the snapshot.
        base = roundtrip(self._snapshot_at(announce))
        assert base["activity"] == []  # a live prefix has no stamp
        merged = EngineFold().apply(base).apply(roundtrip(delta)).document()
        assert merged == roundtrip(engine.snapshot_state())
        # The withdrawal that kills the prefix stamps it.
        engine.apply(
            FeedRecord(
                op=OP_WITHDRAW,
                time=3.0,
                prefix=Prefix.parse("10.0.0.0/24"),
                origin=65001,
            )
        )
        assert engine.delta_state()["activity"] == [["10.0.0.0/24", 3.0]]

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
            "feed_offsets": [100],
            "shards": [engine_state(days=[[0, 0]])] * 2,
        }
        delta = {
            "feed_offsets": [150],
            "shards": [
                None,
                engine_state(alarm_duplicates=2, days=[[1, 1]]),
            ],
        }
        merged = CompositeFold(state).apply(delta).document()
        assert merged["feed_offsets"] == [150]
        assert merged["shards"][0] == state["shards"][0]  # None = unchanged
        assert merged["shards"][1]["alarm_duplicates"] == 2
        assert merged["shards"][1]["days"] == [[0, 0], [1, 1]]
        assert merged["shard_count"] == 2
        assert merged["window"] == 30.0

    def test_shard_count_mismatch_raises(self):
        state = {"shards": [engine_state(), engine_state()], "shard_count": 2}
        with pytest.raises(ValueError, match="shards"):
            CompositeFold(state).apply({"shards": [None]})


def engine_state(**state):
    """An engine document (a full snapshot or a delta: one encoding),
    empty but for ``state``."""
    base = {
        "alarm_duplicates": 0,
        "days": [],
        "origins": [],
        "observed": [],
        "activity": [],
        "alarms": [],
    }
    base.update(state)
    return base


def one_shard(engine, offset=0):
    """A one-shard composite document around ``engine``'s state."""
    return {
        "shard_count": 1, "window": 30.0,
        "feed_offsets": [offset * 10], "shards": [engine],
    }


def one_shard_delta(engine_delta, offset=0):
    return {"feed_offsets": [offset * 10], "shards": [engine_delta]}


def make_checkpoint(offset, **state):
    return Checkpoint(
        offset=offset,
        alarm_lines=0,
        engine_state=one_shard(engine_state(**state), offset),
        alarm_bytes=0,
    )


def empty_delta(offset):
    """A composite delta that changes nothing but the feed offsets."""
    return one_shard_delta(engine_state(), offset)


class TestChainWriter:
    def test_full_then_deltas_replay_to_tip(self, tmp_path):
        path = tmp_path / "cp.json"
        writer = ChainWriter(path)
        writer.write_full(make_checkpoint(100))
        for offset in (150, 200, 250):
            writer.append_delta(
                offset=offset,
                alarm_lines=0,
                alarm_bytes=0,
                delta=empty_delta(offset),
            )
        chain = load_chain(path)
        assert chain.seq == 3
        assert chain.full.offset == 100
        assert chain.checkpoint.offset == 250
        assert chain.checkpoint.index_coordinates()["feed_offsets"] == [2500]
        assert chain.torn_tail_bytes == 0
        assert load_checkpoint(path).offset == 250

    def test_delta_before_full_refused(self, tmp_path):
        writer = ChainWriter(tmp_path / "cp.json")
        with pytest.raises(CheckpointError, match="before any full"):
            writer.append_delta(
                offset=1, alarm_lines=0, alarm_bytes=0, delta={}
            )

    def test_compaction_resets_the_delta_file(self, tmp_path):
        path = tmp_path / "cp.json"
        writer = ChainWriter(path)
        writer.write_full(make_checkpoint(1))
        writer.append_delta(
            offset=2, alarm_lines=0, alarm_bytes=0, delta=empty_delta(2)
        )
        writer.write_full(make_checkpoint(3))
        assert delta_path_for(path).read_bytes() == b""
        chain = load_chain(path)
        assert chain.seq == 0
        assert chain.checkpoint.offset == 3

    def test_committer_compacts_every_full_every_boundaries(self, tmp_path):
        def committer():
            return BoundaryCommitter(
                tmp_path / "alarms.jsonl", tmp_path / "cp.json",
                feeds=[tmp_path / "feed.jsonl"],
                full_every=3, clock=lambda: 0.0,
            )

        def commit(target, offset):
            kind = target.next_kind()
            state = (
                make_checkpoint(offset).engine_state if kind == "full"
                else empty_delta(offset)
            )
            target.commit(
                [], kind, state, records=offset, offsets=[offset * 10]
            )
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
            offset=2, alarm_lines=0, alarm_bytes=0, delta=empty_delta(2)
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
            offset=2, alarm_lines=0, alarm_bytes=0, delta=empty_delta(2)
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
                offset=offset, alarm_lines=0, alarm_bytes=0,
                delta=empty_delta(offset),
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
            offset=50, alarm_lines=0, alarm_bytes=0, delta=empty_delta(50)
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
            "engine": engine_state(),
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


# -- fold-once chain replay vs the iterated one-delta fold --------------------


def reference_engine_delta(state, delta):
    """The per-delta fold chain replay used to iterate, kept as the
    reference: rebuild and re-sort the whole document for every delta."""
    def order(name):
        return Prefix.parse(name).sort_key

    def alarm_key(entry):
        prefix, kind, observed, conflicting, origin = entry[:5]
        return (prefix, kind, tuple(observed),
                tuple(conflicting) if conflicting is not None else (),
                origin if origin is not None else -1)

    days = {int(day): int(count) for day, count in state["days"]}
    for day, count in delta["days"]:
        days[int(day)] = int(count)
    tables = {}
    for component in ("origins", "observed", "activity"):
        table = {name: value for name, value in state[component]}
        for name, value in delta[component]:
            if value is None:
                table.pop(name, None)
            else:
                table[name] = value
        tables[component] = [
            [name, table[name]] for name in sorted(table, key=order)
        ]
    alarms = {alarm_key(entry): entry for entry in state["alarms"]}
    for entry in delta["alarms"]:
        if entry[5] is None:
            alarms.pop(alarm_key(entry), None)
        else:
            alarms[alarm_key(entry)] = entry
    merged = {"alarm_duplicates": delta["alarm_duplicates"]}
    merged["days"] = [[day, days[day]] for day in sorted(days)]
    merged.update(tables)
    merged["alarms"] = [alarms[key] for key in sorted(alarms)]
    return merged


def reference_state_delta(state, delta):
    merged = dict(state)
    merged["shards"] = [
        shard if shard_delta is None
        else reference_engine_delta(shard, shard_delta)
        for shard, shard_delta in zip(state["shards"], delta["shards"])
    ]
    for key in ("feed_offsets",):
        if key in delta:
            merged[key] = delta[key]
    return merged


PREFIX_POOL = (
    [f"10.{a}.{b}.0/24" for a in range(3) for b in range(5)]
    + [f"10.{a}.0.0/16" for a in range(3)]
    + ["10.0.0.0/8", "192.0.2.0/24", "192.0.2.128/25"]
)
ALARM_KINDS = ("moas-conflict", "origin-not-in-list")


def empty_engine_state():
    return engine_state()


def random_engine_delta(rng):
    """A random set-to-value delta: inserts, overwrites and deletions
    (including of absent keys) per component, and alarm entries whose
    count may be ``None`` (an eviction's removal)."""
    def names(limit):
        return rng.sample(PREFIX_POOL, rng.randrange(limit))

    def members():
        return sorted(rng.sample(range(64500, 64512), rng.randrange(1, 4)))

    def maybe(value):
        return None if rng.random() < 0.3 else value

    delta = {
        "alarm_duplicates": rng.randrange(9),
        "days": [[day, rng.randrange(5)]
                 for day in sorted(rng.sample(range(40), rng.randrange(4)))],
        "origins": [[name, maybe([[origin, members()] for origin in members()])]
                    for name in names(8)],
        "observed": [[name, maybe(sorted(members() for _ in range(2)))]
                     for name in names(8)],
        "activity": [[name, maybe(float(rng.randrange(40)))]
                     for name in names(12)],
        "alarms": [],
    }
    for _ in range(rng.randrange(5)):
        prefix = rng.choice(PREFIX_POOL[:6])
        conflicting = rng.choice([None, [64500], [64501, 64502]])
        delta["alarms"].append([
            prefix, rng.choice(ALARM_KINDS), [64500 + rng.randrange(3)],
            conflicting, rng.choice([None, 64500]),
            None if rng.random() < 0.3 else rng.randrange(1, 9),
        ])
    return delta


def random_chain(rng, shards, length):
    """A canonical composite document of ``shards`` engine states and
    ``length`` deltas for it."""
    def engine_base():
        return reference_engine_delta(
            empty_engine_state(), random_engine_delta(rng)
        )

    base = {
        "shard_count": shards, "window": 30.0,
        "feed_offsets": [0], "shards": [engine_base() for _ in range(shards)],
    }
    deltas = []
    for i in range(1, length + 1):
        deltas.append({
            "feed_offsets": [i * 100],
            "shards": [
                None if rng.random() < 0.3 else random_engine_delta(rng)
                for _ in range(shards)
            ],
        })
    return roundtrip(base), [roundtrip(d) for d in deltas]


def write_chain(path, base, deltas):
    writer = ChainWriter(path)
    writer.write_full(Checkpoint(offset=0, alarm_lines=0, engine_state=base))
    for seq, delta in enumerate(deltas, start=1):
        writer.append_delta(
            offset=seq, alarm_lines=0, alarm_bytes=0, delta=delta
        )


def write_engine_chain(path, base, deltas):
    """:func:`write_chain` of one engine's states, as a one-shard chain."""
    write_chain(
        path,
        one_shard(base),
        [one_shard_delta(delta, seq) for seq, delta in enumerate(deltas, 1)],
    )


def replayed_engine(path):
    """The one shard's engine state at the tip of a one-shard chain."""
    return load_chain(path).checkpoint.engine_state["shards"][0]


def engine_chain(window=2.0, boundaries=16, seed=3):
    """A real engine's full snapshot and ``boundaries`` deltas; a short
    window makes evictions (activity/evidence deletions and alarm-count
    removals) common."""
    records = trace_records(seed=seed)
    # A conflict on a prefix that then dies, so eviction also removes
    # alarm counts (the trace's own conflicts stay live).
    day = max(record.time for record in records if record.is_tick)
    doomed = Prefix.parse("198.51.100.0/24")
    records += [
        FeedRecord(op=OP_ANNOUNCE, time=day + 0.5, prefix=doomed, origin=64600),
        FeedRecord(op=OP_ANNOUNCE, time=day + 0.5, prefix=doomed, origin=64601),
        FeedRecord(op=OP_WITHDRAW, time=day + 0.6, prefix=doomed, origin=64600),
        FeedRecord(op=OP_WITHDRAW, time=day + 0.6, prefix=doomed, origin=64601),
    ] + [FeedRecord(op=OP_TICK, time=day + k) for k in range(1, 5)]
    engine = StreamEngine(window=window)
    cuts = {len(records) * k // (boundaries + 1) - 1
            for k in range(1, boundaries + 2)}
    base, deltas = None, []
    for index, record in enumerate(records):
        engine.apply(record)
        if index in cuts:
            if base is None:
                base = roundtrip(engine.snapshot_state())
            else:
                deltas.append(roundtrip(engine.delta_state()))
            engine.mark_clean()
    return base, deltas, roundtrip(engine.snapshot_state())


class TestFoldOnceChainReplay:
    @pytest.mark.parametrize("two_shards", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_chain_equals_iterated_fold(self, tmp_path, seed, two_shards):
        rng = random.Random(seed)
        base, deltas = random_chain(
            rng, 2 if two_shards else 1, length=rng.randrange(1, 12)
        )
        write_chain(tmp_path / "cp.json", base, deltas)
        replayed = load_chain(tmp_path / "cp.json").checkpoint.engine_state
        reference = iterated = base
        for delta in deltas:
            reference = reference_state_delta(reference, delta)
            iterated = CompositeFold(iterated).apply(delta).document()
        assert replayed == roundtrip(reference)
        assert iterated == reference

    def test_engine_chain_with_evictions_equals_iterated_fold(self, tmp_path):
        base, deltas, tip = engine_chain()
        # Only an eviction deletes a prefix's evidence.
        assert any(value is None for d in deltas for _, value in d["observed"])
        assert any(entry[5] is None for d in deltas for entry in d["alarms"])
        assert any(value is None for d in deltas for _, value in d["origins"])
        write_engine_chain(tmp_path / "cp.json", base, deltas)
        reference = base
        for delta in deltas:
            reference = reference_engine_delta(reference, delta)
        replayed = replayed_engine(tmp_path / "cp.json")
        assert replayed == roundtrip(reference) == tip

    def test_sort_keys_are_computed_once_per_prefix(self, tmp_path, monkeypatch):
        import repro.stream.delta as delta_module

        base, deltas, tip = engine_chain(window=5.0, boundaries=16)
        assert len(deltas) == 16
        write_engine_chain(tmp_path / "cp.json", base, deltas)
        distinct = {
            name
            for component in ("origins", "observed", "activity")
            for name, _ in base[component]
        } | {
            name
            for delta in deltas
            for component in ("origins", "observed", "activity")
            for name, value in delta[component]
            if value is not None
        }
        calls = []
        real = delta_module._prefix_order

        def counting(name):
            calls.append(name)
            return real(name)

        monkeypatch.setattr(delta_module, "_prefix_order", counting)
        assert replayed_engine(tmp_path / "cp.json") == tip
        assert len(calls) <= len(distinct)

    def test_bad_prefix_names_its_delta_line(self, tmp_path):
        base, deltas, _ = engine_chain(boundaries=4)
        deltas[1]["activity"].append(["not-a-prefix", 3.0])
        write_engine_chain(tmp_path / "cp.json", base, deltas)
        with pytest.raises(CheckpointError, match="malformed delta line 2"):
            load_chain(tmp_path / "cp.json")

    def test_unorderable_alarm_entries_refuse(self, tmp_path):
        base, deltas, _ = engine_chain(boundaries=2)
        entry = ["10.0.0.0/24", "moas-conflict", [64500], None]
        deltas[0]["alarms"] += [entry + [None, 1], entry + ["x", 1]]
        write_engine_chain(tmp_path / "cp.json", base, deltas)
        with pytest.raises(CheckpointError, match="malformed delta"):
            load_chain(tmp_path / "cp.json")

    def test_reformatted_snapshot_still_chains(self, tmp_path):
        """A snapshot re-written in another JSON form keeps its digest: the
        deltas chain from the canonical serialisation, not the file bytes."""
        base, deltas, tip = engine_chain(boundaries=4)
        path = tmp_path / "cp.json"
        write_engine_chain(path, base, deltas)
        path.write_text(json.dumps(json.loads(path.read_text()), indent=2))
        chain = load_chain(path)
        assert chain.checkpoint.engine_state["shards"][0] == tip
        assert chain.base_digest == chain.full.digest()
