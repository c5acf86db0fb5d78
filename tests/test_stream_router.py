"""Tests for the service's sharded path (``StreamService(shards=S)``).

Load-bearing properties: sharded detection agrees with a single engine
(daily MOAS counts sum across shards, alarms are the same set — the
prefix partition means no shard can duplicate another's alarms), the
merged alarm log's line order is deterministic, kill-and-resume under
sharding is bit-identical, refusing on shard-count mismatches, and one
shard runs in-process without a worker pool.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import time

import pytest

import repro.procpool
from repro.cli import main as cli_main
from repro.measurement.trace import FaultSpike, TraceConfig, TraceGenerator
from repro.procpool import WorkerError
from repro.query import answers_doc, canonical_json, scan_state
from repro.stream.checkpoint import CheckpointError, delta_path_for, load_checkpoint
from repro.stream.engine import StreamEngine
from repro.stream.feed import FeedError, FeedFleet, FeedWriter, snapshot_deltas
from repro.stream.router import route_line, shard_for_prefix
from repro.stream.service import StreamService, merged_daily_counts


def sharded(feeds, alarms, checkpoint=None, *, shards=2, **kwargs):
    """The service over ``feeds`` on ``shards`` engines (default two)."""
    return StreamService(feeds, alarms, checkpoint, shards=shards, **kwargs)

TRACE_CONFIG = TraceConfig(
    days=40,
    faults=(FaultSpike(day=10, faulty_as=8584, n_prefixes=30),),
    n_background_prefixes=200,
    include_background=True,
)


def write_trace_feed(path, seed=7, config=TRACE_CONFIG):
    generator = TraceGenerator(config, random.Random(seed))
    with FeedWriter(path) as writer:
        return writer.write_all(snapshot_deltas(generator.snapshots()))


def read_records(path):
    with FeedFleet([path]) as fleet:
        return list(fleet.records())


def write_corrupt_feed(path):
    """A trace feed whose first announce carries a non-integer origin;
    returns the shard (of 2) that line routes to."""
    write_trace_feed(path)
    lines = path.read_bytes().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if b'"op":"A"' in line)
    lines[at] = re.sub(rb'"o":\d+', b'"o":"x"', lines[at])
    path.write_bytes(b"".join(lines))
    return route_line(lines[at], 2)


class TestRouting:
    def test_route_line_extracts_the_prefix(self):
        line = b'{"m":[701,702],"o":701,"op":"A","p":"10.0.0.0/24","t":0.0}\n'
        assert route_line(line, 4) == shard_for_prefix(b"10.0.0.0/24", 4)

    def test_ticks_and_headers_are_not_routed(self):
        assert route_line(b'{"op":"T","t":3.0}\n', 4) is None
        assert (
            route_line(b'{"format":"repro-stream-feed","version":1}\n', 4)
            is None
        )

    def test_shard_assignment_is_stable_and_covering(self):
        prefixes = [f"10.0.{i}.0/24".encode() for i in range(256)]
        first = [shard_for_prefix(p, 4) for p in prefixes]
        assert first == [shard_for_prefix(p, 4) for p in prefixes]
        assert set(first) == {0, 1, 2, 3}  # every shard gets work

    def test_invalid_configuration_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one feed"):
            sharded([], tmp_path / "a.jsonl")
        with pytest.raises(ValueError, match="shards"):
            sharded([tmp_path / "f"], tmp_path / "a.jsonl", shards=0)
        with pytest.raises(ValueError, match="follow"):
            sharded([tmp_path / "f"], tmp_path / "a.jsonl", follow=True)

    def test_one_shard_starts_no_worker_pool(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("one shard must not start a WorkerPool")

        monkeypatch.setattr(repro.procpool.WorkerPool, "__init__", refuse)
        feed = tmp_path / "feed.jsonl"
        write_trace_feed(feed, config=SMALL_CONFIG)
        summary = sharded(
            [feed], tmp_path / "a.jsonl", tmp_path / "cp.json", shards=1,
            index=tmp_path / "idx",
        ).run()
        assert summary.shards == 1
        assert summary.days_ticked == SMALL_CONFIG.days
        with pytest.raises(AssertionError, match="WorkerPool"):
            sharded([feed], tmp_path / "b.jsonl", shards=2).run()


class TestShardedParity:
    def test_two_shards_agree_with_single_engine(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        write_trace_feed(feed)
        single_alarms = tmp_path / "single.jsonl"
        single = StreamService(
            feed, single_alarms, tmp_path / "single_cp.json"
        )
        single_summary = single.run()
        router = sharded(
            [feed],
            tmp_path / "sharded.jsonl",
            tmp_path / "cp.json",
            shards=2,
            checkpoint_every=500,
        )
        summary = router.run()
        assert summary.shards == 2
        assert summary.eof is True
        assert summary.alarms_emitted == single_summary.alarms_emitted
        assert summary.alarm_duplicates == single_summary.alarm_duplicates
        assert summary.moas_active == single_summary.moas_active
        assert summary.state_prefixes == single_summary.state_prefixes
        assert summary.days_ticked == single_summary.days_ticked
        # The alarm *sets* agree line for line (ordering differs: the
        # router groups by (day, shard), the single engine by feed order).
        single_lines = sorted(single_alarms.read_text().splitlines())
        sharded_lines = sorted(
            (tmp_path / "sharded.jsonl").read_text().splitlines()
        )
        assert sharded_lines == single_lines
        # Summed per-day MOAS counts equal the single engine's series.
        composite = load_checkpoint(tmp_path / "cp.json").engine_state
        assert merged_daily_counts(composite["shards"]) == dict(
            single.engine.daily_counts
        )

    def test_four_shards_agree_with_two(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        write_trace_feed(feed)
        logs = {}
        for shards in (2, 4):
            alarms = tmp_path / f"alarms_{shards}.jsonl"
            sharded(
                [feed], alarms, tmp_path / f"cp_{shards}.json", shards=shards
            ).run()
            logs[shards] = sorted(alarms.read_text().splitlines())
        assert logs[2] == logs[4]

    def test_multi_feed_fan_in(self, tmp_path):
        # Two vantage-point feeds with different content; the reference is
        # one engine fed the same per-day interleaving the router uses
        # (feed 0's lines, then feed 1's, then the day's single tick).
        feed_a = tmp_path / "a.jsonl"
        feed_b = tmp_path / "b.jsonl"
        config_b = TraceConfig(
            days=40,
            faults=(FaultSpike(day=20, faulty_as=4200, n_prefixes=10),),
            n_background_prefixes=120,
            include_background=True,
        )
        write_trace_feed(feed_a, seed=7)
        write_trace_feed(feed_b, seed=11, config=config_b)
        by_day_a, by_day_b = {}, {}
        for records, bucket in (
            (read_records(feed_a), by_day_a),
            (read_records(feed_b), by_day_b),
        ):
            for record in records:
                bucket.setdefault(int(record.time), []).append(record)
        engine = StreamEngine(window=30.0)
        expected_alarms = []
        for day in sorted(by_day_a):
            for bucket in (by_day_a, by_day_b):
                for record in bucket.get(day, []):
                    if not record.is_tick:
                        expected_alarms.extend(
                            a.to_json_line() for a in engine.apply(record)
                        )
            engine.apply(by_day_a[day][-1])  # the day's tick, once
        router = sharded(
            [feed_a, feed_b],
            tmp_path / "alarms.jsonl",
            tmp_path / "cp.json",
            shards=2,
        )
        summary = router.run()
        assert summary.alarms_emitted == len(expected_alarms)
        assert summary.moas_active == engine.moas_active
        routed_lines = (tmp_path / "alarms.jsonl").read_text().splitlines()
        assert sorted(routed_lines) == sorted(expected_alarms)
        composite = load_checkpoint(tmp_path / "cp.json").engine_state
        assert merged_daily_counts(composite["shards"]) == dict(
            engine.daily_counts
        )

    def test_disagreeing_feed_days_refused(self, tmp_path):
        feed_a = tmp_path / "a.jsonl"
        feed_b = tmp_path / "b.jsonl"
        write_trace_feed(
            feed_a,
            config=TraceConfig(
                days=5, faults=(), n_background_prefixes=50,
                include_background=True,
            ),
        )
        # feed_b's first tick is day 3: the vantage points disagree.
        records = [r for r in read_records(feed_a) if r.time >= 3.0]
        with FeedWriter(feed_b) as writer:
            writer.write_all(records)
        with pytest.raises(FeedError, match="disagree"):
            sharded(
                [feed_a, feed_b], tmp_path / "alarms.jsonl", shards=2
            ).run()


class TestShardFailure:
    def test_malformed_line_names_the_shard(self, tmp_path):
        feed = tmp_path / "bad.jsonl"
        shard = write_corrupt_feed(feed)
        with pytest.raises(WorkerError) as info:
            sharded([feed], tmp_path / "alarms.jsonl", shards=2).run()
        assert info.value.index == shard
        assert f"stream-shard {shard} failed" in str(info.value)
        assert "origin must be an integer, got 'x'" in str(info.value)
        assert "FeedError" in info.value.remote_traceback

    def test_cli_reports_one_line(self, tmp_path):
        feed = tmp_path / "bad.jsonl"
        shard = write_corrupt_feed(feed)
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "stream", "run", str(feed),
                "--alarms", str(tmp_path / "a.jsonl"), "--shards", "2",
            ],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith(
            f"stream run failed: stream-shard {shard} failed: FeedError: "
            "origin must be an integer, got 'x'"
        )


SMALL_CONFIG = TraceConfig(
    days=6, faults=(), n_background_prefixes=50, include_background=True,
)


class TestFeedBoundary:
    """The sharded service reads feed lines by the same rule as every other
    reader: headers are checked, blank lines are skipped."""

    def write_bad_version_feed(self, path):
        write_trace_feed(path, config=SMALL_CONFIG)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[0] = b'{"format":"repro-stream-feed","version":99}\n'
        path.write_bytes(b"".join(lines))

    def test_unsupported_feed_version_refused(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        good = tmp_path / "good.jsonl"
        self.write_bad_version_feed(bad)
        write_trace_feed(good, config=SMALL_CONFIG)
        with pytest.raises(FeedError, match="unsupported feed version 99"):
            sharded([bad], tmp_path / "a1.jsonl", shards=2).run()
        with pytest.raises(FeedError, match="unsupported feed version 99"):
            sharded(
                [bad, good], tmp_path / "a2.jsonl", shards=2,
                index=tmp_path / "idx",
            ).run()
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "stream", "run", str(bad),
                str(good), "--alarms", str(tmp_path / "a3.jsonl"),
                "--shards", "2", "--index", str(tmp_path / "idx3"),
            ],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("stream run failed: ")
        assert "unsupported feed version 99" in lines[0]

    def test_blank_lines_are_skipped(self, tmp_path):
        clean = tmp_path / "clean.jsonl"
        blank = tmp_path / "blank.jsonl"
        write_trace_feed(clean, config=SMALL_CONFIG)
        lines = clean.read_bytes().splitlines(keepends=True)
        padded = [lines[0], b"\n"]
        for line in lines[1:]:
            padded += [line, b"\n"] if b'"op":"T"' in line else [line]
        blank.write_bytes(b"".join(padded))
        runs = {}
        for name, feed in (("clean", clean), ("blank", blank)):
            alarms = tmp_path / f"{name}_alarms.jsonl"
            summary = sharded([feed], alarms, shards=2).run()
            runs[name] = (summary.records, summary.days_ticked, alarms.read_bytes())
        assert runs["blank"] == runs["clean"]
        assert runs["clean"][1] == SMALL_CONFIG.days
        # The scan oracle walks the same rule.
        alarms = tmp_path / "clean_alarms.jsonl"
        assert canonical_json(answers_doc(scan_state([blank], alarms))) == (
            canonical_json(answers_doc(scan_state([clean], alarms)))
        )


class TestShardedResume:
    def _expected(self, tmp_path, shards=2):
        feed = tmp_path / "feed.jsonl"
        write_trace_feed(feed)
        alarms = tmp_path / "alarms_full.jsonl"
        sharded(
            [feed], alarms, tmp_path / "cp_full.json", shards=shards,
            checkpoint_every=300,
        ).run()
        return feed, alarms.read_bytes()

    def test_interrupt_and_resume_is_bit_identical(self, tmp_path):
        feed, expected = self._expected(tmp_path)
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        interrupted = sharded(
            [feed], alarms, cp, shards=2, checkpoint_every=300,
            max_records=1500,
        ).run()
        assert interrupted.stopped is True
        resumed = sharded(
            [feed], alarms, cp, shards=2, checkpoint_every=300
        ).run(resume=True)
        assert resumed.eof is True
        assert alarms.read_bytes() == expected

    def test_double_interruption_still_bit_identical(self, tmp_path):
        feed, expected = self._expected(tmp_path)
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        sharded(
            [feed], alarms, cp, shards=2, checkpoint_every=300,
            max_records=1000,
        ).run()
        sharded(
            [feed], alarms, cp, shards=2, checkpoint_every=300,
            max_records=1000,
        ).run(resume=True)
        sharded(
            [feed], alarms, cp, shards=2, checkpoint_every=300
        ).run(resume=True)
        assert alarms.read_bytes() == expected

    def test_orphan_alarm_lines_rolled_back(self, tmp_path):
        feed, expected = self._expected(tmp_path)
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        sharded(
            [feed], alarms, cp, shards=2, checkpoint_every=300,
            max_records=1500,
        ).run()
        with alarms.open("a") as handle:
            handle.write('{"orphan": "line"}\n')
        sharded(
            [feed], alarms, cp, shards=2, checkpoint_every=300
        ).run(resume=True)
        assert alarms.read_bytes() == expected

    def test_shard_count_mismatch_refused(self, tmp_path):
        feed, _ = self._expected(tmp_path)
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        sharded(
            [feed], alarms, cp, shards=2, max_records=1500
        ).run()
        with pytest.raises(CheckpointError, match="2 shards"):
            sharded([feed], alarms, cp, shards=3).run(resume=True)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_v2_checkpoint_refused(self, tmp_path, capsys, shards):
        """Versions 2 (single-engine documents with a ``byte_offset``, or
        composites) and 3 (full snapshots in a shape of their own) are
        refused by name, through the API and the CLI."""
        feed, _ = self._expected(tmp_path)
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        sharded(
            [feed], alarms, cp, shards=shards, max_records=1500,
            async_io=False,
        ).run()
        current = json.loads(cp.read_text())
        durable = alarms.read_bytes()
        for version, extra in ((2, {"byte_offset": 0}), (3, {})):
            document = dict(current, version=version, **extra)
            cp.write_text(json.dumps(document, sort_keys=True))
            with pytest.raises(
                CheckpointError, match=f"checkpoint version {version}"
            ):
                sharded([feed], alarms, cp, shards=shards).run(resume=True)
            # Refused before anything is rolled back, and the CLI reports
            # it as one failed-run line rather than a traceback.
            assert alarms.read_bytes() == durable
            err = self._cli_resume(capsys, feed, alarms, cp, shards)
            assert f"unsupported checkpoint version {version}" in err

    @staticmethod
    def _cli_resume(capsys, feed, alarms, cp, shards, *extra):
        """Resume through the CLI, which must fail with exit 1 and one
        ``stream run failed`` stderr line; returns that line."""
        capsys.readouterr()
        code = cli_main([
            "stream", "run", str(feed), "--alarms", str(alarms),
            "--checkpoint", str(cp), "--shards", str(shards), "--resume",
            *extra,
        ])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("stream run failed: ")
        return err[0]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_window_mismatch_refused(self, tmp_path, capsys, shards):
        """A resume with another eviction window would run the engines on
        the old one while the manifest reports the new one: refused,
        naming both values."""
        feed, _ = self._expected(tmp_path)
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        sharded(
            [feed], alarms, cp, shards=shards, window=30.0, max_records=1500,
        ).run()
        durable = alarms.read_bytes()
        with pytest.raises(CheckpointError, match=r"window 30\.0.*5\.0"):
            sharded(
                [feed], alarms, cp, shards=shards, window=5.0
            ).run(resume=True)
        assert alarms.read_bytes() == durable
        err = self._cli_resume(capsys, feed, alarms, cp, shards, "--window", "5")
        assert "window 30.0" in err and "5.0" in err

    @pytest.mark.parametrize("shards", [1, 2])
    def test_malformed_snapshot_refused(self, tmp_path, capsys, shards):
        """A full snapshot missing a table is refused at load, naming the
        file, before any shard is restored."""
        feed, _ = self._expected(tmp_path)
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        sharded([feed], alarms, cp, shards=shards, max_records=1500).run()
        document = json.loads(cp.read_text())
        del document["engine"]["shards"][0]["origins"]
        cp.write_text(json.dumps(document, sort_keys=True))
        # The snapshot alone: deltas would no longer chain from it.
        delta_path_for(cp).unlink()
        with pytest.raises(CheckpointError, match="malformed snapshot"):
            sharded([feed], alarms, cp, shards=shards).run(resume=True)
        err = self._cli_resume(capsys, feed, alarms, cp, shards)
        assert str(cp) in err and "origins" in err

    def test_feed_count_mismatch_refused(self, tmp_path):
        feed, _ = self._expected(tmp_path)
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        sharded(
            [feed], alarms, cp, shards=2, max_records=1500
        ).run()
        with pytest.raises(CheckpointError, match="feeds"):
            sharded(
                [feed, feed], alarms, cp, shards=2
            ).run(resume=True)


class TestChainlessRouter:
    def test_alarms_flushed_at_every_boundary(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        write_trace_feed(feed)
        expected = tmp_path / "alarms_full.jsonl"
        sharded(
            [feed], expected, tmp_path / "cp.json", shards=2,
            checkpoint_every=300,
        ).run()
        alarms = tmp_path / "alarms.jsonl"
        # The throttle sleep follows every day barrier: record what the log
        # holds at each one, before EOF.
        seen = []
        summary = sharded(
            [feed], alarms, shards=2, checkpoint_every=300, throttle=1.0,
            sleeper=lambda seconds: seen.append(alarms.read_bytes()),
        ).run()
        final = alarms.read_bytes()
        assert final == expected.read_bytes()
        assert summary.checkpoints == 0
        assert all(final.startswith(snapshot) for snapshot in seen)
        assert any(seen), "alarm lines were held back until EOF"


class TestRouterCli:
    def test_sigterm_then_resume_is_bit_identical(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        write_trace_feed(feed)
        expected = tmp_path / "alarms_full.jsonl"
        sharded(
            [feed], expected, tmp_path / "cp_full.json", shards=2,
            checkpoint_every=300,
        ).run()

        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        env = dict(os.environ, PYTHONPATH="src")
        cmd = [
            sys.executable, "-m", "repro", "stream", "run", str(feed),
            "--alarms", str(alarms), "--checkpoint", str(cp),
            "--shards", "2", "--checkpoint-every", "300",
            "--throttle", "0.1",
        ]
        proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        time.sleep(1.5)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert "resume with --resume" in out
        interrupted = load_checkpoint(cp)
        assert 0 < interrupted.offset
        assert interrupted.engine_state["shard_count"] == 2

        resume_cmd = cmd[:14] + ["--resume"]  # drop throttle, keep paths
        done = subprocess.run(
            resume_cmd, env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert alarms.read_bytes() == expected.read_bytes()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_follow_with_shards_rejected(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        feed.write_text("")
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "stream", "run", str(feed),
                "--alarms", str(tmp_path / "a.jsonl"), "--shards", "2",
                "--follow",
            ],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "not supported" in proc.stderr
