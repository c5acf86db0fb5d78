"""Tests for the resumable stream service.

The load-bearing property here is the ISSUE acceptance criterion: a run
killed mid-stream and resumed from its checkpoint produces an alarm log
bit-identical to the uninterrupted run — both when resuming onto the same
log (truncate-and-continue) and onto a fresh path (concatenation).
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.measurement.trace import FaultSpike, TraceConfig, TraceGenerator
from repro.net.addresses import Prefix
from repro.obs.metrics import MetricsRegistry
from repro.stream.checkpoint import CheckpointError, load_checkpoint
from repro.stream.feed import FeedError, FeedRecord, FeedWriter, snapshot_deltas
from repro.stream.service import StreamService

P1 = Prefix.parse("10.0.0.0/24")

#: A small faulted trace: ~40 days, one 30-prefix fault spike on day 10.
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


class TestServiceBasics:
    def test_full_run_summary(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        written = write_trace_feed(feed)
        service = StreamService(
            feed, tmp_path / "alarms.jsonl", tmp_path / "cp.json"
        )
        summary = service.run()
        assert summary.records == written
        assert summary.offset == written
        assert summary.eof is True
        assert summary.stopped is False
        assert summary.days_ticked == 40
        assert summary.alarms_emitted >= 30  # fault pairs conflict
        log_lines = (tmp_path / "alarms.jsonl").read_text().splitlines()
        assert len(log_lines) == summary.alarm_lines == summary.alarms_emitted
        assert all(json.loads(line)["kind"] for line in log_lines)

    def test_final_checkpoint_always_written(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        written = write_trace_feed(feed)
        cp_path = tmp_path / "cp.json"
        service = StreamService(
            feed, tmp_path / "alarms.jsonl", cp_path, checkpoint_every=10 ** 9
        )
        summary = service.run()
        assert summary.checkpoints == 1
        assert load_checkpoint(cp_path).offset == written

    def test_fresh_run_truncates_stale_log(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        with FeedWriter(feed) as writer:
            writer.write(FeedRecord(op="T", time=0.0))
        alarms = tmp_path / "alarms.jsonl"
        alarms.write_text("stale line\n")
        StreamService(feed, alarms).run()
        assert alarms.read_text() == ""

    def test_invalid_parameters_rejected(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        with pytest.raises(ValueError, match="shards"):
            StreamService(feed, tmp_path / "a.jsonl", shards=0)
        with pytest.raises(ValueError, match="checkpoint_every"):
            StreamService(feed, tmp_path / "a.jsonl", checkpoint_every=0)

    def test_resume_without_checkpoint_path_rejected(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        with FeedWriter(feed) as writer:
            writer.write(FeedRecord(op="T", time=0.0))
        service = StreamService(feed, tmp_path / "a.jsonl")
        with pytest.raises(ValueError, match="no checkpoint path"):
            service.run(resume=True)

    def test_resume_with_missing_checkpoint_raises(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        with FeedWriter(feed) as writer:
            writer.write(FeedRecord(op="T", time=0.0))
        service = StreamService(feed, tmp_path / "a.jsonl", tmp_path / "cp.json")
        with pytest.raises(CheckpointError, match="no checkpoint"):
            service.run(resume=True)


class TestResumeBitIdentity:
    def _uninterrupted_log(self, tmp_path, **kwargs):
        feed = tmp_path / "feed.jsonl"
        write_trace_feed(feed)
        alarms = tmp_path / "alarms_full.jsonl"
        summary = StreamService(
            feed, alarms, tmp_path / "cp_full.json", **kwargs
        ).run()
        return feed, alarms.read_bytes(), summary

    def test_same_path_resume_is_bit_identical(self, tmp_path):
        feed, expected, full = self._uninterrupted_log(tmp_path)
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        interrupted = StreamService(
            feed, alarms, cp, checkpoint_every=100, max_records=full.records // 2
        ).run()
        assert interrupted.records < full.records
        resumed = StreamService(feed, alarms, cp).run(resume=True)
        assert resumed.offset == full.records
        assert alarms.read_bytes() == expected
        assert resumed.days_ticked + interrupted.days_ticked >= full.days_ticked

    def test_fresh_path_resume_concatenates_bit_identical(self, tmp_path):
        feed, expected, full = self._uninterrupted_log(tmp_path)
        part1 = tmp_path / "alarms_part1.jsonl"
        part2 = tmp_path / "alarms_part2.jsonl"
        cp = tmp_path / "cp.json"
        StreamService(
            feed, part1, cp, checkpoint_every=100, max_records=full.records // 3
        ).run()
        StreamService(feed, part2, cp).run(resume=True)
        assert part1.read_bytes() + part2.read_bytes() == expected

    def test_double_interruption_still_bit_identical(self, tmp_path):
        feed, expected, full = self._uninterrupted_log(tmp_path)
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        third = full.records // 3
        StreamService(feed, alarms, cp, max_records=third).run()
        StreamService(feed, alarms, cp, max_records=third).run(resume=True)
        StreamService(feed, alarms, cp).run(resume=True)
        assert alarms.read_bytes() == expected

    def test_resume_drops_lines_past_checkpoint(self, tmp_path):
        # Simulate a crash after an alarm flush but before its checkpoint
        # became durable: the orphan line is rolled back and re-emitted.
        feed, expected, full = self._uninterrupted_log(tmp_path)
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        StreamService(
            feed, alarms, cp, max_records=full.records // 2
        ).run()
        with alarms.open("a") as handle:
            handle.write('{"orphan": "line"}\n')
        StreamService(feed, alarms, cp).run(resume=True)
        assert alarms.read_bytes() == expected

    def test_resume_daily_counts_match_uninterrupted(self, tmp_path):
        feed, _, full = self._uninterrupted_log(tmp_path)
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        StreamService(feed, alarms, cp, max_records=full.records // 2).run()
        service = StreamService(feed, alarms, cp)
        resumed = service.run(resume=True)
        baseline = StreamService(
            feed, tmp_path / "b.jsonl", tmp_path / "b_cp.json"
        )
        baseline.run()
        assert service.engine.daily_counts == baseline.engine.daily_counts
        assert resumed.moas_active == baseline.engine.moas_active


class TestDayCadence:
    """Boundaries fall at day ticks; a stop waits for the next tick, except
    a follow run idle at its feed's end, which commits where it stands."""

    FAULT_DAY = 10.0

    def _uninterrupted_log(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        write_trace_feed(feed)
        alarms = tmp_path / "alarms_full.jsonl"
        StreamService(feed, alarms).run()
        return feed, alarms.read_bytes()

    def test_follow_stop_at_mid_day_eof_resumes_bit_identical(self, tmp_path):
        feed, expected = self._uninterrupted_log(tmp_path)
        data = feed.read_bytes()
        # Cut the live feed at a line start inside the fault day, halfway
        # through the faulty origin's announcements.
        lines = data.splitlines(keepends=True)
        faulty = [
            at for at, line in enumerate(lines)
            if b'"o":8584' in line and b'"t":10.0' in line
        ]
        cut = sum(len(line) for line in lines[: faulty[len(faulty) // 2]])
        live = tmp_path / "live.jsonl"
        live.write_bytes(data[:cut])
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        service = StreamService(
            live, alarms, cp, follow=True, poll_interval=0.01,
            checkpoint_every=100,
        )
        service._sleeper = lambda seconds: service.request_stop()
        summary = service.run()
        assert summary.stopped is True and summary.eof is False
        tip = load_checkpoint(cp)
        assert tip.index_coordinates()["feed_offsets"] == [cut]
        assert tip.engine_state["shards"][0]["days"][-1][0] == self.FAULT_DAY - 1
        assert 0 < tip.alarm_bytes < len(expected)
        with live.open("ab") as handle:
            handle.write(data[cut:])
        StreamService(live, alarms, cp).run(resume=True)
        assert alarms.read_bytes() == expected

    def test_sigterm_mid_day_finishes_the_day(self, tmp_path):
        feed, expected = self._uninterrupted_log(tmp_path)
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        service = StreamService(feed, alarms, cp, checkpoint_every=100)
        engine = service.engine
        real_apply = engine.apply
        sent = []

        def apply(record):
            if record.time == self.FAULT_DAY and not sent:
                sent.append(record)
                os.kill(os.getpid(), signal.SIGTERM)
            return real_apply(record)

        engine.apply = apply
        handlers = {
            signum: signal.getsignal(signum)
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
        service.install_signal_handlers()
        try:
            summary = service.run()
        finally:
            for signum, handler in handlers.items():
                signal.signal(signum, handler)
        assert not sent[0].is_tick  # the stop arrived mid-day
        assert summary.stopped is True
        tip = load_checkpoint(cp)
        tick = b'{"op":"T","t":10.0}\n'
        data = feed.read_bytes()
        assert tip.engine_state["shards"][0]["days"][-1][0] == self.FAULT_DAY
        assert tip.index_coordinates()["feed_offsets"] == [
            data.index(tick) + len(tick)
        ]
        StreamService(feed, alarms, cp).run(resume=True)
        assert alarms.read_bytes() == expected


class TestFollowAndThrottle:
    def test_follow_mode_waits_then_consumes(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        with FeedWriter(feed) as writer:
            writer.write(FeedRecord(op="A", time=0.0, prefix=P1, origin=7))
        service = StreamService(
            feed, tmp_path / "alarms.jsonl", follow=True, poll_interval=0.01
        )
        polls = []

        def fake_sleeper(seconds):
            polls.append(seconds)
            if len(polls) == 1:
                with feed.open("a") as handle:
                    handle.write(FeedRecord(op="T", time=0.0).to_json_line() + "\n")
            else:
                service.request_stop()

        service._sleeper = fake_sleeper
        summary = service.run()
        assert summary.records == 2
        assert summary.days_ticked == 1
        assert summary.stopped is True
        assert summary.eof is False
        assert polls == [0.01, 0.01]

    def test_follow_applies_a_completed_partial_line_once(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        announce = FeedRecord(op="A", time=0.0, prefix=P1, origin=7).to_json_line()
        tick = FeedRecord(op="T", time=0.0).to_json_line()
        with FeedWriter(feed) as writer:
            writer.write(FeedRecord(op="A", time=0.0, prefix=P1, origin=3))
        with feed.open("a") as handle:
            handle.write(announce[:10])  # the writer is caught mid-line
        cp_path = tmp_path / "cp.json"
        service = StreamService(
            feed, tmp_path / "alarms.jsonl", cp_path, follow=True,
            poll_interval=0.01, async_io=False,
        )
        tails = [announce[10:20], announce[20:] + "\n" + tick + "\n"]

        def fake_sleeper(seconds):
            if tails:
                with feed.open("a") as handle:
                    handle.write(tails.pop(0))
            else:
                service.request_stop()

        service._sleeper = fake_sleeper
        summary = service.run()
        assert summary.records == 3
        assert summary.days_ticked == 1
        assert summary.alarms_emitted == 1  # origin 7 against origin 3
        assert summary.stopped is True
        assert load_checkpoint(cp_path).index_coordinates()["feed_offsets"] == [
            feed.stat().st_size
        ]
        StreamService(feed, tmp_path / "baseline.jsonl").run()
        assert (tmp_path / "alarms.jsonl").read_bytes() == (
            tmp_path / "baseline.jsonl"
        ).read_bytes()

    def test_throttle_sleeps_once_per_day(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        with FeedWriter(feed) as writer:
            for day in range(4):
                writer.write(
                    FeedRecord(op="A", time=float(day), prefix=P1, origin=7)
                )
                writer.write(FeedRecord(op="T", time=float(day)))
        naps = []
        service = StreamService(
            feed,
            tmp_path / "alarms.jsonl",
            throttle=0.5,
            sleeper=naps.append,
        )
        summary = service.run()
        assert summary.records == 8
        assert naps == [0.5, 0.5, 0.5, 0.5]  # one per day tick

    def test_injected_clock_times_the_run(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        with FeedWriter(feed) as writer:
            writer.write(FeedRecord(op="T", time=0.0))
        ticks = iter(range(100))
        service = StreamService(
            feed, tmp_path / "alarms.jsonl", clock=lambda: float(next(ticks))
        )
        summary = service.run()
        assert summary.wall_seconds > 0
        assert summary.events_per_sec > 0


class TestLineRule:
    """The service reads by the one line rule every feed reader applies."""

    def run_cli(self, *args):
        env = dict(os.environ, PYTHONPATH="src")
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            env=env, capture_output=True, text=True, timeout=60,
        )

    def test_unmarked_record_line_refused_like_the_scan(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        feed.write_text(
            '{"format":"repro-stream-feed","version":1}\n'
            '{"op": "A", "p": "10.0.0.0/24", "t": 0, "o": 701}\n'
            '{"op":"T","t":0}\n'
        )
        alarms = tmp_path / "alarms.jsonl"
        run = self.run_cli("stream", "run", str(feed), "--alarms", str(alarms))
        alarms.write_text("")
        scan = self.run_cli("query", "scan", str(feed), "--alarms", str(alarms))
        for proc in (run, scan):
            assert proc.returncode == 1, proc.stdout
            assert "Traceback" not in proc.stderr
            lines = proc.stderr.splitlines()
            assert len(lines) == 1, proc.stderr
            assert "unroutable feed line" in lines[0]
            assert f"{feed} at byte 43" in lines[0]

    def test_bad_record_line_error_names_the_feed(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        feed.write_text(
            '{"format":"repro-stream-feed","version":1}\n'
            '{"o":"x","op":"A","p":"10.0.0.0/24","t":0}\n'
        )
        service = StreamService(feed, tmp_path / "alarms.jsonl")
        with pytest.raises(FeedError, match=f"{feed}: origin must be an integer"):
            service.run()

    def test_header_with_the_marker_refused(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        feed.write_text(
            '{"format":"repro-stream-feed","p":"x","version":1}\n'
        )
        service = StreamService(feed, tmp_path / "alarms.jsonl")
        with pytest.raises(FeedError, match="not an announce or withdraw"):
            service.run()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo_feed_refused(self, tmp_path):
        fifo = tmp_path / "feed.fifo"
        os.mkfifo(fifo)
        with pytest.raises(FeedError, match=f"feed {fifo} is not a regular file"):
            StreamService(fifo, tmp_path / "alarms.jsonl").run()
        proc = self.run_cli(
            "stream", "run", str(fifo), "--alarms", str(tmp_path / "a.jsonl")
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"stream run failed: feed {fifo} is not a regular file"
        ]


class TestManifest:
    def test_manifest_record_shape(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        write_trace_feed(feed)
        registry = MetricsRegistry()
        service = StreamService(
            feed, tmp_path / "alarms.jsonl", tmp_path / "cp.json", metrics=registry
        )
        summary = service.run()
        record = service.manifest_record(summary, metrics=registry)
        assert record.spec["kind"] == "stream"
        assert record.outcome["records"] == summary.records
        assert record.metrics["stream.alarms"] == summary.alarms_emitted
        assert record.worker == "stream"
        payload = record.to_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestSigterm:
    def test_sigterm_then_resume_is_bit_identical(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        write_trace_feed(feed)
        expected = tmp_path / "alarms_full.jsonl"
        StreamService(feed, expected, tmp_path / "cp_full.json").run()

        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        env = dict(os.environ, PYTHONPATH="src")
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "stream",
            "run",
            str(feed),
            "--alarms",
            str(alarms),
            "--checkpoint",
            str(cp),
            "--checkpoint-every",
            "200",
            "--throttle",
            "0.05",
        ]
        proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        time.sleep(1.0)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        assert "resume with --resume" in out
        assert cp.exists()
        # The interrupted run must have stopped early, or the test proves
        # nothing about resumption.
        interrupted_offset = load_checkpoint(cp).offset
        full_offset = load_checkpoint(tmp_path / "cp_full.json").offset
        assert 0 < interrupted_offset < full_offset

        resume_cmd = cmd[:10] + ["--resume"]  # drop throttle, keep paths
        done = subprocess.run(
            resume_cmd, env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert alarms.read_bytes() == expected.read_bytes()
