"""Integration: live-built indexes vs the brute-force scan oracle.

The load-bearing acceptance property: every query answer served from an
index — built live by the service, by the sharded router, offline, or
across a kill-and-resume — is **bit-identical** to a brute-force scan of
the raw feed + alarm log.  ``answers_doc`` bundles every answer (stats,
daily series, top-K under each key, every prefix report) into one
canonical JSON document, so a single string comparison covers the whole
query surface.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.measurement.trace import FaultSpike, TraceConfig, TraceGenerator
from repro.obs.metrics import MetricsRegistry
from repro.query import QueryIndex, answers_doc, build_index, canonical_json, scan_state
from repro.query.builder import IndexBuilder
from repro.query.segments import load_manifest
from repro.stream.checkpoint import load_chain, load_checkpoint
from repro.stream.feed import FeedWriter, snapshot_deltas
from repro.stream.router import FeedRouter
from repro.stream.service import StreamService

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


def scan_answers(feeds, alarms):
    return canonical_json(answers_doc(scan_state(feeds, alarms)))


def index_answers(index_dir):
    return canonical_json(answers_doc(QueryIndex(index_dir).state))


@pytest.fixture(scope="module")
def trace_feed(tmp_path_factory):
    root = tmp_path_factory.mktemp("queryfeed")
    feed = root / "feed.jsonl"
    write_trace_feed(feed)
    return feed


class TestServiceIndex:
    def test_live_index_matches_scan(self, tmp_path, trace_feed):
        alarms = tmp_path / "alarms.log"
        service = StreamService(
            trace_feed, alarms, tmp_path / "cp.json",
            checkpoint_every=300, index=tmp_path / "idx",
        )
        summary = service.run()
        assert summary.alarms_emitted > 0
        assert index_answers(tmp_path / "idx") == scan_answers(
            [trace_feed], alarms
        )

    def test_index_without_chain_matches_scan(self, tmp_path, trace_feed):
        alarms = tmp_path / "alarms.log"
        StreamService(
            trace_feed, alarms, None, checkpoint_every=300,
            index=tmp_path / "idx",
        ).run()
        assert index_answers(tmp_path / "idx") == scan_answers(
            [trace_feed], alarms
        )

    def test_interrupt_resume_catches_up(self, tmp_path, trace_feed):
        alarms = tmp_path / "alarms.log"
        cp = tmp_path / "cp.json"
        StreamService(
            trace_feed, alarms, cp, checkpoint_every=300,
            max_records=1500, index=tmp_path / "idx",
        ).run()
        partial = QueryIndex(tmp_path / "idx")
        assert partial.records == load_checkpoint(cp).offset
        StreamService(
            trace_feed, alarms, cp, checkpoint_every=300,
            index=tmp_path / "idx",
        ).run(resume=True)
        assert index_answers(tmp_path / "idx") == scan_answers(
            [trace_feed], alarms
        )

    def test_resume_without_prior_index_builds_from_scratch(
        self, tmp_path, trace_feed
    ):
        alarms = tmp_path / "alarms.log"
        cp = tmp_path / "cp.json"
        # First run never indexed; the resumed run starts indexing cold.
        StreamService(
            trace_feed, alarms, cp, checkpoint_every=300, max_records=1500,
        ).run()
        StreamService(
            trace_feed, alarms, cp, checkpoint_every=300,
            index=tmp_path / "idx",
        ).run(resume=True)
        assert index_answers(tmp_path / "idx") == scan_answers(
            [trace_feed], alarms
        )

    def test_fresh_run_wipes_stale_index(self, tmp_path, trace_feed):
        alarms = tmp_path / "alarms.log"
        idx = tmp_path / "idx"
        StreamService(
            trace_feed, alarms, None, checkpoint_every=300, index=idx
        ).run()
        stale_segments = sorted(p.name for p in idx.glob("seg-*.json"))
        assert stale_segments
        # A fresh short run must not serve leftovers from the longer one.
        StreamService(
            trace_feed, alarms, None, checkpoint_every=300,
            max_records=700, index=idx,
        ).run()
        index = QueryIndex(idx)
        assert index.records == 700
        manifest = load_manifest(idx)
        assert manifest is not None
        referenced = {entry["name"] for entry in manifest["segments"]}
        on_disk = {p.name for p in idx.glob("seg-*")}
        assert on_disk == referenced
        assert referenced < set(stale_segments)

    def test_stale_index_ahead_of_chain_is_rebuilt(self, tmp_path, trace_feed):
        alarms = tmp_path / "alarms.log"
        cp = tmp_path / "cp.json"
        idx = tmp_path / "idx"
        # Index the full feed once (manifest far ahead of the short chain
        # below), then resume a *shorter* run against the same directory.
        StreamService(
            trace_feed, alarms, tmp_path / "cp_long.json",
            checkpoint_every=300, index=idx,
        ).run()
        StreamService(
            trace_feed, alarms, cp, checkpoint_every=300, max_records=900,
        ).run()
        StreamService(
            trace_feed, alarms, cp, checkpoint_every=300, index=idx,
        ).run(resume=True)
        assert index_answers(idx) == scan_answers([trace_feed], alarms)


class TestRouterIndex:
    def test_router_index_matches_scan(self, tmp_path, trace_feed):
        alarms = tmp_path / "alarms.log"
        FeedRouter(
            [trace_feed], alarms, tmp_path / "cp.json",
            shards=2, checkpoint_every=400, index=tmp_path / "idx",
        ).run()
        assert index_answers(tmp_path / "idx") == scan_answers(
            [trace_feed], alarms
        )

    def test_router_interrupt_resume_catches_up(self, tmp_path, trace_feed):
        alarms = tmp_path / "alarms.log"
        cp = tmp_path / "cp.json"
        FeedRouter(
            [trace_feed], alarms, cp, shards=2, checkpoint_every=400,
            max_records=1500, index=tmp_path / "idx",
        ).run()
        FeedRouter(
            [trace_feed], alarms, cp, shards=2, checkpoint_every=400,
            index=tmp_path / "idx",
        ).run(resume=True)
        assert index_answers(tmp_path / "idx") == scan_answers(
            [trace_feed], alarms
        )

    def test_chainless_router_index_commits_per_boundary(
        self, tmp_path, trace_feed
    ):
        alarms = tmp_path / "alarms.log"
        FeedRouter(
            [trace_feed], alarms, shards=2, checkpoint_every=400,
            index=tmp_path / "idx",
        ).run()
        assert len(load_manifest(tmp_path / "idx")["segments"]) > 1
        assert index_answers(tmp_path / "idx") == scan_answers(
            [trace_feed], alarms
        )

    def test_multi_feed_router_index_matches_scan(self, tmp_path):
        feed_a = tmp_path / "feed_a.jsonl"
        feed_b = tmp_path / "feed_b.jsonl"
        write_trace_feed(feed_a, seed=7)
        write_trace_feed(feed_b, seed=8)
        alarms = tmp_path / "alarms.log"
        FeedRouter(
            [feed_a, feed_b], alarms, tmp_path / "cp.json",
            shards=2, checkpoint_every=500, index=tmp_path / "idx",
        ).run()
        assert index_answers(tmp_path / "idx") == scan_answers(
            [feed_a, feed_b], alarms
        )


class TestOfflineBuild:
    def test_offline_build_matches_live_index(self, tmp_path, trace_feed):
        alarms = tmp_path / "alarms.log"
        StreamService(
            trace_feed, alarms, None, checkpoint_every=300,
            index=tmp_path / "live",
        ).run()
        info = build_index(
            [trace_feed], alarms, tmp_path / "offline", segment_days=7
        )
        assert info["segments"] > 1
        assert index_answers(tmp_path / "offline") == index_answers(
            tmp_path / "live"
        )

    def test_two_feed_build_matches_router_and_scan(self, tmp_path):
        feed_a = tmp_path / "feed_a.jsonl"
        feed_b = tmp_path / "feed_b.jsonl"
        write_trace_feed(feed_a, seed=7)
        write_trace_feed(feed_b, seed=8)
        alarms = tmp_path / "alarms.log"
        FeedRouter(
            [feed_a, feed_b], alarms, tmp_path / "cp.json",
            shards=2, checkpoint_every=500, index=tmp_path / "live",
        ).run()
        info = build_index(
            [feed_a, feed_b], alarms, tmp_path / "offline", segment_days=7
        )
        assert info["mode"] == "router"
        assert info["segments"] > 1
        offline = index_answers(tmp_path / "offline")
        assert offline == index_answers(tmp_path / "live")
        assert offline == scan_answers([feed_a, feed_b], alarms)

    def test_segmentation_cadence_is_invisible_in_answers(
        self, tmp_path, trace_feed
    ):
        alarms = tmp_path / "alarms.log"
        StreamService(trace_feed, alarms, None).run()
        build_index([trace_feed], alarms, tmp_path / "fine", segment_days=1)
        build_index([trace_feed], alarms, tmp_path / "coarse", segment_days=1000)
        fine = QueryIndex(tmp_path / "fine")
        coarse = QueryIndex(tmp_path / "coarse")
        assert len(fine.state.prefixes) == len(coarse.state.prefixes)
        assert index_answers(tmp_path / "fine") == index_answers(
            tmp_path / "coarse"
        )

    def test_metrics_instruments_are_registered(self, tmp_path, trace_feed):
        alarms = tmp_path / "alarms.log"
        StreamService(trace_feed, alarms, None).run()
        metrics = MetricsRegistry()
        build_index(
            [trace_feed], alarms, tmp_path / "idx",
            segment_days=7, metrics=metrics,
        )
        snapshot = metrics.snapshot()
        assert snapshot["query.segments"] > 0
        assert snapshot["query.manifest_writes"] > 0
        assert snapshot["query.events"] > 0
        reader_metrics = MetricsRegistry()
        QueryIndex(tmp_path / "idx", metrics=reader_metrics)
        assert reader_metrics.snapshot()["query.segments_loaded"] > 0


class TestSummaryParity:
    """Satellite: the service reports what the query layer serves."""

    def test_service_summary_exposes_engine_aggregates(
        self, tmp_path, trace_feed
    ):
        alarms = tmp_path / "alarms.log"
        service = StreamService(trace_feed, alarms, None)
        summary = service.run()
        assert summary.alarm_totals == service.engine.alarm_totals()
        assert summary.daily_series == service.engine.daily_series()
        assert sum(summary.alarm_totals.values()) >= summary.alarms_emitted
        doc = summary.to_dict()
        assert doc["alarm_totals"] == summary.alarm_totals
        assert doc["daily_series"] == summary.daily_series
        assert doc["moas_active"] == summary.moas_active

    def test_router_summary_matches_single_engine(self, tmp_path, trace_feed):
        alarms = tmp_path / "alarms.log"
        single = StreamService(trace_feed, alarms, None).run()
        routed = FeedRouter(
            [trace_feed], tmp_path / "alarms2.log", None, shards=2
        ).run()
        assert routed.alarm_totals == single.alarm_totals
        assert routed.daily_series == single.daily_series
        assert routed.moas_active == single.moas_active

    def test_daily_series_matches_query_daily_answer(
        self, tmp_path, trace_feed
    ):
        alarms = tmp_path / "alarms.log"
        service = StreamService(
            trace_feed, alarms, None, index=tmp_path / "idx"
        )
        summary = service.run()
        index = QueryIndex(tmp_path / "idx")
        assert [count for _, count in index.daily("moas")] == (
            summary.daily_series
        )


class TestTipSeededResume:
    """Resume seeds the builder's origin tracker from the chain tip when
    the manifest is at it; only a manifest behind the tip folds segments."""

    def make_driver(self, driver, feed, alarms, cp, idx, **extra):
        if driver == "service":
            return StreamService(
                feed, alarms, cp, checkpoint_every=300, index=idx, **extra
            )
        return FeedRouter(
            [feed], alarms, cp, shards=2, checkpoint_every=300, index=idx,
            **extra,
        )

    @pytest.mark.parametrize("driver", ["service", "router"])
    @pytest.mark.parametrize("stop", [700, 2600, 4100])
    def test_seeded_tracker_equals_segment_fold(
        self, tmp_path, trace_feed, driver, stop
    ):
        alarms = tmp_path / "alarms.log"
        cp = tmp_path / "cp.json"
        idx = tmp_path / "idx"
        self.make_driver(
            driver, trace_feed, alarms, cp, idx, max_records=stop
        ).run()
        tip = load_chain(cp).checkpoint
        end = tip.index_coordinates()
        assert load_manifest(idx)["end"] == end
        builder = IndexBuilder(idx)
        builder.resume(
            feeds=[trace_feed], alarms=alarms, end=end, tip=tip.engine_state
        )
        seeded = builder._tracker
        builder._restore_tracker()  # the segment fold, at the same end
        folded = builder._tracker
        assert seeded.live_state() == folded.live_state()
        assert seeded.moas_active == folded.moas_active
        assert seeded.live_state()  # a non-trivial live table

    @pytest.mark.parametrize("driver", ["service", "router"])
    def test_resume_at_tip_reads_no_segment(
        self, tmp_path, trace_feed, monkeypatch, driver
    ):
        import repro.query.builder as builder_module

        alarms = tmp_path / "alarms.log"
        cp = tmp_path / "cp.json"
        idx = tmp_path / "idx"
        self.make_driver(
            driver, trace_feed, alarms, cp, idx, max_records=2600
        ).run()
        assert len(load_manifest(idx)["segments"]) > 2
        loads = []
        real = builder_module.load_segment

        def counting(*args, **kwargs):
            loads.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(builder_module, "load_segment", counting)
        self.make_driver(driver, trace_feed, alarms, cp, idx).run(resume=True)
        assert loads == []
        assert index_answers(idx) == scan_answers([trace_feed], alarms)

    def test_resume_behind_tip_folds_segments(
        self, tmp_path, trace_feed, monkeypatch
    ):
        """The counter above can see loads: a manifest one boundary behind
        the chain takes the segment fold."""
        import repro.query.builder as builder_module

        alarms = tmp_path / "alarms.log"
        cp = tmp_path / "cp.json"
        idx = tmp_path / "idx"
        self.make_driver(
            "service", trace_feed, alarms, cp, idx, max_records=2600
        ).run()
        # A run without the index moves the chain on and leaves the
        # manifest where it was.
        self.make_driver(
            "service", trace_feed, alarms, cp, None, max_records=600
        ).run(resume=True)
        loads = []
        real = builder_module.load_segment

        def counting(*args, **kwargs):
            loads.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(builder_module, "load_segment", counting)
        self.make_driver("service", trace_feed, alarms, cp, idx).run(
            resume=True
        )
        assert len(loads) > 2
        assert index_answers(idx) == scan_answers([trace_feed], alarms)


@pytest.mark.slow
class TestFullTraceAcceptance:
    """The ISSUE acceptance run: the full 1279-day default trace,
    including a SIGTERM kill mid-stream and a resume."""

    @pytest.fixture(scope="class")
    def full_feed(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fulltrace")
        feed = root / "feed.jsonl"
        write_trace_feed(feed, config=TraceConfig())
        return feed

    def test_full_trace_index_is_bit_identical(self, tmp_path, full_feed):
        alarms = tmp_path / "alarms.log"
        StreamService(
            full_feed, alarms, tmp_path / "cp.json",
            checkpoint_every=5000, index=tmp_path / "idx",
        ).run()
        assert index_answers(tmp_path / "idx") == scan_answers(
            [full_feed], alarms
        )

    def test_sigterm_kill_and_resume_is_bit_identical(
        self, tmp_path, full_feed
    ):
        alarms = tmp_path / "alarms.log"
        cp = tmp_path / "cp.json"
        idx = tmp_path / "idx"
        env = dict(os.environ, PYTHONPATH="src")
        cmd = [
            sys.executable, "-m", "repro", "stream", "run", str(full_feed),
            "--alarms", str(alarms), "--checkpoint", str(cp),
            "--checkpoint-every", "2000", "--index", str(idx),
            "--batch", "64", "--throttle", "0.01",
        ]
        proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        time.sleep(2.0)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert "resume with --resume" in out
        interrupted = load_checkpoint(cp).offset
        done = subprocess.run(
            [
                sys.executable, "-m", "repro", "stream", "run", str(full_feed),
                "--alarms", str(alarms), "--checkpoint", str(cp),
                "--checkpoint-every", "2000", "--index", str(idx), "--resume",
            ],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stderr
        final = load_checkpoint(cp).offset
        assert interrupted < final, "SIGTERM must have landed mid-stream"
        assert index_answers(idx) == scan_answers([full_feed], alarms)
