"""Crash-injection tests for the checkpoint chain and alarm log.

The matrix kills the writer at every durability fault point — before an
fsync, after an fsync but before the atomic rename, mid-delta-append,
between the alarm flush and its chain record, and during the resume-time
log truncation — and proves that the service, with its one shard
in-process and with two worker shards, either replays cleanly to a
bit-identical alarm log or refuses with :class:`CheckpointError`.  Never
a silent divergence.

In-process cases drive the synchronous writer (``async_io=False``) with a
raising hook; subprocess cases use ``REPRO_STREAM_FAULT`` to hard-exit the
real CLI process (``os._exit``, no flushing, no handlers) and then resume.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from repro.measurement.trace import FaultSpike, TraceConfig, TraceGenerator
from repro.stream.checkpoint import CheckpointError, delta_path_for
from repro.stream.feed import FeedWriter, snapshot_deltas
from repro.stream.service import FAULT_EXIT_CODE, StreamService

TRACE_CONFIG = TraceConfig(
    days=40,
    faults=(FaultSpike(day=10, faulty_as=8584, n_prefixes=30),),
    n_background_prefixes=200,
    include_background=True,
)

#: (fault point, which occurrence to crash on).  Chain points need the
#: second full so compaction paths (delta-file reset) are live; delta and
#: alarm points fire once a base snapshot exists.
RUN_FAULT_MATRIX = [
    ("full-pre-fsync", 2),
    ("full-pre-reset", 2),
    ("full-pre-reset-replace", 2),
    ("full-pre-replace", 2),
    ("full-pre-dirsync", 2),
    ("delta-pre-append", 1),
    ("delta-mid-append", 1),
    ("delta-pre-fsync", 1),
    ("delta-post-fsync", 1),
    ("alarm-pre-append", 1),
    ("alarm-pre-fsync", 1),
    ("alarm-post-fsync", 1),
]

RESUME_FAULT_MATRIX = [("truncate-pre", 1), ("truncate-post", 1)]


class InjectedCrash(BaseException):
    """Deliberately not an Exception: nothing may swallow a crash."""


def raising_hook(point, nth=1):
    remaining = [nth]

    def hook(name):
        if name != point:
            return
        remaining[0] -= 1
        if remaining[0] <= 0:
            raise InjectedCrash(point)

    return hook


def write_trace_feed(path, seed=7):
    generator = TraceGenerator(TRACE_CONFIG, random.Random(seed))
    with FeedWriter(path) as writer:
        return writer.write_all(snapshot_deltas(generator.snapshots()))


SERVICE_KWARGS = dict(checkpoint_every=120, full_every=4, async_io=False)
ROUTER_KWARGS = dict(checkpoint_every=120, full_every=4, shards=2)
DRIVERS = ["service", "router"]


def over_drivers(matrix):
    """Every (point, nth) case for each driver; service cases keep the
    plain ``point-nth`` id, router cases are prefixed ``router-``."""
    return [
        pytest.param(
            driver, point, nth,
            id=f"{point}-{nth}" if driver == "service"
            else f"{driver}-{point}-{nth}",
        )
        for driver in DRIVERS
        for point, nth in matrix
    ]


def make_driver(driver, feed, alarms, cp, **extra):
    """The service on one in-process shard, or on two worker shards."""
    kwargs = ROUTER_KWARGS if driver == "router" else SERVICE_KWARGS
    return StreamService(feed, alarms, cp, **kwargs, **extra)


@pytest.fixture(scope="module")
def trace_feed(tmp_path_factory):
    root = tmp_path_factory.mktemp("faultfeed")
    feed = root / "feed.jsonl"
    write_trace_feed(feed)
    expected = root / "alarms_full.jsonl"
    StreamService(feed, expected, root / "cp_full.json", **SERVICE_KWARGS).run()
    return feed, expected.read_bytes()


@pytest.fixture(scope="module")
def expected_logs(trace_feed):
    """Each driver's uninterrupted log (two shards order lines by day and
    shard, so the two differ in order only)."""
    feed, service_log = trace_feed
    routed = feed.with_name("alarms_router_full.jsonl")
    make_driver("router", feed, routed, feed.with_name("cpr_full.json")).run()
    return {"service": service_log, "router": routed.read_bytes()}


class TestRunFaultMatrix:
    @pytest.mark.parametrize("driver,point,nth", over_drivers(RUN_FAULT_MATRIX))
    def test_crash_then_resume_is_bit_identical(
        self, tmp_path, trace_feed, expected_logs, driver, point, nth
    ):
        feed, _ = trace_feed
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        crashed = make_driver(
            driver, feed, alarms, cp, fault=raising_hook(point, nth)
        )
        with pytest.raises(InjectedCrash):
            crashed.run()
        # The crash left a loadable chain (possibly older than the crash
        # point, never diverged); resume finishes the stream exactly.
        summary = make_driver(driver, feed, alarms, cp).run(resume=True)
        assert summary.eof is True
        assert alarms.read_bytes() == expected_logs[driver]
        # The resumed run swept any temp file the crash stranded.
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("driver,point,nth", over_drivers(RUN_FAULT_MATRIX))
    def test_double_crash_then_resume(
        self, tmp_path, trace_feed, expected_logs, driver, point, nth
    ):
        feed, _ = trace_feed
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        with pytest.raises(InjectedCrash):
            make_driver(
                driver, feed, alarms, cp, fault=raising_hook(point, nth)
            ).run()
        with pytest.raises(InjectedCrash):
            make_driver(
                driver, feed, alarms, cp, fault=raising_hook(point, nth)
            ).run(resume=True)
        summary = make_driver(driver, feed, alarms, cp).run(resume=True)
        assert summary.eof is True
        assert alarms.read_bytes() == expected_logs[driver]


class TestResumeFaultMatrix:
    @pytest.mark.parametrize(
        "driver,point,nth", over_drivers(RESUME_FAULT_MATRIX)
    )
    def test_crash_during_resume_truncation(
        self, tmp_path, trace_feed, expected_logs, driver, point, nth
    ):
        feed, _ = trace_feed
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        make_driver(driver, feed, alarms, cp, max_records=2000).run()
        # Orphan bytes past the checkpoint: flushed but never accounted.
        with alarms.open("a") as handle:
            handle.write('{"orphan": "line"}\n')
        with pytest.raises(InjectedCrash):
            make_driver(
                driver, feed, alarms, cp, fault=raising_hook(point, nth)
            ).run(resume=True)
        # The truncation is one atomic syscall: dying right before or right
        # after it leaves a log a second resume still rolls back exactly.
        summary = make_driver(driver, feed, alarms, cp).run(resume=True)
        assert summary.eof is True
        assert alarms.read_bytes() == expected_logs[driver]


class TestRefusalPaths:
    def test_corrupt_delta_line_refuses_resume(self, tmp_path, trace_feed):
        feed, _ = trace_feed
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        # Boundaries fall at the first day tick after every 120 records;
        # with a full every fourth, the stop leaves a non-empty delta chain
        # to corrupt.
        StreamService(feed, alarms, cp, max_records=2200, **SERVICE_KWARGS).run()
        deltas = delta_path_for(cp)
        raw = deltas.read_bytes().splitlines(keepends=True)
        assert raw, "interrupted run should have left a delta chain"
        corrupt = raw[0][: len(raw[0]) // 2] + b'garbage"}\n'
        deltas.write_bytes(corrupt + b"".join(raw[1:]))
        with pytest.raises(CheckpointError):
            StreamService(feed, alarms, cp, **SERVICE_KWARGS).run(resume=True)

    def test_shrunken_alarm_log_refuses_resume(self, tmp_path, trace_feed):
        feed, _ = trace_feed
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        StreamService(feed, alarms, cp, max_records=3000, **SERVICE_KWARGS).run()
        durable = alarms.read_bytes()
        assert durable, "trace fault spike should have produced alarms"
        alarms.write_bytes(durable[: len(durable) // 2])
        with pytest.raises(CheckpointError, match="bytes"):
            StreamService(feed, alarms, cp, **SERVICE_KWARGS).run(resume=True)

    def test_misaligned_alarm_log_refuses_truncate(self, tmp_path, trace_feed):
        feed, _ = trace_feed
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        StreamService(feed, alarms, cp, max_records=3000, **SERVICE_KWARGS).run()
        durable = alarms.read_bytes()
        assert durable.endswith(b"\n")
        # Strip the recorded boundary's newline: byte accounting no longer
        # lands on a line end, which must refuse rather than corrupt.
        alarms.write_bytes(durable[:-1] + b"X" + durable[-1:])
        with pytest.raises(CheckpointError, match="refusing to truncate"):
            StreamService(feed, alarms, cp, **SERVICE_KWARGS).run(resume=True)


class TestSubprocessCrash:
    """The real thing: ``os._exit`` mid-write in a separate process."""

    SUBPROCESS_POINTS = [
        ("full-pre-fsync", 2),
        ("full-pre-replace", 2),
        ("delta-mid-append", 1),
        ("alarm-post-fsync", 1),
    ]

    def run_cli(self, feed, alarms, cp, *extra, env_fault=None, timeout=120):
        env = dict(os.environ, PYTHONPATH="src")
        env.pop("REPRO_STREAM_FAULT", None)
        if env_fault is not None:
            env["REPRO_STREAM_FAULT"] = env_fault
        cmd = [
            sys.executable, "-m", "repro", "stream", "run", str(feed),
            "--alarms", str(alarms), "--checkpoint", str(cp),
            "--checkpoint-every", "120", "--full-every", "4", *extra,
        ]
        return subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=timeout
        )

    @pytest.mark.parametrize("point,nth", SUBPROCESS_POINTS)
    def test_hard_exit_then_resume(self, tmp_path, trace_feed, point, nth):
        feed, expected = trace_feed
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        crashed = self.run_cli(
            feed, alarms, cp, env_fault=f"{point}:{nth}"
        )
        assert crashed.returncode == FAULT_EXIT_CODE, crashed.stderr
        done = self.run_cli(feed, alarms, cp, "--resume")
        assert done.returncode == 0, done.stderr
        assert alarms.read_bytes() == expected
        assert list(tmp_path.glob("*.tmp")) == []

    def test_router_hard_exit_then_resume(
        self, tmp_path, trace_feed, expected_logs
    ):
        feed, _ = trace_feed
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        crashed = self.run_cli(
            feed, alarms, cp, "--shards", "2", env_fault="delta-mid-append:1"
        )
        assert crashed.returncode == FAULT_EXIT_CODE, crashed.stderr
        done = self.run_cli(feed, alarms, cp, "--shards", "2", "--resume")
        assert done.returncode == 0, done.stderr
        assert alarms.read_bytes() == expected_logs["router"]

    def test_hard_exit_during_resume_truncation(self, tmp_path, trace_feed):
        feed, expected = trace_feed
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        first = self.run_cli(feed, alarms, cp, "--max-records", "2000")
        assert first.returncode == 0, first.stderr
        with alarms.open("a") as handle:
            handle.write('{"orphan": "line"}\n')
        crashed = self.run_cli(
            feed, alarms, cp, "--resume", env_fault="truncate-pre"
        )
        assert crashed.returncode == FAULT_EXIT_CODE, crashed.stderr
        done = self.run_cli(feed, alarms, cp, "--resume")
        assert done.returncode == 0, done.stderr
        assert alarms.read_bytes() == expected

    def test_stale_tmp_reaped_on_start(self, tmp_path, trace_feed):
        feed, expected = trace_feed
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        (tmp_path / "cp.json.tmp").write_text("stranded by a crash")
        (tmp_path / "cp.json.deltas.tmp").write_text("stranded by a crash")
        done = self.run_cli(feed, alarms, cp)
        assert done.returncode == 0, done.stderr
        assert alarms.read_bytes() == expected
        assert list(tmp_path.glob("*.tmp")) == []
