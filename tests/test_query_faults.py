"""Crash-injection tests for the query index.

The matrix kills the writer at every index durability fault point —
before the segment fsync, before its atomic rename, before the directory
sync, and the same three for the manifest — and proves the invariant the
subsystem promises: after any crash the index directory either loads as a
consistent (possibly stale) index or refuses with :class:`QueryError`.
Never a torn manifest, and a resumed run always converges to answers
bit-identical to a brute-force scan.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from repro.measurement.trace import FaultSpike, TraceConfig, TraceGenerator
from repro.query import QueryIndex, answers_doc, canonical_json, scan_state
from repro.query.segments import MANIFEST_NAME, load_manifest
from repro.query.track import QueryError
from repro.stream.checkpoint import load_chain
from repro.stream.feed import FeedWriter, snapshot_deltas
from repro.stream.service import FAULT_EXIT_CODE, StreamService

TRACE_CONFIG = TraceConfig(
    days=40,
    faults=(FaultSpike(day=10, faulty_as=8584, n_prefixes=30),),
    n_background_prefixes=200,
    include_background=True,
)

#: Every index fault point, each hit on the first boundary and again on a
#: later one so both the empty-index and the extend-manifest paths crash.
QUERY_FAULT_MATRIX = [
    (point, nth)
    for point in (
        "segment-pre-fsync",
        "segment-pre-replace",
        "segment-pre-dirsync",
        "manifest-pre-fsync",
        "manifest-pre-replace",
        "manifest-pre-dirsync",
    )
    for nth in (1, 4)
]


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


@pytest.fixture(scope="module")
def trace_feed(tmp_path_factory):
    root = tmp_path_factory.mktemp("queryfaultfeed")
    feed = root / "feed.jsonl"
    write_trace_feed(feed)
    alarms = root / "alarms_full.jsonl"
    StreamService(feed, alarms, root / "cp_full.json", **SERVICE_KWARGS).run()
    expected = canonical_json(answers_doc(scan_state([feed], alarms)))
    return feed, expected


def assert_loads_or_refuses(index_dir):
    """The rebuild-or-refuse invariant: a crashed index directory is
    either a consistent older index or an explicit refusal."""
    try:
        index = QueryIndex(index_dir)
    except QueryError:
        return None
    return index


class TestIndexFaultMatrix:
    @pytest.mark.parametrize("point,nth", QUERY_FAULT_MATRIX)
    def test_crash_then_resume_is_bit_identical(
        self, tmp_path, trace_feed, point, nth
    ):
        feed, expected = trace_feed
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        idx = tmp_path / "idx"
        with pytest.raises(InjectedCrash):
            StreamService(
                feed, alarms, cp, fault=raising_hook(point, nth),
                index=idx, **SERVICE_KWARGS,
            ).run()
        # Between the crash and the resume the directory must already be
        # servable-or-refusing — never torn.
        interrupted = assert_loads_or_refuses(idx)
        if interrupted is not None:
            assert interrupted.records <= 5288
        summary = StreamService(
            feed, alarms, cp, index=idx, **SERVICE_KWARGS
        ).run(resume=True)
        assert summary.eof is True
        assert canonical_json(answers_doc(QueryIndex(idx).state)) == expected
        assert list(idx.glob("*.tmp")) == []
        manifest = load_manifest(idx)
        referenced = {entry["name"] for entry in manifest["segments"]}
        assert {p.name for p in idx.glob("seg-*")} == referenced

    @pytest.mark.parametrize(
        "point,nth", [("segment-pre-replace", 2), ("manifest-pre-replace", 2)]
    )
    def test_double_crash_then_resume(self, tmp_path, trace_feed, point, nth):
        feed, expected = trace_feed
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        idx = tmp_path / "idx"
        with pytest.raises(InjectedCrash):
            StreamService(
                feed, alarms, cp, fault=raising_hook(point, nth),
                index=idx, **SERVICE_KWARGS,
            ).run()
        with pytest.raises(InjectedCrash):
            StreamService(
                feed, alarms, cp, fault=raising_hook(point, nth),
                index=idx, **SERVICE_KWARGS,
            ).run(resume=True)
        StreamService(feed, alarms, cp, index=idx, **SERVICE_KWARGS).run(
            resume=True
        )
        assert canonical_json(answers_doc(QueryIndex(idx).state)) == expected


class TestRefusalPaths:
    def test_torn_manifest_refuses_everywhere(self, tmp_path, trace_feed):
        feed, _ = trace_feed
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        idx = tmp_path / "idx"
        StreamService(
            feed, alarms, cp, max_records=2000, index=idx, **SERVICE_KWARGS
        ).run()
        manifest_path = idx / MANIFEST_NAME
        torn = manifest_path.read_bytes()[:-40]
        manifest_path.write_bytes(torn)
        segments_before = sorted(p.name for p in idx.glob("seg-*"))
        with pytest.raises(QueryError, match="refusing"):
            QueryIndex(idx)
        with pytest.raises(QueryError, match="refusing"):
            StreamService(
                feed, alarms, cp, index=idx, **SERVICE_KWARGS
            ).run(resume=True)
        # The refusal must not have modified the directory.
        assert manifest_path.read_bytes() == torn
        assert sorted(p.name for p in idx.glob("seg-*")) == segments_before

    def test_foreign_manifest_refuses_resume(self, tmp_path, trace_feed):
        feed, _ = trace_feed
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        idx = tmp_path / "idx"
        idx.mkdir()
        (idx / MANIFEST_NAME).write_text('{"format": "something-else"}\n')
        StreamService(
            feed, alarms, cp, max_records=2000, **SERVICE_KWARGS
        ).run()
        with pytest.raises(QueryError, match="not a repro-query-manifest"):
            StreamService(
                feed, alarms, cp, index=idx, **SERVICE_KWARGS
            ).run(resume=True)

    def test_lying_manifest_coordinates_refuse_resume(
        self, tmp_path, trace_feed
    ):
        import json

        feed, _ = trace_feed
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        idx = tmp_path / "idx"
        StreamService(
            feed, alarms, cp, max_records=1000, index=idx, **SERVICE_KWARGS
        ).run()
        StreamService(
            feed, alarms, cp, max_records=1000, **SERVICE_KWARGS
        ).run(resume=True)
        # Claim two fewer records at the same byte position: the catch-up
        # replay count can no longer reconcile with the checkpoint.
        manifest_path = idx / MANIFEST_NAME
        doc = json.loads(manifest_path.read_text())
        doc["end"]["records"] -= 2
        manifest_path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(QueryError, match="does not belong"):
            StreamService(
                feed, alarms, cp, index=idx, **SERVICE_KWARGS
            ).run(resume=True)


class TestSubprocessCrash:
    """``os._exit`` mid-index-write in a real CLI process, then resume."""

    SUBPROCESS_POINTS = [("segment-pre-replace", 2), ("manifest-pre-replace", 2)]

    def run_cli(self, feed, alarms, cp, idx, *extra, env_fault=None):
        env = dict(os.environ, PYTHONPATH="src")
        env.pop("REPRO_STREAM_FAULT", None)
        if env_fault is not None:
            env["REPRO_STREAM_FAULT"] = env_fault
        cmd = [
            sys.executable, "-m", "repro", "stream", "run", str(feed),
            "--alarms", str(alarms), "--checkpoint", str(cp),
            "--checkpoint-every", "120", "--full-every", "4",
            "--index", str(idx), *extra,
        ]
        return subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=120
        )

    @pytest.mark.parametrize("point,nth", SUBPROCESS_POINTS)
    def test_hard_exit_then_resume(self, tmp_path, trace_feed, point, nth):
        feed, expected = trace_feed
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        idx = tmp_path / "idx"
        crashed = self.run_cli(
            feed, alarms, cp, idx, env_fault=f"{point}:{nth}"
        )
        assert crashed.returncode == FAULT_EXIT_CODE, crashed.stderr
        done = self.run_cli(feed, alarms, cp, idx, "--resume")
        assert done.returncode == 0, done.stderr
        assert canonical_json(answers_doc(QueryIndex(idx).state)) == expected
        assert list(idx.glob("*.tmp")) == []


class TestResumeSegmentCheck:
    """Resume checks every manifested segment against its manifest digest,
    also when the manifest is at the chain tip and no segment is folded."""

    def make_driver(self, driver, feed, alarms, cp, idx, **extra):
        if driver == "service":
            return StreamService(
                feed, alarms, cp, index=idx, **SERVICE_KWARGS, **extra
            )
        return StreamService(
            [feed], alarms, cp, shards=2, checkpoint_every=120,
            full_every=4, index=idx, **extra,
        )

    @pytest.mark.parametrize("driver", ["service", "router"])
    @pytest.mark.parametrize("damage", ["flip-byte", "delete"])
    def test_damaged_old_segment_refuses_resume(
        self, tmp_path, trace_feed, driver, damage
    ):
        feed, _ = trace_feed
        alarms = tmp_path / "alarms.jsonl"
        cp = tmp_path / "cp.json"
        idx = tmp_path / "idx"
        self.make_driver(
            driver, feed, alarms, cp, idx, max_records=2000
        ).run()
        manifest = load_manifest(idx)
        # A graceful stop leaves the manifest exactly at the chain tip.
        assert manifest["end"] == (
            load_chain(cp).checkpoint.index_coordinates()
        )
        assert len(manifest["segments"]) > 2
        oldest = idx / manifest["segments"][0]["name"]
        if damage == "delete":
            oldest.unlink()
            match = "missing index segment"
        else:
            # Alter one digit: the file still decodes, only its digest
            # can tell.
            raw = bytearray(oldest.read_bytes())
            at = next(
                i for i in range(len(raw) // 2, len(raw))
                if chr(raw[i]).isdigit()
            )
            raw[at] ^= 0x01
            oldest.write_bytes(bytes(raw))
            match = "digest mismatch"
        with pytest.raises(QueryError, match=match):
            self.make_driver(driver, feed, alarms, cp, idx).run(resume=True)
