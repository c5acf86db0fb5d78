"""Unit tests for index segments, the manifest, and directory hygiene."""

from __future__ import annotations

import json

import pytest

from repro.query.model import canonical_json
from repro.query.segments import (
    MANIFEST_NAME,
    assemble_segment,
    load_manifest,
    load_segment,
    manifest_doc,
    manifest_entry,
    manifest_etag,
    read_segment,
    reap_unreferenced,
    segment_digest,
    segment_name,
    write_manifest,
    write_segment,
)
from repro.query.track import QueryError

START = {"records": 0, "alarm_bytes": 0, "feed_bytes": 0}
END = {"records": 10, "alarm_bytes": 120, "feed_bytes": 900}

EVENTS = [
    ["o", 1.0, "10.0.1.0/24", [7]],
    ["o", 2.0, "10.0.0.0/24", [3, 7]],
    ["d", 2, 1],
    ["d", 2, 2],  # a second shard's same-day contribution
]
ROWS = [
    ("10.0.0.0/24", [2.5, "inconsistent-lists", [3, 7], [9], None]),
    ("10.0.0.0/24", [3.5, "origin-not-in-own-list", [3], None, 5]),
]


class TestAssembleSegment:
    def test_empty_boundary_returns_none(self):
        assert assemble_segment(1, START, END, [], []) is None

    def test_document_shape_and_ordering(self):
        doc = assemble_segment(3, START, END, EVENTS, ROWS)
        assert doc["seq"] == 3
        assert doc["start"] == START and doc["end"] == END
        # prefixes sorted; same-day d-events summed
        assert [prefix for prefix, _ in doc["prefixes"]] == [
            "10.0.0.0/24", "10.0.1.0/24",
        ]
        assert doc["moas_days"] == [[2, 3]]
        assert doc["alarm_days"] == [[2, 1], [3, 1]]
        by_prefix = dict(doc["prefixes"])
        assert by_prefix["10.0.0.0/24"]["origins"] == [[2.0, [3, 7]]]
        assert len(by_prefix["10.0.0.0/24"]["alarms"]) == 2

    def test_canonical_json_round_trips(self):
        doc = assemble_segment(1, START, END, EVENTS, ROWS)
        assert json.loads(canonical_json(doc)) == doc


class TestManifest:
    def test_entry_counts_events_and_digests(self):
        doc = assemble_segment(2, START, END, EVENTS, ROWS)
        entry = manifest_entry(doc)
        assert entry["name"] == segment_name(2) == "seg-000002.json"
        assert entry["records"] == 10
        assert entry["events"] == 4  # 2 transitions + 2 alarm rows
        assert entry["digest"] == segment_digest(doc)

    def test_etag_changes_with_generation(self):
        doc1 = manifest_doc(1, "single", END, [])
        doc2 = manifest_doc(2, "single", END, [])
        assert manifest_etag(doc1) != manifest_etag(doc2)
        assert manifest_etag(doc1).startswith('"1-')


class TestDurableWrites:
    def test_write_and_load_round_trip(self, tmp_path):
        doc = assemble_segment(1, START, END, EVENTS, ROWS)
        write_segment(tmp_path, doc)
        loaded = load_segment(tmp_path / segment_name(1), segment_digest(doc))
        assert loaded == doc
        manifest = manifest_doc(1, "single", END, [manifest_entry(doc)])
        write_manifest(tmp_path, manifest)
        assert load_manifest(tmp_path) == manifest
        assert list(tmp_path.glob("*.tmp")) == []

    def test_missing_manifest_is_none(self, tmp_path):
        assert load_manifest(tmp_path) is None

    def test_torn_manifest_refuses(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text('{"format": "repro-query-man')
        with pytest.raises(QueryError, match="refusing"):
            load_manifest(tmp_path)

    def test_foreign_manifest_refuses(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text('{"format": "something-else"}\n')
        with pytest.raises(QueryError, match="not a repro-query-manifest"):
            load_manifest(tmp_path)

    def test_manifest_missing_keys_refuses(self, tmp_path):
        write_manifest(tmp_path, manifest_doc(1, "single", END, []))
        doc = json.loads((tmp_path / MANIFEST_NAME).read_text())
        del doc["end"]
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(doc) + "\n")
        with pytest.raises(QueryError, match="missing 'end'"):
            load_manifest(tmp_path)

    def test_segment_digest_mismatch_refuses(self, tmp_path):
        doc = assemble_segment(1, START, END, EVENTS, ROWS)
        write_segment(tmp_path, doc)
        with pytest.raises(QueryError, match="digest mismatch"):
            load_segment(tmp_path / segment_name(1), "0" * 16)

    def test_re_encoded_segment_refuses(self, tmp_path):
        """The digest covers the bytes the writer wrote: a segment whose JSON
        was re-encoded after the fact is refused even though it decodes to
        the same document, and the at-tip resume check agrees."""
        doc = assemble_segment(1, START, END, EVENTS, ROWS)
        write_segment(tmp_path, doc)
        target = tmp_path / segment_name(1)
        target.write_text(json.dumps(doc, indent=2) + "\n")
        with pytest.raises(QueryError, match="digest mismatch"):
            load_segment(target, segment_digest(doc))
        with pytest.raises(QueryError, match="digest mismatch"):
            read_segment(target, segment_digest(doc))
        assert load_segment(target) == doc

    def test_corrupt_segment_refuses(self, tmp_path):
        target = tmp_path / segment_name(1)
        target.write_text("not json")
        with pytest.raises(QueryError, match="corrupt index segment"):
            load_segment(target)

    def test_fault_hook_fires_at_every_point(self, tmp_path):
        seen = []
        doc = assemble_segment(1, START, END, EVENTS, ROWS)
        write_segment(tmp_path, doc, fault=seen.append)
        write_manifest(
            tmp_path, manifest_doc(1, "single", END, []), fault=seen.append
        )
        assert seen == [
            "segment-pre-fsync", "segment-pre-replace", "segment-pre-dirsync",
            "manifest-pre-fsync", "manifest-pre-replace", "manifest-pre-dirsync",
        ]


class TestReap:
    def test_removes_tmp_and_orphan_segments(self, tmp_path):
        doc = assemble_segment(1, START, END, EVENTS, ROWS)
        write_segment(tmp_path, doc)
        orphan = assemble_segment(2, END, dict(END, records=20), EVENTS, [])
        write_segment(tmp_path, orphan)
        (tmp_path / "seg-000009.json.tmp").write_text("partial")
        manifest = manifest_doc(1, "single", END, [manifest_entry(doc)])
        reaped = reap_unreferenced(tmp_path, manifest)
        assert sorted(reaped) == ["seg-000002.json", "seg-000009.json.tmp"]
        assert (tmp_path / segment_name(1)).exists()

    def test_no_manifest_reaps_everything(self, tmp_path):
        doc = assemble_segment(1, START, END, EVENTS, ROWS)
        write_segment(tmp_path, doc)
        assert reap_unreferenced(tmp_path, None) == [segment_name(1)]

    def test_missing_directory_is_noop(self, tmp_path):
        assert reap_unreferenced(tmp_path / "nope", None) == []
