"""Tests for versioned checkpoint files and atomic persistence."""

from __future__ import annotations

import json

import pytest

from repro.stream.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.stream.engine import StreamEngine


#: A one-shard composite document around an empty engine.
EMPTY_STATE = {
    "shard_count": 1,
    "window": 30.0,
    "feed_offsets": [0],
    "shards": [StreamEngine().snapshot_state()],
}


def make(offset=10, alarm_lines=2, alarm_bytes=1234, engine_state=None):
    return Checkpoint(
        offset=offset,
        alarm_lines=alarm_lines,
        engine_state=engine_state if engine_state is not None else EMPTY_STATE,
        alarm_bytes=alarm_bytes,
    )


class TestCheckpointValue:
    def test_negative_fields_rejected(self):
        for field in ("offset", "alarm_lines", "alarm_bytes"):
            with pytest.raises(CheckpointError, match=field):
                make(**{field: -1})

    def test_json_round_trip(self):
        cp = make()
        assert Checkpoint.from_json(cp.to_json()) == cp

    def test_json_is_versioned_and_canonical(self):
        payload = json.loads(make().to_json())
        assert payload["format"] == CHECKPOINT_FORMAT
        assert payload["version"] == CHECKPOINT_VERSION
        assert make().to_json() == make().to_json()

    def test_wrong_format_rejected(self):
        payload = json.loads(make().to_json())
        payload["format"] = "other"
        with pytest.raises(CheckpointError, match="not a " + CHECKPOINT_FORMAT):
            Checkpoint.from_json(json.dumps(payload))

    def test_wrong_version_rejected(self):
        payload = json.loads(make().to_json())
        payload["version"] = 99
        with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
            Checkpoint.from_json(json.dumps(payload))

    def test_truncated_json_rejected(self):
        with pytest.raises(CheckpointError, match="not valid JSON"):
            Checkpoint.from_json(make().to_json()[:-5])

    def test_missing_field_rejected(self):
        payload = json.loads(make().to_json())
        del payload["alarm_bytes"]
        with pytest.raises(CheckpointError, match="alarm_bytes"):
            Checkpoint.from_json(json.dumps(payload))


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "cp.json"
        cp = make()
        save_checkpoint(path, cp)
        assert load_checkpoint(path) == cp

    def test_save_overwrites_atomically(self, tmp_path):
        path = tmp_path / "cp.json"
        save_checkpoint(path, make(offset=1))
        save_checkpoint(path, make(offset=2))
        assert load_checkpoint(path).offset == 2
        # No stray temp file left behind.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cp.json"]

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path / "absent.json")

    def test_load_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text("garbage")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
