"""Deterministic service checkpoints — full snapshots plus delta chains.

A checkpoint names everything the service needs to resume exactly where it
stopped:

* ``offset`` — how many feed records were applied;
* ``alarm_lines`` / ``alarm_bytes`` — how many alarm-log lines (and bytes)
  were durably flushed, so resume can roll the log back with one
  ``os.truncate`` instead of a non-atomic rewrite;
* ``engine`` — the service's composite state: ``shard_count``,
  ``window``, each vantage feed's byte offset (``feed_offsets``) and one
  :meth:`~repro.stream.engine.StreamEngine.snapshot_state` document per
  shard (``shards``) — at one shard as at many.  It holds only what resume
  reads; ``docs/streaming.md`` names each field's reader.

Durability is a **chain**: the checkpoint path holds the most recent *full*
snapshot, and a sibling ``<path>.deltas`` file accumulates one JSON line
per incremental boundary — each delta carrying only the engine keys dirtied
since the previous boundary (see :mod:`repro.stream.delta`), linked to its
base snapshot by content digest and a contiguous sequence number.  Every
``full_every``-th boundary compacts: a fresh full snapshot is published
atomically and the delta file is reset.

Crash anatomy (every step leaves a resumable state):

* full snapshots are temp + ``fsync`` + ``os.replace`` + parent-directory
  ``fsync`` — a crash mid-write leaves the previous chain intact, and the
  directory fsync closes the ext4/xfs hole where a rename itself could be
  lost after a crash;
* delta appends are flushed and fsynced per line; a crash mid-append
  leaves a **torn tail** (no trailing newline) which the loader drops —
  the chain resumes from the previous boundary;
* compaction resets the delta file *before* replacing the full snapshot,
  so a crash between the two steps rewinds to the old full snapshot —
  valid, just less recent — and never leaves deltas dangling from a
  mismatched base (a dangling base digest is refused as corruption).

Anything else — a torn middle line, a sequence gap, a wrong base digest —
raises :class:`CheckpointError`: resume either replays cleanly or refuses,
never silently diverges.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.fsio import fsync_parent_dir
from repro.stream.delta import CompositeFold

CHECKPOINT_FORMAT = "repro-stream-checkpoint"
#: The one version this loader reads.  v1 had no ``alarm_bytes`` or
#: chains; v2 also allowed a single-engine document with a ``byte_offset``;
#: v3 wrote full snapshots in a shape of their own, with fields nothing
#: read (``epoch``, a per-shard ``window``, ``offset`` and counters).
CHECKPOINT_VERSION = 4

DELTA_FORMAT = "repro-stream-checkpoint-delta"

#: Default compaction cadence: one full snapshot per this many boundaries.
DEFAULT_FULL_EVERY = 32

#: Crash-injection hook: called with a fault-point name at every durability
#: step; raising (or exiting) simulates a crash at exactly that point.
FaultHook = Callable[[str], None]


class CheckpointError(ValueError):
    """Raised for missing, torn, or version-incompatible checkpoints."""


@dataclass(frozen=True)
class Checkpoint:
    """One resumable service state (a full composite document)."""

    offset: int
    alarm_lines: int
    engine_state: Dict[str, Any] = field(default_factory=dict)
    alarm_bytes: int = 0

    def __post_init__(self) -> None:
        if self.offset < 0 or self.alarm_lines < 0 or self.alarm_bytes < 0:
            raise CheckpointError(
                f"checkpoint coordinates must be non-negative, got "
                f"offset={self.offset} alarm_lines={self.alarm_lines} "
                f"alarm_bytes={self.alarm_bytes}"
            )

    def to_json(self) -> str:
        """Canonical serialisation (sorted keys, stable indent-free form)."""
        return json.dumps(
            {
                "format": CHECKPOINT_FORMAT,
                "version": CHECKPOINT_VERSION,
                "offset": self.offset,
                "alarm_lines": self.alarm_lines,
                "alarm_bytes": self.alarm_bytes,
                "engine": self.engine_state,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def digest(self) -> str:
        """Content digest linking deltas to their base snapshot."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()[:16]

    def index_coordinates(self) -> Dict[str, Any]:
        """This checkpoint's position in index-boundary terms.

        The boundary hook the query subsystem (:mod:`repro.query`) shares
        with the stream: how many records are folded in, how many alarm-log
        bytes are durable, and where each vantage feed's cursor stands
        (``feed_offsets``).  An index manifest is valid for a chain exactly
        when its end coordinates are component-wise at or behind these.
        """
        return {
            "records": self.offset,
            "alarm_bytes": self.alarm_bytes,
            "feed_offsets": [
                int(offset) for offset in self.engine_state["feed_offsets"]
            ],
        }

    @classmethod
    def from_json(cls, text: str) -> "Checkpoint":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise CheckpointError("checkpoint must be a JSON object")
        if data.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"not a {CHECKPOINT_FORMAT} document: {data.get('format')!r}"
            )
        version = data.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r} (this build "
                f"reads version {CHECKPOINT_VERSION}; start the run afresh)"
            )
        try:
            return cls(
                offset=int(data["offset"]),
                alarm_lines=int(data["alarm_lines"]),
                engine_state=dict(data["engine"]),
                alarm_bytes=int(data["alarm_bytes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint: {exc}") from exc


@dataclass(frozen=True)
class LoadedChain:
    """A validated chain: the replayed tip plus continuation coordinates."""

    checkpoint: Checkpoint  #: full snapshot with every delta folded in
    full: Checkpoint  #: the on-disk base snapshot, as written
    base_digest: str
    seq: int  #: sequence number of the last valid delta (0 = none)
    delta_valid_bytes: int  #: length of the validated delta-file prefix
    torn_tail_bytes: int  #: bytes dropped past the last durable delta


def delta_path_for(path: Union[str, Path]) -> Path:
    """The delta-chain sibling of a checkpoint path."""
    target = Path(path)
    return target.with_name(target.name + ".deltas")


def reap_stale_tmp(path: Union[str, Path]) -> List[str]:
    """Remove temp files a crashed writer left beside checkpoint ``path``.

    A crash between writing ``<name>*.tmp`` and its ``os.replace`` strands
    the temp file forever (nothing ever reads or collects it); services
    call this once at start so stale temps cannot accumulate.  Returns the
    removed file names.
    """
    target = Path(path)
    reaped: List[str] = []
    if not target.parent.is_dir():
        return reaped
    for stale in sorted(target.parent.glob(target.name + "*.tmp")):
        try:
            stale.unlink()
        except OSError:
            continue
        reaped.append(stale.name)
    return reaped


def _no_fault(point: str) -> None:
    return None


class ChainWriter:
    """Writes one checkpoint chain: full snapshots, delta appends, compaction.

    The writer is synchronous and single-owner (one run per checkpoint
    path); :class:`~repro.stream.service.BoundaryCommitter` decides when a
    boundary is a full snapshot and may call the writer from a background
    pump.  ``fault`` is the crash-injection hook — production passes
    nothing and every ``_fault`` call is a no-op.
    """

    def __init__(
        self, path: Union[str, Path], *, fault: Optional[FaultHook] = None
    ) -> None:
        self.path = Path(path)
        self.delta_path = delta_path_for(path)
        self._fault: FaultHook = fault if fault is not None else _no_fault
        self._base_digest: Optional[str] = None
        self._seq = 0

    # -- lifecycle -----------------------------------------------------------

    def resume(self, chain: LoadedChain) -> None:
        """Continue an existing chain: drop any torn tail, adopt coordinates."""
        if chain.torn_tail_bytes:
            with self.delta_path.open("r+b") as handle:
                handle.truncate(chain.delta_valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        self._base_digest = chain.base_digest
        self._seq = chain.seq

    # -- writing -------------------------------------------------------------

    def write_full(self, checkpoint: Checkpoint) -> None:
        """Publish a full snapshot atomically and reset the delta chain."""
        doc = checkpoint.to_json()
        tmp = self.path.with_name(self.path.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(doc + "\n")
            handle.flush()
            self._fault("full-pre-fsync")
            os.fsync(handle.fileno())
        self._fault("full-pre-reset")
        # Reset deltas BEFORE replacing the snapshot: a crash between the
        # two steps rewinds to the old full snapshot (valid), and deltas
        # can never dangle from a base that no longer exists.
        if self.delta_path.exists():
            delta_tmp = self.delta_path.with_name(self.delta_path.name + ".tmp")
            with delta_tmp.open("wb") as handle:
                handle.flush()
                os.fsync(handle.fileno())
            self._fault("full-pre-reset-replace")
            os.replace(delta_tmp, self.delta_path)
        self._fault("full-pre-replace")
        os.replace(tmp, self.path)
        self._fault("full-pre-dirsync")
        fsync_parent_dir(self.path)
        self._base_digest = checkpoint.digest()
        self._seq = 0

    def append_delta(
        self,
        *,
        offset: int,
        alarm_lines: int,
        alarm_bytes: int,
        delta: Dict[str, Any],
    ) -> None:
        """Append one incremental boundary to the chain (fsynced)."""
        if self._base_digest is None:
            raise CheckpointError(
                "cannot append a delta before any full snapshot"
            )
        record = {
            "format": DELTA_FORMAT,
            "version": CHECKPOINT_VERSION,
            "seq": self._seq + 1,
            "base": self._base_digest,
            "offset": offset,
            "alarm_lines": alarm_lines,
            "alarm_bytes": alarm_bytes,
            "delta": delta,
        }
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        created = not self.delta_path.exists()
        self._fault("delta-pre-append")
        with self.delta_path.open("ab") as handle:
            half = max(1, len(line) // 2)
            handle.write(line[:half].encode("utf-8"))
            handle.flush()
            self._fault("delta-mid-append")
            handle.write(line[half:].encode("utf-8"))
            handle.flush()
            self._fault("delta-pre-fsync")
            os.fsync(handle.fileno())
        if created:
            fsync_parent_dir(self.delta_path)
        self._fault("delta-post-fsync")
        self._seq += 1


# -- loading ----------------------------------------------------------------


def load_chain(path: Union[str, Path]) -> LoadedChain:
    """Load and replay a checkpoint chain; raises :class:`CheckpointError`.

    The torn-tail rule: the delta file's final bytes count as durable only
    up to the last newline-terminated, valid line.  A trailing fragment
    without a newline is a crash mid-append and is dropped (the previous
    boundary is the resume point).  Any *complete* line that is invalid —
    bad JSON, wrong base digest, a sequence gap, a rewinding offset — is
    corruption, and the whole load refuses.
    """
    target = Path(path)
    if not target.exists():
        raise CheckpointError(f"no checkpoint at {target}")
    full = Checkpoint.from_json(target.read_text(encoding="utf-8"))
    base_digest = full.digest()

    try:
        # The snapshot and every delta fold into one unpacked state, which
        # is sorted and materialised once after the last valid line.
        fold = CompositeFold(full.engine_state)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"malformed snapshot in {target}: {exc!r}"
        ) from exc
    delta_file = delta_path_for(target)
    offset = full.offset
    alarm_lines = full.alarm_lines
    alarm_bytes = full.alarm_bytes
    seq = 0
    valid_bytes = 0
    torn_bytes = 0
    if delta_file.exists():
        raw = delta_file.read_bytes()
        consumed = 0
        while consumed < len(raw):
            newline = raw.find(b"\n", consumed)
            if newline < 0:
                torn_bytes = len(raw) - consumed
                break
            line = raw[consumed:newline]
            consumed = newline + 1
            try:
                record = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise CheckpointError(
                    f"corrupt delta line {seq + 1} in {delta_file}: {exc}"
                ) from exc
            if not isinstance(record, dict) or record.get("format") != DELTA_FORMAT:
                raise CheckpointError(
                    f"delta line {seq + 1} in {delta_file} is not a "
                    f"{DELTA_FORMAT} record"
                )
            if record.get("version") != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"unsupported delta version {record.get('version')!r} "
                    f"in {delta_file}"
                )
            if record.get("base") != base_digest:
                raise CheckpointError(
                    f"delta line {seq + 1} in {delta_file} chains from base "
                    f"{record.get('base')!r}, snapshot is {base_digest}"
                )
            if record.get("seq") != seq + 1:
                raise CheckpointError(
                    f"delta chain gap in {delta_file}: expected seq "
                    f"{seq + 1}, found {record.get('seq')!r}"
                )
            try:
                new_offset = int(record["offset"])
                new_alarm_lines = int(record["alarm_lines"])
                new_alarm_bytes = int(record["alarm_bytes"])
                fold.apply(dict(record["delta"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"malformed delta line {seq + 1} in {delta_file}: {exc}"
                ) from exc
            if new_offset < offset:
                raise CheckpointError(
                    f"delta line {seq + 1} in {delta_file} rewinds offset "
                    f"{offset} -> {new_offset}"
                )
            offset = new_offset
            alarm_lines = new_alarm_lines
            alarm_bytes = new_alarm_bytes
            seq += 1
            valid_bytes = consumed
    try:
        state = fold.document()
    except TypeError as exc:  # alarm entries whose keys cannot be ordered
        raise CheckpointError(
            f"malformed delta chain in {delta_file}: {exc}"
        ) from exc
    tip = Checkpoint(
        offset=offset,
        alarm_lines=alarm_lines,
        engine_state=state,
        alarm_bytes=alarm_bytes,
    )
    return LoadedChain(
        checkpoint=tip,
        full=full,
        base_digest=base_digest,
        seq=seq,
        delta_valid_bytes=valid_bytes,
        torn_tail_bytes=torn_bytes,
    )


def save_checkpoint(path: Union[str, Path], checkpoint: Checkpoint) -> None:
    """Atomically write ``checkpoint`` as a fresh full snapshot.

    Resets any existing delta chain beside ``path`` — the one-shot
    (chainless) API used by tests and external callers.
    """
    ChainWriter(path).write_full(checkpoint)


def load_checkpoint(path: Union[str, Path]) -> Checkpoint:
    """Load a checkpoint chain and return its replayed tip."""
    return load_chain(path).checkpoint
