"""Immutable index segments and the atomically-replaced manifest.

The on-disk index is a directory:

* ``seg-000001.json``, ``seg-000002.json``, … — **write-once** segment
  files, each covering one span of boundary coordinates.  A segment holds
  the per-prefix event histories and day counters accumulated over its
  span, prefixes sorted, canonical JSON.  Segments are never modified or
  deleted by normal operation — readers can hold one open while ingest
  publishes the next.
* ``manifest.json`` — the **commit point**: the ordered segment list
  (name, seq, content digest) plus the index's end coordinates and a
  monotonically increasing ``generation``.  The manifest is replaced
  atomically (temp + fsync + ``os.replace`` + parent-directory fsync via
  :mod:`repro.fsio`), and it is written *after* its newest segment, so a
  crash anywhere leaves either the old manifest (the new segment is an
  unreferenced orphan, reaped at the next start) or the new one — never a
  torn or dangling state.  A manifest that fails to parse is refused with
  :class:`~repro.query.track.QueryError`; the builder never rewrites one
  in place.

Segment document::

    {"format": "repro-query-segment", "version": 1, "seq": 3,
     "start": {"records": …, "alarm_bytes": …, "feed_offsets": […]},
     "end":   {…},
     "alarm_days": [[day, count], …], "moas_days": [[day, count], …],
     "prefixes": [[prefix, {"alarms": [row, …], "origins": [[t, [o…]], …]}], …]}

``start``/``end`` are boundary coordinates: ``records``, ``alarm_bytes``
and ``feed_offsets`` (one byte offset per vantage feed).  Every query
answer is invariant to where segment boundaries fall (property-tested),
so the service and the offline builder may cut segments on different
cadences and still serve identical answers.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Union

from repro.fsio import fsync_parent_dir
from repro.query.model import canonical_json
from repro.query.track import AlarmRow, IndexEvent, QueryError
from repro.stream.checkpoint import FaultHook

SEGMENT_FORMAT = "repro-query-segment"
MANIFEST_FORMAT = "repro-query-manifest"
QUERY_VERSION = 1

MANIFEST_NAME = "manifest.json"
_SEGMENT_GLOB = "seg-*.json"


def _no_fault(point: str) -> None:
    return None


def segment_name(seq: int) -> str:
    return f"seg-{seq:06d}.json"


def segment_digest(doc: Dict[str, Any]) -> str:
    """Content digest of a segment's canonical serialisation."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()[:16]


def assemble_segment(
    seq: int,
    start: Dict[str, Any],
    end: Dict[str, Any],
    events: Sequence[IndexEvent],
    alarm_rows: Sequence[AlarmRow],
) -> Optional[Dict[str, Any]]:
    """Build one canonical segment document from builder buffers.

    Returns ``None`` when there is nothing to record (an empty boundary) —
    the manifest still advances its end coordinates, but no file is cut.
    """
    if not events and not alarm_rows:
        return None
    per_prefix: Dict[str, Dict[str, List[Any]]] = {}
    alarm_days: Dict[int, int] = {}
    moas_days: Dict[int, int] = {}

    def bucket(prefix: str) -> Dict[str, List[Any]]:
        entry = per_prefix.get(prefix)
        if entry is None:
            entry = {"alarms": [], "origins": []}
            per_prefix[prefix] = entry
        return entry

    for event in events:
        if event[0] == "o":
            bucket(event[2])["origins"].append([event[1], event[3]])
        else:  # "d"
            day = int(event[1])
            moas_days[day] = moas_days.get(day, 0) + int(event[2])
    for prefix, row in alarm_rows:
        bucket(prefix)["alarms"].append(row)
        day = int(row[0])
        alarm_days[day] = alarm_days.get(day, 0) + 1
    return {
        "format": SEGMENT_FORMAT,
        "version": QUERY_VERSION,
        "seq": seq,
        "start": dict(sorted(start.items())),
        "end": dict(sorted(end.items())),
        "alarm_days": [[day, alarm_days[day]] for day in sorted(alarm_days)],
        "moas_days": [[day, moas_days[day]] for day in sorted(moas_days)],
        "prefixes": [
            [prefix, per_prefix[prefix]] for prefix in sorted(per_prefix)
        ],
    }


def manifest_entry(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The manifest's summary row for one segment document."""
    events = sum(
        len(history["alarms"]) + len(history["origins"])
        for _, history in doc["prefixes"]
    )
    return {
        "name": segment_name(int(doc["seq"])),
        "seq": int(doc["seq"]),
        "digest": segment_digest(doc),
        "records": int(doc["end"]["records"]),
        "prefixes": len(doc["prefixes"]),
        "events": events,
    }


def manifest_doc(
    generation: int,
    mode: str,
    end: Dict[str, Any],
    entries: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    return {
        "format": MANIFEST_FORMAT,
        "version": QUERY_VERSION,
        "generation": generation,
        "mode": mode,
        "end": dict(sorted(end.items())),
        "segments": list(entries),
    }


def manifest_etag(doc: Dict[str, Any]) -> str:
    """Strong ETag for HTTP caching: content digest of the manifest."""
    digest = hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()[:16]
    return f'"{doc["generation"]}-{digest}"'


# -- durable writes -----------------------------------------------------------


def _atomic_write(
    path: Path, text: str, fault: Optional[FaultHook], point: str
) -> None:
    """temp + fsync + ``os.replace`` + parent-dir fsync, with fault points
    ``<point>-pre-fsync`` / ``-pre-replace`` / ``-pre-dirsync``."""
    hook: FaultHook = fault if fault is not None else _no_fault
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        hook(f"{point}-pre-fsync")
        os.fsync(handle.fileno())
    hook(f"{point}-pre-replace")
    os.replace(tmp, path)
    hook(f"{point}-pre-dirsync")
    fsync_parent_dir(path)


def write_segment(
    directory: Path, doc: Dict[str, Any], fault: Optional[FaultHook] = None
) -> None:
    """Publish one segment file durably (write-once; see module docs)."""
    _atomic_write(
        directory / segment_name(int(doc["seq"])),
        canonical_json(doc) + "\n",
        fault,
        "segment",
    )


def write_manifest(
    directory: Path, doc: Dict[str, Any], fault: Optional[FaultHook] = None
) -> None:
    """Atomically replace the manifest — the index's commit point."""
    _atomic_write(
        directory / MANIFEST_NAME, canonical_json(doc) + "\n", fault, "manifest"
    )


# -- loading ------------------------------------------------------------------


def load_segment(
    path: Union[str, Path], expect_digest: Optional[str] = None
) -> Dict[str, Any]:
    """Load and validate one segment file (optionally digest-checked)."""
    target = Path(path)
    raw = read_segment(target, expect_digest)
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise QueryError(f"corrupt index segment {target}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != SEGMENT_FORMAT:
        raise QueryError(f"{target} is not a {SEGMENT_FORMAT} document")
    if doc.get("version") != QUERY_VERSION:
        raise QueryError(
            f"unsupported segment version {doc.get('version')!r} in {target}"
        )
    return doc


def read_segment(
    path: Union[str, Path], expect_digest: Optional[str] = None
) -> bytes:
    """Read one segment file's bytes, checked against its manifest digest.

    :func:`write_segment` writes exactly ``canonical_json(doc) + "\\n"``,
    so the hash of the file's bytes is :func:`segment_digest` of the
    document it holds, and the check needs no decoding; any other bytes
    (a re-encoding, a missing newline, an edit, a truncation) fail it.
    """
    target = Path(path)
    try:
        raw = target.read_bytes()
    except FileNotFoundError as exc:
        raise QueryError(f"missing index segment {target}") from exc
    if expect_digest is not None:
        found = hashlib.sha256(raw[:-1]).hexdigest()[:16]
        if not raw.endswith(b"\n") or found != expect_digest:
            raise QueryError(
                f"segment {target} digest mismatch: manifest expects "
                f"{expect_digest}, file hashes to {found}"
            )
    return raw


def load_manifest(directory: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """Load the manifest, ``None`` when the index has never been built.

    A manifest that exists but does not parse or validate is **refused**
    (it cannot result from the atomic writer — something external tore
    it), never silently rebuilt over.
    """
    target = Path(directory) / MANIFEST_NAME
    if not target.exists():
        return None
    try:
        doc = json.loads(target.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise QueryError(
            f"torn or corrupt index manifest {target}: {exc}; refusing — "
            f"delete the index directory to rebuild"
        ) from exc
    if not isinstance(doc, dict) or doc.get("format") != MANIFEST_FORMAT:
        raise QueryError(f"{target} is not a {MANIFEST_FORMAT} document")
    if doc.get("version") != QUERY_VERSION:
        raise QueryError(
            f"unsupported manifest version {doc.get('version')!r} in {target}"
        )
    for key in ("generation", "mode", "end", "segments"):
        if key not in doc:
            raise QueryError(f"manifest {target} is missing {key!r}")
    return doc


def reap_unreferenced(
    directory: Union[str, Path], manifest: Optional[Dict[str, Any]]
) -> List[str]:
    """Remove ``*.tmp`` strays and segment files the manifest doesn't own.

    A crash between a segment write and its manifest publish leaves an
    orphan segment nothing references; the next builder start sweeps it
    (the same hygiene :func:`repro.stream.checkpoint.reap_stale_tmp`
    applies to checkpoint chains).  Returns removed file names.
    """
    base = Path(directory)
    if not base.is_dir():
        return []
    referenced: Set[str] = set()
    if manifest is not None:
        referenced = {str(entry["name"]) for entry in manifest["segments"]}
    reaped: List[str] = []
    for stale in sorted(base.glob("*.tmp")):
        try:
            stale.unlink()
        except OSError:
            continue
        reaped.append(stale.name)
    for candidate in sorted(base.glob(_SEGMENT_GLOB)):
        if candidate.name in referenced:
            continue
        try:
            candidate.unlink()
        except OSError:
            continue
        reaped.append(candidate.name)
    return reaped
