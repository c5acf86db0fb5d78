"""The stream pipeline's one ingest driver and its durability domain.

:class:`StreamService` walks 1..N vantage feeds with a
:class:`~repro.stream.feed.FeedFleet` (each feed up to its day tick, one
tick per day fleet-wide), applies every record on 1..S :class:`Shard`
engines, and hands each checkpoint boundary to a
:class:`BoundaryCommitter`, which persists the run's artefacts:

* the **alarm log** — one canonical JSON line per first-seen alarm;
* the **checkpoint chain** — a full composite snapshot (one engine state
  per shard plus the feed offsets) and delta-encoded incremental
  boundaries (see :mod:`repro.stream.checkpoint`);
* optionally the **query index** (see :mod:`repro.query.builder`).

At one shard the shard runs in this process: no fork, no pipe, no
routing.  At S > 1 the shards are forked workers and every record line is
routed by prefix (see :mod:`repro.stream.router`).

**One cadence.**  A boundary falls at the first day tick after
``checkpoint_every`` records, never inside a day: a cut inside one feed's
share of a day would leave the feeds disagreeing on the day at resume.  A
graceful stop (SIGTERM, ``max_records``) takes effect at the next tick;
the one exception is a ``follow`` run idle at the end of its feed, which
commits where it stands.  The closing commit is written only if records
were applied since the last boundary, or if this run wrote none yet.

The committer is the only code that writes any artefact.  The three are
coupled transactionally: pending alarm lines reach the log *only* at
boundaries, and the chain record written immediately after states how
many lines — and bytes — are durable; the index manifest comes last.  A
run killed at an arbitrary point therefore leaves an alarm log whose
durable prefix is named by the last durable chain record, and a resume —
which replays the chain, rolls the log back with a single truncate to the
recorded byte offset, and seeks every feed to its recorded byte offset —
continues producing exactly the remaining lines.  Concatenating the two
runs' logs reproduces the uninterrupted log byte for byte;
``tests/test_stream_service.py``, the fault-injection suite in
``tests/test_stream_faults.py`` and the ``stream-smoke`` CI job hold that
property.

Serialisation is **double-buffered off the ingest path**: at a boundary the
service captures the (cheap, delta-encoded) payload synchronously, then
the committer hands the alarm flush + chain append to a background writer
thread; ingest only blocks when two boundaries are already in flight.
Ordering is preserved by the queue, so the durability invariants are
exactly those of the synchronous path — ``async_io=False`` forces inline
writes for tests.

Wall time never steers detection: the loop takes an injectable ``clock``
(throughput/latency measurement only — quarantined like every other timing
field) and an injectable ``sleeper`` (follow-mode polling and throttling),
so tests drive the service with fakes and the repro-lint R006 rule keeps
``time.sleep`` out of everything except the one default-sleeper call site
below.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import FrameType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.fsio import fsync_parent_dir
from repro.obs.manifest import ManifestRecord
from repro.obs.metrics import Counter, MetricsRegistry
from repro.stream.checkpoint import (
    DEFAULT_FULL_EVERY,
    ChainWriter,
    Checkpoint,
    CheckpointError,
    FaultHook,
    _no_fault,
    load_chain,
    reap_stale_tmp,
)
from repro.stream.engine import StreamEngine
from repro.stream.feed import (
    OP_TICK,
    FeedError,
    FeedFleet,
    FeedRecord,
    parse_feed_line,
)

if TYPE_CHECKING:  # runtime imports are lazy: stream never *needs* query
    from repro.query.builder import IndexBuilder, IndexJob
    from repro.stream.router import ShardPool

#: Environment hook for crash-injection in subprocess tests: a fault-point
#: name, optionally ``:n`` to crash on the n-th hit (default first).
FAULT_ENV_VAR = "REPRO_STREAM_FAULT"
#: Exit status used by the injected-crash hook (distinct from real errors).
FAULT_EXIT_CODE = 73


def _real_sleep(seconds: float) -> None:
    """Default sleeper (follow-mode polling / throttling); tests inject fakes."""
    time.sleep(seconds)  # repro-lint: disable=R006


def _real_clock() -> float:
    """Default wall clock; measurement only, never an input to detection."""
    return time.perf_counter()  # repro-lint: disable=R002


def fault_hook_from_env() -> Optional[FaultHook]:
    """Build a crash hook from ``REPRO_STREAM_FAULT`` (``point[:n]``).

    The hook hard-exits the process (``os._exit``) at the chosen fault
    point, simulating a crash with no flushing, no handlers, no goodbye —
    which is the honest model for kill-testing durability code.
    """
    spec = os.environ.get(FAULT_ENV_VAR)
    if not spec:
        return None
    point, _, nth_text = spec.partition(":")
    remaining = [int(nth_text) if nth_text else 1]

    def hook(name: str) -> None:
        if name != point:
            return
        remaining[0] -= 1
        if remaining[0] <= 0:
            os._exit(FAULT_EXIT_CODE)

    return hook


@dataclass
class StreamSummary:
    """One service run's outcome (the manifest ``outcome`` payload)."""

    records: int
    offset: int
    alarms_emitted: int
    alarm_duplicates: int
    alarm_lines: int
    checkpoints: int
    moas_active: int
    state_prefixes: int
    days_ticked: int
    stopped: bool
    eof: bool
    wall_seconds: float
    events_per_sec: float
    checkpoint_seconds: float
    checkpoint_fulls: int = 0
    checkpoint_deltas: int = 0
    shards: int = 1
    alarm_totals: Dict[str, int] = field(default_factory=dict)
    daily_series: List[int] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict; timing lives under quarantined TIMING_KEYS names."""
        return {
            "records": self.records,
            "offset": self.offset,
            "alarms_emitted": self.alarms_emitted,
            "alarm_duplicates": self.alarm_duplicates,
            "alarm_lines": self.alarm_lines,
            "alarm_totals": dict(sorted(self.alarm_totals.items())),
            "checkpoints": self.checkpoints,
            "checkpoint_fulls": self.checkpoint_fulls,
            "checkpoint_deltas": self.checkpoint_deltas,
            "moas_active": self.moas_active,
            "state_prefixes": self.state_prefixes,
            "days_ticked": self.days_ticked,
            "daily_series": list(self.daily_series),
            "stopped": self.stopped,
            "eof": self.eof,
            "shards": self.shards,
            "events_per_sec": self.events_per_sec,
            "checkpoint_seconds": self.checkpoint_seconds,
        }


#: One boundary's durable work, in commit order: alarm lines to append,
#: then at most one chain record — a full Checkpoint or a delta record's
#: fields — then (optionally) one prepared index segment+manifest publish,
#: strictly last so the index commit point can never get ahead of the chain.
_WriterTask = Tuple[
    List[str],
    Optional[Checkpoint],
    Optional[Dict[str, Any]],
    Optional["IndexJob"],
]


class _WriterPump:
    """Background double-buffered executor for boundary writes.

    Tasks run strictly in submission order on one thread; ``submit`` blocks
    only when ``depth`` boundaries are already in flight (the double
    buffer).  The first failure is latched and re-raised to the submitter —
    durability errors must never be silently swallowed off-thread.
    """

    _STOP = object()

    def __init__(
        self, execute: Callable[[_WriterTask], None], depth: int = 2
    ) -> None:
        self._execute = execute
        self._tasks: "queue.Queue[Any]" = queue.Queue(maxsize=max(1, depth))
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._loop, name="stream-writer", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while True:
            task = self._tasks.get()
            if task is self._STOP:
                return
            if self._error is not None:
                continue  # drain without executing after a failure
            try:
                self._execute(task)
            except BaseException as exc:  # latched, re-raised on the caller
                self._error = exc

    def _check(self) -> None:
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def submit(self, task: _WriterTask) -> None:
        self._check()
        self._tasks.put(task)

    def close(self) -> None:
        """Drain, stop the thread, and surface any latched failure."""
        self._tasks.put(self._STOP)
        self._thread.join()
        self._check()


def capture_state(
    engine: StreamEngine, kind: Optional[str]
) -> Optional[Dict[str, Any]]:
    """An engine's payload for a boundary of ``kind`` (as named by
    :meth:`BoundaryCommitter.next_kind`): a full snapshot, a delta since
    the previous boundary, or nothing without a chain."""
    if kind is None:
        return None
    state = engine.snapshot_state() if kind == "full" else engine.delta_state()
    engine.mark_clean()
    return state


class BoundaryCommitter:
    """The stream pipeline's one durability domain.

    Owns a run's alarm log, checkpoint chain and optional query index.
    The service calls :meth:`open` once, then :meth:`commit` once per
    boundary with the alarm lines since the previous one and the composite
    payload of the kind :meth:`next_kind` named, then :meth:`close`.  Every
    boundary is written in the one order resume relies on — alarm lines
    appended and fsynced, then the chain record that accounts for them,
    then the index manifest — inline, or on a background
    :class:`_WriterPump` with ``async_io``.
    """

    def __init__(
        self,
        alarms: Union[str, Path],
        checkpoint: Optional[Union[str, Path]],
        *,
        feeds: Sequence[Path],
        full_every: int,
        clock: Callable[[], float],
        metrics: Optional[MetricsRegistry] = None,
        fault: Optional[FaultHook] = None,
        index: Optional[Union[str, Path]] = None,
        async_io: bool = False,
    ) -> None:
        if full_every < 1:
            raise ValueError(f"full_every must be >= 1, got {full_every}")
        self.alarms_path = Path(alarms)
        self.checkpoint_path = None if checkpoint is None else Path(checkpoint)
        self.full_every = full_every
        self._feeds = list(feeds)
        self._clock = clock
        self._async_io = async_io
        self._fault: FaultHook = fault or fault_hook_from_env() or _no_fault
        self._chain: Optional[ChainWriter] = None
        if self.checkpoint_path is not None:
            self._chain = ChainWriter(self.checkpoint_path, fault=self._fault)
        self.builder: Optional["IndexBuilder"] = None
        if index is not None:
            from repro.query.builder import IndexBuilder as _IndexBuilder

            self.builder = _IndexBuilder(index, metrics=metrics, fault=self._fault)
        self._pump: Optional[_WriterPump] = None
        self._since_full = 0
        self._chain_started = False
        self.alarm_lines = 0
        self.alarm_bytes = 0
        self.checkpoints = 0
        self.fulls = 0
        self.deltas = 0
        self.seconds = 0.0
        self._m_checkpoints: Optional[Counter] = None
        self._m_fulls: Optional[Counter] = None
        self._m_deltas: Optional[Counter] = None
        if metrics is not None:
            self._m_checkpoints = metrics.counter("stream.checkpoints")
            self._m_fulls = metrics.counter("stream.checkpoint_fulls")
            self._m_deltas = metrics.counter("stream.checkpoint_deltas")

    # -- start -----------------------------------------------------------------

    def open(self, restore: Optional[Callable[[Checkpoint], None]] = None) -> None:
        """Start fresh (``restore`` is None) or resume from the chain tip.

        On resume, ``restore`` receives the chain tip; it rebuilds the
        shards' engine state and seeks the feeds (raising
        :class:`CheckpointError` to refuse) before the alarm log, the chain
        and the index are rolled to the same boundary.
        """
        if self.checkpoint_path is not None:
            # A crash mid-write strands `<name>*.tmp` files that nothing
            # would ever collect; sweep them before touching the chain.
            reap_stale_tmp(self.checkpoint_path)
        if restore is not None:
            self._resume(restore)
        else:
            # Fresh run: start the alarm log empty so reruns never append
            # to a stale log.
            self.alarm_lines = 0
            self._reset_log()
            if self.builder is not None:
                self.builder.start_fresh(feed_count=len(self._feeds))
        if self._async_io:
            self._pump = _WriterPump(self._execute)

    def _reset_log(self) -> None:
        """Empty (or create) the alarm log; the directory fsync makes a new
        log file itself survive a crash."""
        self.alarms_path.write_text("", encoding="utf-8")
        fsync_parent_dir(self.alarms_path)
        self.alarm_bytes = 0

    def _resume(self, restore: Callable[[Checkpoint], None]) -> None:
        if self.checkpoint_path is None or self._chain is None:
            raise ValueError("resume requested but no checkpoint path configured")
        chain = load_chain(self.checkpoint_path)
        checkpoint = chain.checkpoint
        restore(checkpoint)
        self.alarm_lines = checkpoint.alarm_lines
        if self.alarms_path.exists():
            self._truncate_log(checkpoint.alarm_bytes)
        else:
            # Resuming onto a fresh log path: it receives only the lines the
            # uninterrupted run would emit after the checkpoint.
            self._reset_log()
        self._chain.resume(chain)
        self._since_full = chain.seq
        self._chain_started = True
        if self.builder is not None:
            # The index catches up to what is durable in *this* log file.
            end = checkpoint.index_coordinates()
            end["alarm_bytes"] = self.alarm_bytes
            self.builder.resume(
                feeds=self._feeds,
                alarms=self.alarms_path,
                end=end,
                tip=checkpoint.engine_state,
            )

    def _truncate_log(self, keep: int) -> None:
        """Roll the log back to the chain's durable prefix of ``keep`` bytes.

        Bytes past it were flushed for a boundary whose chain record never
        became durable, and will be re-emitted.  The rollback is one
        truncate — a single syscall, safe to die during and idempotent to
        repeat.
        """
        size = self.alarms_path.stat().st_size
        if size < keep:
            raise CheckpointError(
                f"alarm log {self.alarms_path} has {size} bytes but the "
                f"checkpoint recorded {keep} durable"
            )
        with self.alarms_path.open("r+b") as handle:
            if keep > 0:
                handle.seek(keep - 1)
                if handle.read(1) != b"\n":
                    raise CheckpointError(
                        f"alarm log {self.alarms_path} does not end a line at "
                        f"byte {keep}; refusing to truncate"
                    )
            self._fault("truncate-pre")
            if size > keep:
                handle.truncate(keep)
                handle.flush()
                os.fsync(handle.fileno())
            self._fault("truncate-post")
        self.alarm_bytes = keep

    # -- boundaries ------------------------------------------------------------

    def next_kind(self) -> Optional[str]:
        """The chain record the next boundary writes: ``"full"`` (the first,
        then every ``full_every``-th — compaction), ``"delta"``, or None
        without a chain."""
        if self._chain is None:
            return None
        if not self._chain_started or self._since_full + 1 >= self.full_every:
            return "full"
        return "delta"

    def commit(
        self,
        lines: List[str],
        kind: Optional[str],
        state: Optional[Dict[str, Any]],
        *,
        records: int,
        offsets: List[int],
    ) -> None:
        """Make one boundary durable.

        ``lines`` are the alarm lines since the previous boundary, ``state``
        the composite payload of ``kind``, ``records`` the feed records
        applied so far and ``offsets`` each vantage feed's byte offset.
        """
        began = self._clock()
        self.alarm_lines += len(lines)
        self.alarm_bytes += sum(len(line.encode("utf-8")) + 1 for line in lines)
        full: Optional[Checkpoint] = None
        delta: Optional[Dict[str, Any]] = None
        if kind == "full":
            assert state is not None
            full = Checkpoint(
                offset=records,
                alarm_lines=self.alarm_lines,
                engine_state=state,
                alarm_bytes=self.alarm_bytes,
            )
            self._since_full = 0
            self._chain_started = True
            self.fulls += 1
            if self._m_fulls is not None:
                self._m_fulls.inc()
        elif kind == "delta":
            assert state is not None
            delta = {
                "offset": records,
                "alarm_lines": self.alarm_lines,
                "alarm_bytes": self.alarm_bytes,
                "delta": state,
            }
            self._since_full += 1
            self.deltas += 1
            if self._m_deltas is not None:
                self._m_deltas.inc()
        if kind is not None:
            self.checkpoints += 1
            if self._m_checkpoints is not None:
                self._m_checkpoints.inc()
        job: Optional["IndexJob"] = None
        if self.builder is not None:
            job = self.builder.prepare_boundary(
                {
                    "records": records,
                    "alarm_bytes": self.alarm_bytes,
                    "feed_offsets": offsets,
                },
                lines,
            )
        task: _WriterTask = (lines, full, delta, job)
        if self._pump is not None:
            self._pump.submit(task)
        else:
            self._execute(task)
        self.seconds += self._clock() - began

    def _execute(self, task: _WriterTask) -> None:
        """One boundary's durable work (writer thread, or inline)."""
        lines, full, delta, job = task
        if lines:
            self._fault("alarm-pre-append")
            with self.alarms_path.open("a", encoding="utf-8") as handle:
                for line in lines:
                    handle.write(line + "\n")
                handle.flush()
                self._fault("alarm-pre-fsync")
                os.fsync(handle.fileno())
            self._fault("alarm-post-fsync")
        if full is not None:
            assert self._chain is not None
            self._chain.write_full(full)
        elif delta is not None:
            assert self._chain is not None
            self._chain.append_delta(**delta)
        if job is not None:
            # Strictly after the chain write: the manifest (the index's
            # commit point) must never reference a boundary the chain has
            # not made durable.
            assert self.builder is not None
            self.builder.commit(job)

    def close(self) -> None:
        """Drain the writer pump, surfacing any latched write failure."""
        if self._pump is not None:
            pump, self._pump = self._pump, None
            began = self._clock()
            pump.close()
            self.seconds += self._clock() - began


def merged_daily_counts(shard_states: Sequence[Dict[str, Any]]) -> Dict[int, int]:
    """Global per-day MOAS counts: the sum of the shards' ``days``."""
    totals: Dict[int, int] = {}
    for state in shard_states:
        for day, count in state["days"]:
            totals[int(day)] = totals.get(int(day), 0) + int(count)
    return dict(sorted(totals.items()))


class Shard:
    """One engine over a share of the prefix space, fed raw record lines.

    The service runs one in its own process when it has one shard; with
    more, each forked worker of :mod:`repro.stream.router` runs one behind
    its receive loop.  ``observe`` sees every applied record, ticks
    included, in apply order: the index builder in this process, a
    worker-local origin tracker in a fork.
    """

    __slots__ = ("engine", "_observe", "_pending")

    def __init__(
        self,
        window: float,
        *,
        metrics: Optional[MetricsRegistry] = None,
        observe: Optional[Callable[[FeedRecord], None]] = None,
    ) -> None:
        self.engine = StreamEngine(window=window, metrics=metrics)
        self._observe = observe
        self._pending: List[str] = []

    def apply_lines(self, lines: Sequence[bytes]) -> None:
        """Parse and apply announce/withdraw lines, in order."""
        apply = self.engine.apply
        pending = self._pending
        observe = self._observe
        for line in lines:
            # This module's ``parse_feed_line``, looked up per call:
            # perfbench's traced run times it here.
            record = parse_feed_line(line.decode("utf-8"))
            if record is None:
                raise FeedError(f"not an announce or withdraw: {line[:80]!r}")
            for alarm in apply(record):
                pending.append(alarm.to_json_line())
            if observe is not None:
                observe(record)

    def barrier(
        self, day: Optional[float], kind: Optional[str]
    ) -> Tuple[List[str], Optional[Dict[str, Any]], Optional[Dict[str, Any]]]:
        """Close ``day`` by applying its tick (``None``: the run's closing
        barrier), then hand back the alarm lines since the previous
        barrier, the engine payload of ``kind`` (see :func:`capture_state`)
        and, at the closing barrier only, the counters the run's summary
        adds up."""
        engine = self.engine
        if day is not None:
            tick = FeedRecord(op=OP_TICK, time=day)
            engine.apply(tick)
            if self._observe is not None:
                self._observe(tick)
        lines, self._pending = self._pending, []
        counters: Optional[Dict[str, Any]] = None
        if day is None:
            counters = {
                "alarm_duplicates": engine.alarm_duplicates,
                "moas_active": engine.moas_active,
                "state_prefixes": engine.state_prefixes,
                "alarm_totals": engine.alarm_totals(),
                "days": sorted(engine.daily_counts.items()),
            }
        return lines, capture_state(engine, kind), counters


class StreamService:
    """Walk 1..N feeds on 1..S shards, detect online, checkpoint at day
    ticks, survive kills."""

    def __init__(
        self,
        feed: Union[str, Path, Sequence[Union[str, Path]]],
        alarms: Union[str, Path],
        checkpoint: Optional[Union[str, Path]] = None,
        *,
        shards: int = 1,
        window: float = 30.0,
        checkpoint_every: int = 1000,
        full_every: int = DEFAULT_FULL_EVERY,
        follow: bool = False,
        poll_interval: float = 0.2,
        throttle: float = 0.0,
        max_records: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
        sleeper: Optional[Callable[[float], None]] = None,
        async_io: bool = True,
        fault: Optional[FaultHook] = None,
        index: Optional[Union[str, Path]] = None,
    ) -> None:
        paths = [feed] if isinstance(feed, (str, Path)) else list(feed)
        if not paths:
            raise ValueError("the service needs at least one feed")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if follow and (shards > 1 or len(paths) > 1):
            raise ValueError("follow mode reads one feed on one shard")
        self.feed_paths = [Path(path) for path in paths]
        self.shards = shards
        self.window = window
        self.checkpoint_every = checkpoint_every
        self.full_every = full_every
        self.follow = follow
        self.poll_interval = poll_interval
        self.throttle = throttle
        self.max_records = max_records
        self._stop_requested = False
        self._pending: List[str] = []
        self._records = 0  # records applied before this run (the resume point)
        self._clock = clock if clock is not None else _real_clock
        self._sleeper = sleeper if sleeper is not None else _real_sleep
        self._committer = BoundaryCommitter(
            alarms,
            checkpoint,
            feeds=self.feed_paths,
            full_every=full_every,
            clock=self._clock,
            metrics=metrics,
            fault=fault,
            index=index,
            async_io=async_io,
        )
        builder = self._committer.builder
        # One shard runs here; more run in the workers of a ShardPool.
        self._shard: Optional[Shard] = None
        if shards == 1:
            self._shard = Shard(
                window,
                metrics=metrics,
                observe=None if builder is None else builder.observe,
            )
        self._pool: Optional["ShardPool"] = None

    @property
    def engine(self) -> Optional[StreamEngine]:
        """The in-process engine of a one-shard service."""
        return None if self._shard is None else self._shard.engine

    # -- stopping -------------------------------------------------------------

    def request_stop(self) -> None:
        """Stop at the next day tick (a follow run idle at its feed's end:
        at once) and commit there."""
        self._stop_requested = True

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT -> graceful stop (main thread only)."""
        signal.signal(signal.SIGTERM, self._on_signal)
        signal.signal(signal.SIGINT, self._on_signal)

    def _on_signal(self, signum: int, frame: Optional[FrameType]) -> None:
        self.request_stop()

    def _stopping(self, applied: int) -> bool:
        return self._stop_requested or (
            self.max_records is not None and applied >= self.max_records
        )

    # -- the run loop -----------------------------------------------------------

    def run(self, resume: bool = False) -> StreamSummary:
        started = self._clock()
        committer = self._committer
        fleet = FeedFleet(self.feed_paths)
        try:
            if self._shard is None:
                from repro.stream.router import ShardPool

                self._pool = ShardPool(self.shards, self.window, committer.builder)
            committer.open(partial(self._restore, fleet) if resume else None)
            applied = since_boundary = 0
            committed = stopped = reached_eof = False
            walk = iter(fleet)
            while True:
                item = next(walk, None)
                if item is None:  # every feed is at its end
                    if not self.follow:
                        reached_eof = True
                        break
                    if self._stopping(applied):
                        stopped = True
                        break  # idle at the end: commit where it stands
                    self._sleeper(self.poll_interval)
                    walk = iter(fleet)  # retry from where the cursor stands
                    continue
                if not isinstance(item, float):
                    self._apply(fleet, item)
                    applied += len(item)
                    since_boundary += len(item)
                    continue
                applied += 1  # the day's tick, applied on every shard
                since_boundary += 1
                boundary = since_boundary >= self.checkpoint_every
                kind = committer.next_kind() if boundary else None
                payloads, _ = self._barrier(item, kind)
                if boundary:
                    self._commit(fleet, kind, payloads, applied)
                    since_boundary = 0
                    committed = True
                if self.throttle > 0.0:
                    self._sleeper(self.throttle)
                if self._stopping(applied):
                    stopped = True
                    break
            # The closing barrier gathers the last alarm lines and every
            # shard's counters; it commits only what no boundary holds yet.
            closing = since_boundary > 0 or not committed
            kind = committer.next_kind() if closing else None
            payloads, counters = self._barrier(None, kind)
            if closing:
                self._commit(fleet, kind, payloads, applied)
            committer.close()
            wall = self._clock() - started
            shard_counters = [c for c in counters if c is not None]
            totals: Dict[str, int] = {}
            for shard in shard_counters:
                for name, count in shard["alarm_totals"].items():
                    totals[name] = totals.get(name, 0) + count
            daily = merged_daily_counts(shard_counters)
            return StreamSummary(
                records=applied,
                offset=self._records + applied,
                # Every first-seen alarm is one log line, at any shard
                # count and across resumes.
                alarms_emitted=committer.alarm_lines,
                alarm_duplicates=sum(
                    c["alarm_duplicates"] for c in shard_counters
                ),
                alarm_lines=committer.alarm_lines,
                checkpoints=committer.checkpoints,
                checkpoint_fulls=committer.fulls,
                checkpoint_deltas=committer.deltas,
                moas_active=sum(c["moas_active"] for c in shard_counters),
                state_prefixes=sum(c["state_prefixes"] for c in shard_counters),
                days_ticked=len(daily),
                stopped=stopped,
                eof=reached_eof,
                wall_seconds=wall,
                events_per_sec=applied / wall if wall > 0 else 0.0,
                checkpoint_seconds=committer.seconds,
                shards=self.shards,
                alarm_totals=dict(sorted(totals.items())),
                daily_series=list(daily.values()),
            )
        finally:
            try:
                committer.close()
            finally:
                try:
                    if self._pool is not None:
                        self._pool.close()
                        self._pool = None
                finally:
                    fleet.close()

    def _apply(self, fleet: FeedFleet, lines: List[bytes]) -> None:
        """Apply one read's record lines: here, or routed to the workers
        (whose errors surface at the next barrier)."""
        if self._pool is not None:
            self._pool.route(lines)
            return
        assert self._shard is not None and fleet.current is not None
        try:
            self._shard.apply_lines(lines)
        except ValueError as exc:
            raise FeedError(f"{fleet.current.path}: {exc}") from exc

    def _barrier(
        self, day: Optional[float], kind: Optional[str]
    ) -> Tuple[List[Optional[Dict[str, Any]]], List[Optional[Dict[str, Any]]]]:
        """Synchronise every shard (see :meth:`Shard.barrier`): gather the
        alarm lines in shard-index order — which fixes the merged log's
        line order — and return the payloads and counters."""
        if self._pool is None:
            assert self._shard is not None
            replies = [self._shard.barrier(day, kind)]
        else:
            replies = self._pool.barrier(day, kind)
        payloads: List[Optional[Dict[str, Any]]] = []
        counters: List[Optional[Dict[str, Any]]] = []
        for lines, payload, shard_counters in replies:
            self._pending.extend(lines)
            payloads.append(payload)
            counters.append(shard_counters)
        return payloads, counters

    def _commit(
        self,
        fleet: FeedFleet,
        kind: Optional[str],
        payloads: List[Optional[Dict[str, Any]]],
        applied: int,
    ) -> None:
        """Hand one boundary to the committer: the alarm lines and, with
        ``kind``, the composite chain document of the shard payloads."""
        offsets = fleet.offsets
        state: Optional[Dict[str, Any]] = None
        if kind is not None:
            state = {"feed_offsets": offsets, "shards": payloads}
            if kind == "full":
                state.update(shard_count=self.shards, window=self.window)
        pending, self._pending = self._pending, []
        self._committer.commit(
            pending, kind, state, records=self._records + applied, offsets=offsets
        )

    def _restore(self, fleet: FeedFleet, checkpoint: Checkpoint) -> None:
        state = checkpoint.engine_state
        try:
            shard_count = int(state["shard_count"])
            window = float(state["window"])
            offsets = [int(offset) for offset in state["feed_offsets"]]
            shard_states = list(state["shards"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed checkpoint document: {exc!r}"
            ) from exc
        if shard_count != self.shards or len(shard_states) != self.shards:
            raise CheckpointError(
                f"checkpoint was written by {shard_count} shards, cannot "
                f"resume with {self.shards}"
            )
        if window != self.window:
            raise CheckpointError(
                f"checkpoint was written with window {window}, cannot "
                f"resume with {self.window}"
            )
        if len(offsets) != len(fleet.cursors):
            raise CheckpointError(
                f"checkpoint recorded {len(offsets)} feeds, "
                f"got {len(fleet.cursors)}"
            )
        if self._pool is not None:
            self._pool.restore(shard_states)
        else:
            assert self._shard is not None
            self._shard.engine.restore_state(shard_states[0])
        for cursor, offset in zip(fleet.cursors, offsets):
            cursor.seek(offset)
        self._records = checkpoint.offset

    # -- the run manifest -----------------------------------------------------

    def manifest_record(
        self,
        summary: StreamSummary,
        spec: Optional[Dict[str, Any]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> ManifestRecord:
        """The run's single manifest line (timing under quarantined keys)."""
        base_spec: Dict[str, Any] = {
            "kind": "stream",
            "feeds": [str(path) for path in self.feed_paths],
            "shards": self.shards,
            "window": self.window,
            "checkpoint_every": self.checkpoint_every,
            "full_every": self.full_every,
        }
        if spec is not None:
            base_spec.update(spec)
        return ManifestRecord(
            index=0,
            seed=0,
            spec=base_spec,
            outcome=summary.to_dict(),
            metrics={} if metrics is None else dict(metrics.snapshot()),
            worker="stream",
            wall_seconds=summary.wall_seconds,
        )
