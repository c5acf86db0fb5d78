"""The simulation driver.

:class:`Simulator` owns the clock, the event queue, the random streams and
the trace recorder, and exposes ``schedule``/``run`` to protocol code.  The
run loop pops events in deterministic order and advances virtual time; it
never moves time backwards and refuses events scheduled in the past.
"""

from __future__ import annotations

import gc
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.eventsim.event import Event, EventHandle
from repro.eventsim.queue import EventQueue
from repro.eventsim.rng import RandomStreams
from repro.eventsim.trace import TraceRecorder
from repro.obs.metrics import MetricsRegistry
from repro.sanitize import InvariantError, sanitizer_enabled


class SimulationError(RuntimeError):
    """Raised for scheduling violations and runaway simulations."""


class SnapshotError(RuntimeError):
    """Raised when simulation state cannot be captured or restored safely.

    Typical causes: snapshotting mid-event, a live queue whose events are
    not all accounted for by component state (a foreign ``schedule_at``
    callback the protocol layer knows nothing about), or restoring onto a
    network built from a different topology.
    """


class RearmPlan:
    """Deferred event re-scheduling collected during a snapshot restore.

    Components restore their *state* first and register an arming callback
    for every event they had pending, keyed by the event's original
    ``(time, priority, seq)`` sort key.  :meth:`execute` then arms them in
    ascending original order, so the fresh sequence numbers assigned by the
    queue ascend in exactly the captured relative order and same-time /
    same-priority ties break identically to the cold run.
    """

    def __init__(self) -> None:
        self._entries: List[Tuple[Tuple[float, ...], Callable[[], None]]] = []

    def add(self, sort_key: Tuple[float, ...], arm: Callable[[], None]) -> None:
        # Keys are usually the exact (time, priority, seq) triple; batched
        # link deliveries extend it with a batch index.  Mixed lengths sort
        # fine because no event shares another's full triple.
        self._entries.append((tuple(sort_key), arm))

    def execute(self) -> int:
        """Arm every pending event in original queue order; returns count."""
        self._entries.sort(key=lambda entry: entry[0])
        for _, arm in self._entries:
            arm()
        return len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the simulator's :class:`RandomStreams`.
    trace_categories:
        If given, only these trace categories are recorded.
    max_events:
        Safety valve: a run that processes more than this many events raises
        :class:`SimulationError` instead of spinning forever.  BGP on a
        static workload always quiesces, so hitting the cap indicates a bug
        (e.g. a route oscillation from an ill-formed policy).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  When given,
        the run loop counts dispatched events (``sim.events``) and tracks
        queue depth (``sim.queue_depth``); protocol modules holding this
        simulator pick the registry up and register their own instruments.
        When None (the default), instrumentation sites reduce to a single
        ``is not None`` attribute test.  The queue-depth gauge is *sampled*
        every :data:`QUEUE_DEPTH_SAMPLE_INTERVAL` events (and once at the
        end of every ``run``) rather than written per event — the cadence
        is a pure function of the event count, so instrumented runs stay
        deterministic while the per-event overhead disappears.
    """

    #: Sampling stride of the ``sim.queue_depth`` gauge within ``run()``.
    QUEUE_DEPTH_SAMPLE_INTERVAL = 64

    # Not snapshot state: pending events are owned (and re-armed) by the
    # components that scheduled them, so the queue is deliberately not
    # captured; the rest is construction config, observability wiring and
    # lifecycle plumbing recreated when the host network is rebuilt.
    _SNAPSHOT_WAIVED = frozenset(
        {
            "queue",
            "sanitize",
            "trace",
            "max_events",
            "metrics",
            "_m_events",
            "_m_queue_depth",
            "_reset_hooks",
        }
    )

    def __init__(
        self,
        seed: int = 0,
        trace_categories: Optional[set] = None,
        max_events: int = 5_000_000,
        sanitize: Optional[bool] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.now = 0.0
        self.queue = EventQueue()
        self.random = RandomStreams(seed)
        # Resolved once per simulator (argument wins over REPRO_SANITIZE)
        # so the per-event flag test below is a plain attribute read.
        self.sanitize = sanitizer_enabled(sanitize)
        self.trace = TraceRecorder(trace_categories, check_monotonic=self.sanitize)
        self.max_events = max_events
        self.events_processed = 0
        self._running = False
        self._sequence = 0
        self.metrics = metrics
        # "is not None", not truthiness: an empty registry is falsy.
        self._m_events = (
            metrics.counter("sim.events") if metrics is not None else None
        )
        self._m_queue_depth = (
            metrics.gauge("sim.queue_depth") if metrics is not None else None
        )
        # Components with per-run caches (speakers) register a callback to
        # be cleared on reset(); the simulator owns the lifecycle, so it is
        # the one place that can reach them all.
        self._reset_hooks: List[Callable[[], None]] = []

    def next_sequence(self) -> int:
        """A globally monotonic counter for sub-tick ordering needs (e.g.
        route-arrival order within one simulated instant)."""
        self._sequence += 1
        return self._sequence

    def account_extra_events(self, count: int) -> None:
        """Credit ``count`` logical events beyond the one currently firing.

        Batched link delivery coalesces k same-link same-tick messages into
        one queue event; calling this with ``k - 1`` keeps
        ``events_processed`` (and everything derived from it — outcome
        counters, ``sim.events``, the max-events guard) bit-identical to
        the unbatched engine, where each message consumed its own event.
        """
        if count > 0:
            self.events_processed += count

    # -- scheduling --------------------------------------------------------

    def schedule_at(
        self,
        time: float,
        action: Callable[[], Any],
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``action`` at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f}, current time is {self.now:.6f}"
            )
        event = Event(time, action, priority=priority, label=label)
        self.queue.push(event)
        return EventHandle(event)

    def schedule_after(
        self,
        delay: float,
        action: Callable[[], Any],
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``action`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay!r}")
        return self.schedule_at(self.now + delay, action, priority=priority, label=label)

    # -- running -----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> int:
        """Process events until the queue drains or ``until`` is reached.

        Returns the number of events processed by this call.  When ``until``
        is given, the clock is advanced to exactly ``until`` on return even
        if the queue drained earlier (so repeated bounded runs compose).
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        started_at = self.events_processed
        sample_stride = self.QUEUE_DEPTH_SAMPLE_INTERVAL
        queue = self.queue
        # Automatic cycle collection is suspended for the duration of the
        # run: gen-2 passes scan the whole O(topology) object graph and
        # trigger O(events) times, an O(n^2) wall-time term that profiled
        # at ~35% of a 5000-AS convergence.  Per-event garbage is acyclic
        # (events, flights and RIB entries free by refcount; the queue's
        # on_cancel back-reference is broken explicitly at pop/clear), so
        # deferring cycle collection until after the run loses nothing.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while True:
                event = queue.pop_due(until)
                if event is None:
                    break
                if self.sanitize and event.time < self.now:
                    raise InvariantError(
                        f"event {event.label!r} fires at t={event.time:.6f}, "
                        f"before current time {self.now:.6f}"
                    )
                self.now = event.time
                event.fire()
                self.events_processed += 1
                if (
                    self._m_queue_depth is not None
                    and self.events_processed % sample_stride == 0
                ):
                    self._m_queue_depth.set(float(len(queue)))
                if self.events_processed > self.max_events:
                    raise SimulationError(
                        f"exceeded max_events={self.max_events}; "
                        "simulation is likely diverging"
                    )
        finally:
            if gc_was_enabled:
                gc.enable()
            self._running = False
            processed = self.events_processed - started_at
            if self._m_events is not None and processed:
                self._m_events.inc(processed)
                assert self._m_queue_depth is not None
                self._m_queue_depth.set(float(len(queue)))
        if until is not None and until > self.now:
            self.now = until
        return processed

    def run_to_quiescence(self) -> int:
        """Run until no events remain; returns events processed."""
        return self.run(until=None)

    def add_reset_hook(self, hook: Callable[[], None]) -> None:
        """Register a callback run at the end of every :meth:`reset`.

        Speakers use this to drop per-run caches (the prepend memo)
        whose entries would otherwise accumulate across reused networks.
        """
        self._reset_hooks.append(hook)

    # -- snapshot / restore ------------------------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """Capture clock, counters and RNG stream states (not the queue).

        Pending events are owned by the components that scheduled them
        (links, timers); each component captures its own and re-arms through
        a :class:`RearmPlan` on restore.  Snapshots are only meaningful
        between events — taking one mid-run is an error.
        """
        if self._running:
            raise SnapshotError("cannot snapshot while run() is active")
        return {
            "now": self.now,
            "sequence": self._sequence,
            "events_processed": self.events_processed,
            "rng_streams": self.random.snapshot_state(),
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Overwrite clock/counters/RNG from a snapshot and clear the queue.

        Callers are expected to follow up by re-arming component events via
        a :class:`RearmPlan`; after that the simulator is indistinguishable
        from the one that produced the snapshot.
        """
        if self._running:
            raise SnapshotError("cannot restore while run() is active")
        self.queue.clear()
        self.now = float(state["now"])
        self._sequence = int(state["sequence"])
        self.events_processed = int(state["events_processed"])
        self.random.restore_state(state["rng_streams"])
        # The trace guard only ever relaxes backwards; restored events fire
        # at or after the snapshot time, which is at or after zero.
        self.trace.rewind_monotonic_guard()

    def reset(self) -> None:
        """Discard pending events and rewind the clock (streams are kept).

        The sub-tick sequence counter rewinds too: a reused simulator must
        hand out the same ``installed_seq`` values as a fresh one, or
        prefer-oldest tie-breaks stop being reproducible across resets.
        Reset hooks fire last, so components observe the rewound state.
        """
        self.queue.clear()
        self.now = 0.0
        self.events_processed = 0
        self._sequence = 0
        self.trace.rewind_monotonic_guard()
        for hook in self._reset_hooks:
            hook()
