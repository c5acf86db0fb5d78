"""Unit tests for the simulation driver."""

import gc

import pytest

from repro.eventsim import Simulator, SimulationError


class TestScheduling:
    def test_schedule_at_past_rejected(self, sim):
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_schedule_after_negative_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_after(-0.1, lambda: None)

    def test_schedule_after_is_relative(self, sim):
        fired_at = []
        sim.schedule_after(1.0, lambda: fired_at.append(sim.now))
        sim.run()
        assert fired_at == [1.0]

    def test_handle_cancellation_prevents_firing(self, sim):
        hits = []
        handle = sim.schedule_after(1.0, lambda: hits.append(1))
        handle.cancel()
        sim.run()
        assert hits == []


class TestRunning:
    def test_run_advances_clock(self, sim):
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        assert sim.now == 5.0

    def test_run_returns_event_count(self, sim):
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda: None)
        assert sim.run() == 3

    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_bounded_runs_compose(self, sim):
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        sim.run(until=20.0)
        assert fired == [1, 10]

    def test_events_can_schedule_events(self, sim):
        fired = []

        def first():
            fired.append("first")
            sim.schedule_after(1.0, lambda: fired.append("second"))

        sim.schedule_at(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0

    def test_same_time_events_fire_in_insertion_order(self, sim):
        fired = []
        for i in range(5):
            sim.schedule_at(1.0, lambda i=i: fired.append(i))
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_run_not_reentrant(self, sim):
        def nested():
            sim.run()

        sim.schedule_at(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_max_events_guard(self):
        sim = Simulator(max_events=10)

        def reschedule():
            sim.schedule_after(1.0, reschedule)

        sim.schedule_at(0.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_to_quiescence_drains(self, sim):
        for t in (1.0, 2.0):
            sim.schedule_at(t, lambda: None)
        sim.run_to_quiescence()
        assert len(sim.queue) == 0


class TestGarbageCollection:
    """Cycle collection is suspended during a run, never left off after."""

    def test_collector_suspended_during_run(self, sim):
        seen = []
        sim.schedule_at(1.0, lambda: seen.append(gc.isenabled()))
        sim.run()
        assert seen == [False]

    def test_collector_enabled_after_run(self, sim):
        gc.enable()
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        assert gc.isenabled()

    def test_collector_enabled_after_raising_run(self, sim):
        def boom():
            raise RuntimeError("boom")

        gc.enable()
        sim.schedule_at(1.0, boom)
        with pytest.raises(RuntimeError):
            sim.run()
        assert gc.isenabled()

    def test_collector_stays_off_when_caller_disabled_it(self, sim):
        gc.disable()
        try:
            sim.run()
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestReset:
    def test_reset_clears_queue_and_clock(self, sim):
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert len(sim.queue) == 0
        assert sim.events_processed == 0

    def test_reset_rewinds_sequence_counter(self, sim):
        first = [sim.next_sequence() for _ in range(3)]
        sim.reset()
        second = [sim.next_sequence() for _ in range(3)]
        assert second == first

    def test_reset_hooks_fire_in_registration_order(self, sim):
        fired = []
        sim.add_reset_hook(lambda: fired.append("a"))
        sim.add_reset_hook(lambda: fired.append("b"))
        sim.reset()
        assert fired == ["a", "b"]
        sim.reset()
        assert fired == ["a", "b", "a", "b"]

    def test_reset_hooks_observe_rewound_state(self, sim):
        # Hooks fire last, so a hook clearing caches sees t=0 and an
        # empty queue — never half-reset state.
        seen = []
        sim.add_reset_hook(lambda: seen.append((sim.now, len(sim.queue))))
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        sim.schedule_at(9.0, lambda: None)
        sim.reset()
        assert seen == [(0.0, 0)]


class TestSequence:
    def test_next_sequence_monotonic(self, sim):
        values = [sim.next_sequence() for _ in range(5)]
        assert values == sorted(values)
        assert len(set(values)) == 5


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run(seed):
            sim = Simulator(seed=seed)
            order = []
            for i in range(20):
                delay = sim.random.uniform("delays", 0.0, 10.0)
                sim.schedule_after(delay, lambda i=i: order.append(i))
            sim.run()
            return order

        assert build_and_run(42) == build_and_run(42)

    def test_different_seeds_differ(self):
        def run_order(seed):
            sim = Simulator(seed=seed)
            order = []
            for i in range(20):
                delay = sim.random.uniform("delays", 0.0, 10.0)
                sim.schedule_after(delay, lambda i=i: order.append(i))
            sim.run()
            return order

        assert run_order(1) != run_order(2)


class TestMetrics:
    def test_no_registry_by_default(self, sim):
        assert sim.metrics is None
        sim.schedule_at(1.0, lambda: None)
        sim.run()  # instrumentation guard is a no-op, nothing raises

    def test_event_counter_tracks_dispatches(self):
        from repro.eventsim.simulator import Simulator
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        sim = Simulator(seed=1, metrics=registry)
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda: None)
        sim.run()
        snapshot = registry.snapshot()
        assert snapshot["sim.events"] == 3
        assert snapshot["sim.events"] == sim.events_processed

    def test_queue_depth_gauge_is_sampled(self):
        from repro.eventsim.simulator import Simulator
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        sim = Simulator(seed=1, metrics=registry)
        stride = Simulator.QUEUE_DEPTH_SAMPLE_INTERVAL
        total = 2 * stride + 3
        for i in range(total):
            sim.schedule_at(float(i + 1), lambda: None)
        sim.run()
        depth = registry.snapshot()["sim.queue_depth"]
        # The gauge samples every `stride` events, not per event: the first
        # sample lands after `stride` dispatches (depth = total - stride),
        # and the end-of-run flush records the drained queue.
        assert depth["max"] == float(total - stride)
        assert depth["value"] == 0.0

    def test_queue_depth_gauge_flushed_at_end_of_short_run(self):
        from repro.eventsim.simulator import Simulator
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        sim = Simulator(seed=1, metrics=registry)
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda: None)
        sim.run(until=1.5)  # fewer events than one sampling stride
        depth = registry.snapshot()["sim.queue_depth"]
        assert depth["value"] == 2.0  # two events still pending at flush

    def test_instruments_registered_even_if_run_is_empty(self):
        # An empty registry is falsy; the constructor must still register
        # its instruments (the guard is "is not None", not truthiness).
        from repro.eventsim.simulator import Simulator
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        Simulator(seed=1, metrics=registry)
        assert "sim.events" in registry
        assert "sim.queue_depth" in registry
