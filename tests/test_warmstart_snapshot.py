"""Mid-flight snapshot/restore round-trips.

The warm-start runner only snapshots at quiescence, but the protocol is
specified (and tested here) for the harder case: live MRAI timers, messages
in flight on links, half-open sessions and damping penalties mid-decay.
The invariant under test is always the same — *continuing a restored
network is bit-identical to continuing the original* — plus the refusal
cases (foreign queue events, topology mismatch) that keep the protocol
honest.
"""

import pytest

from repro.bgp.damping import DampingConfig, RouteFlapDamper
from repro.bgp.network import Network
from repro.bgp.speaker import SpeakerConfig
from repro.eventsim.simulator import Simulator, SnapshotError
from repro.net.addresses import Prefix
from repro.topology.asgraph import ASGraph, ASRole

PREFIX = Prefix.parse("203.0.113.0/24")


def line_graph(n=4):
    graph = ASGraph()
    for asn in range(1, n + 1):
        role = ASRole.TRANSIT if 1 < asn < n else ASRole.STUB
        graph.add_as(asn, role)
    for asn in range(1, n):
        graph.add_link(asn, asn + 1)
    return graph


def build(graph, config, seed=0):
    return Network(graph, sim=Simulator(seed=seed), config=config)


def final_state(network):
    """Full end-state fingerprint: every speaker, link and the clock."""
    return network.snapshot_state()


class TestMidFlightRoundTrip:
    def test_pending_mrai_timers_and_in_flight_messages(self):
        graph = line_graph(5)
        config = SpeakerConfig(mrai=5.0)
        original = build(graph, config)
        original.establish_sessions()
        original.originate(1, PREFIX)
        # Stop mid-propagation: MRAI timers are running and updates are in
        # flight on the middle links.
        original.sim.run(until=original.sim.now + 0.015)
        state = original.snapshot_state()
        assert len(original.sim.queue) > 0  # genuinely mid-flight

        clone = build(graph, config)
        clone.restore_state(state)

        original.run_to_convergence()
        clone.run_to_convergence()
        assert clone.best_origins(PREFIX) == original.best_origins(PREFIX)
        assert clone.sim.now == original.sim.now
        assert clone.sim.events_processed == original.sim.events_processed
        assert final_state(clone) == final_state(original)

    def test_half_open_session_with_open_in_flight(self):
        graph = line_graph(2)
        config = SpeakerConfig(hold_time=30.0)
        original = build(graph, config)
        original.speakers[1].start_session(2)
        # Half the link delay: the OPEN is still on the wire, the session
        # half-open on both ends.
        original.sim.run(until=original.links[(1, 2)].delay / 2)
        assert not original.speakers[1].sessions[2].established
        state = original.snapshot_state()

        clone = build(graph, config)
        clone.restore_state(state)

        # With keepalives on the queue never drains; run both to the same
        # horizon instead.
        horizon = original.sim.now + 90.0
        original.sim.run(until=horizon)
        clone.sim.run(until=horizon)
        assert original.speakers[1].sessions[2].established
        assert clone.speakers[1].sessions[2].established
        assert final_state(clone) == final_state(original)

    def test_damping_penalty_mid_decay(self):
        graph = line_graph(2)
        config = SpeakerConfig()
        damping = DampingConfig(half_life=10.0)
        original = build(graph, config)
        original_damper = RouteFlapDamper(damping)
        original_damper.attach(original.speakers[2])
        original.establish_sessions()
        # Three flaps: announce, withdraw, re-announce.
        original.originate(1, PREFIX)
        original.run_to_convergence()
        original.speakers[1].withdraw_origination(PREFIX)
        original.run_to_convergence()
        original.originate(1, PREFIX)
        original.run_to_convergence()
        # Let the penalty decay partway, then capture mid-decay.
        original.sim.run(until=original.sim.now + 7.0)
        assert original_damper.penalty(1, PREFIX) > 0.0
        state = original.snapshot_state()
        damper_state = original_damper.snapshot_state()

        clone = build(graph, config)
        clone_damper = RouteFlapDamper(damping)
        clone_damper.attach(clone.speakers[2])
        clone.restore_state(state)
        clone_damper.restore_state(damper_state)

        assert clone_damper.penalty(1, PREFIX) == original_damper.penalty(
            1, PREFIX
        )
        horizon = original.sim.now + 25.0
        original.sim.run(until=horizon)
        clone.sim.run(until=horizon)
        assert clone_damper.penalty(1, PREFIX) == original_damper.penalty(
            1, PREFIX
        )
        assert clone_damper.is_suppressed(1, PREFIX) == (
            original_damper.is_suppressed(1, PREFIX)
        )
        assert clone_damper.snapshot_state() == original_damper.snapshot_state()

    def test_restore_is_repeatable_after_reset(self):
        """reset() returns a restored simulator to pristine state, and the
        same snapshot restores identically a second time — the cached
        snapshot is never aliased by the continuation that used it."""
        graph = line_graph(4)
        config = SpeakerConfig(mrai=5.0)
        original = build(graph, config)
        original.establish_sessions()
        original.originate(1, PREFIX)
        original.sim.run(until=original.sim.now + 0.015)
        state = original.snapshot_state()

        clone = build(graph, config)
        clone.restore_state(state)
        clone.run_to_convergence()
        first = final_state(clone)

        clone.sim.reset()
        assert clone.sim.now == 0.0
        assert clone.sim.events_processed == 0
        assert len(clone.sim.queue) == 0

        clone.restore_state(state)
        clone.run_to_convergence()
        assert final_state(clone) == first


class TestRefusals:
    def test_foreign_queue_event_refuses_snapshot(self):
        graph = line_graph(2)
        network = build(graph, SpeakerConfig())
        network.establish_sessions()
        network.sim.schedule_after(1.0, lambda: None, label="foreign")
        with pytest.raises(SnapshotError, match="foreign"):
            network.snapshot_state()

    def test_topology_mismatch_refuses_restore(self):
        config = SpeakerConfig()
        small = build(line_graph(2), config)
        small.establish_sessions()
        state = small.snapshot_state()
        big = build(line_graph(3), config)
        with pytest.raises(SnapshotError, match="topology"):
            big.restore_state(state)

    def test_legacy_export_cache_key_is_ignored(self):
        # Baselines cached before the speaker's export memo was removed
        # still carry its key; they must restore and continue identically.
        graph = line_graph(4)
        config = SpeakerConfig()
        original = build(graph, config)
        original.establish_sessions()
        original.run_to_convergence()
        state = original.snapshot_state()
        for speaker_state in state["speakers"].values():
            speaker_state["export_cache"] = {}

        clone = build(graph, config)
        clone.restore_state(state)
        for network in (original, clone):
            network.originate(1, PREFIX)
            network.run_to_convergence()
        assert final_state(clone) == final_state(original)

    def test_snapshot_mid_run_refuses(self):
        network = build(line_graph(2), SpeakerConfig())
        captured = []

        def grab():
            with pytest.raises(SnapshotError, match="run"):
                network.sim.snapshot_state()
            captured.append(True)

        network.sim.schedule_after(0.0, grab)
        network.sim.run_to_quiescence()
        assert captured == [True]


class TestSeedFreedom:
    def test_untouched_streams_are_seed_free(self):
        from repro.warmstart import snapshot_is_seed_free

        network = build(line_graph(2), SpeakerConfig())
        network.establish_sessions()
        assert snapshot_is_seed_free(network.snapshot_state())

    def test_consumed_stream_is_seed_dependent(self):
        from repro.warmstart import snapshot_is_seed_free

        network = build(line_graph(2), SpeakerConfig())
        network.establish_sessions()
        network.sim.random.stream("jitter").random()
        assert not snapshot_is_seed_free(network.snapshot_state())
