"""Unit tests for the BGP speaker."""

import pytest

from repro.bgp.attributes import AsPath, Community, PathAttributes
from repro.bgp.errors import SessionError
from repro.bgp.messages import UpdateMessage
from repro.bgp.speaker import BGPSpeaker, SpeakerConfig
from repro.net.addresses import Prefix
from repro.net.link import Link

P = Prefix.parse("10.0.0.0/16")


def linked_speakers(sim, *asns, config=None):
    """A chain of speakers: consecutive ASNs peered."""
    speakers = {asn: BGPSpeaker(sim, asn, config=config) for asn in asns}
    for left, right in zip(asns, asns[1:]):
        link = Link(sim, left, right)
        speakers[left].add_peer(right, link)
        speakers[right].add_peer(left, link)
        speakers[left].start_session(right)
    sim.run()
    return speakers


class TestPeering:
    def test_self_peering_rejected(self, sim):
        speaker = BGPSpeaker(sim, 1)
        with pytest.raises(SessionError):
            speaker.add_peer(1, Link(sim, 1, 2))

    def test_duplicate_peer_rejected(self, sim):
        speaker = BGPSpeaker(sim, 1)
        speaker.add_peer(2, Link(sim, 1, 2))
        with pytest.raises(SessionError):
            speaker.add_peer(2, Link(sim, 1, 2))

    def test_established_peers_sorted(self, sim):
        speakers = linked_speakers(sim, 2, 1, 3)
        assert speakers[1].established_peers == [2, 3]


class TestOrigination:
    def test_originate_installs_locally(self, sim):
        speakers = linked_speakers(sim, 1, 2)
        speakers[1].originate(P)
        sim.run()
        assert speakers[1].best_origin(P) == 1
        assert speakers[1].originated_prefixes == [P]

    def test_neighbor_sees_origin_path(self, sim):
        speakers = linked_speakers(sim, 1, 2)
        speakers[1].originate(P)
        sim.run()
        best = speakers[2].best_route(P)
        assert list(best.attributes.as_path.asns()) == [1]
        assert speakers[2].best_origin(P) == 1

    def test_path_grows_along_chain(self, sim):
        speakers = linked_speakers(sim, 1, 2, 3, 4)
        speakers[1].originate(P)
        sim.run()
        best = speakers[4].best_route(P)
        assert list(best.attributes.as_path.asns()) == [3, 2, 1]

    def test_communities_propagate_transitively(self, sim):
        speakers = linked_speakers(sim, 1, 2, 3)
        communities = [Community(1, 255), Community(9, 255)]
        speakers[1].originate(P, communities=communities)
        sim.run()
        assert speakers[3].best_route(P).attributes.communities == set(communities)

    def test_withdraw_origination_propagates(self, sim):
        speakers = linked_speakers(sim, 1, 2, 3)
        speakers[1].originate(P)
        sim.run()
        speakers[1].withdraw_origination(P)
        sim.run()
        assert speakers[3].best_route(P) is None

    def test_withdraw_unoriginated_rejected(self, sim):
        speakers = linked_speakers(sim, 1, 2)
        with pytest.raises(ValueError):
            speakers[1].withdraw_origination(P)

    def test_local_pref_not_exported(self, sim):
        speakers = linked_speakers(sim, 1, 2)
        speakers[1].originate(P)
        sim.run()
        received = speakers[2].best_route(P)
        assert received.attributes.local_pref == PathAttributes.DEFAULT_LOCAL_PREF


class TestLoopDetection:
    def test_own_asn_in_path_rejected(self, sim):
        speakers = linked_speakers(sim, 1, 2)
        attrs = PathAttributes(as_path=AsPath.from_asns([1, 7]))
        update = UpdateMessage(announced={P}, attributes=attrs)
        # Deliver a forged update from 2 containing 1's own ASN.
        speakers[1].handle_update(2, update)
        assert speakers[1].loops_detected == 1
        assert speakers[1].best_route(P) is None


class TestValidators:
    def test_validator_rejects_route(self, sim):
        speakers = linked_speakers(sim, 1, 2)
        speakers[2].add_import_validator(lambda peer, prefix, attrs: False)
        speakers[1].originate(P)
        sim.run()
        assert speakers[2].best_route(P) is None
        assert speakers[2].routes_rejected_by_validator == 1

    def test_rejected_replacement_clears_old_route(self, sim):
        speakers = linked_speakers(sim, 1, 2)
        # Accept the first announcement, reject anything after.
        state = {"accepted": 0}

        def validator(peer, prefix, attrs):
            state["accepted"] += 1
            return state["accepted"] == 1

        speakers[2].add_import_validator(validator)
        speakers[1].originate(P)
        sim.run()
        assert speakers[2].best_route(P) is not None
        # Re-announce with different attributes: rejected, and the old
        # (stale) route must not survive.
        speakers[1].withdraw_origination(P)
        sim.run()
        speakers[1].originate(P, communities=[Community(1, 1)])
        sim.run()
        assert speakers[2].best_route(P) is None

    def test_invalidate_route(self, sim):
        speakers = linked_speakers(sim, 1, 2, 3)
        speakers[1].originate(P)
        sim.run()
        assert speakers[3].best_route(P) is not None
        assert speakers[2].invalidate_route(1, P)
        sim.run()
        assert speakers[2].best_route(P) is None
        assert speakers[3].best_route(P) is None

    def test_invalidate_missing_route_returns_false(self, sim):
        speakers = linked_speakers(sim, 1, 2)
        assert not speakers[2].invalidate_route(1, P)

    def test_loc_rib_listener_sees_changes(self, sim):
        speakers = linked_speakers(sim, 1, 2)
        changes = []
        speakers[2].add_loc_rib_listener(
            lambda prefix, new, old: changes.append((prefix, new, old))
        )
        speakers[1].originate(P)
        sim.run()
        assert len(changes) == 1
        assert changes[0][0] == P
        assert changes[0][1] is not None and changes[0][2] is None


class TestPropagationHygiene:
    def test_no_announcement_back_to_learned_peer(self, sim):
        speakers = linked_speakers(sim, 1, 2)
        speakers[1].originate(P)
        sim.run()
        # 2 must not have advertised the prefix back to 1.
        assert not speakers[2].adj_rib_out.has_advertised(1, P)

    def test_duplicate_announcements_suppressed(self, sim):
        speakers = linked_speakers(sim, 1, 2)
        speakers[1].originate(P)
        sim.run()
        sent_before = speakers[1].updates_sent
        # Re-running the decision with no change must not re-announce.
        speakers[1]._run_decision(P)
        sim.run()
        assert speakers[1].updates_sent == sent_before

    def test_full_table_advertised_to_late_peer(self, sim):
        speakers = linked_speakers(sim, 1, 2)
        speakers[1].originate(P)
        sim.run()
        # Wire a third speaker late; it must receive the existing table.
        late = BGPSpeaker(sim, 3)
        link = Link(sim, 2, 3)
        speakers[2].add_peer(3, link)
        late.add_peer(2, link)
        late.start_session(2)
        sim.run()
        assert late.best_origin(P) == 1


class TestMrai:
    def test_mrai_delays_subsequent_updates(self, sim):
        config = SpeakerConfig(mrai=10.0)
        speakers = linked_speakers(sim, 1, 2, config=config)
        p2 = Prefix.parse("11.0.0.0/16")
        speakers[1].originate(P)
        sim.run(until=1.0)
        assert speakers[2].best_route(P) is not None
        # Second prefix originated within the MRAI window: held back.
        speakers[1].originate(p2)
        sim.run(until=2.0)
        assert speakers[2].best_route(p2) is None
        # After MRAI expiry it flows.
        sim.run(until=15.0)
        assert speakers[2].best_route(p2) is not None

    def test_convergence_with_mrai_matches_without(self, sim, diamond_graph):
        from repro.bgp.network import Network

        results = {}
        for mrai in (0.0, 5.0):
            net = Network(diamond_graph, config=SpeakerConfig(mrai=mrai))
            net.establish_sessions()
            net.originate(1, P)
            net.run_to_convergence()
            results[mrai] = net.best_origins(P)
        assert results[0.0] == results[5.0]


class TestResetClearsCaches:
    def test_caches_cleared_on_sim_reset(self, sim):
        speakers = linked_speakers(sim, 1, 2, 3)
        speakers[1].originate(P)
        sim.run()
        # Propagation populated the per-speaker memo caches.
        assert any(s._prepend_cache for s in speakers.values())
        assert any(s._established_cache is not None for s in speakers.values())
        sim.reset()
        for speaker in speakers.values():
            assert speaker._prepend_cache == {}
            assert speaker._established_cache is None

    def test_clear_caches_is_idempotent(self, sim):
        speaker = BGPSpeaker(sim, 1)
        speaker.clear_caches()
        speaker.clear_caches()
        assert speaker._prepend_cache == {}


class TestSpeakerMetrics:
    def _run_instrumented(self):
        from repro.eventsim import Simulator
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        sim = Simulator(seed=3, metrics=registry)
        speakers = linked_speakers(sim, 1, 2, 3)
        speakers[1].originate(P)
        sim.run()
        return registry, speakers

    def test_update_counters_track_traffic(self):
        registry, speakers = self._run_instrumented()
        snapshot = registry.snapshot()
        assert snapshot["bgp.updates_sent"] > 0
        assert snapshot["bgp.updates_received"] > 0
        assert snapshot["bgp.decision_runs"] > 0
        # Counters are network-wide: both forwarding hops contribute to
        # the same named instruments.
        assert snapshot["bgp.updates_received"] <= snapshot["bgp.updates_sent"]

    def test_uninstrumented_speaker_has_no_registry_side_effects(self, sim):
        speakers = linked_speakers(sim, 1, 2)
        speakers[1].originate(P)
        sim.run()
        assert sim.metrics is None
