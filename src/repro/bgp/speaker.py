"""The BGP speaker.

One :class:`BGPSpeaker` models the routing process of one AS (the paper's
simulation granularity).  It owns the three RIBs, runs the decision process,
applies import/export policy, paces announcements with per-peer MRAI timers
and exchanges messages over :class:`repro.net.Link` objects.

Extension points used by the MOAS-list scheme (:mod:`repro.core`):

* ``add_import_validator`` — a validator sees every route that survived
  import policy and may reject it (this is where MOAS-list checking hooks
  in for capable routers);
* ``add_loc_rib_listener`` — notified on every best-route change (used by
  the experiment harness to measure false-route adoption);
* ``invalidate_route`` — retroactively removes an accepted route when a
  validator later learns it was bogus (a correct MOAS list arriving after
  the attacker's announcement).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Set

from repro.bgp.attributes import Community, Origin, PathAttributes
from repro.bgp.decision import DecisionProcess, RouteComparison
from repro.bgp.errors import SessionError
from repro.bgp.interning import RouteInterner
from repro.bgp.messages import Message, UpdateMessage
from repro.bgp.policy import AcceptAllPolicy, Policy
from repro.bgp.rib import AdjRibIn, AdjRibOut, LocRib, RibEntry
from repro.bgp.session import Session, SessionState
from repro.eventsim.simulator import RearmPlan, Simulator
from repro.eventsim.timers import Timer
from repro.net.addresses import Prefix
from repro.net.asn import ASN, validate_asn
from repro.net.link import Link
from repro.sanitize import InvariantError, check_speaker_invariants

# An import validator: (peer, prefix, attributes) -> accept?
ImportValidator = Callable[[ASN, Prefix, PathAttributes], bool]
# A Loc-RIB listener: (prefix, new_entry_or_None, old_entry_or_None) -> None
LocRibListener = Callable[[Prefix, Optional[RibEntry], Optional[RibEntry]], None]
# A withdrawal listener: (peer, prefix) -> None, fired when a peer's
# explicit withdrawal removes a route from the Adj-RIB-In.
WithdrawalListener = Callable[[ASN, Prefix], None]


class SpeakerConfig:
    """Tunables for a speaker.

    ``mrai`` is the Min Route Advertisement Interval per RFC 4271 (the
    paper-era default was 30 s for eBGP); zero disables pacing, which the
    experiment harness uses since the figures measure converged state, not
    convergence time.
    """

    def __init__(
        self,
        mrai: float = 0.0,
        hold_time: float = 0.0,
        med_across_peers: bool = False,
        prefer_oldest: bool = True,
    ) -> None:
        if mrai < 0:
            raise ValueError(f"MRAI must be non-negative, got {mrai}")
        self.mrai = float(mrai)
        self.hold_time = float(hold_time)
        self.med_across_peers = med_across_peers
        self.prefer_oldest = prefer_oldest


class BGPSpeaker:
    """The BGP routing process of one AS."""

    # Identity and wiring (asn/config/sim, link map, interner, policy and
    # decision processes, listener/validator registrations) are rebuilt by
    # constructing the same network; metric instruments are re-resolved
    # there too.  ``_established_cache`` is a derived memo that restore
    # explicitly invalidates instead of capturing.
    _SNAPSHOT_WAIVED = frozenset(
        {
            "asn",
            "config",
            "sim",
            "policy",
            "decision",
            "_interner",
            "_links",
            "_import_validators",
            "_loc_rib_listeners",
            "_withdrawal_listeners",
            "_passthrough_policy",
            "_established_cache",
            "_m_updates_received",
            "_m_updates_sent",
            "_m_decision_runs",
            "_m_mrai_fires",
        }
    )

    def __init__(
        self,
        sim: Simulator,
        asn: ASN,
        config: Optional[SpeakerConfig] = None,
        policy: Optional[Policy] = None,
        interner: Optional[RouteInterner] = None,
    ) -> None:
        self.sim = sim
        self.asn = validate_asn(asn)
        self.config = config or SpeakerConfig()
        self.policy = policy or AcceptAllPolicy()
        # Accept-all import/export is the default experiment setup; spotting
        # it by exact type lets the import hot path skip a PolicyVerdict
        # allocation per route.  Subclasses must not take this shortcut.
        self._passthrough_policy = type(self.policy) in (Policy, AcceptAllPolicy)
        self.decision = DecisionProcess(
            self.config.med_across_peers, prefer_oldest=self.config.prefer_oldest
        )
        # Shared across the whole network when built through Network (the
        # cross-speaker intern table); private for standalone speakers.
        self._interner = interner if interner is not None else RouteInterner()

        self.adj_rib_in = AdjRibIn()
        self.loc_rib = LocRib()
        self.adj_rib_out = AdjRibOut()

        self.sessions: Dict[ASN, Session] = {}
        self._links: Dict[ASN, Link] = {}
        self._local_routes: Dict[Prefix, RibEntry] = {}

        self._import_validators: List[ImportValidator] = []
        self._loc_rib_listeners: List[LocRibListener] = []
        self._withdrawal_listeners: List[WithdrawalListener] = []

        # MRAI machinery: per-peer pending announcement sets and timers.
        self._pending_announce: Dict[ASN, Set[Prefix]] = {}
        self._mrai_timers: Dict[ASN, Timer] = {}

        # Caches for the propagation hot path.  The established-peer list
        # changes only at session state transitions; the prepend/replace
        # work for a best route fanned out to many peers is done once per
        # post-policy attribute bundle and interned.
        self._established_cache: Optional[List[ASN]] = None
        self._prepend_cache: Dict[PathAttributes, PathAttributes] = {}
        # A simulator reset rewinds the clock but keeps the speakers; the
        # caches must not outlive the run that built them.
        sim.add_reset_hook(self.clear_caches)

        # Counters for diagnostics and benchmarks.
        self.updates_received = 0
        self.updates_sent = 0
        self.routes_rejected_by_policy = 0
        self.routes_rejected_by_validator = 0
        self.loops_detected = 0

        # Network-wide metric instruments (shared through the registry by
        # name); None when the simulator runs without metrics, so every
        # instrumentation site below is a single attribute test.
        metrics = sim.metrics
        if metrics is not None:
            self._m_updates_sent = metrics.counter("bgp.updates_sent")
            self._m_updates_received = metrics.counter("bgp.updates_received")
            self._m_decision_runs = metrics.counter("bgp.decision_runs")
            self._m_mrai_fires = metrics.counter("bgp.mrai_fires")
        else:
            self._m_updates_sent = None
            self._m_updates_received = None
            self._m_decision_runs = None
            self._m_mrai_fires = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BGPSpeaker(AS{self.asn}, {len(self.loc_rib)} routes)"

    # -- extension points ---------------------------------------------------

    def add_import_validator(self, validator: ImportValidator) -> None:
        self._import_validators.append(validator)

    def add_loc_rib_listener(self, listener: LocRibListener) -> None:
        self._loc_rib_listeners.append(listener)

    def add_withdrawal_listener(self, listener: WithdrawalListener) -> None:
        """Observe explicit withdrawals from peers (used by flap damping)."""
        self._withdrawal_listeners.append(listener)

    # -- peering ---------------------------------------------------------------

    def add_peer(self, peer_asn: ASN, link: Link) -> Session:
        """Register a peering over ``link``; does not start the session."""
        validate_asn(peer_asn)
        if peer_asn == self.asn:
            raise SessionError(f"AS{self.asn} cannot peer with itself")
        if peer_asn in self.sessions:
            raise SessionError(f"AS{self.asn} already peers with AS{peer_asn}")
        session = Session(
            self.sim, self, peer_asn, link, hold_time=self.config.hold_time
        )
        self.sessions[peer_asn] = session
        self._links[peer_asn] = link
        # Deliveries go straight to the session owning this peering — the
        # link already guarantees the sender is the other endpoint, so the
        # per-message session lookup of the generic _receive path is
        # unnecessary.
        link.attach(self.asn, session.handle_wire)
        return session

    def start_session(self, peer_asn: ASN) -> None:
        self._session_for(peer_asn).start()

    def start_all_sessions(self) -> None:
        """Actively open every configured session that is still idle.

        Both endpoints may call this: the passive side's session answers the
        incoming OPEN from idle state.
        """
        for session in self.sessions.values():
            if session.state is SessionState.IDLE:
                session.start()

    def _session_for(self, peer_asn: ASN) -> Session:
        try:
            return self.sessions[peer_asn]
        except KeyError:
            raise SessionError(f"AS{self.asn} has no session with AS{peer_asn}")

    def _receive(self, sender: ASN, message: Message) -> None:
        # Per-message hot path: one dict probe, no helper frame.
        session = self.sessions.get(sender)
        if session is None:
            raise SessionError(f"AS{self.asn} has no session with AS{sender}")
        session.handle_message(message)

    @property
    def established_peers(self) -> List[ASN]:
        peers = self._established_cache
        if peers is None:
            peers = sorted(
                asn for asn, session in self.sessions.items() if session.established
            )
            self._established_cache = peers
        return peers

    def clear_caches(self) -> None:
        """Drop the propagation-path memo caches.

        Registered as a simulator reset hook: without it a reused network
        keeps stale prepend entries forever and memory grows
        monotonically across long sweeps.  Safe at any time — the caches
        are pure memoisation and rebuild on demand.
        """
        self._established_cache = None
        self._prepend_cache.clear()

    # -- origination ------------------------------------------------------------

    def originate(
        self,
        prefix: Prefix,
        communities: Iterable[Community] = (),
        origin: Origin = Origin.IGP,
    ) -> None:
        """Start announcing ``prefix`` as locally reachable.

        The local route has an empty AS path; this speaker's ASN is
        prepended on export, so neighbours see path ``(self.asn)`` —
        making this AS the route's origin.
        """
        attributes = self._interner.attributes(
            PathAttributes(
                origin=origin,
                communities=communities,
            )
        )
        entry = RibEntry(
            prefix,
            attributes,
            peer=None,
            installed_at=self.sim.now,
            installed_seq=self.sim.next_sequence(),
        )
        self._local_routes[prefix] = entry
        self._run_decision(prefix)

    def withdraw_origination(self, prefix: Prefix) -> None:
        """Stop announcing a locally originated prefix."""
        if prefix not in self._local_routes:
            raise ValueError(f"AS{self.asn} does not originate {prefix}")
        del self._local_routes[prefix]
        self._run_decision(prefix)

    @property
    def originated_prefixes(self) -> List[Prefix]:
        return sorted(self._local_routes)

    # -- update processing ----------------------------------------------------------

    def handle_update(self, peer: ASN, message: UpdateMessage) -> None:
        """Process an UPDATE from an established peer.

        The per-prefix candidate deltas (what was inserted into / removed
        from the Adj-RIB-In) are collected into a dirty-prefix map and fed
        to the incremental decision path, which can usually adjudicate a
        single challenger against the cached best route without rescanning
        all candidates.
        """
        self.updates_received += 1
        if self._m_updates_received is not None:
            self._m_updates_received.inc()
        # Dirty prefixes: prefix -> (inserted entry or None, removed entry
        # or None).  An UPDATE touches each prefix at most once (announced
        # and withdrawn sets are disjoint by construction).
        changes: Dict[Prefix, tuple] = {}

        # Withdrawal listeners observe removal order; iterate sorted so the
        # set's hash order never reaches flap-damping (or any other) state.
        if message.withdrawn:
            withdrawn = message.withdrawn
            # Most UPDATEs carry one prefix; skip the sort for those.
            for prefix in (
                sorted(withdrawn) if len(withdrawn) > 1 else withdrawn
            ):
                removed = self.adj_rib_in.remove(peer, prefix)
                if removed is not None:
                    changes[prefix] = (None, removed)
                    for listener in self._withdrawal_listeners:
                        listener(peer, prefix)

        if message.announced:
            attributes = message.attributes
            if attributes is None:
                raise InvariantError(
                    f"AS{self.asn}: UPDATE from peer {peer} announces "
                    f"{len(message.announced)} prefix(es) without attributes"
                )
            if self.asn in attributes.as_path:
                # Loop detection: our own ASN in the path (RFC 4271 §9.1.2).
                # The announcement still *replaces* the peer's previous
                # route for these prefixes — treating it as unreachable.
                # Keeping the stale route would leave ghost paths alive
                # after the real origin withdraws.
                self.loops_detected += 1
                self.sim.trace.record(
                    self.sim.now, "bgp.loop_detected", asn=self.asn, peer=peer
                )
                for prefix in sorted(message.announced):
                    removed = self.adj_rib_in.remove(peer, prefix)
                    if removed is not None:
                        changes[prefix] = (None, removed)
            else:
                announced = message.announced
                for prefix in (
                    sorted(announced) if len(announced) > 1 else announced
                ):
                    changed, inserted, removed = self._import_route(
                        peer, prefix, attributes
                    )
                    if changed:
                        changes[prefix] = (inserted, removed)

        if changes:
            for prefix in sorted(changes) if len(changes) > 1 else changes:
                inserted, removed = changes[prefix]
                self._decide_after_change(prefix, inserted, removed)

    def _import_route(
        self, peer: ASN, prefix: Prefix, attributes: PathAttributes
    ) -> tuple:
        """Run import policy and validators; install into Adj-RIB-In.

        Returns ``(changed, inserted, removed)``: whether the prefix's
        candidate set changed, the entry installed (if any) and the entry
        displaced (if any).  A rejection still *removes* any previous route
        from this peer for the prefix — an announcement implicitly replaces
        the old route, and if the replacement is rejected the old one must
        not linger.
        """
        if self._passthrough_policy:
            # Accept-all policy: skip the call and its PolicyVerdict.
            imported: Optional[PathAttributes] = attributes
        else:
            verdict = self.policy.apply_import(peer, prefix, attributes)
            if not verdict.accepted:
                self.routes_rejected_by_policy += 1
                removed = self.adj_rib_in.remove(peer, prefix)
                return (removed is not None, None, removed)
            imported = verdict.attributes
            if imported is None:
                raise InvariantError(
                    f"AS{self.asn}: import policy accepted {prefix} from peer "
                    f"{peer} but returned no attributes"
                )

        for validator in self._import_validators:
            if not validator(peer, prefix, imported):
                self.routes_rejected_by_validator += 1
                self.sim.trace.record(
                    self.sim.now,
                    "bgp.validator_reject",
                    asn=self.asn,
                    peer=peer,
                    prefix=str(prefix),
                    origin=imported.origin_asn,
                )
                removed = self.adj_rib_in.remove(peer, prefix)
                return (removed is not None, None, removed)

        # Canonicalise through the network-wide intern table: equal
        # attribute bundles held by many speakers collapse to one object,
        # and the duplicate check below usually hits the identity path.
        imported = self._interner.attributes(imported)
        previous = self.adj_rib_in.get(peer, prefix)
        if previous is not None and previous.attributes == imported:
            # Duplicate announcement: the candidate set is unchanged, so the
            # decision process need not re-run.  Keeping the original entry
            # also preserves its install time for prefer-oldest tie-breaks.
            return (False, None, None)

        entry = RibEntry(
            prefix,
            imported,
            peer=peer,
            installed_at=self.sim.now,
            installed_seq=self.sim.next_sequence(),
        )
        self.adj_rib_in.insert(entry)
        return (True, entry, previous)

    def invalidate_route(self, peer: ASN, prefix: Prefix) -> bool:
        """Retroactively remove an accepted route (validator callback).

        Returns True if a route was actually removed.
        """
        removed = self.adj_rib_in.remove(peer, prefix)
        if removed is None:
            return False
        self.sim.trace.record(
            self.sim.now,
            "bgp.route_invalidated",
            asn=self.asn,
            peer=peer,
            prefix=str(prefix),
        )
        self._run_decision(prefix)
        return True

    # -- decision process --------------------------------------------------------------

    def _run_decision(self, prefix: Prefix) -> None:
        """Re-select the best route for ``prefix`` over all candidates."""
        if self._m_decision_runs is not None:
            self._m_decision_runs.inc()
        candidates = list(self.adj_rib_in.routes_for_prefix(prefix))
        local = self._local_routes.get(prefix)
        if local is not None:
            candidates.append(local)

        new_best = self.decision.select_best(candidates)
        old_best = self.loc_rib.get(prefix)

        if new_best is old_best:
            return
        if (
            new_best is not None
            and old_best is not None
            and new_best.attributes == old_best.attributes
            and new_best.peer == old_best.peer
        ):
            return  # same route object semantics; nothing to re-advertise

        self._apply_best(prefix, new_best, old_best)

    def _decide_after_change(
        self,
        prefix: Prefix,
        inserted: Optional[RibEntry],
        removed: Optional[RibEntry],
    ) -> None:
        """Incremental decision: adjudicate one candidate delta against the
        cached best route instead of rescanning every candidate.

        The shortcut is only sound when the route comparator is a total
        order, because then ``max(S ∪ {c}) = max(max(S), c)``.  The one
        rung that can break transitivity is MED-compared-only-within-peer
        (RFC 4271's default): with every installed MED equal (tracked by
        the Adj-RIB-In) — or MED compared across peers — the ladder is a
        strict lexicographic order and the algebra holds.  Locally
        originated routes always carry MED 0 (:meth:`originate` builds
        them without one).  Any state this cannot prove safe falls back to
        the full scan, which is always correct.
        """
        if not self.decision.med_across_peers and self.adj_rib_in.has_nonzero_med:
            self._run_decision(prefix)
            return
        old_best = self.loc_rib.get(prefix)
        if old_best is None:
            # No incumbent: the candidate set was empty before this change,
            # or something unusual happened — scan.
            self._run_decision(prefix)
            return
        # The incumbent must still be installed (checked by identity — a
        # replacement by an equal-valued entry must not pass).  This is
        # exactly the case where this very change removed/replaced the
        # best route, and the remaining candidates must be rescanned.
        if old_best.peer is None:
            if self._local_routes.get(prefix) is not old_best:
                self._run_decision(prefix)
                return
        elif self.adj_rib_in.get(old_best.peer, prefix) is not old_best:
            self._run_decision(prefix)
            return
        if inserted is None:
            # Pure removal of a non-best candidate: removing a non-maximal
            # element leaves the maximum — and the full scan would have
            # early-returned on ``new_best is old_best``.
            if self._m_decision_runs is not None:
                self._m_decision_runs.inc()
            return
        outcome = self.decision.compare(inserted, old_best)
        if outcome is RouteComparison.RIGHT_BETTER:
            # Challenger loses to the incumbent, which already beats every
            # other candidate: the full scan would re-select old_best and
            # early-return without side effects.
            if self._m_decision_runs is not None:
                self._m_decision_runs.inc()
            return
        if outcome is RouteComparison.LEFT_BETTER:
            # Challenger beats the incumbent, hence every candidate: it is
            # the new best.  (The "same attributes, same peer" early-return
            # of the full scan cannot apply — the challenger's peer differs
            # from the incumbent's, or the incumbent would have failed the
            # identity check above.)
            if self._m_decision_runs is not None:
                self._m_decision_runs.inc()
            self._apply_best(prefix, inserted, old_best)
            return
        self._run_decision(prefix)  # EQUAL should be unreachable; be safe

    def _apply_best(
        self,
        prefix: Prefix,
        new_best: Optional[RibEntry],
        old_best: Optional[RibEntry],
    ) -> None:
        """Install/withdraw the Loc-RIB best route and propagate the change."""
        if new_best is None:
            self.loc_rib.withdraw(prefix)
        else:
            self.loc_rib.install(new_best)

        trace = self.sim.trace
        if trace.wants("bgp.best_changed"):
            # Guarded at the call site: str(prefix) and the kwargs dict are
            # measurable per best-route change on large convergence runs.
            trace.record(
                self.sim.now,
                "bgp.best_changed",
                asn=self.asn,
                prefix=str(prefix),
                origin=None if new_best is None else new_best.origin_asn,
            )
        for listener in self._loc_rib_listeners:
            listener(prefix, new_best, old_best)

        self._schedule_propagation(prefix)

        if self.sim.sanitize:
            check_speaker_invariants(self)

    # -- propagation --------------------------------------------------------------------

    def on_session_established(self, peer: ASN) -> None:
        """Advertise the full Loc-RIB to a newly established peer."""
        self._established_cache = None
        for prefix in sorted(self.loc_rib.prefixes()):
            self._enqueue_announcement(peer, prefix)
        self._flush_peer(peer)

    def on_session_closed(self, peer: ASN) -> None:
        """Flush routes learned from a dead peer and re-run decisions."""
        self._established_cache = None
        removed = self.adj_rib_in.remove_peer(peer)
        self.adj_rib_out.remove_peer(peer)
        self._pending_announce.pop(peer, None)
        timer = self._mrai_timers.pop(peer, None)
        if timer is not None:
            timer.stop()
        for entry in removed:
            self._run_decision(entry.prefix)

    def _schedule_propagation(self, prefix: Prefix) -> None:
        for peer in self.established_peers:
            self._enqueue_announcement(peer, prefix)
        for peer in self.established_peers:
            self._maybe_flush(peer)

    def _enqueue_announcement(self, peer: ASN, prefix: Prefix) -> None:
        self._pending_announce.setdefault(peer, set()).add(prefix)

    def _maybe_flush(self, peer: ASN) -> None:
        """Send pending routes to ``peer`` unless MRAI is holding them."""
        timer = self._mrai_timers.get(peer)
        if timer is not None and timer.running:
            return  # MRAI in effect; timer expiry will flush
        self._flush_peer(peer)

    def _flush_peer(self, peer: ASN) -> None:
        pending = self._pending_announce.get(peer)
        if not pending:
            return
        self._pending_announce[peer] = set()

        # Containers are created lazily: the common flush outcome is full
        # duplicate suppression (nothing to send at all).
        announcements: Optional[Dict[PathAttributes, Set[Prefix]]] = None
        withdrawals: Optional[Set[Prefix]] = None

        for prefix in sorted(pending) if len(pending) > 1 else pending:
            best = self.loc_rib.get(prefix)
            if best is None or best.peer == peer:
                # Nothing to advertise (or learned from this very peer):
                # withdraw if we had previously advertised it.
                if self.adj_rib_out.has_advertised(peer, prefix):
                    if withdrawals is None:
                        withdrawals = set()
                    withdrawals.add(prefix)
                    self.adj_rib_out.record_withdrawal(peer, prefix)
                continue
            export = self._export_attributes(peer, best)
            if export is None:
                if self.adj_rib_out.has_advertised(peer, prefix):
                    if withdrawals is None:
                        withdrawals = set()
                    withdrawals.add(prefix)
                    self.adj_rib_out.record_withdrawal(peer, prefix)
                continue
            if self.adj_rib_out.advertised(peer, prefix) == export:
                continue  # duplicate suppression
            if announcements is None:
                announcements = {}
            announcements.setdefault(export, set()).add(prefix)
            self.adj_rib_out.record_advertisement(peer, prefix, export)

        if announcements is None and withdrawals is None:
            return

        sent_any = False
        sent_count = 0
        link = self._links[peer]
        if withdrawals:
            link.send(self.asn, UpdateMessage(withdrawn=withdrawals))
            self.updates_sent += 1
            sent_count += 1
            sent_any = True
        if announcements:
            for attributes, prefixes in announcements.items():
                link.send(
                    self.asn,
                    UpdateMessage(announced=prefixes, attributes=attributes),
                )
                self.updates_sent += 1
                sent_count += 1
                sent_any = True
        if sent_count and self._m_updates_sent is not None:
            self._m_updates_sent.inc(sent_count)

        if sent_any and self.config.mrai > 0:
            timer = self._mrai_timers.get(peer)
            if timer is None:
                timer = Timer(
                    self.sim,
                    self.config.mrai,
                    lambda p=peer: self._mrai_fire(p),
                    label=f"mrai->{peer}",
                )
                self._mrai_timers[peer] = timer
            timer.restart()

    def _mrai_fire(self, peer: ASN) -> None:
        """MRAI expiry: flush whatever pacing held back for ``peer``."""
        if self._m_mrai_fires is not None:
            self._m_mrai_fires.inc()
        self._flush_peer(peer)

    def _export_attributes(
        self, peer: ASN, entry: RibEntry
    ) -> Optional[PathAttributes]:
        """Apply export policy and prepend our ASN; None means do-not-export.

        The RFC 1997 well-known communities are honoured first: a route
        carrying NO_ADVERTISE is never re-advertised, and — with every
        session in this simulator an eBGP session between distinct ASes —
        NO_EXPORT has the same effect.  Locally originated routes are
        exempt (the originator may still announce its own prefix).
        """
        if not entry.is_local:
            community_values = {c.to_u32() for c in entry.attributes.communities}
            if community_values & {
                Community.NO_ADVERTISE,
                Community.NO_EXPORT,
                Community.NO_EXPORT_SUBCONFED,
            }:
                return None
        verdict = self.policy.apply_export(peer, entry.prefix, entry.attributes)
        if not verdict.accepted:
            return None
        base = verdict.attributes
        if base is None:
            raise InvariantError(
                f"AS{self.asn}: export policy accepted {entry.prefix} for "
                f"peer {peer} but returned no attributes"
            )
        # The prepend + LOCAL_PREF reset depends only on the post-policy
        # attributes (our ASN is fixed), so a best route exported to many
        # peers builds the exported bundle exactly once; the interned object
        # keeps downstream equality checks on the identity fast path.
        # (LOCAL_PREF is not sent across eBGP sessions; reset to default.)
        exported = self._prepend_cache.get(base)
        if exported is None:
            exported = self._interner.attributes(
                base.with_prepended(self.asn, next_hop=self.asn).replace(
                    local_pref=PathAttributes.DEFAULT_LOCAL_PREF
                )
            )
            self._prepend_cache[base] = exported
        return exported

    # -- snapshot / restore ------------------------------------------------------------

    def pending_events(self) -> int:
        """Armed timer expiries owned by this speaker (MRAI + sessions)."""
        count = sum(1 for timer in self._mrai_timers.values() if timer.running)
        count += sum(session.pending_events() for session in self.sessions.values())
        return count

    def snapshot_state(self) -> Dict[str, Any]:
        """Capture the full routing process state.

        Containers are copied; the entries, attributes and prefixes inside
        them are immutable value objects and shared with the live tables.
        The prepend memo is captured too; routing does not depend on it,
        it only spares the restored run rebuilding exported bundles.
        """
        mrai: Dict[ASN, Dict[str, Any]] = {}
        for peer, timer in sorted(self._mrai_timers.items()):
            if timer.running:
                mrai[peer] = {
                    "expires_at": timer.expires_at,
                    "sort_key": timer.sort_key,
                }
        return {
            "adj_rib_in": self.adj_rib_in.snapshot_state(),
            "loc_rib": self.loc_rib.snapshot_state(),
            "adj_rib_out": self.adj_rib_out.snapshot_state(),
            "local_routes": dict(self._local_routes),
            "pending_announce": {
                peer: set(prefixes)
                for peer, prefixes in self._pending_announce.items()
            },
            "sessions": {
                peer: session.snapshot_state()
                for peer, session in sorted(self.sessions.items())
            },
            "mrai": mrai,
            "prepend_cache": dict(self._prepend_cache),
            "counters": {
                "updates_received": self.updates_received,
                "updates_sent": self.updates_sent,
                "routes_rejected_by_policy": self.routes_rejected_by_policy,
                "routes_rejected_by_validator": self.routes_rejected_by_validator,
                "loops_detected": self.loops_detected,
            },
        }

    def restore_state(self, state: Dict[str, Any], rearm: RearmPlan) -> None:
        """Overlay a snapshot onto this speaker (built for the same graph).

        Session FSM state is overwritten directly — ``on_session_established``
        must not re-fire, because the restored Adj-RIB-Out already reflects
        the advertisements it would trigger.
        """
        self.adj_rib_in.restore_state(state["adj_rib_in"])
        self.loc_rib.restore_state(state["loc_rib"])
        self.adj_rib_out.restore_state(state["adj_rib_out"])
        self._local_routes = dict(state["local_routes"])
        self._pending_announce = {
            peer: set(prefixes)
            for peer, prefixes in state["pending_announce"].items()
        }
        for peer, session_state in state["sessions"].items():
            session = self.sessions.get(peer)
            if session is None:
                raise SessionError(
                    f"snapshot has a session AS{self.asn}<->AS{peer} missing "
                    "from the restored network"
                )
            session.restore_state(session_state, rearm)
        self._mrai_timers = {}
        for peer, info in state["mrai"].items():
            timer = Timer(
                self.sim,
                self.config.mrai,
                lambda p=peer: self._mrai_fire(p),
                label=f"mrai->{peer}",
            )
            self._mrai_timers[peer] = timer
            rearm.add(
                info["sort_key"],
                lambda t=timer, at=info["expires_at"]: t.resume_at(at),
            )
        self._established_cache = None
        self._prepend_cache = dict(state["prepend_cache"])
        counters = state["counters"]
        self.updates_received = counters["updates_received"]
        self.updates_sent = counters["updates_sent"]
        self.routes_rejected_by_policy = counters["routes_rejected_by_policy"]
        self.routes_rejected_by_validator = counters["routes_rejected_by_validator"]
        self.loops_detected = counters["loops_detected"]

    # -- queries ---------------------------------------------------------------------------

    def best_route(self, prefix: Prefix) -> Optional[RibEntry]:
        return self.loc_rib.get(prefix)

    def best_origin(self, prefix: Prefix) -> Optional[ASN]:
        entry = self.loc_rib.get(prefix)
        if entry is None:
            return None
        if entry.is_local and entry.attributes.as_path.is_empty:
            return self.asn
        return entry.origin_asn

    def routing_table(self) -> Dict[Prefix, RibEntry]:
        return {entry.prefix: entry for entry in self.loc_rib.entries()}
