"""The per-router MOAS-list consistency checker (§4.2).

A :class:`MoasChecker` attaches to one :class:`~repro.bgp.speaker.BGPSpeaker`
as an import validator.  For every route that survives import policy it:

1. decodes the route's MOAS list (explicit communities, or the footnote-3
   implicit singleton {origin}); an aggregated route with an AS_SET origin
   and no communities carries no origin claim and is accepted unchecked;
2. hands the list to its :class:`~repro.core.detection.MoasDetector`,
   which applies steps 2 and 3 of the rule (an origin missing from its own
   list; a list inconsistent with one seen before for the prefix) and
   turns each finding into an :class:`~repro.core.alarms.Alarm`;
3. in ``DETECT_AND_SUPPRESS`` mode, rejects a malformed announcement, and
   once a conflict exists adjudicates through the origin oracle (§4.4):
   routes whose origin is not authorised are rejected, and already-accepted
   routes from unauthorised origins are retroactively invalidated — "they
   stop the further propagation of a false route".

``ALARM_ONLY`` mode raises the same alarms but never drops a route; it is
the ablation arm measuring the value of suppression, and also models the
off-line §4.2 deployment where checking is advisory.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Optional, Set

from repro.bgp.attributes import PathAttributes
from repro.bgp.speaker import BGPSpeaker
from repro.core.alarms import Alarm, AlarmKind, AlarmLog
from repro.core.detection import MoasDetector
from repro.core.moas_list import MoasList, extract_moas_list
from repro.core.origin_verification import OriginOracle
from repro.net.addresses import Prefix
from repro.net.asn import ASN
from repro.sanitize import InvariantError


class CheckerMode(enum.Enum):
    ALARM_ONLY = "alarm-only"
    DETECT_AND_SUPPRESS = "detect-and-suppress"


class MoasChecker:
    """MOAS-list checking for one router."""

    # Not run state: mode/oracle are construction config pinned by the
    # warm-start baseline key, the alarm log is captured at the
    # BaselineSnapshot level, and the speaker back-reference plus metric
    # instruments are re-wired by attach() on the restored network.
    _SNAPSHOT_WAIVED = frozenset(
        {
            "mode",
            "oracle",
            "alarms",
            "_speaker",
            "_m_checks",
            "_m_alarms",
            "_m_conflicts",
            "_m_suppressed",
        }
    )

    def __init__(
        self,
        mode: CheckerMode = CheckerMode.DETECT_AND_SUPPRESS,
        oracle: Optional[OriginOracle] = None,
        alarm_log: Optional[AlarmLog] = None,
    ) -> None:
        if mode is CheckerMode.DETECT_AND_SUPPRESS and oracle is None:
            raise ValueError("DETECT_AND_SUPPRESS mode requires an origin oracle")
        self.mode = mode
        self.oracle = oracle
        self.alarms = alarm_log if alarm_log is not None else AlarmLog()
        self._speaker: Optional[BGPSpeaker] = None
        # Metric instruments, resolved at attach() from the speaker's
        # simulator registry; None when metrics are disabled.
        self._m_checks = None
        self._m_alarms = None
        self._m_conflicts = None
        self._m_suppressed = None
        self._detector = MoasDetector()
        # Prefixes already adjudicated by the oracle, with the verdict.
        self._verdicts: Dict[Prefix, Optional[frozenset]] = {}
        self.checks = 0
        self.conflicts_detected = 0
        self.routes_suppressed = 0

    # -- wiring --------------------------------------------------------------

    def attach(self, speaker: BGPSpeaker) -> None:
        """Install this checker as the speaker's import validator."""
        if self._speaker is not None:
            raise RuntimeError("checker is already attached to a speaker")
        self._speaker = speaker
        speaker.add_import_validator(self.validate)
        metrics = speaker.sim.metrics
        if metrics is not None:
            self._m_checks = metrics.counter("checker.checks")
            self._m_alarms = metrics.counter("checker.alarms")
            self._m_conflicts = metrics.counter("checker.list_conflicts")
            self._m_suppressed = metrics.counter("checker.routes_suppressed")

    @property
    def _observed(self) -> Dict[Prefix, Set[MoasList]]:
        """The detector's per-prefix evidence map."""
        return self._detector.observed

    @property
    def speaker(self) -> BGPSpeaker:
        if self._speaker is None:
            raise RuntimeError("checker is not attached to a speaker")
        return self._speaker

    def _now(self) -> float:
        return self.speaker.sim.now if self._speaker is not None else 0.0

    def _raise_alarm(self, alarm: Alarm) -> None:
        if self._m_alarms is not None:
            self._m_alarms.inc()
        self.alarms.raise_alarm(alarm)

    def _count_suppressed(self) -> None:
        self.routes_suppressed += 1
        if self._m_suppressed is not None:
            self._m_suppressed.inc()

    # -- snapshot / restore ------------------------------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """Capture observed lists, verdicts and counters.

        :class:`~repro.core.moas_list.MoasList` values and verdict frozensets
        are immutable and shared; the containers are copied.
        """
        return {
            "observed": {
                prefix: set(lists)
                for prefix, lists in self._detector.observed.items()
            },
            "verdicts": dict(self._verdicts),
            "checks": self.checks,
            "conflicts_detected": self.conflicts_detected,
            "routes_suppressed": self.routes_suppressed,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        self._detector.observed = {
            prefix: set(lists) for prefix, lists in state["observed"].items()
        }
        self._verdicts = dict(state["verdicts"])
        self.checks = state["checks"]
        self.conflicts_detected = state["conflicts_detected"]
        self.routes_suppressed = state["routes_suppressed"]

    # -- the import validator ----------------------------------------------------

    def validate(self, peer: ASN, prefix: Prefix, attributes: PathAttributes) -> bool:
        """Import-validator entry point; False rejects the route."""
        self.checks += 1
        if self._m_checks is not None:
            self._m_checks.inc()
        moas_list = extract_moas_list(attributes)
        origin = attributes.origin_asn

        if moas_list is None:
            # Aggregated route with AS_SET origin and no communities: no
            # origin claim to check.  Accept — the paper's mechanism is
            # per-origin and has nothing to compare here.
            return True

        kind, conflicting, _ = self._detector.check(prefix, origin, moas_list)
        if kind is not None:
            self._raise_alarm(
                Alarm(
                    time=self._now(),
                    detector=self.speaker.asn,
                    prefix=prefix,
                    kind=kind,
                    observed_list=moas_list,
                    conflicting_list=conflicting,
                    suspect_origin=origin,
                )
            )
            if kind is AlarmKind.ORIGIN_NOT_IN_OWN_LIST:
                if self.mode is CheckerMode.DETECT_AND_SUPPRESS:
                    self._count_suppressed()
                    return False
                return True
            self.conflicts_detected += 1
            if self._m_conflicts is not None:
                self._m_conflicts.inc()

        if self.mode is CheckerMode.ALARM_ONLY:
            return True

        # Step 4: adjudicate via the oracle once a conflict exists.  The
        # first conflict for a prefix is always a new list, and it leaves a
        # verdict behind, so a repeat of a conflicting list finds the prefix
        # in ``_verdicts``.
        if kind is not None or prefix in self._verdicts:
            authorised = self._adjudicate(prefix)
            if authorised is not None and origin is not None:
                if origin not in authorised:
                    self._raise_alarm(
                        Alarm(
                            time=self._now(),
                            detector=self.speaker.asn,
                            prefix=prefix,
                            kind=AlarmKind.UNAUTHORISED_ORIGIN,
                            observed_list=moas_list,
                            suspect_origin=origin,
                        )
                    )
                    self._count_suppressed()
                    return False
        return True

    def _adjudicate(self, prefix: Prefix) -> Optional[frozenset]:
        """Oracle lookup with caching; sweeps stale accepted routes once."""
        if prefix in self._verdicts:
            return self._verdicts[prefix]
        if self.oracle is None:
            raise InvariantError(
                "DETECT_AND_SUPPRESS checker reached adjudication without "
                "an origin oracle"
            )
        authorised = self.oracle.authorised_origins(prefix)
        self._verdicts[prefix] = authorised
        if authorised is not None:
            self._sweep_unauthorised(prefix, authorised)
        return authorised

    def _sweep_unauthorised(self, prefix: Prefix, authorised: frozenset) -> None:
        """Retroactively invalidate accepted routes from unauthorised
        origins — the bogus route may have arrived before the valid one."""
        stale = [
            entry
            for entry in self.speaker.adj_rib_in.routes_for_prefix(prefix)
            if entry.origin_asn is not None and entry.origin_asn not in authorised
        ]
        for entry in stale:
            if entry.peer is None:
                raise InvariantError(
                    f"locally originated route for {prefix} flagged as an "
                    "unauthorised Adj-RIB-In entry"
                )
            self._raise_alarm(
                Alarm(
                    time=self._now(),
                    detector=self.speaker.asn,
                    prefix=prefix,
                    kind=AlarmKind.UNAUTHORISED_ORIGIN,
                    suspect_origin=entry.origin_asn,
                )
            )
            self._count_suppressed()
            self.speaker.invalidate_route(entry.peer, prefix)
