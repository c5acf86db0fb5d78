"""The §4.2 MOAS-list checking rule, as one stateful detector.

:class:`MoasDetector` owns the per-prefix evidence map — every distinct
MOAS list observed for a prefix — and applies steps 2 and 3 of the rule to
each announcement:

2. an announcement whose own origin is missing from the list it carries is
   malformed by construction (no second view needed) and is not evidence;
3. a list inconsistent with any list seen before for the prefix raises an
   alarm, with the conflicting list picked deterministically by
   :func:`conflict_evidence_key`.

Both drivers run this one rule body: the batch
:class:`~repro.core.checker.MoasChecker` (one per simulated router, adding
the oracle adjudication of step 4) and the online
:class:`~repro.stream.engine.StreamEngine` (adding live-origin state,
alarm dedup and evidence eviction).  Stream == batch therefore holds by
construction, and ``tests/test_detection_differential.py`` checks it
dynamically over random announcement sequences.

The detector knows nothing about speakers, feeds or alarm records: each
driver turns a finding into its own alarm type.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.core.alarms import AlarmKind
from repro.core.moas_list import MoasList
from repro.net.addresses import Prefix
from repro.net.asn import ASN

__all__ = [
    "DEFAULT_EVIDENCE_WINDOW",
    "Finding",
    "MoasDetector",
    "conflict_evidence_key",
]

#: How long (in feed-time days) the stream engine retains conflict evidence
#: for a *dead* prefix before :meth:`MoasDetector.forget` drops it — the
#: bounded-window analogue of the batch checker's run-long evidence.
DEFAULT_EVIDENCE_WINDOW: float = 30.0

#: ``(alarm kind or None, conflicting list or None, list was new evidence)``.
Finding = Tuple[Optional[AlarmKind], Optional[MoasList], bool]

_MALFORMED: Finding = (AlarmKind.ORIGIN_NOT_IN_OWN_LIST, None, False)
_REPEAT: Finding = (None, None, False)
_NEW: Finding = (None, None, True)


def conflict_evidence_key(moas_list: MoasList) -> Tuple[int, ...]:
    """Deterministic ordering key for MOAS-list evidence.

    Raw set iteration order would let alarm evidence depend on hash order;
    the conflicting list of a step-3 alarm is the first inconsistent one in
    this order.
    """
    return tuple(moas_list)


class MoasDetector:
    """Steps 2 and 3 of the checking rule over per-prefix evidence."""

    def __init__(self) -> None:
        # Distinct MOAS lists observed per prefix.  A driver that rejects a
        # route still checks it first, so a rejected bogus route counts as
        # evidence of conflict for later arrivals.
        self.observed: Dict[Prefix, Set[MoasList]] = {}

    def check(
        self, prefix: Prefix, origin: Optional[ASN], moas_list: MoasList
    ) -> Finding:
        """Check one announcement and record its list as evidence.

        Returns the alarm kind (``None`` when the announcement passes), the
        conflicting list of a step-3 alarm, and whether the list was new
        evidence for the prefix.  A list already in the evidence set raises
        nothing: its conflict, if any, was reported when it first arrived.
        ``origin`` is ``None`` for an AS_SET origin, which step 2 cannot
        check.
        """
        if origin is not None and not moas_list.authorises(origin):
            return _MALFORMED
        seen = self.observed.get(prefix)
        if seen is None:
            self.observed[prefix] = {moas_list}
            return _NEW
        # Lists are memoized by extraction, so the steady state (a refresh
        # of a list already seen) is an identity hit here.
        if moas_list in seen:
            return _REPEAT
        conflicting = min(
            (other for other in seen if not moas_list.consistent_with(other)),
            key=conflict_evidence_key,
            default=None,
        )
        seen.add(moas_list)
        if conflicting is None:
            return _NEW
        return AlarmKind.INCONSISTENT_LISTS, conflicting, True

    def forget(self, prefix: Prefix) -> None:
        """Drop the evidence for ``prefix`` (stream eviction)."""
        self.observed.pop(prefix, None)
