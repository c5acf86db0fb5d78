"""One MOAS detector, two drivers: batch checker == stream engine.

The batch :class:`MoasChecker` and the online :class:`StreamEngine` both run
the §4.2 rule through :class:`MoasDetector`.  The differential test feeds
both the same random announcement sequence and requires the same alarm
sequence, the engine's after its first-seen dedup; the unit tests pin the
detector's own contract.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.speaker import BGPSpeaker
from repro.core.alarms import AlarmKind
from repro.core.checker import CheckerMode, MoasChecker
from repro.core.detection import MoasDetector
from repro.core.moas_list import MoasList, moas_communities
from repro.eventsim.simulator import Simulator
from repro.net.addresses import Prefix
from repro.stream.engine import StreamEngine
from repro.stream.feed import OP_ANNOUNCE, FeedRecord

PREFIXES = [Prefix.parse(p) for p in ("10.0.0.0/16", "10.1.0.0/16", "10.2.0.0/24")]
ASNS = st.integers(min_value=1, max_value=5)

# (prefix index, origin, explicit MOAS list or None for the implicit
# singleton).  Lists are drawn independently of the origin, so origins
# missing from their own list come up often.
announcements = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(PREFIXES) - 1),
        ASNS,
        st.one_of(st.none(), st.lists(ASNS, min_size=1, max_size=3, unique=True)),
    ),
    max_size=40,
)


def checker_alarms(sequence):
    speaker = BGPSpeaker(Simulator(), 64512)
    checker = MoasChecker(mode=CheckerMode.ALARM_ONLY)
    checker.attach(speaker)
    for index, origin, moas in sequence:
        communities = moas_communities(moas) if moas else frozenset()
        attributes = PathAttributes(
            as_path=AsPath.from_asns([origin]), communities=communities
        )
        assert checker.validate(7, PREFIXES[index], attributes) is True
    return [
        (
            str(alarm.prefix),
            alarm.kind.value,
            tuple(alarm.observed_list),
            None
            if alarm.conflicting_list is None
            else tuple(alarm.conflicting_list),
            alarm.suspect_origin,
        )
        for alarm in checker.alarms
    ]


def engine_alarms(sequence):
    engine = StreamEngine()
    emitted = []
    for time, (index, origin, moas) in enumerate(sequence):
        record = FeedRecord(
            OP_ANNOUNCE,
            float(time),
            PREFIXES[index],
            origin,
            None if moas is None else tuple(moas),
        )
        emitted.extend(alarm.key() for alarm in engine.apply(record))
    return emitted, engine.alarm_totals()


@settings(max_examples=300, deadline=None)
@given(announcements)
def test_checker_and_engine_emit_the_same_alarms(sequence):
    batch = checker_alarms(sequence)
    stream, totals = engine_alarms(sequence)
    assert stream == list(dict.fromkeys(batch))
    # Dedup drops repeats from the log, not from the engine's counts.
    assert totals == dict(sorted(Counter(key[1] for key in batch).items()))


def test_differential_covers_both_alarm_kinds():
    sequence = [(0, 1, None), (0, 2, [2, 3]), (0, 4, [2, 3]), (0, 4, [2, 3])]
    batch = checker_alarms(sequence)
    assert [key[1] for key in batch] == [
        AlarmKind.INCONSISTENT_LISTS.value,
        AlarmKind.ORIGIN_NOT_IN_OWN_LIST.value,
        AlarmKind.ORIGIN_NOT_IN_OWN_LIST.value,
    ]
    stream, _ = engine_alarms(sequence)
    assert stream == batch[:2]


class TestMoasDetector:
    P = PREFIXES[0]

    def test_first_list_is_new_evidence(self):
        detector = MoasDetector()
        assert detector.check(self.P, 1, MoasList([1])) == (None, None, True)
        assert detector.check(self.P, 1, MoasList([1])) == (None, None, False)

    def test_origin_missing_from_own_list_is_not_evidence(self):
        detector = MoasDetector()
        finding = detector.check(self.P, 9, MoasList([1, 2]))
        assert finding == (AlarmKind.ORIGIN_NOT_IN_OWN_LIST, None, False)
        assert self.P not in detector.observed

    def test_as_set_origin_skips_step_two(self):
        detector = MoasDetector()
        assert detector.check(self.P, None, MoasList([1])) == (None, None, True)

    def test_conflicting_list_is_the_first_in_key_order(self):
        detector = MoasDetector()
        detector.check(self.P, 3, MoasList([3]))
        detector.check(self.P, 1, MoasList([1, 2]))
        finding = detector.check(self.P, 2, MoasList([2]))
        assert finding == (AlarmKind.INCONSISTENT_LISTS, MoasList([1, 2]), True)
        # A repeat of a conflicting list is already on record.
        assert detector.check(self.P, 2, MoasList([2])) == (None, None, False)

    def test_forget_drops_evidence(self):
        detector = MoasDetector()
        detector.check(self.P, 1, MoasList([1]))
        detector.forget(self.P)
        detector.forget(self.P)  # idempotent
        assert detector.check(self.P, 2, MoasList([2])) == (None, None, True)
