"""Stream/batch equivalence: the online detector over a diffed feed must
reproduce the snapshot-based observer's daily MOAS counts exactly.

This is the ISSUE's parity acceptance criterion.  The daily count depends
only on which origins are live at each tick — never on MOAS-list contents —
so both diff mode (births coordinated, additions unilateral) and refresh
mode (everything re-announced daily) must agree with the batch path.
"""

from __future__ import annotations

import random

import pytest

from repro.experiments.measurement_repro import run_measurement_study
from repro.measurement.trace import FaultSpike, TraceConfig, TraceGenerator
from repro.stream.engine import StreamEngine
from repro.stream.feed import snapshot_deltas


def stream_engine(config, seed, refresh=False, window=None):
    generator = TraceGenerator(config, random.Random(seed))
    engine = StreamEngine(
        window=float(config.days) + 1.0 if window is None else window
    )
    for record in snapshot_deltas(generator.snapshots(), refresh=refresh):
        engine.apply(record)
    return engine


def stream_daily_counts(config, seed, refresh=False):
    return stream_engine(config, seed, refresh).daily_counts


def batch_daily_counts(config, seed):
    result = run_measurement_study(config, seed=seed, duration_cutoff=config.days)
    return dict(result.observer.daily_counts)


SMALL_FAULTED = TraceConfig(
    days=60,
    active_start=40,
    active_end=60,
    faults=(FaultSpike(day=30, faulty_as=8584, n_prefixes=25),),
    n_background_prefixes=120,
    n_origin_pool=300,
)


class TestSmallTraceParity:
    def test_diff_feed_matches_batch(self):
        assert stream_daily_counts(SMALL_FAULTED, 3) == batch_daily_counts(
            SMALL_FAULTED, 3
        )

    def test_refresh_feed_matches_batch(self):
        assert stream_daily_counts(SMALL_FAULTED, 3, refresh=True) == (
            batch_daily_counts(SMALL_FAULTED, 3)
        )

    def test_parity_across_seeds(self):
        for seed in (1, 2, 5):
            assert stream_daily_counts(SMALL_FAULTED, seed) == (
                batch_daily_counts(SMALL_FAULTED, seed)
            ), f"seed {seed}"

    @pytest.mark.parametrize("refresh", [False, True])
    def test_short_window_evictions_keep_parity(self, refresh):
        """A two-tick window evicts dead prefixes' evidence all along the
        trace; eviction must never touch a live prefix (whose activity
        stamp a refresh re-announcement drops), so counts stay exact."""
        engine = stream_engine(SMALL_FAULTED, 3, refresh=refresh, window=2.0)
        assert engine.evictions > 0
        assert engine.daily_counts == batch_daily_counts(SMALL_FAULTED, 3)

    def test_background_prefixes_do_not_perturb_counts(self):
        with_bg = TraceConfig(
            days=30, active_start=20, active_end=30, faults=(),
            n_background_prefixes=80, include_background=True,
        )
        without_bg = TraceConfig(
            days=30, active_start=20, active_end=30, faults=(),
            n_background_prefixes=80, include_background=False,
        )
        assert stream_daily_counts(with_bg, 4) == batch_daily_counts(without_bg, 4)


@pytest.mark.slow
class TestFullTraceParity:
    def test_full_paper_trace_figure4_parity(self):
        # The full 1279-day paper-calibrated trace, default faults included:
        # the stream path must land on the identical Figure 4 series.
        config = TraceConfig()
        stream = stream_daily_counts(config, 42)
        batch = batch_daily_counts(config, 42)
        assert len(stream) == config.days
        assert stream == batch
        # Sanity: the 1998 fault spike is visible on both paths.
        fault_day = config.faults[0].day
        assert stream[fault_day] > stream[fault_day - 1] + 500
