"""The benchmark's own rules: percentiles, open-loop accounting, seeded
inputs and the serve ladder.  Run with ``python3 -m pytest perfbench/tests``."""

import json
import threading
import time

import pytest

from common import BenchError, min_samples_for, percentile, samples_above, tail
from loadgen import Request, Result, judge_rung, run_open_loop


# -- percentile rule -----------------------------------------------------------


def test_tail_needs_ten_samples_above():
    samples = [float(i) for i in range(1, 101)]  # 100 samples
    value = tail(samples, 0.90)
    assert value == 90.0
    assert samples_above(samples, value) == 10
    with pytest.raises(BenchError):
        tail(samples[:99], 0.90)
    with pytest.raises(BenchError):
        tail(samples, 0.99)


def test_min_samples_for():
    assert min_samples_for(0.90) == 100
    assert min_samples_for(0.99) == 1000
    for q in (0.5, 0.9, 0.99):
        n = min_samples_for(q)
        assert samples_above([float(i) for i in range(n)], percentile(range(n), q)) >= 10
        tail([float(i) for i in range(n)], q)


def test_ties_do_not_count_as_above():
    samples = [1.0] * 95 + [2.0] * 15
    with pytest.raises(BenchError):
        tail(samples, 0.90)  # p90 is 2.0 and nothing is above it


# -- open-loop accounting ---------------------------------------------------------


class StallFirst:
    """A fake connection: the first reply stalls, the rest are instant."""

    def __init__(self, stall: float) -> None:
        self.stall = stall
        self.calls = 0
        self.lock = threading.Lock()

    def __call__(self, path, etag):
        with self.lock:
            self.calls += 1
            first = self.calls == 1
        if first:
            time.sleep(self.stall)
        return 200, b"{}", None


def test_a_stall_charges_the_requests_queued_behind_it():
    schedule = [Request(due=i * 0.02, path="/x") for i in range(6)]
    results = run_open_loop(schedule, [StallFirst(0.3)])
    assert [r.index for r in results] == list(range(6))
    assert results[0].latency >= 0.3
    # Request i was due at 20*i ms but could not be sent before the stall
    # ended at ~300 ms: its latency counts that wait.
    for i in range(1, 6):
        assert results[i].latency >= 0.3 - i * 0.02 - 0.005
        assert results[i].service < 0.05
        assert results[i].late < 0.05  # waiting for the connection is not lateness


def test_no_stall_means_low_latency():
    schedule = [Request(due=i * 0.01, path="/x") for i in range(10)]
    results = run_open_loop(schedule, [StallFirst(0.0), StallFirst(0.0)])
    assert max(r.latency for r in results) < 0.05


def test_a_failed_request_is_recorded_as_status_zero():
    def refuse(path, etag):
        raise ConnectionRefusedError()

    results = run_open_loop([Request(0.0, "/x")], [refuse])
    assert results[0].status == 0


# -- ladder rule ------------------------------------------------------------------


def _results(n, over=0, failed=0, late_ms=0.0):
    out = []
    for i in range(n):
        r = Result(index=i, status=200, latency=0.005, late=late_ms / 1000.0)
        if i < over:
            r.latency = 0.5
        elif i < over + failed:
            r.status = 0
        out.append(r)
    return out


def test_ladder_allows_a_tenth_over_the_limit():
    assert judge_rung(10, _results(200, over=20), 40, 25).passed
    assert not judge_rung(10, _results(200, over=21), 40, 25).passed
    assert not judge_rung(10, _results(99, over=10), 40, 25).passed


def test_ladder_counts_failures_as_over_the_limit():
    assert not judge_rung(10, _results(100, over=10, failed=1), 40, 25).passed
    verdict = judge_rung(10, _results(100, failed=10), 40, 25)
    assert verdict.passed and verdict.over_limit == 10
    ok_304 = _results(100)
    ok_304[0].status = 304
    assert judge_rung(10, ok_304, 40, 25).over_limit == 0


def test_ladder_fails_when_the_generator_falls_behind():
    verdict = judge_rung(10, _results(100, late_ms=30.0), 40, 25)
    assert not verdict.passed
    assert "generator" in verdict.reasons[0]


# -- seeded inputs ------------------------------------------------------------------


def test_request_mix_is_seeded_with_exact_shares():
    from serve import BLOCK, REVALIDATING, RequestMix

    prefixes = [f"10.0.{i}.0/24" for i in range(300)]
    a = RequestMix(7, prefixes, '"1-x"').take(400, 10.0)
    b = RequestMix(7, prefixes, '"1-x"').take(400, 10.0)
    c = RequestMix(8, prefixes, '"1-x"').take(400, 10.0)
    assert a == b
    assert a != c
    for start in range(0, 400, len(BLOCK)):
        block = a[start:start + len(BLOCK)]
        kinds = [r.path.split("?")[0] for r in block]
        assert kinds.count("/v1/prefix") == BLOCK.count("prefix")
        assert kinds.count("/v1/stats") == BLOCK.count("stats")
        assert sum(1 for r in block if r.etag is not None) == REVALIDATING
        assert all(r.etag is None for r in block if r.path.startswith("/v1/prefix"))
    assert [r.due for r in a[:3]] == [0.0, 0.1, 0.2]


def test_day_split_is_seeded_and_ends_every_day_with_a_tick(tmp_path):
    from daily import DAYS_FILE, FEED_FILE, write_feed

    feeds = {}
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        out = tmp_path / name
        out.mkdir()
        write_feed(seed, out)
        feeds[name] = ((out / FEED_FILE).read_bytes(), json.loads((out / DAYS_FILE).read_text()))
    assert feeds["a"] == feeds["b"]
    assert feeds["a"] != feeds["c"]
    feed, days = feeds["a"]
    assert len(days) == 120
    assert days[-1][1] == len(feed)
    for (start, end, records), (next_start, _, _) in zip(days, days[1:] + [[len(feed), 0, 0]]):
        assert end == next_start
        lines = feed[start:end].decode().splitlines()
        assert len(lines) == records
        assert '"op":"T"' in lines[-1]
        assert sum('"op":"T"' in line for line in lines) == 1


# -- ladder plan --------------------------------------------------------------------


def test_ladder_doubles_past_the_old_top_rung():
    from serve import MAX_RATE, MIN_REFERENCE_S, REFERENCE_RATE, RUNG_S, ladder

    rungs = list(ladder(30.0))
    assert rungs[0] == (REFERENCE_RATE, 30.0)
    assert list(ladder(5.0))[0] == (REFERENCE_RATE, MIN_REFERENCE_S)
    rates = [rate for rate, _ in rungs]
    assert all(b == 2 * a for a, b in zip(rates, rates[1:]))
    assert rates[-1] == MAX_RATE and rates[-1] > 80.0
    assert all(seconds == RUNG_S for rate, seconds in rungs if rate > 40.0)
