"""HTTP API tests: the looking-glass server against the model answers."""

from __future__ import annotations

import contextlib
import json
import random
import socket
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.measurement.trace import FaultSpike, TraceConfig, TraceGenerator
from repro.obs.metrics import MetricsRegistry
from repro.query import QueryIndex, build_index, canonical_json
from repro.query.model import (
    TOP_KEYS,
    daily_answer,
    prefix_report,
    stats_answer,
    top_answer,
)
from repro.query.segments import load_manifest
from repro.query.server import make_server
from repro.stream.feed import FeedWriter, snapshot_deltas
from repro.stream.service import StreamService

TRACE_CONFIG = TraceConfig(
    days=40,
    faults=(FaultSpike(day=10, faulty_as=8584, n_prefixes=30),),
    n_background_prefixes=200,
    include_background=True,
)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    root = tmp_path_factory.mktemp("queryhttp")
    feed = root / "feed.jsonl"
    generator = TraceGenerator(TRACE_CONFIG, random.Random(7))
    with FeedWriter(feed) as writer:
        writer.write_all(snapshot_deltas(generator.snapshots()))
    alarms = root / "alarms.log"
    StreamService(feed, alarms, None, checkpoint_every=500).run()
    idx = root / "idx"
    build_index([feed], alarms, idx, segment_days=10)
    return feed, alarms, idx


@contextlib.contextmanager
def serving(idx, metrics=None):
    """A running server over ``idx``: yields its base URL and itself."""
    httpd = make_server(idx, port=0, metrics=metrics)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    try:
        yield f"http://{host}:{port}", httpd
    finally:
        httpd.shutdown()
        thread.join(timeout=10)
        httpd.server_close()


@pytest.fixture()
def server(store):
    _, _, idx = store
    metrics = MetricsRegistry()
    with serving(idx, metrics) as (base, httpd):
        yield base, httpd, metrics


def get(base, path, headers=None):
    request = urllib.request.Request(base + path, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


class TestEndpoints:
    def test_healthz(self, server, store):
        base, httpd, _ = server
        status, _, body = get(base, "/healthz")
        assert status == 200
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert doc["generation"] == httpd.index.generation
        assert doc["records"] == httpd.index.records

    def test_stats_matches_model(self, server, store):
        base, _, _ = server
        _, _, idx = store
        status, headers, body = get(base, "/v1/stats")
        assert status == 200
        state = QueryIndex(idx).state
        assert body.decode() == canonical_json(stats_answer(state)) + "\n"
        assert headers["Content-Type"] == "application/json"
        assert int(headers["Content-Length"]) == len(body)

    def test_prefix_found_and_missing(self, server, store):
        base, _, _ = server
        _, _, idx = store
        state = QueryIndex(idx).state
        target = sorted(state.prefixes)[0]
        status, _, body = get(
            base, "/v1/prefix?p=" + urllib.parse.quote(target)
        )
        assert status == 200
        assert body.decode() == canonical_json(prefix_report(state, target)) + "\n"
        status, _, body = get(base, "/v1/prefix?p=203.0.113.0/24")
        assert status == 200
        assert json.loads(body)["found"] is False

    def test_top_and_daily_match_model(self, server, store):
        base, _, _ = server
        _, _, idx = store
        state = QueryIndex(idx).state
        for by in ("alarms", "transitions", "moas_days"):
            status, _, body = get(base, f"/v1/top?k=3&by={by}")
            assert status == 200
            assert body.decode() == canonical_json(top_answer(state, 3, by)) + "\n"
        for kind in ("alarms", "moas"):
            status, _, body = get(base, f"/v1/daily?kind={kind}")
            assert status == 200
            assert body.decode() == canonical_json(daily_answer(state, kind)) + "\n"

    def test_error_statuses(self, server):
        base, _, _ = server
        assert get(base, "/nope")[0] == 404
        assert get(base, "/v1/prefix")[0] == 400  # missing ?p=
        assert get(base, "/v1/top?by=bogus")[0] == 400
        assert get(base, "/v1/top?k=0")[0] == 400
        assert get(base, "/v1/daily?kind=bogus")[0] == 400

    def test_etag_round_trip(self, server):
        base, _, metrics = server
        status, headers, _ = get(base, "/v1/stats")
        assert status == 200
        etag = headers["ETag"]
        status, headers, body = get(
            base, "/v1/stats", headers={"If-None-Match": etag}
        )
        assert status == 304
        assert body == b""
        assert headers["ETag"] == etag
        snapshot = metrics.snapshot()
        assert snapshot["query.requests"] >= 2
        assert snapshot["query.not_modified"] == 1

    def test_not_modified_computes_no_answer(self, server, monkeypatch):
        base, httpd, _ = server
        calls = []
        stats = httpd.index.stats

        def counting_stats():
            calls.append(1)
            return stats()

        monkeypatch.setattr(httpd.index, "stats", counting_stats)
        status, headers, _ = get(base, "/v1/stats")
        assert status == 200 and len(calls) == 1
        status, _, body = get(
            base, "/v1/stats", headers={"If-None-Match": headers["ETag"]}
        )
        assert status == 304 and body == b""
        assert len(calls) == 1

    def test_accepted_sockets_disable_nagle(self, server, monkeypatch):
        """The headers and the body are two writes; with Nagle's algorithm
        on, the body waits for the client's delayed ACK."""
        base, httpd, _ = server
        nodelay = []
        done = threading.Event()
        finish_request = httpd.finish_request

        def recording(request, client_address):
            finish_request(request, client_address)
            nodelay.append(
                request.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
            done.set()

        monkeypatch.setattr(httpd, "finish_request", recording)
        assert get(base, "/healthz")[0] == 200
        assert done.wait(timeout=10)
        assert nodelay and nodelay[0] != 0

    def test_mutating_an_answer_changes_no_later_answer(self, server, store):
        base, httpd, _ = server
        _, _, idx = store
        state = QueryIndex(idx).state
        index = httpd.index
        stats = index.stats()
        stats["records"] = -1
        stats["alarms"]["by_kind"].clear()
        stats["moas"]["durations"]["count"] = -1
        top = index.top(3, "alarms")
        top[0]["alarms"] = -1
        top.append({"prefix": "bogus"})
        assert index.stats() == stats_answer(state)
        assert index.top(3, "alarms") == top_answer(state, 3, "alarms")
        status, _, body = get(base, "/v1/stats")
        assert status == 200
        assert body.decode() == canonical_json(stats_answer(state)) + "\n"
        status, _, body = get(base, "/v1/top?k=3&by=alarms")
        assert body.decode() == canonical_json(top_answer(state, 3, "alarms")) + "\n"


def whole_store_bodies(base):
    """``/v1/stats`` and ``/v1/top`` under every key, as served."""
    bodies = {"stats": get(base, "/v1/stats")[2]}
    for by in TOP_KEYS:
        bodies[by] = get(base, f"/v1/top?k=5&by={by}")[2]
    return bodies


def fresh_bodies(idx):
    """The same answers from a fresh, unmemoised computation."""
    state = QueryIndex(idx).state
    bodies = {"stats": canonical_json(stats_answer(state))}
    for by in TOP_KEYS:
        bodies[by] = canonical_json(top_answer(state, 5, by))
    return {key: (body + "\n").encode() for key, body in bodies.items()}


class TestLiveReload:
    def test_new_generation_served_without_restart(self, store, tmp_path):
        feed, alarms, _ = store
        idx = tmp_path / "idx"
        build_index([feed], alarms, idx, segment_days=1000)
        with serving(idx) as (base, _):
            _, headers_before, _ = get(base, "/v1/stats")
            # Rebuild the index behind the running server with a finer
            # cadence: new generation, same answers.
            build_index([feed], alarms, idx, segment_days=5)
            _, headers_after, body = get(base, "/v1/stats")
            assert headers_after["ETag"] != headers_before["ETag"]
            assert json.loads(body)["records"] == QueryIndex(idx).records

    def test_extended_index_drops_the_memo(self, store, tmp_path):
        """A live stream appends days: the reload folds only the new
        segments, and the memoised whole-store answers follow."""
        feed, _, _ = store
        idx = tmp_path / "idx"
        alarms = tmp_path / "alarms.log"
        cp = tmp_path / "cp.json"
        StreamService(
            feed, alarms, cp, checkpoint_every=300, max_records=1500,
            index=idx,
        ).run()
        before = load_manifest(idx)["segments"]
        metrics = MetricsRegistry()
        with serving(idx, metrics) as (base, _):
            stale = whole_store_bodies(base)  # fills the memo
            StreamService(
                feed, alarms, cp, checkpoint_every=300, index=idx,
            ).run(resume=True)
            after = load_manifest(idx)["segments"]
            assert after[: len(before)] == before and len(after) > len(before)
            served = whole_store_bodies(base)
        # The extend path: each segment file was folded exactly once.
        assert metrics.snapshot()["query.segments_loaded"] == len(after)
        assert served == fresh_bodies(idx)
        assert served["stats"] != stale["stats"]
        assert any(served[by] != stale[by] for by in TOP_KEYS)

    def test_rebuilt_index_drops_the_memo(self, store, tmp_path):
        """A rebuild over more days: the reload starts a new store, and
        the memoised whole-store answers follow."""
        feed, alarms, _ = store
        idx = tmp_path / "idx"
        StreamService(
            feed, tmp_path / "partial.log", None, checkpoint_every=300,
            max_records=1500, index=idx,
        ).run()
        before = load_manifest(idx)
        metrics = MetricsRegistry()
        with serving(idx, metrics) as (base, _):
            stale = whole_store_bodies(base)  # fills the memo
            build_index([feed], alarms, idx, segment_days=5)
            after = load_manifest(idx)
            assert after["generation"] != before["generation"]
            assert after["segments"][0] != before["segments"][0]
            served = whole_store_bodies(base)
        # The rebuild path: every segment of the new manifest was folded.
        assert metrics.snapshot()["query.segments_loaded"] == len(
            before["segments"]
        ) + len(after["segments"])
        assert served == fresh_bodies(idx)
        assert served["stats"] != stale["stats"]
        assert any(served[by] != stale[by] for by in TOP_KEYS)
