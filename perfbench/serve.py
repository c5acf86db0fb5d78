"""``serve``: the looking glass under open-loop load.

Set-up builds the index of the full 120-day ``daily`` feed with the stream
service and starts ``repro query serve`` on it as a child process.  One
load-generator process then drives two HTTP/1.1 keep-alive connections on
a seeded schedule (see ``loadgen.py``): 70 % ``/v1/prefix`` with
Zipf-popular prefixes, the rest ``/v1/stats``, ``/v1/top`` and
``/v1/daily`` in equal numbers, half of them revalidating with
``If-None-Match``.  Only the 70 % is given; the rest of the mix is an
assumption (see ``BLOCK``).

Offered rates climb a doubling ladder until a rung fails.  A rung passes
when its p90 latency is under ``LATENCY_LIMIT_MS`` and the generator kept
up; the highest rung passed sets ``throughput_per_s``, reported as the
reply rate achieved on that rung.  ``p50_ms`` and ``p90_ms`` come from the
reference rung, the longest one, below the keep-alive latency cliff.
"""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from common import (
    BenchError,
    ServerProcess,
    latency_summary,
    restart_times,
    start_server,
    mark_ready,
    median_ms,
    percentile,
)
from daily import generate_feed
from loadgen import HTTPSender, Request, Result, achieved_rate, judge_rung, run_open_loop

from repro.query import QueryIndex, canonical_json
from repro.query.model import TOP_KEYS
from repro.stream.service import StreamService

CONNECTIONS = 2
#: The first rung: below the keep-alive cliff, it runs for ``--seconds``
#: (at least ``MIN_REFERENCE_S``) and gives ``p50_ms`` and ``p90_ms``.
REFERENCE_RATE = 10.0
#: 160 requests: a p90 with 16 samples above it.
MIN_REFERENCE_S = 16.0
#: Seconds of the rungs above the reference; rungs not listed run
#: ``RUNG_S``.  Rates double so no rung can sit on a cliff between two
#: neighbours, and keep doubling until a rung fails.
RUNG_SECONDS = {20.0: 6.0, 40.0: 4.0}
RUNG_S = 3.0
#: A safety stop, far above what one two-thread generator can offer: the
#: lateness rule or the latency limit fails a rung well before it.
MAX_RATE = 5120.0
#: Requests sent at the reference rate before the ladder, untimed but
#: checked: a just-started server's first replies are set-up, not load.
WARMUP = (20, REFERENCE_RATE)
#: Below the keep-alive cliff the slowest replies are `/v1/stats` answers
#: (12-25 ms); above it most replies wait out a 40 ms delayed ACK.
LATENCY_LIMIT_MS = 40.0
#: The run is invalid if the generator itself ran later than this at p99.
LATE_LIMIT_MS = 25.0
REQUEST_TIMEOUT_S = 20.0

#: One block of the request mix: exact shares in every 40 requests.  The
#: 70 % ``/v1/prefix`` share is the one given.  The rest is an assumption:
#: a dashboard refresh fetches each of its three panels (stats, top,
#: daily) once, so the three come in equal numbers.
BLOCK = (
    ["prefix"] * 28
    + ["stats"] * 4
    + ["top"] * 4
    + ["daily"] * 4
)
#: Of the 12 polling requests in a block, this many revalidate.  An
#: assumption too: no source gives the share of refreshes by a client that
#: already holds the page, and half samples the 200 path (whose body the
#: oracle checks) and the 304 path (whose ETag it checks) equally.
REVALIDATING = 6
#: The classic Zipf exponent; an assumption, not a measured popularity.
ZIPF_S = 1.0


def ladder(seconds: float) -> Iterator[Tuple[float, float]]:
    """The rungs as (offered requests/s, seconds), lowest first."""
    rate = REFERENCE_RATE
    while rate <= MAX_RATE:
        if rate == REFERENCE_RATE:
            yield rate, max(seconds, MIN_REFERENCE_S)
        else:
            yield rate, RUNG_SECONDS.get(rate, RUNG_S)
        rate *= 2


def build_index(workdir: Path, seed: int) -> Path:
    feed = generate_feed(seed, workdir / "source")
    index = workdir / "index"
    StreamService(feed.path, workdir / "alarms.jsonl", workdir / "chain.json", index=index).run()
    return index


class RequestMix:
    """The seeded request stream, with exact per-block endpoint shares."""

    def __init__(self, seed: int, prefixes: Sequence[str], etag: str) -> None:
        self._rng = random.Random(seed)
        ranked = list(prefixes)
        self._rng.shuffle(ranked)
        self._prefixes = ranked
        self._weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
        self._etag = etag
        self._block: List[Tuple[str, Optional[str]]] = []
        self._top = 0
        self._daily = 0

    def _refill(self) -> None:
        kinds = list(BLOCK)
        self._rng.shuffle(kinds)
        polling = [i for i, kind in enumerate(kinds) if kind != "prefix"]
        revalidate = set(self._rng.sample(polling, REVALIDATING))
        block = []
        for i, kind in enumerate(kinds):
            etag = self._etag if i in revalidate else None
            block.append((self._path(kind), etag))
        self._block = block[::-1]

    def _path(self, kind: str) -> str:
        if kind == "prefix":
            prefix = self._rng.choices(self._prefixes, self._weights)[0]
            return f"/v1/prefix?p={prefix}"
        if kind == "top":
            self._top += 1
            return f"/v1/top?k=10&by={TOP_KEYS[self._top % len(TOP_KEYS)]}"
        if kind == "daily":
            self._daily += 1
            return f"/v1/daily?kind={('alarms', 'moas')[self._daily % 2]}"
        return "/v1/stats"

    def take(self, n: int, rate: float) -> List[Request]:
        out = []
        for i in range(n):
            if not self._block:
                self._refill()
            path, etag = self._block.pop()
            out.append(Request(due=i / rate, path=path, etag=etag))
        return out


def answer(index: QueryIndex, path: str) -> Any:
    """The in-process answer the server must give for ``path``."""
    endpoint, _, query = path.partition("?")
    params = dict(part.split("=", 1) for part in query.split("&") if part)
    if endpoint == "/v1/prefix":
        return index.prefix(params["p"])
    if endpoint == "/v1/top":
        return index.top(int(params["k"]), params["by"])
    if endpoint == "/v1/daily":
        return index.daily(params["kind"])
    if endpoint == "/v1/stats":
        return index.stats()
    raise BenchError(f"no oracle for {path}")


def check(index: QueryIndex, schedule: Sequence[Request], results: Sequence[Result]) -> List[str]:
    """Every 200 body is the in-process answer; a 304 only for a matching
    ETag; nothing else is acceptable."""
    expected: Dict[str, bytes] = {}
    problems = []
    for request, result in zip(schedule, results):
        if result.status == 304:
            if request.etag != index.etag:
                problems.append(f"{request.path}: 304 without a matching ETag")
            continue
        if result.status != 200:
            problems.append(f"{request.path}: status {result.status}")
            continue
        body = expected.get(request.path)
        if body is None:
            body = (canonical_json(answer(index, request.path)) + "\n").encode()
            expected[request.path] = body
        if result.body != body or result.etag != index.etag:
            problems.append(f"{request.path}: body or ETag differs from the in-process answer")
    return problems


def drive(server: ServerProcess, schedule: Sequence[Request]) -> List[Result]:
    senders = [HTTPSender(server.host, server.port, REQUEST_TIMEOUT_S) for _ in range(CONNECTIONS)]
    try:
        return run_open_loop(schedule, senders)
    finally:
        for sender in senders:
            sender.close()


def climb(server: ServerProcess, mix: RequestMix, seconds: float) -> Dict[str, Any]:
    """Warm up, then climb the ladder until a rung fails."""
    schedule = mix.take(*WARMUP)
    results = drive(server, schedule)
    throughput = 0.0
    reference: List[Result] = []
    verdicts = []
    for rate, duration in ladder(seconds):
        rung = mix.take(int(rate * duration), rate)
        got = drive(server, rung)
        schedule.extend(rung)
        results.extend(got)
        if rate == REFERENCE_RATE:
            reference = got
        verdict = judge_rung(rate, got, LATENCY_LIMIT_MS, LATE_LIMIT_MS)
        verdicts.append(verdict)
        if not verdict.passed:
            break
        throughput = achieved_rate(rung, got)
    return {
        "schedule": schedule,
        "results": results,
        "reference": reference,
        "throughput": throughput,
        "verdicts": verdicts,
    }


def run_child(mode: str, seed: int, seconds: float, workdir: Path) -> Dict[str, Any]:
    index_dir = build_index(workdir / "serve", seed)
    index = QueryIndex(index_dir)
    mix = RequestMix(seed, sorted(index.state.prefixes), index.etag)
    server, start_s = start_server(index_dir)
    try:
        ready = mark_ready()
        if mode == "trace":
            return _trace(server, index, mix, ready)
        ladder = climb(server, mix, seconds)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    restarts = [start_s] + restart_times(index_dir)
    results = ladder["results"]
    problems = check(index, ladder["schedule"], results)
    failed = sum(1 for r in results if r.status not in (200, 304))
    reference = [r.latency for r in ladder["reference"] if r.status in (200, 304)]
    summary = latency_summary(reference)
    summary.setdefault("notes", {})["throughput_per_s"] = (
        f"  (highest rung with p90 < {LATENCY_LIMIT_MS:g} ms)"
    )
    return {
        "ready": ready,
        "restart_s": restarts,
        "ops": len(results),
        "failed": failed + len(problems),
        "problems": problems,
        "throughput_per_s": ladder["throughput"],
        "peak_rss_mb": rss,
        "ladder": [
            f"{v.rate:g}/s {'pass' if v.passed else 'FAIL'} ({v.over_limit}/{v.attempted} over, "
            f"late p99 {v.late_p99_ms:.1f} ms{'; ' + '; '.join(v.reasons) if v.reasons else ''})"
            for v in ladder["verdicts"]
        ],
        **summary,
    }


#: Rung rates replayed by the traced run: the reference, and the first
#: rate above the keep-alive cliff.
TRACE_RUNGS = ((REFERENCE_RATE, 10.0), (40.0, 4.0))


def _replay(index: QueryIndex, schedule: Sequence[Request]) -> Tuple[float, float, List[Dict[str, Any]]]:
    """The server's per-request work, in-process: reload check, answer,
    encode.  Each request runs twice, once untimed and once with each
    phase timed, in alternating order so neither gains from the other's
    warm caches; returns both totals and the phase times."""
    clock = time.perf_counter
    plain = traced = 0.0
    spans = []
    for i, request in enumerate(schedule):
        for timed in ((False, True) if i % 2 else (True, False)):
            started = clock()
            if not timed:
                index.reload_if_changed()
                canonical_json(answer(index, request.path))
                plain += clock() - started
                continue
            t0 = clock()
            index.reload_if_changed()
            t1 = clock()
            doc = answer(index, request.path)
            t2 = clock()
            canonical_json(doc)
            t3 = clock()
            traced += t3 - started
            spans.append({
                "kind": request.path.split("?")[0].rsplit("/", 1)[1],
                "check": t1 - t0,
                "answer": t2 - t1,
                "encode": t3 - t2,
                "not_modified": request.etag == index.etag,
            })
    return plain, traced, spans


def _trace(server: ServerProcess, index: QueryIndex, mix: RequestMix, ready: float) -> Dict[str, Any]:
    drive(server, mix.take(*WARMUP))
    rungs = []
    for rate, duration in TRACE_RUNGS:
        schedule = mix.take(int(rate * duration), rate)
        rungs.append((schedule, drive(server, schedule)))
    problems = [p for schedule, results in rungs for p in check(index, schedule, results)]
    everything = [request for schedule, _ in rungs for request in schedule]
    plain_s, traced_s, spans = _replay(index, everything)
    layers: Dict[str, float] = {}
    for kind in ("stats", "top", "prefix", "daily"):
        layers[f"query.model.answer_ms.{kind}"] = median_ms(s["answer"] for s in spans if s["kind"] == kind)
    layers["query.model.encode_ms"] = median_ms(s["encode"] for s in spans)
    layers["query.reader.reload_check_ms"] = median_ms(s["check"] for s in spans)
    offset = 0
    for (rate, _), (schedule, results) in zip(TRACE_RUNGS, rungs):
        mine = spans[offset:offset + len(schedule)]
        offset += len(schedule)
        transport = [
            r.latency - (s["check"] + s["answer"] + s["encode"])
            for r, s in zip(results, mine)
        ]
        suffix = "" if rate == REFERENCE_RATE else ".above_cliff"
        # The mean, so the share of replies held by a delayed ACK shows.
        layers[f"http.transport_ms{suffix}"] = statistics.mean(transport) * 1000.0
        if rate == REFERENCE_RATE:
            layers["loadgen.late_p99_ms"] = percentile([r.late * 1000.0 for r in results], 0.99)
            ok = [r for r in results if r.status == 200]
            layers["http.response_bytes"] = statistics.mean(len(r.body) for r in ok) if ok else 0.0
            layers["http.not_modified_share"] = sum(1 for r in results if r.status == 304) / len(results)
            # Answer time spent on requests that end 304 and discard it.
            layers["query.discarded_answer_ratio"] = sum(
                s["answer"] for s in mine if s["not_modified"]
            ) / sum(s["answer"] for s in mine)
    layers["trace.overhead.serve"] = traced_s / plain_s - 1.0
    return {"ready": ready, "ops": len(everything), "failed": len(problems), "problems": problems, "layers": layers}
