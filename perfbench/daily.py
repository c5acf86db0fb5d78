"""``daily``: the §3 daily-dump pipeline, one day per operation.

Input: the 120-day refresh-mode trace feed (every live pair re-announced
every day, as a daily RIB-dump replay would), with the day-60 AS8584 fault
spike and 500 single-origin background prefixes.

Set-up generates the feed in a separate process (so neither the generator
nor the feed text counts in this process's peak RSS), writes day 0, ingests
it and starts a ``repro query serve`` child on the live index.  Each timed
operation then is what an operator sees as freshness when a dump lands:

1. append that day's records, copied from the generated feed file, to the
   live feed file;
2. ``StreamService(feed, alarms, checkpoint, index=...).run(resume=True)``
   with the service's default knobs (chain load, engine restore, index
   catch-up, ingest, checkpoint and segment writes);
3. ``GET /v1/stats`` from the server, which must already report the new
   record count (the server reloads the index incrementally).

Day times follow a sawtooth: the delta chain a resume must load grows
until the next full snapshot compacts it.  A run covers at least 100 days
(a p90 with ten samples above it) and stops right after a day that
compacted the chain, so every run covers whole compaction cycles and
samples the sawtooth the same way.

Run as a script (``python3 perfbench/daily.py SEED DIR``) it writes the
feed of ``SEED`` and its day index into ``DIR``; the workloads do that
through :func:`generate_feed`.
"""

from __future__ import annotations

import http.client
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (
    ROOT,
    Accumulator,
    BenchError,
    GCPauses,
    child_env,
    latency_summary,
    mark_ready,
    median_ms,
    min_samples_for,
    peak_rss_mb,
    restart_times,
    start_server,
)

from repro.measurement.trace import FaultSpike, TraceConfig, TraceGenerator
from repro.query import QueryIndex, answers_doc, canonical_json, scan_state
from repro.stream import service as service_module
from repro.stream.checkpoint import ChainWriter
from repro.stream.engine import StreamEngine
from repro.stream.feed import feed_header_line, snapshot_deltas
from repro.stream.service import StreamService
from repro.query.builder import IndexBuilder
from repro.query.segments import load_manifest

TRACE_CONFIG = TraceConfig(
    days=120,
    faults=(FaultSpike(day=60, faulty_as=8584, n_prefixes=300),),
    n_background_prefixes=500,
    include_background=True,
)
#: Days ingested by each of the two pipelines of the traced run.
TRACE_DAYS = 40
ONE_SHOT_TIMEOUT = 120.0
GENERATE_TIMEOUT = 120.0
FEED_FILE = "feed.jsonl"
DAYS_FILE = "days.json"

#: The public functions the traced run times: (owner, attribute, name).
TRACED_CALLS = (
    (service_module, "parse_feed_line", "parse"),
    (service_module, "load_chain", "load_chain"),
    (StreamEngine, "apply", "apply"),
    (StreamEngine, "restore_state", "restore"),
    (ChainWriter, "write_full", "write_full"),
    (ChainWriter, "append_delta", "append_delta"),
    (IndexBuilder, "observe", "observe"),
    (IndexBuilder, "resume", "builder_resume"),
    (IndexBuilder, "commit", "commit"),
)


@dataclass(frozen=True)
class Feed:
    """A generated feed file: the header and day 0 end at ``days[0][1]``;
    day ``d`` is bytes ``days[d][0]:days[d][1]`` holding ``days[d][2]``
    records, the last of them its day tick."""

    path: Path
    days: Tuple[Tuple[int, int, int], ...]


def write_feed(seed: int, out_dir: Path) -> None:
    """Write the feed of ``seed`` and its day index into ``out_dir``."""
    generator = TraceGenerator(TRACE_CONFIG, random.Random(seed))
    days: List[Tuple[int, int, int]] = []
    with (out_dir / FEED_FILE).open("wb") as handle:
        handle.write((feed_header_line() + "\n").encode())
        start = handle.tell()
        records = 0
        for record in snapshot_deltas(generator.snapshots(), refresh=True):
            handle.write((record.to_json_line() + "\n").encode())
            records += 1
            if record.is_tick:
                end = handle.tell()
                days.append((start, end, records))
                start, records = end, 0
    if records:
        raise BenchError("feed does not end with a day tick")
    (out_dir / DAYS_FILE).write_text(json.dumps(days), encoding="utf-8")


def generate_feed(seed: int, out_dir: Path) -> Feed:
    """:func:`write_feed` in a process of its own, so neither the generator
    nor the feed text counts in the peak RSS of the caller."""
    out_dir.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), str(seed), str(out_dir)],
        cwd=ROOT,
        env=child_env(),
        check=True,
        timeout=GENERATE_TIMEOUT,
    )
    days = json.loads((out_dir / DAYS_FILE).read_text(encoding="utf-8"))
    return Feed(out_dir / FEED_FILE, tuple(tuple(d) for d in days))


class Pipeline:
    """One feed/alarm-log/checkpoint/index directory plus its server."""

    def __init__(self, workdir: Path, source: Feed) -> None:
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.source = source
        self.feed = self.dir / "feed.jsonl"
        self.alarms = self.dir / "alarms.jsonl"
        self.checkpoint = self.dir / "chain.json"
        self.index = self.dir / "index"
        self.records = 0
        self.summaries: List[Any] = []
        self.feed.write_bytes(b"")
        self.ingest(0)
        self.server, self.server_start_s = start_server(self.index)
        self.conn = http.client.HTTPConnection(self.server.host, self.server.port, timeout=30)
        self.stats_body = b""

    def ingest(self, day: int) -> None:
        start, end, records = self.source.days[day]
        if day == 0:
            start = 0  # the feed header
        with self.source.path.open("rb") as src, self.feed.open("ab") as dst:
            src.seek(start)
            dst.write(src.read(end - start))
        self.records += records
        service = StreamService(self.feed, self.alarms, self.checkpoint, index=self.index)
        self.summaries.append(service.run(resume=day > 0))

    def query_stats(self) -> Optional[str]:
        """The server must already serve the new day; returns the problem
        if it does not."""
        self.conn.request("GET", "/v1/stats")
        response = self.conn.getresponse()
        self.stats_body = response.read()
        if response.status != 200:
            return f"/v1/stats answered {response.status}"
        served = json.loads(self.stats_body)["records"]
        if served != self.records:
            return f"/v1/stats reports {served} records, fed {self.records}"
        return None

    def day(self, day: int) -> Tuple[float, Optional[str]]:
        """One operation: ingest ``day`` and check the server serves it.
        Returns its seconds and the problem found, if any."""
        started = time.perf_counter()
        self.ingest(day)
        problem = self.query_stats()
        return time.perf_counter() - started, problem

    def close(self) -> None:
        self.conn.close()
        self.server.stop()


def run_days(pipeline: Pipeline, min_days: int) -> Dict[str, Any]:
    """Ingest days from day 1 until ``min_days`` are done and the last
    day's run compacted the chain (wrote a full snapshot), so the run ends
    on a compaction-cycle boundary."""
    latencies: List[float] = []
    problems: List[str] = []
    records = 0
    started = time.perf_counter()
    for day in range(1, len(pipeline.source.days)):
        seconds, problem = pipeline.day(day)
        latencies.append(seconds)
        records += pipeline.source.days[day][2]
        if problem is not None:
            problems.append(f"day {day}: {problem}")
        if day >= min_days and pipeline.summaries[-1].checkpoint_fulls:
            break
    elapsed = time.perf_counter() - started
    return {"elapsed": elapsed, "latencies": latencies, "records": records, "problems": problems}


def check(pipeline: Pipeline, workdir: Path) -> List[str]:
    """Alarm log == one-shot ingest; every index answer == brute-force
    scan; the server's last answer == the in-process one.

    The one-shot ingest (``repro stream run`` with no checkpoint and no
    index, so it shares nothing with the resume path) runs in its own
    process alongside the scan.
    """
    problems = []
    one_shot = workdir / "oneshot-alarms.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "stream", "run", str(pipeline.feed), "--alarms", str(one_shot)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.DEVNULL,
    )
    try:
        index = QueryIndex(pipeline.index)
        expected = scan_state([pipeline.feed], pipeline.alarms)
        if canonical_json(answers_doc(index.state)) != canonical_json(answers_doc(expected)):
            problems.append("index answers differ from a scan of the feed")
        if pipeline.stats_body != (canonical_json(index.stats()) + "\n").encode():
            problems.append("served /v1/stats differs from the in-process answer")
        status = proc.wait(timeout=ONE_SHOT_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if status != 0:
        problems.append(f"one-shot ingest exited {status}")
    elif pipeline.alarms.read_bytes() != one_shot.read_bytes():
        problems.append("day-by-day alarm log differs from a one-shot ingest")
    return problems


def run_child(mode: str, seed: int, seconds: float, workdir: Path) -> Dict[str, Any]:
    source = generate_feed(seed, workdir / "source")
    if mode == "trace":
        return _trace(source, workdir)
    pipeline = Pipeline(workdir / "run", source)
    ready = mark_ready()
    try:
        run = run_days(pipeline, min_samples_for(0.90))
        rss = peak_rss_mb()
    finally:
        pipeline.close()
    restarts = [pipeline.server_start_s] + restart_times(pipeline.index)
    problems = run["problems"] + check(pipeline, workdir)
    return {
        "ready": ready,
        "restart_s": restarts,
        "ops": len(run["latencies"]),
        "failed": len(problems),
        "problems": problems,
        "throughput_per_s": run["records"] / run["elapsed"],
        "peak_rss_mb": rss,
        **latency_summary(run["latencies"]),
    }


def _trace(source: Feed, workdir: Path) -> Dict[str, Any]:
    """Two pipelines over the same days from fresh directories, one plain
    and one with the layers' public functions timed from outside.  Each
    day runs on both, in alternating order, so neither gains from running
    second (warm page cache, a faster host period)."""
    plain = Pipeline(workdir / "plain", source)
    traced = Pipeline(workdir / "traced", source)
    ready = mark_ready()
    acc = Accumulator()
    reader = QueryIndex(traced.index)
    plain_s = traced_s = 0.0
    reloads: List[float] = []
    chain_bytes: List[int] = []
    problems: List[str] = []
    gcp = GCPauses()
    try:
        for day in range(1, TRACE_DAYS + 1):
            for timed in ((False, True) if day % 2 else (True, False)):
                if not timed:
                    seconds, problem = plain.day(day)
                    plain_s += seconds
                else:
                    undo = [acc.wrap(*call) for call in TRACED_CALLS]
                    try:
                        with gcp:
                            seconds, problem = traced.day(day)
                    finally:
                        for restore in undo:
                            restore()
                    gcp.end_op()
                    traced_s += seconds
                    # Untimed: the reader's reload and the chain size are
                    # the benchmark's own probes, not the pipeline's work.
                    started = time.perf_counter()
                    reader.reload_if_changed()
                    reloads.append(time.perf_counter() - started)
                    chain_bytes.append(sum(
                        p.stat().st_size for p in traced.dir.glob("chain.json*")
                    ))
                if problem is not None:
                    problems.append(f"day {day}: {problem}")
    finally:
        plain.close()
        traced.close()
    manifest = load_manifest(traced.index)
    if manifest is None:
        raise BenchError("traced pass left no index manifest")
    summaries = traced.summaries[1:]
    emitted = sum(s.alarms_emitted for s in summaries)
    duplicates = sum(s.alarm_duplicates for s in summaries)
    resume_time = acc.total("load_chain") + acc.total("restore") + acc.total("builder_resume")
    layers = {
        "stream.feed.parse_s": acc.total("parse"),
        "stream.engine.apply_s": acc.total("apply"),
        "stream.engine.restore_s": acc.total("restore"),
        "stream.alarm_dup_ratio": duplicates / (emitted + duplicates) if emitted + duplicates else 0.0,
        "stream.checkpoint.load_s": acc.total("load_chain"),
        "stream.checkpoint.write_s": acc.total("write_full") + acc.total("append_delta"),
        "stream.checkpoint.fulls": acc.calls.get("write_full", 0),
        "stream.checkpoint.deltas": acc.calls.get("append_delta", 0),
        "stream.checkpoint.bytes": sum(chain_bytes) / len(chain_bytes),
        "query.builder.observe_s": acc.total("observe"),
        "query.builder.resume_s": acc.total("builder_resume"),
        "query.builder.commit_s": acc.total("commit"),
        "query.segments": len(manifest["segments"]),
        "stream.resume_share": resume_time / traced_s,
        "query.reader.reload_ms": median_ms(reloads),
        "trace.overhead.daily": traced_s / plain_s - 1.0,
        **gcp.metrics("gc.pause_ms.daily"),
    }
    return {
        "ready": ready,
        "ops": 2 * TRACE_DAYS,
        "failed": len(problems),
        "problems": problems,
        "layers": layers,
    }


if __name__ == "__main__":
    write_feed(int(sys.argv[1]), Path(sys.argv[2]))
