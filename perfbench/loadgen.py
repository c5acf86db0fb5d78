"""Open-loop HTTP load over a fixed number of keep-alive connections.

Requests are due on a schedule that does not depend on the server: the
generator never waits for a reply before a request falls due.  Each
connection is owned by one thread that takes the next due request from a
shared dispenser, sleeps until it is due if it is early, sends it and reads
the reply.  Latency is measured from the moment the request was *due*, so a
stalled reply also charges its wait to every request queued behind it
(no coordinated omission).  How late the generator itself ran is recorded
separately: the gap between when a request was due (or its thread became
free, if later) and when it was actually sent.  A large gap there means the
measurement, not the server, fell behind, and the run is invalid.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from common import percentile


@dataclass(frozen=True)
class Request:
    """One scheduled request: due ``due`` seconds after the phase starts."""

    due: float
    path: str
    etag: Optional[str] = None


@dataclass
class Result:
    """What happened to one request (times in seconds)."""

    index: int
    status: int = 0  # 0: no response (refused, reset or timed out)
    body: bytes = b""
    etag: Optional[str] = None
    latency: float = 0.0  # reply complete minus due time
    late: float = 0.0  # send time minus max(due time, thread free)
    service: float = 0.0  # reply complete minus send time


#: ``send(path, etag) -> (status, body, etag)``; raises OSError or
#: http.client.HTTPException when the request fails.
Sender = Callable[[str, Optional[str]], Tuple[int, bytes, Optional[str]]]


class HTTPSender:
    """One keep-alive HTTP/1.1 connection, reopened after a failure."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self._host = host
        self._port = port
        self._timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def __call__(
        self, path: str, etag: Optional[str]
    ) -> Tuple[int, bytes, Optional[str]]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
        headers = {"If-None-Match": etag} if etag is not None else {}
        try:
            self._conn.request("GET", path, headers=headers)
            response = self._conn.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        return response.status, body, response.getheader("ETag")

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def run_open_loop(schedule: Sequence[Request], senders: Sequence[Sender]) -> List[Result]:
    """Drive ``schedule`` over ``senders`` (one thread each); results in
    schedule order.  ``schedule`` must be sorted by due time."""
    results = [Result(index=i) for i in range(len(schedule))]
    clock = time.perf_counter
    lock = threading.Lock()
    cursor = [0]
    start = clock()

    def worker(send: Sender) -> None:
        while True:
            with lock:
                i = cursor[0]
                if i >= len(schedule):
                    return
                cursor[0] = i + 1
            request = schedule[i]
            due = start + request.due
            free = clock()
            if free < due:
                time.sleep(due - free)
            sent = clock()
            result = results[i]
            result.late = sent - max(due, free)
            try:
                result.status, result.body, result.etag = send(
                    request.path, request.etag
                )
            except (OSError, http.client.HTTPException):
                result.status = 0
            done = clock()
            result.latency = done - due
            result.service = done - sent

    threads = [
        threading.Thread(target=worker, args=(send,), daemon=True)
        for send in senders
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def achieved_rate(schedule: Sequence[Request], results: Sequence[Result]) -> float:
    """Replies per second over the phase: completed requests divided by
    the time from the phase start to the last reply."""
    done = [
        request.due + result.latency
        for request, result in zip(schedule, results)
        if result.status
    ]
    return len(done) / max(done) if done and max(done) > 0 else 0.0


@dataclass
class RungVerdict:
    """The ladder's pass/fail rule applied to one rung's results."""

    rate: float
    attempted: int
    over_limit: int
    allowed_over: int
    late_p99_ms: float
    passed: bool
    reasons: List[str] = field(default_factory=list)


def judge_rung(
    rate: float,
    results: Sequence[Result],
    limit_ms: float,
    late_limit_ms: float,
) -> RungVerdict:
    """A rung passes when its p90 latency is under ``limit_ms`` and the
    generator kept up.

    p90 is the highest percentile a rung of 100-300 requests supports with
    ten samples beyond it.  It is decided by counting, not by
    interpolating: at most a tenth of the attempted requests (rounded
    down) may be over the limit, and a failed request counts as over it.
    The generator kept up when its own lateness stayed under
    ``late_limit_ms`` at p99.
    """
    over = sum(
        1
        for r in results
        if r.status not in (200, 304) or r.latency * 1000.0 > limit_ms
    )
    allowed = len(results) // 10
    late_p99 = percentile([r.late * 1000.0 for r in results], 0.99) if results else 0.0
    reasons = []
    if not results:
        reasons.append("no requests")
    if over > allowed:
        reasons.append(f"{over} of {len(results)} over {limit_ms:g} ms")
    if late_p99 > late_limit_ms:
        reasons.append(f"generator late by {late_p99:.1f} ms at p99")
    return RungVerdict(
        rate=rate,
        attempted=len(results),
        over_limit=over,
        allowed_over=allowed,
        late_p99_ms=late_p99,
        passed=not reasons,
        reasons=reasons,
    )
