"""Zero-dependency JSON API over a :class:`~repro.query.reader.QueryIndex`.

Stdlib :class:`~http.server.ThreadingHTTPServer` only — the serving
surface must not cost a dependency.  Endpoints (all GET, all canonical
JSON):

* ``/healthz`` — liveness plus the served manifest generation;
* ``/v1/stats`` — global aggregates;
* ``/v1/prefix?p=<prefix>`` — one prefix's looking-glass report;
* ``/v1/top?k=<n>&by=<alarms|transitions|moas_days>`` — noisiest prefixes;
* ``/v1/daily?kind=<alarms|moas>`` — per-day series.

Caching: every data response carries the manifest ETag
(``"<generation>-<digest>"``); a request presenting it via
``If-None-Match`` gets ``304 Not Modified`` with no body, and its answer
is never computed.  Each request first runs
:meth:`~repro.query.reader.QueryIndex.reload_if_changed` under the
server's lock, so a server pointed at a live stream's index directory
serves fresh boundaries without restarting — the atomic manifest replace
makes the check safe at any moment.  ``/v1/stats`` and ``/v1/top`` are
memoised by the index per generation, so a poller's repeat costs a copy
and an encode, not a pass over the store.  Every accepted socket has
``TCP_NODELAY`` set, so a keep-alive reply never waits on the client's
delayed ACK.

The serving path contains no sleeps and no wall-clock reads of its own
(repro-lint R006/R002 apply to this module like any other): request
arrival is the only clock, and answer content depends only on the index.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs.metrics import Counter, MetricsRegistry
from repro.query.model import TOP_KEYS, canonical_json
from repro.query.reader import QueryIndex


class QueryHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`QueryIndex`."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        index: QueryIndex,
        *,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(address, QueryRequestHandler)
        self.index = index
        self.lock = threading.Lock()
        self.m_requests: Optional[Counter] = None
        self.m_not_modified: Optional[Counter] = None
        if metrics is not None:
            self.m_requests = metrics.counter("query.requests")
            self.m_not_modified = metrics.counter("query.not_modified")


class QueryRequestHandler(BaseHTTPRequestHandler):
    """Route GETs to the shared answer functions; canonical JSON out."""

    server: QueryHTTPServer
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket: the headers and the body go
    # out as two writes, and with Nagle's algorithm on the body would wait
    # for the client's delayed ACK (~40 ms) on every keep-alive reply.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: Any) -> None:
        return None  # request logging is the caller's concern, not stderr's

    def do_GET(self) -> None:  # noqa: N802 (http.server naming contract)
        if self.server.m_requests is not None:
            self.server.m_requests.inc()
        split = urlsplit(self.path)
        params = parse_qs(split.query)
        index = self.server.index
        try:
            with self.server.lock:
                index.reload_if_changed()
                etag = index.etag
                answer = _route(split.path, params)
                if answer is None:
                    self._send_error(404, f"no such endpoint: {split.path}")
                    return
                # The ETag names the whole index, so a revalidation that
                # matches needs no answer computed.
                fresh = self.headers.get("If-None-Match") != etag
                doc = answer(index) if fresh else None
        except _BadRequest as exc:
            self._send_error(400, str(exc))
            return
        except ValueError as exc:  # includes QueryError from a torn reload
            self._send_error(500, str(exc))
            return
        if not fresh:
            if self.server.m_not_modified is not None:
                self.server.m_not_modified.inc()
            self.send_response(304)
            self.send_header("ETag", etag)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        body = (canonical_json(doc) + "\n").encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("ETag", etag)
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, message: str) -> None:
        body = (canonical_json({"error": message}) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class _BadRequest(Exception):
    """A client error the handler turns into a 400 JSON body."""


def _route(
    path: str, params: Dict[str, Any]
) -> Optional[Callable[[QueryIndex], Any]]:
    """The answer for ``path`` with its parameters checked, or None for
    an unknown endpoint.  Raises :class:`_BadRequest` for bad parameters,
    before any answer is computed."""
    if path == "/healthz":
        return lambda index: {
            "status": "ok",
            "generation": index.generation,
            "records": index.records,
        }
    if path == "/v1/stats":
        return lambda index: index.stats()
    if path == "/v1/prefix":
        values = params.get("p")
        if not values:
            raise _BadRequest("missing required parameter 'p'")
        return lambda index: index.prefix(values[0])
    if path == "/v1/top":
        k = _int_param(params, "k", 10)
        by = params.get("by", ["alarms"])[0]
        if by not in TOP_KEYS:
            raise _BadRequest(
                f"unknown ranking key {by!r}; expected one of "
                f"{', '.join(TOP_KEYS)}"
            )
        return lambda index: index.top(k, by)
    if path == "/v1/daily":
        kind = params.get("kind", ["alarms"])[0]
        if kind not in ("alarms", "moas"):
            raise _BadRequest(
                f"unknown daily series {kind!r}; expected alarms|moas"
            )
        return lambda index: index.daily(kind)
    return None


def _int_param(params: Dict[str, Any], key: str, default: int) -> int:
    values = params.get(key)
    if not values:
        return default
    try:
        value = int(values[0])
    except ValueError as exc:
        raise _BadRequest(f"parameter {key!r} must be an integer") from exc
    if value < 1:
        raise _BadRequest(f"parameter {key!r} must be >= 1")
    return value


def make_server(
    index_dir: str,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    metrics: Optional[MetricsRegistry] = None,
) -> QueryHTTPServer:
    """Build a ready-to-serve server (port 0 = ephemeral, for tests).

    Raises :class:`~repro.query.track.QueryError` when the directory holds
    no readable index — serving an empty lie is worse than failing fast.
    """
    index = QueryIndex(index_dir, metrics=metrics)
    return QueryHTTPServer((host, port), index, metrics=metrics)
