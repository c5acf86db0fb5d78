"""Helpers shared by `run.py` and its workload processes.

Stdlib only: `run.py` imports this before it knows whether the program
under test can be imported at all.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: The checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for one run's files; listed in the root ``.gitignore``.
WORK_ROOT = ROOT / "perfbench" / "_work"

#: Environment variables that would change the program being measured.
SCRUBBED_VARS = (
    "REPRO_WARMSTART",
    "REPRO_WORKERS",
    "REPRO_SANITIZE",
    "REPRO_STREAM_FAULT",
)
SCRUBBED_PREFIXES = ("REPRO_BENCH_",)

#: A tail percentile is reported only with at least this many samples
#: strictly above it.
MIN_ABOVE = 10


class BenchError(RuntimeError):
    """The benchmark could not produce a valid measurement."""


# -- percentiles -----------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1)): a value that was measured."""
    if not samples:
        raise BenchError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_above(samples: Sequence[float], value: float) -> int:
    return sum(1 for s in samples if s > value)


def tail(samples: Sequence[float], q: float) -> float:
    """The ``q`` percentile, refused unless ``MIN_ABOVE`` samples exceed it."""
    value = percentile(samples, q)
    above = samples_above(samples, value)
    if above < MIN_ABOVE:
        raise BenchError(
            f"p{q * 100:g} of {len(samples)} samples has only {above} "
            f"above it (need {MIN_ABOVE})"
        )
    return value


def min_samples_for(q: float) -> int:
    """Fewest samples for which :func:`tail` can succeed at ``q``."""
    n = MIN_ABOVE
    while n - math.ceil(q * n) < MIN_ABOVE:
        n += 1
    return n


def latency_summary(seconds: Sequence[float]) -> Dict[str, Any]:
    """p50, p90 and (where the samples support it) p99 in milliseconds,
    plus the sample count."""
    ms = [s * 1000.0 for s in seconds]
    summary: Dict[str, Any] = {
        "p50_ms": statistics.median(ms),
        "p90_ms": tail(ms, 0.90),
        "samples": len(ms),
    }
    try:
        summary["p99_ms"] = tail(ms, 0.99)
    except BenchError as exc:
        summary["notes"] = {"p99_ms": f"  (unsupported: {exc})"}
    return summary


# -- run hygiene -----------------------------------------------------------


def child_env() -> Dict[str, str]:
    """The environment for a process under test: inherited variables that
    steer the program are removed, and only ``src/`` is on the path."""
    env = dict(os.environ)
    for name in list(env):
        if name in SCRUBBED_VARS or name.startswith(SCRUBBED_PREFIXES):
            del env[name]
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    status = Path(f"/proc/{pid if pid is not None else 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM in {status}")


def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def src_digest() -> str:
    """sha256 over every file under ``src/``: identifies the code measured
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint() -> Dict[str, Any]:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "src_digest": src_digest(),
    }


# -- the looking-glass server under test ------------------------------------


class ServerProcess:
    """A ``repro query serve`` child on an ephemeral port."""

    def __init__(self, index_dir: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "query", "serve", str(index_dir), "--port", "0"],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        assert self.proc.stdout is not None
        banner = self.proc.stdout.readline()
        match = re.search(r"http://([^:/]+):(\d+)", banner)
        if match is None:
            self.stop()
            raise BenchError(f"query server did not start: {banner!r}")
        self.host = match.group(1)
        self.port = int(match.group(2))

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


#: Server restarts timed after the load, for the ``setup_s`` median of a
#: workload whose other set-up is too long to repeat.
RESTART_PROBES = 2


def start_server(index_dir: Path) -> Tuple[ServerProcess, float]:
    """Start the server; returns it with its start-to-ready seconds (until
    it has answered ``/healthz``)."""
    started = time.monotonic()
    server = ServerProcess(index_dir)
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        response.read()
        if response.status != 200:
            raise BenchError(f"/healthz answered {response.status}")
    except BaseException:
        server.stop()
        raise
    finally:
        conn.close()
    return server, time.monotonic() - started


def restart_times(index_dir: Path) -> List[float]:
    """Start-to-ready of ``RESTART_PROBES`` fresh servers, one at a time."""
    times = []
    for _ in range(RESTART_PROBES):
        server, seconds = start_server(index_dir)
        server.stop()
        times.append(seconds)
    return times


# -- host noise --------------------------------------------------------------


def host_loop_ms(iterations: int = 300_000) -> float:
    """Wall time of a fixed pure-Python loop: how fast this host runs
    Python right now.  Diagnostic only, never used to normalise."""
    started = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i & 7
    return (time.perf_counter() - started) * 1000.0


def cpu_times() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (jiffies)."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return []
    return [int(x) for x in fields[1:]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of CPU time stolen by the hypervisor between two samples."""
    if len(before) < 8 or len(after) < 8:
        return 0.0
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user..steal; guest time is already in user
    return delta[7] / total if total > 0 else 0.0


# -- tracing from the benchmark side -----------------------------------------


class Accumulator:
    """Per-name call counts and summed/maximum durations (seconds)."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.samples: Dict[str, List[float]] = {}

    def add(self, name: str, seconds: float, keep: bool = False) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + 1
        if keep:
            self.samples.setdefault(name, []).append(seconds)

    def total(self, name: str) -> float:
        return self.seconds.get(name, 0.0)

    def wrap(
        self, owner: Any, attr: str, name: str, keep: bool = False
    ) -> Callable[[], None]:
        """Replace ``owner.attr`` with a timed wrapper; returns an undo."""
        original = getattr(owner, attr)
        clock = time.perf_counter
        add = self.add

        def timed(*args: Any, **kwargs: Any) -> Any:
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                add(name, clock() - started, keep)

        setattr(owner, attr, timed)
        return lambda: setattr(owner, attr, original)


class GCPauses:
    """Collector pauses via ``gc.callbacks``, bucketed per operation."""

    def __init__(self) -> None:
        self._started = 0.0
        self._op_sum = 0.0
        self._op_max = 0.0
        self.per_op_sum: List[float] = []
        self.per_op_max: List[float] = []

    def _callback(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            pause = time.perf_counter() - self._started
            self._op_sum += pause
            self._op_max = max(self._op_max, pause)

    def __enter__(self) -> "GCPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info: object) -> None:
        gc.callbacks.remove(self._callback)

    def end_op(self) -> None:
        self.per_op_sum.append(self._op_sum)
        self.per_op_max.append(self._op_max)
        self._op_sum = 0.0
        self._op_max = 0.0

    def metrics(self, prefix: str) -> Dict[str, float]:
        ops = max(1, len(self.per_op_sum))
        return {
            f"{prefix}.sum_per_op": sum(self.per_op_sum) * 1000.0 / ops,
            f"{prefix}.max": max(self.per_op_max, default=0.0) * 1000.0,
        }


def median_ms(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) * 1000.0 if values else 0.0


def mark_ready() -> float:
    """The moment the first timed operation starts, on the clock the
    spawn time in `run.py` uses (``CLOCK_MONOTONIC`` is system-wide)."""
    return time.monotonic()
