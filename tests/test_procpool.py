"""The fork-worker primitive: typed failures, spawn cleanup, no strays.

Every failure a worker can cause — raising, dying, replying out of
protocol, vanishing under a send — must surface in the parent as one
:class:`WorkerError` naming the worker, and no path may leave a worker
process behind.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.context
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.procpool import STOP, ForkUnavailableError, WorkerError, WorkerPool

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def pool_of():
    """Start echo pools that are closed at teardown."""
    pools = []

    def start(count):
        pool = WorkerPool(echo, count, name="echo")
        pools.append(pool)
        return pool

    yield start
    for pool in pools:
        pool.close()


def echo(conn, index):
    """Reply ``("echo", (index, payload))`` to every ``("echo", payload)``;
    ``("raise", text)`` raises, ``("exit", code)`` exits hard and
    ``("wrong",)`` replies with the wrong tag."""
    while True:
        message = conn.recv()
        if message == STOP:
            return
        op = message[0]
        if op == "echo":
            conn.send(("echo", (index, message[1])))
        elif op == "raise":
            raise KeyError(message[1])
        elif op == "exit":
            os._exit(message[1])
        elif op == "wrong":
            conn.send(("other", None))


class TestRequestReply:
    def test_gather_collects_in_index_order(self, pool_of):
        pool = pool_of(3)
        assert len(pool) == 3
        assert pool.broadcast(("echo", "x"), "echo") == [
            (0, "x"), (1, "x"), (2, "x"),
        ]
        assert pool.gather(
            [("echo", "a"), ("echo", "b"), ("echo", "c")], "echo"
        ) == [(0, "a"), (1, "b"), (2, "c")]
        pool.close()
        for process in pool.processes:
            assert not process.is_alive()
            assert process.exitcode == 0

    def test_out_of_protocol_reply(self, pool_of):
        pool = pool_of(1)
        pool.send(0, ("wrong",))
        with pytest.raises(WorkerError, match="out of protocol") as info:
            pool.recv(0, "echo")
        assert info.value.index == 0
        assert info.value.remote_traceback is None


class TestWorkerFailures:
    def test_worker_raise_is_attributed(self, pool_of):
        pool = pool_of(2)
        pool.send(1, ("raise", "boom"))
        with pytest.raises(WorkerError) as info:
            pool.recv(1, "echo")
        # The healthy worker keeps serving.
        assert pool.gather([("echo", 0)], "echo") == [(0, 0)]
        error = info.value
        assert error.index == 1
        assert error.exitcode == 1
        assert "echo 1 failed: KeyError: 'boom'" in str(error)
        assert "\n" not in str(error)
        assert "Traceback" in error.remote_traceback
        assert "raise KeyError" in error.remote_traceback

    def test_worker_hard_exit_carries_exit_code(self, pool_of):
        pool = pool_of(1)
        pool.send(0, ("exit", 7))
        with pytest.raises(WorkerError, match="died") as info:
            pool.recv(0, "echo")
        assert info.value.index == 0
        assert info.value.exitcode == 7
        assert info.value.remote_traceback is None

    def test_send_to_dead_worker(self, pool_of):
        pool = pool_of(1)
        pool.send(0, ("raise", "gone"))
        pool.processes[0].join(timeout=10)
        assert not pool.processes[0].is_alive()
        with pytest.raises(WorkerError) as info:
            pool.send(0, ("echo", 1))
        # The report the worker shipped before dying is not lost.
        assert info.value.index == 0
        assert "KeyError: 'gone'" in str(info.value)
        assert info.value.exitcode == 1


class TestSpawn:
    def test_failed_spawn_reaps_started_workers(self, monkeypatch):
        fork_process = multiprocessing.context.ForkProcess
        real_start = fork_process.start
        started = []

        def start(self):
            if started:
                raise OSError("no more processes")
            real_start(self)
            started.append(self)

        monkeypatch.setattr(fork_process, "start", start)
        with pytest.raises(OSError, match="no more processes"):
            WorkerPool(echo, 3, name="echo")
        assert len(started) == 1
        assert not started[0].is_alive()
        assert started[0].exitcode == 0

    def test_no_fork_is_refused(self, monkeypatch):
        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        with pytest.raises(ForkUnavailableError):
            WorkerPool(echo, 1)


# Starts a 2-worker pool, reports the worker pids, then dies without
# running any cleanup.
HARD_EXIT_PARENT = textwrap.dedent(
    """
    import os

    from repro.procpool import STOP, WorkerPool

    def serve(conn, index):
        while conn.recv() != STOP:
            conn.send(("ok", index))

    pool = WorkerPool(serve, 2)
    pool.broadcast(("ping",), "ok")
    print(" ".join(str(p.pid) for p in pool.processes), flush=True)
    os._exit(0)
    """
)


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


def test_workers_exit_when_parent_hard_exits():
    # Each worker is forked while the parent holds its own and every
    # earlier worker's pipe end; unless the worker closes those copies, a
    # parent killed by os._exit/SIGKILL never produces EOF on its pipe.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-c", HARD_EXIT_PARENT],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    # Read only the pid line: the workers inherit the stdout pipe, so
    # waiting for EOF would hang on stranded workers.
    pids = [int(pid) for pid in proc.stdout.readline().split()]
    assert proc.wait(timeout=60) == 0
    assert len(pids) == 2
    try:
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline and any(_alive(p) for p in pids):
            time.sleep(0.05)
        assert [p for p in pids if _alive(p)] == []
    finally:
        for pid in pids:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        proc.stdout.close()
