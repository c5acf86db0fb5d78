"""Forked worker processes behind one request/reply handle.

:class:`WorkerPool` is the process fleet under the sharded feed router
(:mod:`repro.stream.router`), which keeps only its own message protocol.
Replies are ``(tag, body)`` pairs.  A worker that raised (its traceback
is shipped back before it exits), died, or replied with the wrong tag
surfaces in the parent as one :class:`WorkerError`.  POSIX only: workers
are forked, so the parent's inputs are inherited copy-on-write instead
of pickled.
"""

from __future__ import annotations

import multiprocessing
import traceback
from typing import Any, Callable, List, NamedTuple, Optional, Sequence

#: The message that ends a worker's loop.  A closed pipe (``EOFError``)
#: ends it quietly too: that is how a parent that dies, even by
#: ``os._exit``, takes its workers with it.
STOP = ("stop",)

#: Seconds to wait for a worker to exit before terminating it.
_JOIN_TIMEOUT = 10.0


class ForkUnavailableError(RuntimeError):
    """The platform has no ``fork`` start method."""


class WorkerError(RuntimeError):
    """A worker raised, died, or replied out of protocol.

    ``exitcode`` is ``None`` while the worker still runs;
    ``remote_traceback`` is the worker's own traceback text when it
    raised.  The message is one line.
    """

    def __init__(
        self,
        name: str,
        index: int,
        problem: str,
        exitcode: Optional[int] = None,
        remote_traceback: Optional[str] = None,
    ) -> None:
        self.index = index
        self.exitcode = exitcode
        self.remote_traceback = remote_traceback
        status = f" (exit code {exitcode})" if exitcode is not None else ""
        super().__init__(f"{name} {index} {problem}{status}")


class _Raised(NamedTuple):
    """What a worker sends its parent when ``target`` raises."""

    summary: str
    traceback: str


def _worker_entry(
    conn: Any,
    inherited: Sequence[Any],
    target: Callable[..., None],
    index: int,
    args: Sequence[Any],
) -> None:
    # Held open here, the parent's ends copied in by the fork would keep
    # this pipe, or an earlier worker's, from reaching EOF when the parent
    # dies, and the worker would wait in recv forever.
    for end in inherited:
        end.close()
    try:
        target(conn, index, *args)
    except EOFError:
        pass  # the parent closed its end or died: nothing left to serve
    except Exception as exc:
        summary = f"{type(exc).__name__}: {exc}"
        try:
            conn.send(_Raised(summary, traceback.format_exc()))
        except OSError:
            pass  # the parent is gone as well
        raise SystemExit(1)  # the parent reports it; no child traceback
    finally:
        conn.close()


class WorkerPool:
    """``count`` forked workers, each running ``target(conn, index, *args)``.

    ``name`` labels the processes and every :class:`WorkerError`.  If a
    worker fails to start, the ones already started are stopped before the
    error propagates.  :meth:`close` stops them all.
    """

    def __init__(
        self,
        target: Callable[..., None],
        count: int,
        args: Sequence[Any] = (),
        *,
        name: str = "worker",
    ) -> None:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError as exc:
            raise ForkUnavailableError(f"{name} workers need fork") from exc
        self.name = name
        self.processes: List[Any] = []
        self._conns: List[Any] = []
        try:
            for index in range(count):
                parent_end, child_end = context.Pipe()
                process = context.Process(
                    target=_worker_entry,
                    args=(child_end, self._conns + [parent_end], target,
                          index, tuple(args)),
                    name=f"{name}-{index}",
                    daemon=True,
                )
                try:
                    process.start()
                except BaseException:
                    parent_end.close()
                    raise
                finally:
                    child_end.close()
                self.processes.append(process)
                self._conns.append(parent_end)
        except BaseException:
            self.close()
            raise

    def __len__(self) -> int:
        return len(self._conns)

    def send(self, index: int, message: Any) -> None:
        try:
            self._conns[index].send(message)
        except OSError:
            raise self._failure(index) from None

    def recv(self, index: int, tag: str) -> Any:
        """The body of worker ``index``'s next reply, which must carry
        ``tag``."""
        try:
            reply = self._conns[index].recv()
        except (EOFError, OSError):
            raise self._failure(index) from None
        if isinstance(reply, _Raised):
            raise self._failure(index, reply)
        framed = isinstance(reply, tuple) and len(reply) == 2
        if not (framed and reply[0] == tag):
            got = reply[0] if framed else reply
            raise WorkerError(
                self.name, index,
                f"replied out of protocol: expected {tag!r}, got {got!r:.80}",
            )
        return reply[1]

    def gather(self, messages: Sequence[Any], tag: str) -> List[Any]:
        """Send ``messages[i]`` to worker ``i``, then collect the reply
        bodies in index order."""
        for index, message in enumerate(messages):
            self.send(index, message)
        return [self.recv(index, tag) for index in range(len(messages))]

    def broadcast(self, message: Any, tag: str) -> List[Any]:
        """:meth:`gather` with the same message for every worker."""
        return self.gather([message] * len(self), tag)

    def close(self) -> None:
        """Send :data:`STOP`, close the pipes, join, then terminate."""
        for conn in self._conns:
            try:
                conn.send(STOP)
            except OSError:
                pass  # already gone; the join below reaps it
            conn.close()
        for process in self.processes:
            process.join(timeout=_JOIN_TIMEOUT)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=_JOIN_TIMEOUT)

    def _failure(
        self, index: int, report: Optional[_Raised] = None
    ) -> WorkerError:
        """Attribute a broken pipe or a shipped exception to ``index``."""
        conn = self._conns[index]
        try:
            # A worker that raised shipped its report before exiting; the
            # parent may have noticed the exit first, on a send.
            if report is None and conn.poll():
                reply = conn.recv()
                report = reply if isinstance(reply, _Raised) else None
        except (EOFError, OSError):
            pass
        process = self.processes[index]
        process.join(timeout=_JOIN_TIMEOUT)
        if report is None:
            return WorkerError(self.name, index, "died", process.exitcode)
        return WorkerError(
            self.name, index, f"failed: {report.summary}",
            process.exitcode, report.traceback,
        )
