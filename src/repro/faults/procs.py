"""Worker processes: the one forked worker, reaping, and the orphan audit.

:class:`Worker` is the only kind of worker process in the service: the
``--jobs`` scheduler and the daemon both fork theirs through it.  A worker
serves one request at a time over a pipe, so a closed pipe names the one
unit of work its worker was running when it died.  Both callers apply the
same rule to that unit: re-run it on a fresh worker up to
:data:`CRASH_RETRIES` times, then give it up as ``WORKER_CRASHED``.

``live_children`` enumerates direct child PIDs from
``/proc/self/task/*/children`` (covering children forked from any
thread); the chaos harness snapshots it before a run and asserts the
set is unchanged afterwards — the zero-orphan guarantee.  On platforms
without ``/proc`` it falls back to ``multiprocessing.active_children``,
which only sees children this library spawned.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from typing import Any, Callable, List, Optional, Tuple

from repro.faults.limits import apply_memory_limit
from repro.faults.registry import mark_worker, set_attempt

#: Re-runs a unit of work gets on a fresh worker after its worker died,
#: before it is given up as ``WORKER_CRASHED`` (``serve --job-retries``).
CRASH_RETRIES = 1

#: Base backoff before a daemon job's crash re-run (doubles per attempt).
RETRY_BACKOFF_SECONDS = 0.05

#: Seconds a worker gets to honour SIGTERM before SIGKILL.
KILL_GRACE_SECONDS = 0.5

#: Seconds a worker gets to exit after a graceful stop message.
STOP_GRACE_SECONDS = 2.0

#: Called once in the child, after the fork; returns the function that
#: turns one request into one reply for the rest of the worker's life.
ServeFactory = Callable[[], Callable[[Any], Any]]

_PROC_TASKS = "/proc/self/task"


def live_children() -> List[int]:
    """PIDs of this process's live direct children (all threads)."""

    pids = set()
    try:
        task_ids = os.listdir(_PROC_TASKS)
    except OSError:
        return sorted(process.pid for process in multiprocessing.active_children() if process.pid)
    for task_id in task_ids:
        try:
            with open(os.path.join(_PROC_TASKS, task_id, "children"), encoding="ascii") as handle:
                pids.update(int(pid) for pid in handle.read().split())
        except (OSError, ValueError):
            continue
    return sorted(pids)


def reap_process(process, grace: float = 1.0) -> bool:
    """Terminate→kill escalation for a ``multiprocessing.Process``-alike.

    Returns True if the hard ``kill`` escalation was needed.  Always
    joins, so the child cannot linger as a zombie.
    """

    escalated = False
    try:
        if process.is_alive():
            process.terminate()
        deadline = time.monotonic() + grace
        process.join(timeout=max(0.0, deadline - time.monotonic()))
        if process.is_alive():
            process.kill()
            escalated = True
            process.join(timeout=2.0)
    except (ValueError, OSError):  # already closed / already gone
        return escalated
    return escalated


def _bootstrap(conn, parent_end, factory: ServeFactory, memory_limit_mb: Optional[int]) -> None:
    """Child entry point: build the serve function, then serve until stopped."""
    # With this copy of the parent's end closed, the parent's death reads as
    # EOF below (once the workers forked after this one, which inherited a
    # copy, have exited too) instead of leaving this child waiting forever.
    parent_end.close()
    # The fork inherited the parent's signal plumbing (the daemon's asyncio
    # wakeup fd among it); detach it, or this child's SIGTERM would write
    # to the wakeup pipe it shares with the parent loop.  Ctrl-C reaches
    # the whole process group: the parent handles it and kills its workers.
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):
        pass
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # The parent still terminates this worker at exit, but the worker may
    # fork workers of its own (a daemon job's scheduler at --session-jobs
    # above 1), which multiprocessing refuses to a daemonic process.
    multiprocessing.current_process().daemon = False
    # This process is disposable: injected crash faults really SIGKILL it,
    # and the memory ceiling applies here rather than in the parent.
    mark_worker()
    apply_memory_limit(memory_limit_mb)
    serve = factory()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        attempt, request = message
        set_attempt(attempt)
        reply = serve(request)
        try:
            conn.send(reply)
        except OSError:
            break
    conn.close()


class Worker:
    """One forked worker process plus the parent's end of its pipe.

    The child runs ``factory()`` once and then answers each request with
    the function it returned.  ``conn`` is public so a caller driving
    several workers can pass them to ``multiprocessing.connection.wait``.
    """

    def __init__(
        self,
        factory: ServeFactory,
        *,
        name: str = "repro-worker",
        memory_limit_mb: Optional[int] = None,
    ) -> None:
        # Fork, not spawn: the child inherits the caller's elaborated state
        # (and any module globals a test or oracle patched) as it stands.
        context = multiprocessing.get_context("fork")
        self.conn, child_end = context.Pipe()
        self.process = context.Process(
            target=_bootstrap,
            args=(child_end, self.conn, factory, memory_limit_mb),
            name=name,
            daemon=True,
        )
        try:
            self.process.start()
        except BaseException:
            self.conn.close()
            raise
        finally:
            child_end.close()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def send(self, request: Any, attempt: int = 1) -> None:
        """Hand the worker one request; a dead worker shows in :meth:`receive`."""
        try:
            self.conn.send((attempt, request))
        except OSError:
            pass

    def receive(self, timeout: Optional[float] = None) -> Tuple[str, Any]:
        """Wait for the reply: ``("ok", reply)``, ``("timeout", None)`` or
        ``("crashed", None)`` when the pipe closed (the child died).

        After a timeout or a crash the caller must kill the worker, not
        reuse it: a late reply would otherwise answer its next request.
        """
        try:
            if timeout is not None and not self.conn.poll(timeout):
                return "timeout", None
            return "ok", self.conn.recv()
        except (EOFError, OSError):
            return "crashed", None

    def kill(self) -> None:
        """Hard teardown: SIGTERM, bounded grace, SIGKILL, always joined."""
        process, self.process = self.process, None
        if process is not None:
            reap_process(process, grace=KILL_GRACE_SECONDS)
            try:
                process.close()
            except ValueError:
                pass
        self.conn.close()

    def stop(self) -> None:
        """Graceful teardown: ask the child to exit, then escalate."""
        try:
            self.conn.send(None)
        except OSError:
            pass
        if self.process is not None:
            try:
                self.process.join(timeout=STOP_GRACE_SECONDS)
            except ValueError:
                pass
        self.kill()
