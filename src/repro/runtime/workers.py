"""The one worker runtime: a supervised fork child and two task pools.

Everything multi-process in this package sits on the pieces here, so
worker death is detected, accounted and recovered in one place:

* :class:`ForkWorker` -- one daemon ``fork`` child reached over a
  private duplex pipe.  The pipe *is* the death signal: EOF or a broken
  pipe in either direction raises the typed :class:`WorkerDied` -- no
  polling, no shared queue a sibling could mask the loss on.  The child
  runs ``target(conn, *args)``; ``args`` are inherited through the fork
  (copy-on-write, never pickled), which is how a graph, an index or a
  whole workload reaches a worker.  Before the target runs, the child
  resets the obs tracer it inherited, so its spans and counters cover
  exactly its own work.
* :class:`TaskPool` -- ``size`` workers behind ``submit(payload) ->
  Future``.  A dispatcher thread multiplexes every pipe (plus a wake
  socket) with :func:`multiprocessing.connection.wait`.  **Crash
  contract:** a worker that dies mid-task loses exactly that task; it is
  re-queued (at most ``max_requeues`` times) on a freshly forked
  replacement with transient fault specs stripped
  (:func:`strip_transient_faults`), so one poisoned request cannot
  serially kill the fleet; past the limit its future fails with
  :class:`~repro.errors.WorkerCrashError`.
* :class:`ThreadPool` -- the same interface and stop contract over
  threads, without crash isolation; :func:`pool_for` chooses between
  the two for ``repro.serve`` and ``repro.perf.search_many``.

``repro.shard.ShardedEngine`` (one stream worker per shard) drives
:class:`ForkWorker` directly.
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue
import socket
import threading
from collections import deque
from concurrent.futures import Future
from multiprocessing import connection
from typing import Any, Callable, Dict, List, Optional

from repro import obs
from repro.errors import ReproError, SearchError, WorkerCrashError

__all__ = ["POOL_BACKENDS", "ForkWorker", "TaskPool", "ThreadPool",
           "WorkerDied", "fork_available", "pool_for",
           "strip_transient_faults"]

_JOIN_TIMEOUT_S = 1.0

#: Serializes pipe creation + fork + closing the parent's copy of the
#: child end.  A child forked by another thread inside that window would
#: inherit the child end and keep it open, and the pipe would never
#: reach EOF when its real owner dies.
_SPAWN_LOCK = threading.Lock()


def fork_available() -> bool:
    """True when the fork start method exists (Linux/macOS CPython)."""
    return "fork" in multiprocessing.get_all_start_methods()


def strip_transient_faults(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Copy *payload* for a retry/re-queue, dropping transient faults.

    Drops one-shot specs (``repeat=False``) and *every* crash spec --
    a crash re-queue that re-crashes the survivor would let one poisoned
    request serially kill the whole pool.  Persistent (``repeat=True``,
    non-crash) specs are kept.
    """
    specs: List[Dict[str, Any]] = payload.get("fault_specs") or []
    kept = [s for s in specs
            if s.get("repeat", False) and s.get("mode") != "crash"]
    out = dict(payload)
    if kept:
        out["fault_specs"] = kept
    else:
        out.pop("fault_specs", None)
    return out


class WorkerDied(Exception):
    """The worker's pipe hit EOF or broke: the child is gone."""


def _child_main(target: Callable, conn, args: tuple) -> None:
    # The fork copied the parent's active tracer, spans and counters
    # included; left alone they would be reported a second time.
    tracer = obs.active_tracer()
    if tracer is not None:
        tracer.reset()
    try:
        target(conn, *args)
    finally:
        conn.close()


class ForkWorker:
    """One supervised fork child running ``target(conn, *args)``.

    The target loops on ``conn.recv()`` and must return on the ``None``
    sentinel (:meth:`stop`) and on ``EOFError``/``OSError`` (the parent
    went away).
    """

    def __init__(self, target: Callable, args: tuple = (),
                 name: Optional[str] = None) -> None:
        self._target = target
        self._args = args
        self._name = name
        self._spawn()

    def _spawn(self) -> None:
        ctx = multiprocessing.get_context("fork")
        with _SPAWN_LOCK:
            self.conn, child_conn = ctx.Pipe()
            self.proc = ctx.Process(
                target=_child_main,
                args=(self._target, child_conn, self._args),
                daemon=True, name=self._name,
            )
            self.proc.start()
            child_conn.close()

    def send(self, msg) -> None:
        try:
            self.conn.send(msg)
        except OSError:  # BrokenPipeError, or the pipe is already closed
            raise WorkerDied(self.proc.name) from None

    def recv(self):
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            raise WorkerDied(self.proc.name) from None

    def reap(self) -> Optional[int]:
        """Close the pipe and join the child, terminating one that does
        not exit; returns its exit code."""
        self.conn.close()
        self.proc.join(timeout=_JOIN_TIMEOUT_S)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=_JOIN_TIMEOUT_S)
        return self.proc.exitcode

    def respawn(self) -> Optional[int]:
        """Replace a dead child in place; returns the corpse's exit code."""
        exitcode = self.reap()
        self._spawn()
        return exitcode

    def stop(self) -> None:
        """Sentinel, join, terminate if still alive (idempotent)."""
        try:
            self.conn.send(None)
        except OSError:
            pass  # already dead or already stopped
        self.reap()


def _handler_from(factory: Callable[[], Callable]) -> Callable:
    """``factory()``, or a handler that raises what the factory raised.

    A fork worker dying here would have the pool respawn it forever, so
    either pool's worker stays up and answers every task with the reason.
    """
    try:
        return factory()
    except Exception as exc:
        failure = exc

        def handler(_payload):
            raise failure
        return handler


def _task_loop(conn, factory: Callable[[], Callable]) -> None:
    """:class:`TaskPool` child: build the handler, then serve tasks."""
    handler = _handler_from(factory)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        task_id, payload = msg
        try:
            reply = (task_id, handler(payload), None)
        except Exception as exc:
            reply = (task_id, None, exc)
        try:
            conn.send(reply)
        except OSError:  # the parent went away
            break


class _Task:
    __slots__ = ("task_id", "payload", "future", "crashes")

    def __init__(self, task_id: int, payload: Dict[str, Any],
                 future: Future) -> None:
        self.task_id = task_id
        self.payload = payload
        self.future = future
        self.crashes = 0


class TaskPool:
    """A supervised pool of fork workers (crash contract: module doc).

    Args:
        factory: called once in every worker, after the fork, to build
            the ``handler(payload) -> result`` that worker runs.  The
            factory and whatever it closes over are fork-inherited; only
            payloads and results cross the pipe (pickled).  An exception
            out of the handler fails that task's future with it.
        size: worker process count.
        max_requeues: crash re-queues one task may consume before its
            future fails with :class:`WorkerCrashError`.
    """

    backend = "fork"

    def __init__(self, factory: Callable[[], Callable], size: int = 2,
                 max_requeues: int = 1) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self._factory = factory
        self.size = size
        self.max_requeues = max_requeues
        self._lock = threading.Lock()
        self._workers: List[ForkWorker] = []
        self._running: Dict[ForkWorker, _Task] = {}
        self._pending: deque = deque()
        self._ids = itertools.count()
        self._closing = False
        self._started = False
        self._dispatcher: Optional[threading.Thread] = None
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        # Supervision counters (exported by stats()).
        self.tasks_done = 0
        self.worker_crashes = 0
        self.requeued = 0
        self.crash_failures = 0
        self.replacements = 0

    # ------------------------------------------------------------------
    def start(self) -> "TaskPool":
        if self._started:
            return self
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        for _ in range(self.size):
            self._workers.append(ForkWorker(_task_loop, (self._factory,)))
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="task-pool-dispatcher",
            daemon=True,
        )
        self._started = True
        self._dispatcher.start()
        return self

    def submit(self, payload: Dict[str, Any]) -> Future:
        """Enqueue one task; thread-safe; resolves with the result."""
        future: Future = Future()
        with self._lock:
            if self._closing or not self._started:
                future.set_exception(ReproError("worker pool is not running"))
                return future
            self._pending.append(_Task(next(self._ids), payload, future))
        self._wake()
        return future

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # wake channel saturated or closing: dispatcher is awake

    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                if self._closing:
                    break
                conns = {w.conn: w for w in self._workers}
            ready = connection.wait(
                list(conns) + [self._wake_r], timeout=0.5
            )
            with self._lock:
                for obj in ready:
                    if obj is self._wake_r:
                        try:
                            while self._wake_r.recv(4096):
                                pass
                        except (BlockingIOError, OSError):
                            pass
                        continue
                    worker = conns[obj]
                    if worker.conn is obj:  # not respawned meanwhile
                        self._drain_worker(worker)
                self._assign()
        self._fail_pending(ReproError("worker pool stopped"))

    def _drain_worker(self, worker: ForkWorker) -> None:
        try:
            task_id, result, error = worker.recv()
        except WorkerDied:
            self._handle_death(worker)
            return
        task = self._running.pop(worker, None)
        self.tasks_done += 1
        # A result for a stale task id (pre-crash duplicate) is dropped.
        if task is None or task.task_id != task_id \
                or task.future.cancelled():
            return
        if error is not None:
            task.future.set_exception(error)
        else:
            task.future.set_result(result)

    def _handle_death(self, worker: ForkWorker) -> None:
        """A worker's pipe hit EOF: account, re-queue, replenish."""
        self.worker_crashes += 1
        if self._closing:
            exitcode = worker.reap()
        else:
            exitcode = worker.respawn()
            self.replacements += 1
        task = self._running.pop(worker, None)
        if task is None:
            return
        task.crashes += 1
        if task.crashes <= self.max_requeues:
            # Recovery path: strip transient/crash faults so the
            # re-queued task cannot kill the survivor too.
            task.payload = strip_transient_faults(task.payload)
            self._pending.appendleft(task)
            self.requeued += 1
        else:
            self.crash_failures += 1
            if not task.future.cancelled():
                task.future.set_exception(WorkerCrashError(
                    f"worker died {task.crashes} time(s) executing "
                    f"task {task.task_id} (exitcode {exitcode})"
                ))

    def _assign(self) -> None:
        idle = [w for w in self._workers if w not in self._running]
        while self._pending and idle:
            task = self._pending.popleft()
            if task.future.cancelled():
                continue
            worker = idle.pop()
            self._running[worker] = task
            try:
                worker.send((task.task_id, task.payload))
            except WorkerDied:
                self._handle_death(worker)
                if not self._closing:
                    idle.append(worker)  # respawned in place, idle again

    def _fail_pending(self, exc: Exception) -> None:
        with self._lock:
            tasks = list(self._pending) + list(self._running.values())
            self._pending.clear()
            self._running.clear()
        for task in tasks:
            if not task.future.done():
                task.future.set_exception(exc)

    # ------------------------------------------------------------------
    def stop(self) -> None:
        if not self._started or self._closing:
            return
        with self._lock:
            self._closing = True
        self._wake()
        self._dispatcher.join(timeout=5.0)
        for worker in self._workers:
            worker.stop()
        self._workers.clear()
        self._wake_r.close()
        self._wake_w.close()

    def alive(self) -> int:
        with self._lock:
            return sum(1 for w in self._workers if w.proc.is_alive())

    def stats(self) -> Dict[str, Any]:
        """JSON-safe supervision counters (``/statz``, ``BatchResult``)."""
        return {
            "backend": self.backend,
            "size": self.size,
            "alive": self.alive(),
            "tasks_done": self.tasks_done,
            "worker_crashes": self.worker_crashes,
            "requeued": self.requeued,
            "crash_failures": self.crash_failures,
            "replacements": self.replacements,
        }


class ThreadPool:
    """:class:`TaskPool`'s interface over ``size`` threads, for platforms
    without fork.  Each thread calls ``factory()`` on its first task.
    No crash isolation (a ``crash`` fault takes the process down), so the
    crash counters stay 0; :meth:`stop` fails every unresolved future,
    the running ones included, as the fork pool does.
    """

    backend = "thread"
    worker_crashes = requeued = crash_failures = replacements = 0

    def __init__(self, factory: Callable[[], Callable],
                 size: int = 2) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self._factory = factory
        self.size = size
        self._lock = threading.Lock()
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._unresolved: set = set()
        self._threads: List[threading.Thread] = []
        self._running = False
        self.tasks_done = 0

    def start(self) -> "ThreadPool":
        if not self._threads:  # never restarted after stop()
            self._running = True
            self._threads = [threading.Thread(target=self._work, daemon=True,
                                              name=f"thread-pool-{i}")
                             for i in range(self.size)]
            for thread in self._threads:
                thread.start()
        return self

    def submit(self, payload: Dict[str, Any]) -> Future:
        """Enqueue one task; thread-safe; resolves with the result."""
        future: Future = Future()
        with self._lock:
            if not self._running:
                future.set_exception(ReproError("worker pool is not running"))
                return future
            self._unresolved.add(future)
        self._tasks.put((payload, future))
        return future

    def _work(self) -> None:
        handler = None
        for payload, future in iter(self._tasks.get, None):
            with self._lock:
                if not (self._running
                        and future.set_running_or_notify_cancel()):
                    self._unresolved.discard(future)  # cancelled or failed
                    continue
            if handler is None:
                handler = _handler_from(self._factory)
            try:
                result, error = handler(payload), None
            except Exception as exc:
                result, error = None, exc
            with self._lock:
                self.tasks_done += 1
                if future not in self._unresolved:  # stop() failed it
                    continue
                self._unresolved.discard(future)
            if error is None:
                future.set_result(result)
            else:
                future.set_exception(error)

    def stop(self) -> None:
        with self._lock:
            if not self._running:
                return
            self._running = False
            unresolved, self._unresolved = self._unresolved, set()
        for _ in self._threads:
            self._tasks.put(None)
        for future in unresolved:
            if not future.cancelled():
                future.set_exception(ReproError("worker pool stopped"))

    def alive(self) -> int:
        return sum(1 for thread in self._threads if thread.is_alive())

    stats = TaskPool.stats  # the same keys, read off the class's zeros


#: Pool backends: ``auto`` forks where available, else runs threads.
POOL_BACKENDS = ("auto", "fork", "thread")


def pool_for(factory: Callable[[], Callable], size: int = 2,
             backend: str = "auto", max_requeues: int = 1):
    """The one place a pool backend is chosen: a :class:`TaskPool` for
    ``auto`` or ``fork`` where fork is available, else a
    :class:`ThreadPool`.  The pool is returned unstarted.

    Raises:
        SearchError: for a backend outside :data:`POOL_BACKENDS`.
        ValueError: for ``size < 1``.
    """
    if backend not in POOL_BACKENDS:
        raise SearchError(f"unknown pool backend {backend!r}; "
                          f"expected one of {POOL_BACKENDS}")
    if backend != "thread" and fork_available():
        return TaskPool(factory, size=size, max_requeues=max_requeues)
    return ThreadPool(factory, size=size)
