"""The worker runtime, tested on the pools themselves (no graph needed).

``ForkWorker`` is the death-detecting primitive, ``TaskPool`` the crash
contract every user relies on: a worker killed mid-task loses exactly
that task, which is re-queued once on a replacement with transient
faults stripped and fails with ``WorkerCrashError`` past
``max_requeues``.  Serve, batch and shard keep one thin recovery test
each in their own suites.  The backend-independent contract (answers,
handler errors, start/stop, size) runs on both pools, built through
the one chooser ``pool_for``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro import obs
from repro.errors import ReproError, SearchError, WorkerCrashError
from repro.runtime.workers import (
    ForkWorker,
    TaskPool,
    ThreadPool,
    WorkerDied,
    fork_available,
    pool_for,
    strip_transient_faults,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable")


def _handle(payload):
    """The trivial handler: a payload says what its worker should do."""
    if payload.get("fault_specs"):
        os._exit(23)  # a crash fault, as seen from the parent
    if payload.get("die"):
        os._exit(24)  # dies however often it is re-queued
    if payload.get("sleep"):
        time.sleep(payload["sleep"])
    if payload.get("raise"):
        raise ValueError(payload["raise"])
    if payload.get("probe"):
        tracer = obs.active_tracer()
        return {
            "roots": [root.name for root in tracer.roots],
            "counters": tracer.registry.as_dict()["counters"],
        }
    with obs.trace("worker.task"):
        obs.count("worker.tasks")
    return {"pid": os.getpid(), "echo": payload.get("value"),
            "saw_faults": "fault_specs" in payload}


def _factory():
    return _handle


def _broken_factory():
    raise ReproError("cannot build the handler")


def _echo_loop(conn, tag):
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        if msg == "exit":
            os._exit(7)
        conn.send((tag, msg))


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.02)
    return predicate()


@needs_fork
class TestForkWorker:
    def test_round_trip_and_inherited_args(self):
        worker = ForkWorker(_echo_loop, ("shard-3",))
        try:
            worker.send({"q": 1})
            assert worker.recv() == ("shard-3", {"q": 1})
        finally:
            worker.stop()
        assert not worker.proc.is_alive()

    def test_death_is_typed_and_respawn_replaces_in_place(self):
        worker = ForkWorker(_echo_loop, ("w",))
        try:
            first = worker.proc.pid
            worker.send("exit")
            with pytest.raises(WorkerDied):
                worker.recv()
            assert worker.respawn() == 7  # the corpse's exit code
            assert worker.proc.pid != first
            worker.send("again")
            assert worker.recv() == ("w", "again")
        finally:
            worker.stop()

    def test_send_to_a_dead_worker_raises(self):
        worker = ForkWorker(_echo_loop, ("w",))
        worker.proc.kill()
        worker.proc.join(timeout=10)
        try:
            with pytest.raises(WorkerDied):
                for _ in range(64):  # the pipe buffer may absorb a few
                    worker.send("x" * 65536)
        finally:
            worker.stop()

    def test_stop_is_idempotent_and_leaves_no_child(self):
        worker = ForkWorker(_echo_loop, ("w",))
        worker.stop()
        worker.stop()
        assert not worker.proc.is_alive()
        assert worker.proc not in multiprocessing.active_children()


class PoolContract:
    """What either pool does, whichever backend ``pool_for`` picked."""

    backend = "fork"

    def make(self, factory=_factory, size=2):
        pool = pool_for(factory, size=size, backend=self.backend)
        assert pool.backend == self.backend
        return pool

    @pytest.fixture()
    def pool(self):
        pool = self.make().start()
        yield pool
        pool.stop()

    def test_clean_submits(self, pool):
        futures = [pool.submit({"value": i}) for i in range(8)]
        results = [f.result(timeout=30) for f in futures]
        assert [r["echo"] for r in results] == list(range(8))
        stats = pool.stats()
        assert stats["backend"] == self.backend
        assert stats["tasks_done"] == 8
        assert stats["worker_crashes"] == stats["requeued"] == 0
        assert stats["crash_failures"] == stats["replacements"] == 0

    def test_handler_exception_fails_only_that_future(self, pool):
        bad = pool.submit({"raise": "no such entity"})
        good = pool.submit({"value": 5})
        with pytest.raises(ValueError, match="no such entity"):
            bad.result(timeout=30)
        assert good.result(timeout=30)["echo"] == 5
        assert pool.stats()["worker_crashes"] == 0

    def test_factory_failure_answers_tasks_instead_of_respawning(self):
        pool = self.make(_broken_factory, size=1).start()
        try:
            with pytest.raises(ReproError, match="cannot build"):
                pool.submit({"value": 1}).result(timeout=30)
            assert pool.stats()["worker_crashes"] == 0
            assert pool.alive() == 1
        finally:
            pool.stop()

    def test_stop_with_pending_fails_them_and_leaves_no_child(self):
        pool = self.make(size=1).start()
        procs = [w.proc for w in getattr(pool, "_workers", ())]
        running = pool.submit({"sleep": 0.3})
        queued = [pool.submit({"value": i}) for i in range(3)]
        time.sleep(0.1)  # the sleeper is on the worker, the rest queued
        pool.stop()
        # The running task fails too, on either backend: a thread pool
        # that cancelled its queue reached the serve scheduler as an
        # asyncio.CancelledError instead of an error result.
        for future in [running] + queued:
            with pytest.raises(ReproError, match="stopped"):
                future.result(timeout=10)
        for proc in procs:
            proc.join(timeout=10)
            assert not proc.is_alive()
        assert _wait_for(lambda: pool.alive() == 0)
        pool.stop()  # idempotent
        with pytest.raises(ReproError, match="not running"):
            pool.submit({"value": 1}).result(timeout=5)

    def test_submit_before_start_fails_fast(self):
        pool = self.make(size=1)
        with pytest.raises(ReproError, match="not running"):
            pool.submit({"value": 1}).result(timeout=5)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            self.make(size=0)


class TestThreadPool(PoolContract):
    backend = "thread"

    def test_each_thread_builds_its_handler_on_its_first_task(self):
        built = []

        def factory():
            built.append(threading.get_ident())
            return _handle

        pool = self.make(factory, size=3)
        assert isinstance(pool, ThreadPool)
        pool.start()
        try:
            assert built == []  # nothing is built before a task
            for future in [pool.submit({"sleep": 0.05, "value": i})
                           for i in range(12)]:
                future.result(timeout=30)
        finally:
            pool.stop()
        assert 1 <= len(built) <= 3
        assert len(set(built)) == len(built)  # once per thread


class TestPoolFor:
    def test_unknown_backend_rejected(self):
        with pytest.raises(SearchError, match="unknown pool backend"):
            pool_for(_factory, backend="serial")

    def test_auto_forks_where_it_can(self):
        expected = TaskPool if fork_available() else ThreadPool
        assert type(pool_for(_factory, backend="auto")) is expected


@needs_fork
class TestTaskPool(PoolContract):

    def test_crash_loses_one_task_requeues_it_clean_and_replenishes(
            self, pool):
        crash = {"value": "poisoned",
                 "fault_specs": [{"site": "scorer.node_score",
                                  "mode": "crash"}]}
        bystanders = [pool.submit({"value": i}) for i in range(4)]
        result = pool.submit(crash).result(timeout=30)
        # Re-queued once with the crash spec stripped: answered exactly.
        assert result["echo"] == "poisoned"
        assert result["saw_faults"] is False
        assert [f.result(timeout=30)["echo"] for f in bystanders] \
            == list(range(4))
        stats = pool.stats()
        assert stats["worker_crashes"] == 1
        assert stats["requeued"] == 1
        assert stats["replacements"] == 1
        assert stats["crash_failures"] == 0
        assert _wait_for(lambda: pool.alive() == pool.size)
        assert pool.submit({"value": "after"}).result(timeout=30)["echo"] \
            == "after"

    def test_persistent_faults_survive_the_requeue_strip(self):
        payload = {"fault_specs": [
            {"site": "scorer.node_score", "mode": "raise", "repeat": True},
            {"site": "scorer.node_score", "mode": "crash", "repeat": True},
            {"site": "graph.neighbors", "mode": "delay"},
        ]}
        kept = strip_transient_faults(payload)["fault_specs"]
        assert kept == [payload["fault_specs"][0]]

    def test_second_death_fails_the_task_with_worker_crash_error(self, pool):
        future = pool.submit({"die": True})
        with pytest.raises(WorkerCrashError, match="2 time"):
            future.result(timeout=30)
        stats = pool.stats()
        assert stats["worker_crashes"] == 2
        assert stats["requeued"] == 1
        assert stats["crash_failures"] == 1
        assert stats["replacements"] == 2
        # The pool itself survives its poisoned task.
        assert pool.submit({"value": 1}).result(timeout=30)["echo"] == 1

    def test_max_requeues_zero_fails_on_first_death(self):
        pool = TaskPool(_factory, size=1, max_requeues=0).start()
        try:
            with pytest.raises(WorkerCrashError):
                pool.submit({"die": True}).result(timeout=30)
            assert pool.stats()["requeued"] == 0
        finally:
            pool.stop()

    def test_workers_start_with_a_reset_tracer(self):
        """A pool forked under ``obs.capture()`` inherits the tracer;
        the child prologue resets it, so workers neither report the
        parent's spans again nor grow the parent's tree."""
        with obs.capture() as tracer:
            with obs.trace("parent.before"):
                obs.count("parent.events", 3)
            pool = TaskPool(_factory, size=2).start()
            try:
                for future in [pool.submit({"value": i}) for i in range(6)]:
                    future.result(timeout=30)
                probes = [pool.submit({"probe": True}).result(timeout=30)
                          for _ in range(4)]
            finally:
                pool.stop()
        for probe in probes:
            assert "parent.before" not in probe["roots"]
            assert "parent.events" not in probe["counters"]
        assert any("worker.task" in probe["roots"] for probe in probes)
        names = {span.name for span, _depth, _path in tracer.iter_spans()}
        assert names == {"parent.before"}
        assert "worker.tasks" not in tracer.registry.as_dict()["counters"]

    def test_many_submitters_and_crashes_every_task_answered_once(self):
        """More workers than cores, tasks from several threads, a crash
        every few tasks: no task is lost or answered twice, and the
        counters add up."""
        size = (os.cpu_count() or 2) + 2
        pool = TaskPool(_factory, size=size).start()
        per_thread, threads = 30, 4
        results = [None] * threads

        def submitter(slot):
            futures = []
            for i in range(per_thread):
                payload = {"value": (slot, i)}
                if i % 10 == 3:
                    payload["fault_specs"] = [{"mode": "crash"}]
                futures.append(pool.submit(payload))
            results[slot] = [f.result(timeout=60)["echo"] for f in futures]

        try:
            workers = [threading.Thread(target=submitter, args=(slot,))
                       for slot in range(threads)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=120)
                assert not thread.is_alive()
            stats = pool.stats()
        finally:
            pool.stop()
        for slot in range(threads):
            assert results[slot] == [(slot, i) for i in range(per_thread)]
        crashes = threads * len([i for i in range(per_thread)
                                 if i % 10 == 3])
        assert stats["worker_crashes"] == crashes
        assert stats["requeued"] == stats["replacements"] == crashes
        assert stats["crash_failures"] == 0
        assert stats["tasks_done"] == threads * per_thread
