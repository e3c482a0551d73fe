"""Serve worker tests: payload execution, pool selection, and that a
serve pool recovers a killed worker with the exact answer.  The crash
contract itself is tested on the pool (``test_runtime_workers.py``)."""

import dataclasses
import sys

import pytest

from repro.runtime.workers import TaskPool, fork_available
from repro.serve import EngineContext, execute_payload, make_pool
from repro.errors import ReproError, SearchError

QUERY = "(Brad:actor) -[acted_in]- (?:film)"

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable")


class TestExecutePayload:
    def test_ok_result_shape(self, movie_graph):
        ctx = EngineContext(movie_graph)
        result = execute_payload(ctx, {"query": QUERY, "k": 2})
        assert result["ok"] is True
        assert result["degraded"] is False
        assert len(result["matches"]) == 2
        for match in result["matches"]:
            assert set(match) == {"assignment", "score"}
        assert result["report"] is None or isinstance(result["report"], dict)

    def test_semicolons_become_newlines(self, movie_graph):
        ctx = EngineContext(movie_graph)
        two_line = ("(?m:director) -[collaborated_with]- (Brad:actor);"
                    "(?m) -[won]- (?:award)")
        result = execute_payload(ctx, {"query": two_line, "k": 1})
        assert result["ok"] is True

    def test_parse_error_is_structured(self, movie_graph):
        ctx = EngineContext(movie_graph)
        result = execute_payload(ctx, {"query": "not a pattern", "k": 1})
        assert result["ok"] is False
        assert result["error_kind"] == "QueryError"

    def test_budget_spec_reaches_the_engine(self, movie_graph):
        ctx = EngineContext(movie_graph)
        result = execute_payload(ctx, {
            "query": QUERY, "k": 2,
            "budget_spec": {"max_nodes": 0, "anytime": True},
        })
        assert result["ok"] is True
        assert result["degraded"] is True
        assert result["report"]["completed"] is False

    def test_exact_mode_fault_escapes_as_error(self, movie_graph):
        ctx = EngineContext(movie_graph)
        result = execute_payload(ctx, {
            "query": QUERY, "k": 2,
            "budget_spec": {"deadline_ms": 1000.0, "anytime": False},
            "fault_specs": [{"site": "scorer.node_score", "mode": "raise",
                             "repeat": True}],
        })
        assert result["ok"] is False
        assert result["error_kind"] == "InjectedFaultError"

    def test_anytime_budget_absorbs_fault_as_degraded(self, movie_graph):
        ctx = EngineContext(movie_graph)
        result = execute_payload(ctx, {
            "query": QUERY, "k": 2,
            "budget_spec": {"deadline_ms": 1000.0, "anytime": True},
            "fault_specs": [{"site": "scorer.node_score", "mode": "raise"}],
        })
        assert result["ok"] is True
        assert result["degraded"] is True

    def test_repeated_budgeted_request_reads_the_worker_cache(
            self, movie_graph):
        ctx = EngineContext(movie_graph)
        payload = {"query": QUERY, "k": 2,
                   "budget_spec": {"max_nodes": 10 ** 6, "anytime": True}}
        cold = execute_payload(ctx, payload)
        cache = ctx.scorer.candidate_cache
        hits, inserts = cache.stats.hits, cache.stats.inserts
        assert inserts > 0
        warm = execute_payload(ctx, payload)
        assert warm["matches"] == cold["matches"]
        assert cache.stats.hits > hits and cache.stats.inserts == inserts
        # A hit charges what the cold scan charged.
        assert (warm["report"]["nodes_visited"]
                == cold["report"]["nodes_visited"])
        assert warm["report"]["completed"] is True
        assert warm["report"] == dataclasses.asdict(ctx.engine.last_report)

    def test_chaos_request_on_a_warm_worker_fires_its_fault(
            self, movie_graph):
        ctx = EngineContext(movie_graph)
        anytime = {"deadline_ms": 1000.0, "anytime": True}
        clean = {"query": QUERY, "k": 2, "budget_spec": anytime}
        expected = execute_payload(ctx, clean)
        stats = ctx.scorer.candidate_cache.stats.as_dict()
        assert stats["inserts"] > 0
        fault = [{"site": "scorer.node_score", "mode": "raise"}]
        result = execute_payload(ctx, dict(clean, fault_specs=fault))
        assert result["ok"] is True and result["degraded"] is True
        assert result["report"]["faults"]
        strict = execute_payload(ctx, dict(
            clean, budget_spec={"deadline_ms": 1000.0, "anytime": False},
            fault_specs=[dict(fault[0], repeat=True)]))
        assert strict["error_kind"] == "InjectedFaultError"
        # The chaos engines neither read nor wrote the worker's cache.
        assert ctx.scorer.candidate_cache.stats.as_dict() == stats
        assert execute_payload(ctx, clean)["matches"] == expected["matches"]


class TestThreadPool:
    def test_submit_and_stats(self, movie_graph):
        pool = make_pool(movie_graph, size=2, backend="thread").start()
        try:
            result = pool.submit({"query": QUERY, "k": 2}).result(timeout=30)
            assert result["ok"] is True
            assert pool.alive() == 2
            assert pool.stats()["backend"] == "thread"
        finally:
            pool.stop()

    def test_submit_before_start_fails_fast(self, movie_graph):
        pool = make_pool(movie_graph, size=1, backend="thread")
        with pytest.raises(ReproError):
            pool.submit({"query": QUERY, "k": 1}).result(timeout=5)


    def test_tasks_done_counts_every_task_under_contention(
            self, movie_graph):
        """``tasks_done`` is bumped from N pool threads; an unlocked
        ``+=`` loses updates that ``/statz`` then reports."""
        pool = make_pool(movie_graph, size=8, backend="thread").start()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            bad = {"query": "not a pattern", "k": 1}  # cheap: parse error
            futures = [pool.submit(bad) for _ in range(400)]
            for future in futures:
                assert future.result(timeout=30)["ok"] is False
            assert pool.stats()["tasks_done"] == 400
        finally:
            sys.setswitchinterval(interval)
            pool.stop()


@needs_fork
class TestForkPool:
    @pytest.fixture()
    def pool(self, movie_graph):
        pool = make_pool(movie_graph, size=2, backend="fork").start()
        yield pool
        pool.stop()

    def test_clean_submits(self, pool):
        assert isinstance(pool, TaskPool)
        futures = [pool.submit({"query": QUERY, "k": 2}) for _ in range(6)]
        results = [f.result(timeout=30) for f in futures]
        assert all(r["ok"] for r in results)
        scores = {tuple(m["score"] for m in r["matches"]) for r in results}
        assert len(scores) == 1  # identical answers from every worker
        assert pool.stats()["worker_crashes"] == 0

    def test_killed_worker_is_recovered_with_the_exact_answer(
            self, pool, movie_graph):
        expected = execute_payload(EngineContext(movie_graph),
                                   {"query": QUERY, "k": 2})
        crash = {
            "query": QUERY, "k": 2,
            "fault_specs": [{"site": "scorer.node_score", "mode": "crash"}],
        }
        result = pool.submit(crash).result(timeout=30)
        # The re-queued attempt has the crash spec stripped, so the
        # caller still gets the answer a clean request gets.
        assert result["ok"] is True
        assert result["matches"] == expected["matches"]
        stats = pool.stats()
        assert stats["worker_crashes"] == 1
        assert stats["requeued"] == 1
        assert stats["replacements"] == 1

    def test_crash_fires_on_warm_workers(self, pool):
        clean = {"query": QUERY, "k": 2,
                 "budget_spec": {"deadline_ms": 1000.0, "anytime": True}}
        for future in [pool.submit(clean) for _ in range(6)]:
            assert future.result(timeout=30)["ok"] is True
        crash = dict(clean, fault_specs=[
            {"site": "scorer.node_score", "mode": "crash"}])
        result = pool.submit(crash).result(timeout=30)
        assert result["ok"] is True
        assert pool.stats()["worker_crashes"] == 1


class TestMakePool:
    def test_unknown_backend_rejected(self, movie_graph):
        with pytest.raises(ReproError):
            make_pool(movie_graph, backend="greenlet")

    @pytest.mark.parametrize("backend", ["auto", "thread"])
    def test_shards_rejected(self, movie_graph, backend):
        """Sharding is no engine option: ``shards`` fails the caller up
        front, like any unknown option."""
        with pytest.raises(SearchError,
                           match="unknown search option 'shards'"):
            make_pool(movie_graph, engine_opts={"shards": 2},
                      backend=backend)

    def test_size_validation(self, movie_graph):
        with pytest.raises(ValueError):
            make_pool(movie_graph, size=0)

    def test_auto_picks_a_backend(self, movie_graph):
        pool = make_pool(movie_graph, size=1, backend="auto")
        expected = "fork" if fork_available() else "thread"
        assert pool.backend == expected

    def test_thread_is_always_available(self, movie_graph):
        assert make_pool(movie_graph, backend="thread").backend == "thread"
