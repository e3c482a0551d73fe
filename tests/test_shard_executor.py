"""Tests for the sharded execution engine (workers, merge, recovery).

Covers the fork backend end to end: pivot-scoped workers over a
fork-inherited graph and index, every star procedure, chunked pulls
with bound-based stream termination, duplicate suppression for
re-offered matches, crash recovery via the inline fallback + respawn,
and that no worker process outlives ``close()``.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.framework import Star
from repro.core.options import ALGORITHMS
from repro.errors import SearchError
from repro.perf import fork_available
from repro.query import star_workload
from repro.query.model import Query, StarQuery
from repro.runtime.budget import Budget
from repro.runtime.workers import WorkerDied
from repro.shard import ShardedEngine
from repro.shard.executor import _SerialTransport
from repro.shard.partition import GraphPartition
from repro.similarity import ScoringFunction

from tests.conftest import build_movie_graph, build_random_graph
from tests.oracle import assert_matches_meet_oracle, assert_same_results

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


def star_queries(graph, n=4, seed=31):
    return star_workload(graph, n, seed=seed)


def wildcard_star():
    """actor -[acted_in]- film, all wildcards: several movie-graph
    matches, so chunking/dedup paths are guaranteed to see traffic."""
    query = Query()
    pivot = query.add_node("?", "actor")
    leaf = query.add_node("?", "film")
    query.add_edge(pivot, leaf, "acted_in")
    return query


def assert_tie_equivalent(got, baseline, query, k):
    """Rank-by-rank score equality with *baseline*, assignments valid.

    The merger's canonical ``(-score, key)`` tie order can differ from
    the single-process engine's arrival order, so equal-score ranks may
    hold different (equally correct) assignments.
    """
    topk = baseline.search(query, k)
    full = baseline.search(query, 500)
    assert ([round(m.score, 9) for m in got]
            == [round(m.score, 9) for m in topk])
    valid = {(m.key(), round(m.score, 9)) for m in full}
    for m in got:
        assert (m.key(), round(m.score, 9)) in valid
    keys = [m.key() for m in got]
    assert len(keys) == len(set(keys))


class TestSerialBackend:
    def test_parity_with_star(self):
        graph = build_random_graph(1)
        scorer = ScoringFunction(graph)
        baseline = Star(graph, scorer=scorer)
        with ShardedEngine(graph, scorer=scorer, shards=3,
                           backend="serial") as engine:
            assert engine.backend == "serial"
            for query in star_queries(graph):
                assert_same_results(engine.search(query, 5),
                                    baseline.search(query, 5))

    def test_small_chunks_terminate_on_bound(self):
        graph = build_movie_graph()
        scorer = ScoringFunction(graph)
        baseline = Star(graph, scorer=scorer)
        query = wildcard_star()  # several matches: chunking is exercised
        with ShardedEngine(graph, scorer=scorer, shards=2,
                           backend="serial", chunk_size=1) as engine:
            got = engine.search(query, 2)
            assert len(got) == 2
            assert_tie_equivalent(got, baseline, query, 2)
            stats = engine.last_shard_stats
            # chunk_size=1 forces repeated "more" round trips.
            assert stats["chunks"] > stats["shards"]
            assert sum(stats["matches_pulled"]) >= 2

    def test_overlapping_scopes_are_deduplicated(self):
        """With fully overlapping pivot scopes every match arrives once
        per shard -- what a crashed shard's inline re-run re-offers; the
        merger must suppress the duplicates exactly."""
        graph = build_movie_graph()
        scorer = ScoringFunction(graph)
        baseline = Star(graph, scorer=scorer)
        query = wildcard_star()
        with ShardedEngine(graph, scorer=scorer, shards=2,
                           backend="serial") as engine:
            everything = frozenset(graph.nodes())
            engine._partition = GraphPartition(
                2, graph.uid, graph.version, (everything, everything),
                graph.num_nodes,
            )
            engine._local_matchers = {}
            got = engine.search(query, 5)
            assert len(got) > 0
            assert_tie_equivalent(got, baseline, query, 5)
            assert engine.last_shard_stats["dedup_hits"] > 0

    def test_fallback_for_general_and_budgeted_queries(self):
        graph = build_movie_graph()
        scorer = ScoringFunction(graph)
        baseline = Star(graph, scorer=scorer)
        # A cycle is genuinely non-star (a 2-edge path would still be a
        # star centered on its middle node and run sharded).
        cycle = Query()
        a = cycle.add_node("Brad Pitt", "actor")
        b = cycle.add_node("?", "film")
        c = cycle.add_node("Angelina", "actor")
        cycle.add_edge(a, b, "acted_in")
        cycle.add_edge(c, b, "acted_in")
        cycle.add_edge(a, c, "married_to")
        star = star_queries(graph, n=1)[0]
        with ShardedEngine(graph, scorer=scorer, shards=2,
                           backend="serial") as engine:
            with obs.capture() as tracer:
                assert_same_results(engine.search(cycle, 3),
                                    baseline.search(cycle, 3))
                budgeted = engine.search(star, 3,
                                         budget=Budget(max_nodes=10**6))
                assert_same_results(budgeted, baseline.search(star, 3))
            counters = tracer.registry.as_dict()["counters"]
            assert counters["shard.fallback_queries"] == 2
            assert engine.last_report is not None

    def test_validation_and_closed_engine(self):
        graph = build_movie_graph()
        with pytest.raises(SearchError):
            ShardedEngine(graph, shards=0)
        with pytest.raises(SearchError):
            ShardedEngine(graph, backend="threads")
        with pytest.raises(SearchError):
            ShardedEngine(graph, chunk_size=0)
        engine = ShardedEngine(graph, shards=2, backend="serial")
        star = star_queries(graph, n=1)[0]
        with pytest.raises(SearchError):
            engine.search(star, 0)
        engine.close()
        with pytest.raises(SearchError, match="closed"):
            engine.search(star, 3)

    def test_mid_stream_crash_restarts_inline(self):
        """A worker dying on a "more" request must restart that shard's
        stream inline and still return the exact top-k."""
        graph = build_random_graph(5)
        scorer = ScoringFunction(graph)
        baseline = Star(graph, scorer=scorer)

        class FlakyTransport(_SerialTransport):
            tripped = False

            def request(self, state, msg):
                if msg[0] == "more" and not FlakyTransport.tripped:
                    FlakyTransport.tripped = True
                    raise WorkerDied(state.shard_id)
                super().request(state, msg)

        import repro.shard.executor as executor

        with ShardedEngine(graph, scorer=scorer, shards=2,
                           backend="serial", chunk_size=1) as engine:
            original = executor._SerialTransport
            executor._SerialTransport = FlakyTransport
            try:
                query = star_queries(graph, n=1)[0]
                got = engine.search(query, 4)
            finally:
                executor._SerialTransport = original
            assert FlakyTransport.tripped
            assert_same_results(got, baseline.search(query, 4))
            stats = engine.last_shard_stats
            assert stats["worker_crashes"] == 1
            assert stats["inline_fallbacks"] == 1


@needs_fork
class TestForkBackend:
    def test_parity_with_star(self):
        graph = build_random_graph(4)
        scorer = ScoringFunction(graph)
        baseline = Star(graph, scorer=scorer)
        with ShardedEngine(graph, scorer=scorer, shards=3,
                           backend="fork") as engine:
            assert engine.backend == "fork"
            for query in star_queries(graph):
                assert_same_results(engine.search(query, 5),
                                    baseline.search(query, 5))

    def test_parity_with_index_and_candidate_limit(self):
        graph = build_random_graph(6, num_nodes=40, num_edges=90)
        baseline = Star(graph, candidate_limit=8, use_index="on")
        with ShardedEngine(graph, shards=3, backend="fork",
                           candidate_limit=8, use_index="on") as engine:
            assert engine.scorer.graph_index is not None
            for query in star_queries(graph, n=3):
                assert_same_results(engine.search(query, 5),
                                    baseline.search(query, 5))

    def test_stard_parity(self):
        graph = build_random_graph(7)
        scorer = ScoringFunction(graph)
        baseline = Star(graph, scorer=scorer, d=2)
        with ShardedEngine(graph, scorer=scorer, shards=2,
                           backend="fork", d=2) as engine:
            for query in star_queries(graph, n=2):
                assert_tie_equivalent(engine.search(query, 4),
                                      baseline, query, 4)

    @pytest.mark.parametrize("d", [1, 2])
    def test_every_procedure_meets_the_oracle(self, d):
        graph = build_random_graph(3)
        scorer = ScoringFunction(graph)
        queries = star_queries(graph, n=2)
        for algorithm in ALGORITHMS:
            with ShardedEngine(graph, scorer=scorer, shards=2, d=d,
                               backend="fork", algorithm=algorithm) as engine:
                for query in queries:
                    assert_matches_meet_oracle(
                        engine.search(query, 4), scorer,
                        StarQuery.from_query(query), 4, d=d,
                        label=f"{algorithm} sharded (d={d})")

    def test_crash_recovery_and_respawn(self):
        graph = build_random_graph(8)
        scorer = ScoringFunction(graph)
        baseline = Star(graph, scorer=scorer)
        queries = star_queries(graph, n=2)
        with ShardedEngine(graph, scorer=scorer, shards=2,
                           backend="fork") as engine:
            engine.search(queries[0], 5)  # workers warm
            victim = engine._workers[0]
            corpse = victim.proc
            victim.send(("crash", 11))
            corpse.join(timeout=10.0)
            assert not corpse.is_alive()
            with obs.capture() as tracer:
                got = engine.search(queries[1], 5)
            assert_same_results(got, baseline.search(queries[1], 5))
            stats = engine.last_shard_stats
            assert stats["worker_crashes"] >= 1
            assert stats["inline_fallbacks"] >= 1
            counters = tracer.registry.as_dict()["counters"]
            assert counters["shard.worker_crashes"] >= 1
            assert victim.proc is not corpse and victim.proc.is_alive()
            # The respawned worker serves the next query normally.
            assert_same_results(engine.search(queries[0], 5),
                                baseline.search(queries[0], 5))
            assert engine.last_shard_stats["worker_crashes"] == 0

    def test_counters_and_gauges_emitted(self):
        graph = build_random_graph(9)
        with ShardedEngine(graph, shards=2, backend="fork") as engine:
            query = star_queries(graph, n=1)[0]
            with obs.capture() as tracer:
                engine.search(query, 5)
            snap = tracer.registry.as_dict()
            assert snap["counters"]["shard.searches"] == 1
            assert snap["counters"]["shard.streams_opened"] == 2
            assert snap["counters"]["shard.matches_pulled"] >= 0
            assert snap["gauges"]["shard.count"] == 2
            assert snap["gauges"]["shard.replication_factor"] == 2.0


@needs_fork
class TestWorkerLifetime:
    def test_no_worker_outlives_close_even_after_a_crash(self):
        graph = build_random_graph(10)
        engine = ShardedEngine(graph, shards=2, backend="fork",
                               use_index="on")
        query = star_queries(graph, n=1)[0]
        engine.search(query, 3)
        engine._workers[1].send(("crash", 9))
        engine.search(query, 3)  # recovers inline, respawns
        procs = [worker.proc for worker in engine._workers]
        assert all(proc.is_alive() for proc in procs)
        engine.close()
        assert not any(proc.is_alive() for proc in procs)
        engine.close()  # idempotent

    def test_dropped_engine_stops_its_workers(self):
        import gc

        graph = build_random_graph(12)
        engine = ShardedEngine(graph, shards=2, backend="fork")
        procs = [worker.proc for worker in engine._workers]
        del engine
        gc.collect()
        assert not any(proc.is_alive() for proc in procs)
