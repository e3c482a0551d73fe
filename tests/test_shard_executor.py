"""Tests for the sharded execution engine (workers, merge, recovery).

Covers the fork backend end to end: pivot-scoped workers over a
fork-inherited graph and index, every star procedure, the two-round
merge (each shard's top k, then its ties at the merged k-th score),
crash recovery in either round via an in-process recompute + respawn,
and that no worker process outlives ``close()``.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.framework import Star
from repro.core.options import ALGORITHMS
from repro.errors import SearchError
from repro.graph import KnowledgeGraph
from repro.perf import fork_available
from repro.query import star_workload
from repro.query.model import Query, StarQuery
from repro.runtime.budget import Budget
from repro.shard import ShardedEngine
from repro.similarity import ScoringFunction

from tests.conftest import build_movie_graph, build_random_graph
from tests.oracle import assert_matches_meet_oracle, assert_same_results

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


def star_queries(graph, n=4, seed=31):
    return star_workload(graph, n, seed=seed)


def wildcard_star():
    """actor -[acted_in]- film, all wildcards."""
    query = Query()
    pivot = query.add_node("?", "actor")
    leaf = query.add_node("?", "film")
    query.add_edge(pivot, leaf, "acted_in")
    return query


def tie_graph():
    """Forty look-alike actors: :func:`wildcard_star` scores their
    matches in three tiers (2, 18 and 28 matches), so k=4 puts the k-th
    score inside the middle tier, tied on several shards."""
    graph = KnowledgeGraph(name="ties")
    for i in range(40):
        actor = graph.add_node(f"Actor {i}", "actor")
        graph.add_edge(actor, graph.add_node(f"Film {i}", "film"),
                       "acted_in")
        if i % 8 == 0:
            graph.add_edge(actor, graph.add_node(f"Prize {i}", "award"),
                           "won")
        if i % 5 == 1:
            graph.add_edge(actor, graph.add_node(f"Sequel {i}", "film"),
                           "acted_in")
    return graph


def canonical(matches):
    return [(m.key(), m.score)
            for m in sorted(matches, key=lambda m: (-m.score, m.key()))]


def assert_tie_equivalent(got, baseline, query, k):
    """Rank-by-rank score equality with *baseline*, assignments valid.

    The merge's canonical ``(-score, key)`` tie order can differ from
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

    def test_boundary_tie_runs_the_tie_round(self):
        """Round 2 goes to exactly the shards whose k-th score ties the
        merged k-th score, and the answer is the canonical top-k."""
        graph = tie_graph()
        scorer = ScoringFunction(graph)
        query, k = wildcard_star(), 4
        star = StarQuery.from_query(query)
        every = Star(graph, scorer=scorer).search(query, 500)
        theta = canonical(every)[k - 1][1]
        for shards in range(1, 5):
            with ShardedEngine(graph, scorer=scorer, shards=shards,
                               backend="serial") as engine:
                got = engine.search(query, k)
                owned = engine.partition.owned
            assert canonical(got) == canonical(every)[:k]
            tied = 0
            for pivots in owned:
                mine = canonical(m for m in every
                                 if m.assignment[star.pivot.id] in pivots)
                tied += len(mine) >= k and mine[k - 1][1] == theta
            assert tied >= min(2, shards)
            assert engine.last_shard_stats["chunks"] == shards + tied

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
            engine.search(star, 3)
            assert engine.last_shard_stats is not None
            with obs.capture() as tracer:
                assert_same_results(engine.search(cycle, 3),
                                    baseline.search(cycle, 3))
                budgeted = engine.search(star, 3,
                                         budget=Budget(max_nodes=10**6))
                assert_same_results(budgeted, baseline.search(star, 3))
            counters = tracer.registry.as_dict()["counters"]
            assert counters["shard.fallback_queries"] == 2
            assert engine.last_report is not None
            # A fallback search leaves no stale sharding telemetry.
            assert engine.last_shard_stats is None

    def test_fallback_resynchronizes_after_mutation(self):
        """A budgeted or general search after a mutation refreshes the
        engine as a sharded one does, instead of failing on a stale
        scorer."""
        graph = build_random_graph(2)
        cycle = Query()
        a = cycle.add_node("Brad", "actor")
        b = cycle.add_node("?", "film")
        c = cycle.add_node("?")
        cycle.add_edge(a, b, "acted_in")
        cycle.add_edge(b, c)
        cycle.add_edge(a, c)
        star = star_queries(graph, n=1)[0]
        with ShardedEngine(graph, shards=2, backend="serial") as engine:
            engine.search(star, 3)
            graph.remove_node(next(iter(graph.nodes())))
            assert_same_results(
                engine.search(star, 3, budget=Budget(max_nodes=10 ** 6)),
                Star(graph).search(star, 3))
            graph.add_node("Brad Late", "actor")
            assert_same_results(engine.search(cycle, 3),
                                Star(graph).search(cycle, 3))
            assert engine.partition.graph_version == graph.version

    def test_validation_and_closed_engine(self):
        graph = build_movie_graph()
        with pytest.raises(SearchError):
            ShardedEngine(graph, shards=0)
        with pytest.raises(SearchError):
            ShardedEngine(graph, backend="threads")
        with pytest.raises(SearchError,
                           match="unknown search option 'chunk_size'"):
            ShardedEngine(graph, chunk_size=0)
        engine = ShardedEngine(graph, shards=2, backend="serial")
        star = star_queries(graph, n=1)[0]
        with pytest.raises(SearchError):
            engine.search(star, 0)
        engine.close()
        with pytest.raises(SearchError, match="closed"):
            engine.search(star, 3)


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

    def test_crash_between_rounds_recomputes_the_shard(self):
        """A worker killed after answering round 1 dies on its ``ties``
        message; the shard's whole answer is recomputed in process."""
        graph = tie_graph()
        scorer = ScoringFunction(graph)
        query, k = wildcard_star(), 4
        with ShardedEngine(graph, scorer=scorer, shards=2,
                           backend="fork") as engine:
            expected = canonical(engine.search(query, k))
            clean = engine.last_shard_stats
            assert clean["chunks"] == 4  # both shards tied
            victims = []

            def killing_send(worker):
                send = worker.send

                def wrapped(msg):
                    if msg[0] == "ties" and not victims:
                        victims.append(worker.proc)
                        send(("crash", 11))
                        worker.proc.join(timeout=10.0)
                    send(msg)
                return wrapped

            for worker in engine._workers:
                worker.send = killing_send(worker)
            try:
                got = engine.search(query, k)
            finally:
                for worker in engine._workers:
                    del worker.send
            assert len(victims) == 1 and not victims[0].is_alive()
            assert canonical(got) == expected
            stats = engine.last_shard_stats
            assert stats["worker_crashes"] == 1
            assert stats["inline_fallbacks"] == 1
            # The recompute replaced the dead shard's answer: nothing
            # it delivered in round 1 was gathered twice.
            assert stats["matches_pulled"] == clean["matches_pulled"]
            keys = [m.key() for m in got]
            assert len(keys) == len(set(keys)) == k
            assert all(worker.proc.is_alive() for worker in engine._workers)
            assert canonical(engine.search(query, k)) == expected
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
