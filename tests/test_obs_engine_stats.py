"""EngineStats schema unification + obs integration with cache/batch/harness.

The bugfix satellite: before this PR ``framework.last_stats`` exposed a
different dict shape per algorithm.  Now every engine reports the exact
:data:`repro.obs.STAT_KEYS` schema, obs cache counters mirror
``CandidateCache.stats`` exactly, and batch/harness runs surface merged
metric snapshots.
"""

import pytest

from repro import STAT_KEYS, EngineStats, Star, obs, search_many, star_query
from repro.eval.harness import time_algorithm
from repro.perf.cache import attach_cache
from repro.runtime.workers import fork_available
from repro.query import Query
from repro.similarity import ScoringFunction

from tests.conftest import build_random_graph, triangle_query


@pytest.fixture()
def scorer():
    return ScoringFunction(build_random_graph(11))


def _star():
    return star_query(
        "Brad", [("acted_in", "?"), ("won", "?")], pivot_type="actor"
    )


def _star_as_query():
    """The same star shape as :func:`_star`, as a general Query (the
    harness converts general queries itself)."""
    query = Query(name="star")
    a = query.add_node("Brad", type="actor")
    b = query.add_node("?")
    c = query.add_node("?")
    query.add_edge(a, b, "acted_in")
    query.add_edge(a, c, "won")
    return query


class TestUnifiedSchema:
    """Regression: every algorithm exposes the same last_stats keys."""

    def test_all_algorithms_expose_same_keys(self, scorer):
        shapes = {}
        for label, engine, query in [
            ("stark", Star(scorer.graph, scorer=scorer, d=1), _star()),
            ("stard", Star(scorer.graph, scorer=scorer, d=2), _star()),
            ("starjoin", Star(scorer.graph, scorer=scorer), triangle_query()),
        ]:
            engine.search(query, 3)
            shapes[label] = tuple(engine.last_stats)
            assert engine.last_engine_stats.algorithm == label
        assert shapes["stark"] == shapes["stard"] == shapes["starjoin"]
        assert shapes["stark"] == STAT_KEYS

    def test_last_stats_none_before_first_search(self, scorer):
        engine = Star(scorer.graph, scorer=scorer)
        assert engine.last_stats is None
        assert engine.last_engine_stats is None

    def test_stats_values_numeric_and_meaningful(self, scorer):
        engine = Star(scorer.graph, scorer=scorer, d=1)
        matches = engine.search(_star(), 3)
        stats = engine.last_stats
        assert all(isinstance(v, int) for v in stats.values())
        assert stats["matches_emitted"] >= len(matches)
        assert stats["pivots_considered"] >= stats["pivots_with_match"]

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("algorithm", ["stark", "stard"])
    def test_pivot_counters_are_the_run_s_own(self, scorer, algorithm, d):
        """One stats object per run: at d >= 2 stard used to publish
        ``pivots_considered`` and ``lattice_pops`` of an inner stark that
        never ran (both 0)."""
        from repro.core.candidates import node_candidates

        engine = Star(scorer.graph, scorer=scorer, d=d, algorithm=algorithm)
        engine.search(_star(), 3)
        stats = engine.last_engine_stats
        assert stats.algorithm == algorithm
        assert stats.pivots_considered == len(
            node_candidates(scorer, _star().pivot))
        assert (stats.pivots_considered >= stats.pivots_evaluated
                >= stats.pivots_with_match)
        assert stats.lattice_pops >= stats.matches_emitted > 0

    def test_stard_populates_propagation_counters(self, scorer):
        engine = Star(scorer.graph, scorer=scorer, d=2)
        engine.search(_star(), 3)
        assert engine.last_stats["messages_propagated"] > 0

    def test_starjoin_populates_join_counters(self, scorer):
        engine = Star(scorer.graph, scorer=scorer)
        matches = engine.search(triangle_query(), 3)
        if matches:
            assert engine.last_stats["joins_attempted"] > 0


class TestEngineStatsType:
    def test_as_dict_fixed_order_numeric_only(self):
        stats = EngineStats(algorithm="stark", cache_hits=2)
        out = stats.as_dict()
        assert tuple(out) == STAT_KEYS
        assert "algorithm" not in out
        assert out["cache_hits"] == 2

    def test_roundtrip_and_merge(self):
        a = EngineStats.from_dict(
            {"pivots_evaluated": 2, "cache_hits": 1}, algorithm="stark"
        )
        b = EngineStats(pivots_evaluated=3, matches_emitted=4)
        merged = a.merge(b)
        assert merged is a
        assert a.pivots_evaluated == 5
        assert a.matches_emitted == 4
        assert a.algorithm == "stark"

    def test_from_dict_ignores_unknown_keys(self):
        stats = EngineStats.from_dict({"cache_hits": 1, "bogus": 9})
        assert stats.cache_hits == 1

    def test_summary_names_algorithm(self):
        assert EngineStats(algorithm="stard").summary().startswith("stard:")
        assert "pivots_evaluated=2" in EngineStats(
            pivots_evaluated=2
        ).summary()


class TestCacheCounterParity:
    """Satellite: obs cache counters == CandidateCache.stats exactly."""

    def test_obs_counters_equal_cache_stats(self, scorer):
        cache = attach_cache(scorer)
        engine = Star(scorer.graph, scorer=scorer, d=1)
        queries = [_star(), _star(), _star()]
        with obs.capture() as tracer:
            for query in queries:
                engine.search(query, 3)
        counters = tracer.registry.as_dict()["counters"]
        assert counters.get("cache.hits", 0) == cache.stats.hits
        assert counters.get("cache.misses", 0) == cache.stats.misses
        assert counters.get("cache.inserts", 0) == cache.stats.inserts
        assert counters.get("cache.evictions", 0) == cache.stats.evictions
        assert cache.stats.hits > 0  # repeated queries must actually hit

    def test_framework_stats_carry_per_search_cache_delta(self, scorer):
        attach_cache(scorer)
        engine = Star(scorer.graph, scorer=scorer, d=1)
        engine.search(_star(), 3)
        first = dict(engine.last_stats)
        engine.search(_star(), 3)
        second = engine.last_stats
        assert first["cache_misses"] > 0 and first["cache_hits"] == 0
        assert second["cache_hits"] > 0 and second["cache_misses"] == 0


class TestBatchMetrics:
    def _queries(self):
        return [_star() for _ in range(4)]

    def test_serial_batch_metrics_snapshot(self, scorer):
        with obs.capture():
            result = search_many(
                scorer.graph, self._queries(), 3, workers=1, cache=True
            )
        assert result.metrics is not None
        counters = result.metrics["counters"]
        assert counters["cache.hits"] == result.cache_stats.hits
        assert counters["cache.misses"] == result.cache_stats.misses

    def test_batch_metrics_none_when_disabled(self, scorer):
        result = search_many(scorer.graph, self._queries(), 3, workers=1)
        assert result.metrics is None

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_fork_batch_merges_worker_metrics(self, scorer):
        with obs.capture() as tracer:
            result = search_many(
                scorer.graph, self._queries(), 3, workers=2,
                backend="fork", cache=True,
            )
        counters = result.metrics["counters"]
        # Merged worker counters mirror the merged cache stats exactly.
        assert counters["cache.hits"] == result.cache_stats.hits
        assert counters["cache.misses"] == result.cache_stats.misses
        # ... and were folded back into the caller's live registry.
        live = tracer.registry.as_dict()["counters"]
        assert live["cache.misses"] == counters["cache.misses"]

    def test_thread_batch_metrics_snapshot(self, scorer):
        with obs.capture():
            result = search_many(
                scorer.graph, self._queries(), 3, workers=2,
                backend="thread", cache=True,
            )
        assert result.metrics is not None
        assert result.metrics["counters"]["cache.misses"] > 0

    def test_backend_parity_of_merged_counters(self, scorer):
        """Fork/serial merged cache counters agree (deterministic work)."""
        snapshots = {}
        backends = ["serial"] + (["fork"] if fork_available() else [])
        for backend in backends:
            with obs.capture():
                result = search_many(
                    scorer.graph, self._queries(), 3,
                    workers=1 if backend == "serial" else 2,
                    backend=backend, cache=True,
                )
            snapshots[backend] = result.metrics["counters"].get(
                "cache.inserts", 0
            )
        if "fork" in snapshots:
            # Two workers each miss-and-fill their own cache; per-worker
            # inserts can only exceed the single shared-cache run.
            assert snapshots["fork"] >= snapshots["serial"]


class TestHarnessMetrics:
    def test_serial_harness_attaches_metrics(self, scorer):
        with obs.capture():
            result = time_algorithm(
                "stark", scorer, [_star_as_query()] * 3, k=3
            )
        assert result.metrics is not None
        hists = result.metrics["histograms"]
        assert hists["span.stark.search.ms"]["count"] == 3

    def test_harness_metrics_none_when_disabled(self, scorer):
        result = time_algorithm("stark", scorer, [_star_as_query()] * 2, k=3)
        assert result.metrics is None
