"""Parity suite for ``search_many``: parallel == serial == cached.

The headline invariant of the performance layer: for fixed inputs, the
``(assignment, score)`` lists are identical across worker counts,
backends (serial / fork / thread) and cache settings -- including under
deterministic anytime budgets, where degraded results must be flagged
and must never poison the cache.
"""

from __future__ import annotations

import pytest

from repro.core.candidates import node_candidates
from repro.core.framework import Star
from repro.core.options import SearchOptions
from repro.errors import BudgetExceededError, SearchError
from repro.perf import (
    BatchResult,
    CacheStats,
    CandidateCache,
    fork_available,
    search_many,
)
from repro.perf import parallel
from repro.query import random_subgraph_query, star_workload
from repro.runtime import FaultSpec
from repro.runtime.budget import Budget

from tests.conftest import build_movie_graph


def serial_reference(graph, queries, k, budget_spec=None, **opts):
    """Per-query fresh-engine serial run: the ground-truth result keys."""
    keys = []
    degraded = 0
    for query in queries:
        engine = Star(graph, **opts)
        budget = Budget(**budget_spec) if budget_spec else None
        try:
            matches = engine.search(query, k, budget=budget)
        except BudgetExceededError:
            matches = []
        if engine.last_report is not None and engine.last_report.degraded:
            degraded += 1
        keys.append(tuple((m.key(), m.score) for m in matches))
    return keys, degraded


@pytest.fixture(scope="module")
def star_queries(yago_graph):
    return star_workload(yago_graph, 6, seed=11)


@pytest.fixture(scope="module")
def complex_queries(yago_graph):
    return [
        random_subgraph_query(yago_graph, 4, 4, seed=seed)
        for seed in (3, 7)
    ]


# ----------------------------------------------------------------------
# Input validation and backend resolution


def test_search_many_rejects_bad_inputs(yago_graph, star_queries):
    with pytest.raises(SearchError):
        search_many(yago_graph, star_queries, 0)
    with pytest.raises(SearchError):
        search_many(yago_graph, star_queries, 3, workers=0)
    with pytest.raises(SearchError):
        search_many(yago_graph, star_queries, 3, backend="gpu")


def test_search_many_rejects_unshareable_state(yago_graph, star_queries):
    from repro.similarity import ScoringFunction

    scorer = ScoringFunction(yago_graph)
    with pytest.raises(SearchError):
        search_many(yago_graph, star_queries, 3, workers=2, scorer=scorer,
                    backend="thread")
    with pytest.raises(SearchError):
        search_many(yago_graph, star_queries, 3, workers=2,
                    cache=CandidateCache(), backend="thread")


@pytest.mark.parametrize("backend, workers, expected", [
    ("auto", 1, "serial"),
    ("fork", 1, "serial"),
    ("auto", 4, "fork" if fork_available() else "thread"),
    ("thread", 4, "thread"),
], ids=["auto-1", "fork-1", "auto-4", "thread-4"])
def test_search_many_resolves_its_backend(movie_graph, backend, workers,
                                          expected):
    queries = star_workload(movie_graph, 2, seed=3)
    result = search_many(movie_graph, queries, 2, workers=workers,
                         backend=backend)
    assert result.backend == expected
    assert result.workers == workers


def test_search_many_rejects_an_unknown_backend(movie_graph):
    with pytest.raises(SearchError, match="unknown pool backend 'nope'"):
        search_many(movie_graph, [], 1, workers=2, backend="nope")


# ----------------------------------------------------------------------
# Parity: serial == parallel == cached, per engine family


def assert_parity(result: BatchResult, expected_keys):
    assert isinstance(result, BatchResult)
    assert result.result_keys() == expected_keys
    assert [o.index for o in result.outcomes] == list(range(len(expected_keys)))


def test_stark_parity_across_workers_and_cache(yago_graph, star_queries):
    expected, _ = serial_reference(yago_graph, star_queries, 5, d=1)
    for kwargs in (
        {"workers": 1},
        {"workers": 1, "cache": True},
        {"workers": 2, "backend": "thread"},
        {"workers": 2, "backend": "thread", "cache": True},
    ):
        result = search_many(yago_graph, star_queries, 5, d=1, **kwargs)
        assert_parity(result, expected)


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
def test_stark_parity_fork_backend(yago_graph, star_queries):
    expected, _ = serial_reference(yago_graph, star_queries, 5, d=1)
    result = search_many(yago_graph, star_queries, 5, d=1, workers=2,
                         backend="fork", cache=True)
    assert result.backend == "fork"
    assert_parity(result, expected)
    assert result.cache_stats is not None


def test_stard_parity_d2(yago_graph, star_queries):
    queries = star_queries[:4]
    expected, _ = serial_reference(yago_graph, queries, 4, d=2)
    for kwargs in (
        {"workers": 1, "cache": True},
        {"workers": 2, "backend": "thread"},
    ):
        assert_parity(
            search_many(yago_graph, queries, 4, d=2, **kwargs), expected
        )


def test_starjoin_parity_complex_queries(yago_graph, complex_queries):
    expected, _ = serial_reference(yago_graph, complex_queries, 3, d=1)
    for kwargs in (
        {"workers": 1, "cache": True},
        {"workers": 2, "backend": "thread"},
    ):
        assert_parity(
            search_many(yago_graph, complex_queries, 3, **kwargs), expected
        )


def test_warm_cache_batch_identical_to_cold(yago_graph, star_queries):
    cache = CandidateCache()
    cold = search_many(yago_graph, star_queries, 5, cache=cache)
    warm = search_many(yago_graph, star_queries, 5, cache=cache)
    assert warm.result_keys() == cold.result_keys()
    assert warm.cache_stats.hits > cold.cache_stats.hits


@pytest.mark.parametrize("backend", [
    pytest.param("fork", marks=pytest.mark.skipif(
        not fork_available(), reason="needs fork start method")),
    "thread",
])
def test_cache_stats_sum_each_workers_last_snapshot(monkeypatch, backend):
    """Cache counters only grow inside a worker, so its final snapshot is
    its largest: the merged stats are the sum of those, whatever order
    LPT dispatch ran the queries in."""
    graph = build_movie_graph()
    queries = star_workload(graph, 12, seed=5)
    rows = []
    finalize = parallel._finalize

    def spy(batch_rows, *args):
        rows.extend(batch_rows)
        return finalize(batch_rows, *args)

    monkeypatch.setattr(parallel, "_finalize", spy)
    result = search_many(graph, queries, 3, workers=2, backend=backend,
                         cache=True)
    assert result.backend == backend
    final: dict = {}
    for row in rows:
        snapshot = CacheStats.from_dict(row[3])
        lookups = snapshot.hits + snapshot.misses
        final[row[1]] = max(final.get(row[1], 0), lookups)
    merged = result.cache_stats
    assert merged.hits + merged.misses == sum(final.values())


@pytest.mark.parametrize("backend", [
    pytest.param("fork", marks=pytest.mark.skipif(
        not fork_available(), reason="needs fork start method")),
    "thread",
])
def test_chaos_path_cache_stats_sum_every_task_engine(backend):
    """On the chaos path every task runs on its own faulted engine and
    cache: the merged stats count every task's lookups, not only each
    worker's last task's."""
    graph = build_movie_graph()
    queries = star_workload(graph, 12, seed=5)
    # a spec that never fires: the tasks take the chaos path, unharmed
    specs = [FaultSpec("scorer.node_score", at_call=10**6)]
    lookups = 0
    for query in queries:
        engine = parallel._batch_engine(graph, None, SearchOptions(), True,
                                        [spec.as_dict() for spec in specs])
        engine.search(query, 5)
        stats = engine.scorer.candidate_cache.stats
        lookups += stats.hits + stats.misses
    result = search_many(graph, queries, 5, workers=2, backend=backend,
                         cache=True, fault_specs=specs)
    assert result.backend == backend
    merged = result.cache_stats
    assert merged.hits + merged.misses == lookups


# ----------------------------------------------------------------------
# Anytime budgets: deterministic trips, flagged, never cache-poisoned


BUDGET = {"max_nodes": 60, "anytime": True}


def test_budgeted_parity_and_flagging(yago_graph, star_queries):
    expected, degraded = serial_reference(
        yago_graph, star_queries, 5, budget_spec=dict(BUDGET), d=1
    )
    serial = search_many(yago_graph, star_queries, 5,
                         budget_spec=dict(BUDGET))
    assert serial.result_keys() == expected
    assert serial.degraded == degraded
    assert serial.degraded > 0  # the budget actually binds on this load
    threaded = search_many(yago_graph, star_queries, 5, workers=2,
                           backend="thread", budget_spec=dict(BUDGET))
    assert threaded.result_keys() == expected
    assert threaded.degraded == degraded


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
def test_budgeted_parity_fork(yago_graph, star_queries):
    expected, degraded = serial_reference(
        yago_graph, star_queries, 5, budget_spec=dict(BUDGET), d=1
    )
    forked = search_many(yago_graph, star_queries, 5, workers=2,
                         backend="fork", budget_spec=dict(BUDGET))
    assert forked.result_keys() == expected
    assert forked.degraded == degraded


def test_budgeted_runs_do_not_poison_cache(yago_graph, star_queries):
    expected, _ = serial_reference(
        yago_graph, star_queries, 5, budget_spec=dict(BUDGET), d=1
    )
    cache = CandidateCache()
    first = search_many(yago_graph, star_queries, 5, cache=cache,
                        budget_spec=dict(BUDGET))
    second = search_many(yago_graph, star_queries, 5, cache=cache,
                         budget_spec=dict(BUDGET))
    assert first.result_keys() == expected
    assert second.result_keys() == expected  # warm == cold under budgets
    # Warm calls charged what cold ones did, trip for trip.
    assert [(o.report.nodes_visited, o.report.reason)
            for o in second.outcomes] == [
        (o.report.nodes_visited, o.report.reason) for o in first.outcomes]
    assert second.cache_stats.hits > 0
    # Every scored list cached is complete: the unbudgeted call's own.
    scorer = Star(yago_graph).scorer
    written = set()
    for query in star_queries:
        for qnode in query.nodes:
            key = cache.candidate_key(scorer, qnode, None)
            if key in cache:
                written.add(key)
                assert cache._data[key].payload == tuple(
                    node_candidates(scorer, qnode))
    assert written == {key for key in cache._data if key[0] == "cand"}
    assert written
    # And an unbudgeted run afterwards still matches its own reference.
    unbudgeted, _ = serial_reference(yago_graph, star_queries, 5, d=1)
    after = search_many(yago_graph, star_queries, 5, cache=cache)
    assert after.result_keys() == unbudgeted


def test_budgeted_chaos_batch_keeps_off_the_callers_cache(yago_graph,
                                                          star_queries):
    """A faulted batch scores on a cache of its own: on the caller's
    warm cache every query would answer from clean entries and skip the
    scoring its faults target."""
    generous = {"max_nodes": 10 ** 6, "anytime": True}
    cache = CandidateCache()
    search_many(yago_graph, star_queries, 5, cache=cache,
                budget_spec=generous)
    warm = cache.stats.as_dict()
    assert warm["inserts"] > 0
    chaos = search_many(
        yago_graph, star_queries, 5, cache=cache, budget_spec=generous,
        fault_specs=[{"site": "scorer.node_score", "mode": "raise",
                      "repeat": True}])
    assert all(o.report.faults for o in chaos.outcomes)
    assert chaos.degraded == len(star_queries)
    assert cache.stats.as_dict() == warm


# ----------------------------------------------------------------------
# Merged reporting


def test_batch_result_reporting(yago_graph, star_queries):
    result = search_many(yago_graph, star_queries, 5, cache=True)
    assert result.total_matches == sum(len(m) for m in result.matches)
    assert result.queries_per_s > 0
    assert result.stats  # engine counters merged across queries
    assert all(value >= 0 for value in result.stats.values())
    text = result.summary()
    assert "quer" in text and "cache:" in text


def test_batch_result_budget_counters(yago_graph, star_queries):
    result = search_many(yago_graph, star_queries, 5,
                         budget_spec=dict(BUDGET))
    assert result.budget_exceeded >= result.degraded
    assert result.faults == 0


# ----------------------------------------------------------------------
# Fault injection and dead-worker recovery


def test_fault_specs_thread_backend_flags_degraded(yago_graph, star_queries):
    """One-shot injected faults under anytime budgets: answered + flagged."""
    result = search_many(
        yago_graph, star_queries, 5, workers=2, backend="thread",
        budget_spec={"deadline_ms": 5000.0, "anytime": True},
        fault_specs=[{"site": "scorer.node_score", "mode": "raise"}],
    )
    assert len(result.matches) == len(star_queries)
    assert result.degraded >= 1
    assert result.worker_crashes == 0


@pytest.mark.skipif(not fork_available(), reason="fork unavailable")
def test_fork_worker_crash_requeues_exactly_the_crashed(yago_graph,
                                                        star_queries):
    """A crash fault kills the worker of every query that carries it;
    each is re-queued once, clean, and answered exactly.

    One crash costs one query: ``requeued`` equals the number of
    crashes, not "everything after the first".
    """
    expected, _ = serial_reference(yago_graph, star_queries, 5)
    result = search_many(
        yago_graph, star_queries, 5, workers=2, backend="fork",
        fault_specs=[{"site": "scorer.node_score", "mode": "crash"}],
    )
    assert result.worker_crashes == len(star_queries)
    assert result.requeued == result.worker_crashes
    assert "worker crash" in result.summary()
    assert "re-queued" in result.summary()
    got = [tuple((m.key(), m.score) for m in row) for row in result.matches]
    assert got == expected


@pytest.mark.skipif(not fork_available(), reason="fork unavailable")
def test_fork_batches_are_reentrant(yago_graph, star_queries):
    """Two overlapping fork batches (different ``k``) share no state:
    each equals its own serial result."""
    import threading

    results = {}

    def batch(k):
        results[k] = search_many(yago_graph, star_queries, k, workers=2,
                                 backend="fork")

    threads = [threading.Thread(target=batch, args=(k,)) for k in (2, 5)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    for k in (2, 5):
        expected, _ = serial_reference(yago_graph, star_queries, k)
        got = [tuple((m.key(), m.score) for m in row)
               for row in results[k].matches]
        assert got == expected


@pytest.mark.skipif(not fork_available(), reason="fork unavailable")
def test_fork_clean_run_reports_no_crashes(yago_graph, star_queries):
    result = search_many(yago_graph, star_queries, 5, workers=2,
                         backend="fork")
    assert result.worker_crashes == 0
    assert result.requeued == 0
    assert "worker crash" not in result.summary()


# ----------------------------------------------------------------------
# LPT dispatch: idle-worker skew on deliberately skewed batches


def skewed_batch(graph):
    """Cheap specific queries plus one heavy full-wildcard star, LAST --
    the worst submission order for naive in-order dispatch."""
    from repro.query.model import Query

    cheap = star_workload(graph, 4, seed=17)
    heavy = Query()
    pivot = heavy.add_node("?")
    leaf = heavy.add_node("?")
    heavy.add_edge(pivot, leaf, "?")
    return list(cheap) + [heavy]


def test_estimate_query_cost_ranks_wildcards_heaviest(movie_graph):
    from repro.perf import estimate_query_cost

    queries = skewed_batch(movie_graph)
    costs = [estimate_query_cost(movie_graph, q) for q in queries]
    # The untyped full-wildcard query prices in a full scan per node.
    assert costs[-1] >= 2 * movie_graph.num_nodes
    assert costs[-1] == max(costs)
    assert all(c >= 0 for c in costs)


def test_dispatch_order_heavy_first_deterministic(movie_graph):
    from repro.perf import dispatch_order

    queries = skewed_batch(movie_graph)
    order = dispatch_order(movie_graph, queries)
    assert sorted(order) == list(range(len(queries)))
    assert order[0] == len(queries) - 1  # the heavy tail query leads
    assert order == dispatch_order(movie_graph, queries)


def test_skewed_batch_thread_parity_and_lpt_order(movie_graph):
    """Regression for idle-worker skew: a heavy query submitted last by
    index must be dispatched first, with results byte-identical to the
    serial run (LPT reorders submission, never results)."""
    queries = skewed_batch(movie_graph)
    expected, _ = serial_reference(movie_graph, queries, 4)
    result = search_many(movie_graph, queries, 4, workers=2,
                         backend="thread")
    got = [tuple((m.key(), m.score) for m in row) for row in result.matches]
    assert got == expected
    assert result.dispatch_order is not None
    assert result.dispatch_order[0] == len(queries) - 1


@pytest.mark.skipif(not fork_available(), reason="fork unavailable")
def test_skewed_batch_fork_parity_and_lpt_order(movie_graph):
    queries = skewed_batch(movie_graph)
    expected, _ = serial_reference(movie_graph, queries, 4)
    result = search_many(movie_graph, queries, 4, workers=2,
                         backend="fork")
    got = [tuple((m.key(), m.score) for m in row) for row in result.matches]
    assert got == expected
    assert result.dispatch_order[0] == len(queries) - 1
