"""Cross-query candidate cache + supporting graph/similarity fast paths.

Covers the ``repro.perf.cache`` LRU (stats, keying, eviction, byte
accounting), its integration with ``node_candidates``/``shortlist``
(exact parity, version/fingerprint invalidation, budget bypass), the
precomputed subtype-closure index, the immutable ``nodes_of_type`` view,
incremental ``relations()``, and tokenization memoization.
"""

from __future__ import annotations

import pytest

from repro.core.candidates import node_candidates, shortlist
from repro.graph import KnowledgeGraph
from repro.perf import CandidateCache, attach_cache, detach_cache
from repro.perf.cache import CacheStats
from repro.query.model import QueryNode
from repro.runtime.budget import Budget
from repro.similarity import ScoringConfig, ScoringFunction, ontology
from repro.textutil import tokenize, tokenize_tuple

from .conftest import build_movie_graph


def fresh_scorer(config: ScoringConfig = None) -> ScoringFunction:
    return ScoringFunction(build_movie_graph(), config or ScoringConfig())


def qnode(label: str, type: str = "", keywords=()) -> QueryNode:
    return QueryNode(0, label, type, tuple(keywords))


# ----------------------------------------------------------------------
# CacheStats


def test_cache_stats_hit_rate_and_roundtrip():
    stats = CacheStats(hits=3, misses=1, evictions=2, inserts=4,
                       entries=2, bytes=128)
    assert stats.hit_rate == 0.75
    assert CacheStats().hit_rate == 0.0
    assert CacheStats.from_dict(stats.as_dict()) == stats
    assert "75%" in stats.summary()


def test_cache_stats_merge_accumulates():
    a = CacheStats(hits=1, misses=2, inserts=1, entries=1, bytes=10)
    b = CacheStats(hits=4, misses=1, evictions=3, inserts=5, entries=2,
                   bytes=30)
    merged = a.merge(b)
    assert merged is a
    assert (a.hits, a.misses, a.evictions) == (5, 3, 3)
    assert (a.inserts, a.entries, a.bytes) == (6, 3, 40)


# ----------------------------------------------------------------------
# LRU mechanics


def test_lru_get_put_and_counters():
    cache = CandidateCache()
    assert cache.get(("k", 1)) is None
    assert cache.stats.misses == 1
    cache.put(("k", 1), ((0, 1.0),))
    assert ("k", 1) in cache
    assert len(cache) == 1
    assert cache.get(("k", 1)) == ((0, 1.0),)
    assert cache.stats.hits == 1
    assert cache.stats.inserts == 1
    assert cache.stats.bytes > 0


def test_lru_eviction_order_and_recency():
    cache = CandidateCache(max_entries=2)
    cache.put(("a",), ())
    cache.put(("b",), ())
    cache.get(("a",))           # refresh 'a' -> 'b' is now LRU
    cache.put(("c",), ())
    assert ("a",) in cache and ("c",) in cache
    assert ("b",) not in cache
    assert cache.stats.evictions == 1
    assert cache.stats.entries == 2


def test_lru_byte_bound_evicts():
    one_entry = CandidateCache._payload_bytes(((0, 0.0),) * 10)
    cache = CandidateCache(max_bytes=int(one_entry * 2.5))
    for i in range(4):
        cache.put((i,), ((0, 0.0),) * 10)
    assert cache.stats.evictions >= 1
    assert cache.stats.bytes <= cache.max_bytes


def test_lru_replace_updates_accounting():
    cache = CandidateCache()
    cache.put(("k",), ((0, 0.0),) * 8)
    before = cache.stats.bytes
    cache.put(("k",), ((0, 0.0),))
    assert len(cache) == 1
    assert cache.stats.entries == 1
    assert cache.stats.bytes < before


def test_clear_keeps_cumulative_counters():
    cache = CandidateCache()
    cache.put(("k",), ())
    cache.get(("k",))
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.entries == 0 and cache.stats.bytes == 0
    assert cache.stats.hits == 1 and cache.stats.inserts == 1


# ----------------------------------------------------------------------
# Attachment and integration with node_candidates / shortlist


def test_scorer_has_no_cache_by_default():
    assert fresh_scorer().candidate_cache is None


def test_attach_detach_roundtrip():
    scorer = fresh_scorer()
    cache = attach_cache(scorer, max_entries=7)
    assert scorer.candidate_cache is cache
    assert cache.max_entries == 7
    assert detach_cache(scorer) is cache
    assert scorer.candidate_cache is None
    # Attaching an existing instance reuses it.
    assert attach_cache(scorer, cache) is cache


def test_node_candidates_warm_equals_cold():
    scorer = fresh_scorer()
    node = qnode("Brad", "actor")
    cold = node_candidates(scorer, node)
    cache = attach_cache(scorer)
    miss = node_candidates(scorer, node)  # shortlist miss + candidate miss
    hit = node_candidates(scorer, node)   # candidate hit, shortlist skipped
    assert miss == cold
    assert hit == cold
    assert cache.stats.hits == 1 and cache.stats.misses == 2


def test_node_candidates_hit_is_defensive_copy():
    scorer = fresh_scorer()
    attach_cache(scorer)
    node = qnode("Brad", "actor")
    node_candidates(scorer, node)
    first = node_candidates(scorer, node)
    first.append(("poison", -1.0))
    assert node_candidates(scorer, node) != first


def test_equal_constraints_from_distinct_nodes_share_entry():
    scorer = fresh_scorer()
    cache = attach_cache(scorer)
    node_candidates(scorer, qnode("Brad", "actor"))
    node_candidates(scorer, QueryNode(5, "Brad", "actor"))
    assert cache.stats.hits == 1
    assert cache.stats.inserts == 2  # one shortlist + one candidate entry


def test_limit_is_part_of_the_key():
    scorer = fresh_scorer()
    cache = attach_cache(scorer)
    full = node_candidates(scorer, qnode("Brad", "actor"))
    top1 = node_candidates(scorer, qnode("Brad", "actor"), limit=1)
    assert top1 == full[:1]
    # limit=1 missed its candidate entry but reused the cached shortlist.
    assert cache.stats.misses == 3 and cache.stats.hits == 1


def test_graph_version_invalidates():
    graph = build_movie_graph()
    cache = CandidateCache()
    node = qnode("Brad", "actor")
    scorer = ScoringFunction(graph)
    attach_cache(scorer, cache)
    node_candidates(scorer, node)
    graph.add_edge(0, 3, "collaborated_with")
    # Seed contract: a mutated graph needs a fresh scorer; the shared
    # cache's version-carrying keys make the old entries unreachable.
    rebuilt = ScoringFunction(graph)
    attach_cache(rebuilt, cache)
    fresh = node_candidates(rebuilt, node)
    assert cache.stats.hits == 0
    assert fresh == node_candidates(rebuilt, node)
    assert cache.stats.hits == 1


def test_config_fingerprint_keys_are_distinct():
    graph = build_movie_graph()
    loose = ScoringFunction(graph, ScoringConfig())
    strict = ScoringFunction(graph, ScoringConfig(node_threshold=0.9))
    assert loose.fingerprint != strict.fingerprint
    cache = CandidateCache()
    attach_cache(loose, cache)
    attach_cache(strict, cache)
    node = qnode("Brad", "actor")
    a = node_candidates(loose, node)
    b = node_candidates(strict, node)
    assert cache.stats.misses == 4 and cache.stats.hits == 0
    assert set(b) <= set(a)


def test_fingerprint_stable_across_instances():
    assert (ScoringConfig().fingerprint()
            == ScoringConfig().fingerprint())
    assert (ScoringConfig(fast=True).fingerprint()
            != ScoringConfig().fingerprint())


def test_shortlist_hit_returns_stored_object():
    scorer = fresh_scorer()
    attach_cache(scorer)
    node = qnode("Brad", "actor")
    first = shortlist(scorer, node)
    second = shortlist(scorer, node)
    assert second is first  # identity: preserves anytime iteration order


def test_wildcard_shortlist_not_cached():
    scorer = fresh_scorer()
    cache = attach_cache(scorer)
    result = shortlist(scorer, qnode("?"))
    assert result == set(scorer.graph.nodes())
    assert len(cache) == 0


# ----------------------------------------------------------------------
# Budgets: a scored entry serves them paid for, a partial is never one


def cand_entries(cache: CandidateCache):
    return [key for key in cache._data if key[0] == "cand"]


def test_budgeted_call_pays_for_scored_entries():
    node = qnode("Brad", "actor")
    cold = Budget(max_nodes=1000)
    expect = node_candidates(fresh_scorer(), node, budget=cold)
    scorer = fresh_scorer()
    cache = attach_cache(scorer)
    node_candidates(scorer, node, budget=Budget(max_nodes=1000))  # warm
    entries = {key: cache._data[key] for key in cand_entries(cache)}
    calls, hits = scorer.node_score_calls, cache.stats.hits
    budget = Budget(max_nodes=1000)
    budgeted = node_candidates(scorer, node, budget=budget)
    # The warm scored list was served -- a hit, nothing re-scored --
    # and charged what the cold call charged; no scored entry was added
    # or replaced.
    assert cache.stats.hits == hits + 1
    assert scorer.node_score_calls == calls
    assert budget.nodes_visited == cold.nodes_visited > 0
    assert {key: cache._data[key] for key in cand_entries(cache)} == entries
    assert budgeted == expect == node_candidates(scorer, node)


def test_degraded_partial_never_poisons_cache():
    scorer = ScoringFunction(build_movie_graph())
    cache = attach_cache(scorer)
    node = qnode("?", "film")
    budget = Budget(max_nodes=1, anytime=True)
    partial = node_candidates(scorer, node, budget=budget)
    assert budget.exceeded_reason is not None
    assert cand_entries(cache) == []  # the partial list was not cached
    full = node_candidates(scorer, node)  # computes fresh, then caches
    assert len(cand_entries(cache)) == 1
    assert len(full) >= len(partial)
    # A subsequent hit serves the full list, not the degraded one.
    assert node_candidates(scorer, node) == full


# ----------------------------------------------------------------------
# Satellites: subtype closure, immutable views, relations, tokens


def seed_subtype_scan(graph: KnowledgeGraph, want: str) -> set:
    """The seed's per-call loop, kept as the reference implementation."""
    out = set(graph.nodes_of_type(want))
    for type_name in graph.types():
        if type_name != want and ontology.is_subtype(type_name, want):
            out |= set(graph.nodes_of_type(type_name))
    return out


def test_subtype_closure_matches_seed_loop(yago_graph):
    for want in sorted(yago_graph.types()) + ["person", "artist"]:
        assert yago_graph.nodes_of_subtype(want) == seed_subtype_scan(
            yago_graph, want
        ), want


def test_subtype_closure_empty_type():
    assert build_movie_graph().nodes_of_subtype("") == frozenset()


def test_subtype_closure_invalidated_by_mutation():
    graph = build_movie_graph()
    before = graph.nodes_of_subtype("person")
    added = graph.add_node("New Actor", "actor")
    after = graph.nodes_of_subtype("person")
    assert added in after
    assert after == before | {added}


def test_nodes_of_type_view_is_immutable():
    graph = build_movie_graph()
    view = graph.nodes_of_type("actor")
    assert isinstance(view, tuple)
    with pytest.raises((TypeError, AttributeError)):
        view.append(99)
    assert graph.nodes_of_type("missing-type") == ()


def test_relations_incremental_and_copied():
    graph = KnowledgeGraph(name="tiny")
    a = graph.add_node("A", "thing")
    b = graph.add_node("B", "thing")
    assert graph.relations() == set()
    graph.add_edge(a, b, "knows")
    rels = graph.relations()
    assert rels == {"knows"}
    rels.add("intruder")
    assert graph.relations() == {"knows"}
    graph.add_edge(b, a, "likes")
    assert graph.relations() == {"knows", "likes"}


def test_node_tokens_memoized():
    graph = build_movie_graph()
    data = graph.node(0)
    assert data.tokens() is data.tokens()  # computed once, shared
    assert set(tokenize(data.name)) <= data.tokens()


def test_tokenize_tuple_memoized_and_list_fresh():
    assert tokenize_tuple("Brad Pitt") is tokenize_tuple("Brad Pitt")
    first = tokenize("Brad Pitt")
    first.append("junk")
    assert tokenize("Brad Pitt") == ["brad", "pitt"]


# ----------------------------------------------------------------------
# End-to-end: warm cache leaves engine results untouched


def test_engine_results_identical_with_cache(movie_graph):
    from repro.core.framework import Star
    from repro.query.model import Query

    query = Query(name="brad")
    pivot = query.add_node("Brad", type="actor")
    query.add_edge(pivot, query.add_node("?"), "collaborated_with")
    query.add_edge(pivot, query.add_node("Academy Award"), "won")
    plain = Star(movie_graph).search(query, 5)
    scorer = ScoringFunction(movie_graph)
    cache = attach_cache(scorer)
    engine = Star(movie_graph, scorer=scorer)
    cold = engine.search(query, 5)
    warm = engine.search(query, 5)
    expected = [(m.key(), m.score) for m in plain]
    assert [(m.key(), m.score) for m in cold] == expected
    assert [(m.key(), m.score) for m in warm] == expected
    assert cache.stats.hits > 0
