"""Differential and unit tests for the compact graph kernels.

The headline invariant of ``repro.index``: candidate generation routed
through the :class:`~repro.index.GraphIndex` (interned-token postings +
WAND-style upper-bound pruning) returns lists **byte-identical** to the
seed's linear shortlist scan -- across random graphs, query shapes,
cutoffs, scoring configs, and graph mutations maintained through the
delta journal.  Hypothesis drives the differential; unit tests pin the
individual kernels (vocabulary, postings, features, footprint) and the
attach/routing surface (the route table itself is
``tests/test_candidate_pipeline.py``'s).  The graph's relation-grouped
rows are checked by ``tests/test_dynamic_property.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.candidates import node_candidates, shortlist
from repro.core.framework import Star
from repro.errors import SearchError
from repro.graph import KnowledgeGraph
from repro.index import (
    GraphIndex,
    NodeFootprint,
    PostingIndex,
    Vocabulary,
    attach_index,
    detach_index,
)
from repro.perf.cache import attach_cache
from repro.query.model import QueryNode
from repro.runtime.budget import Budget
from repro.similarity import ScoringConfig, ScoringFunction

from tests.conftest import build_movie_graph, build_random_graph

# ----------------------------------------------------------------------
# Query-constraint pool for the differential (wildcards included: they
# must route linear and still agree).
# ----------------------------------------------------------------------
_LABELS = ("Brad Pitt", "Angelina", "Troy", "war film", "richard kathryn",
           "Venice", "the hurt locker", "Brad", "?")
_TYPES = ("", "actor", "film", "person", "award")
_KEYWORDS = ((), ("drama",), ("war", "drama"))
_LIMITS = (None, 1, 3, 8)


def make_qnode(label_i: int, type_i: int, kw_i: int) -> QueryNode:
    return QueryNode(0, _LABELS[label_i], _TYPES[type_i], _KEYWORDS[kw_i])


# Deterministic per-seed scorer pairs (hypothesis re-runs same seeds).
_PAIRS = {}


def scorer_pair(seed: int, fast: bool):
    key = (seed, fast)
    if key not in _PAIRS:
        graph = build_random_graph(seed)
        config = ScoringConfig(fast=fast)
        linear = ScoringFunction(graph, config)
        indexed = ScoringFunction(graph, config)
        attach_index(indexed, mode="on")
        _PAIRS[key] = (linear, indexed)
    return _PAIRS[key]


class TestIndexedDifferential:
    @given(
        seed=st.integers(min_value=0, max_value=25),
        label_i=st.integers(min_value=0, max_value=len(_LABELS) - 1),
        type_i=st.integers(min_value=0, max_value=len(_TYPES) - 1),
        kw_i=st.integers(min_value=0, max_value=len(_KEYWORDS) - 1),
        limit_i=st.integers(min_value=0, max_value=len(_LIMITS) - 1),
        fast=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_indexed_equals_linear(
        self, seed, label_i, type_i, kw_i, limit_i, fast
    ):
        linear, indexed = scorer_pair(seed, fast)
        qnode = make_qnode(label_i, type_i, kw_i)
        limit = _LIMITS[limit_i]
        expect = node_candidates(linear, qnode, limit=limit)
        got = node_candidates(indexed, qnode, limit=limit)
        assert got == expect

    @given(
        seed=st.integers(min_value=0, max_value=12),
        ops=st.lists(
            st.integers(min_value=0, max_value=4), min_size=1, max_size=6
        ),
        label_i=st.integers(min_value=0, max_value=len(_LABELS) - 1),
        type_i=st.integers(min_value=0, max_value=len(_TYPES) - 1),
        limit_i=st.integers(min_value=0, max_value=len(_LIMITS) - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_indexed_equals_linear_after_mutations(
        self, seed, ops, label_i, type_i, limit_i
    ):
        """The journal-driven refresh keeps the index exact."""
        import random

        graph = build_random_graph(seed)
        linear = ScoringFunction(graph)
        indexed = ScoringFunction(graph)
        attach_index(indexed, mode="on")
        qnode = make_qnode(label_i, type_i, 0)
        limit = _LIMITS[limit_i]
        # Warm both paths pre-mutation (plans, memos, postings walks).
        assert (node_candidates(indexed, qnode, limit=limit)
                == node_candidates(linear, qnode, limit=limit))

        rng = random.Random(seed * 1000 + len(ops))
        counter = 0
        for op in ops:
            nodes = list(graph.nodes())
            if op == 0:  # add a node (token-indexed, typed)
                graph.add_node(f"brad novel {counter}", "actor",
                               keywords=("drama", f"x{counter}"))
                counter += 1
            elif op == 1 and len(nodes) > 4:  # remove a node
                graph.remove_node(rng.choice(nodes))
            elif op == 2 and len(nodes) >= 2:  # add an edge
                a, b = rng.sample(nodes, 2)
                graph.add_edge(a, b, "acted_in")
            elif op == 3:  # remove an edge
                live = [eid for eid, _s, _d in graph.edges()]
                if live:
                    graph.remove_edge(rng.choice(live))
            elif op == 4:  # relabel an edge (journals no endpoints)
                live = [eid for eid, _s, _d in graph.edges()]
                if live:
                    graph.update_edge(rng.choice(live), relation="won")
        linear.refresh()
        indexed.refresh()
        for lim in (limit, None):
            expect = node_candidates(linear, qnode, limit=lim)
            got = node_candidates(indexed, qnode, limit=lim)
            assert got == expect

    @given(
        seed=st.integers(min_value=0, max_value=15),
        label_i=st.integers(min_value=0, max_value=len(_LABELS) - 1),
        type_i=st.integers(min_value=0, max_value=len(_TYPES) - 1),
        nid_pick=st.integers(min_value=0, max_value=29),
    )
    @settings(max_examples=60, deadline=None)
    def test_bound_is_sound(self, seed, label_i, type_i, nid_pick):
        """plan.bound() upper-bounds the exact node score everywhere."""
        _linear, indexed = scorer_pair(seed, False)
        index = indexed.graph_index
        graph = index.graph
        qnode = make_qnode(label_i, type_i, 0)
        desc = qnode.descriptor
        if desc.is_wildcard:
            return
        nodes = sorted(graph.nodes())
        nid = nodes[nid_pick % len(nodes)]
        index.refresh()
        if index.vocab.idf_stale:
            index.vocab.refresh_idf(indexed.corpus)
        plan = index._plan_for(indexed, desc)
        mask = plan.mask_for(graph.node(nid).tokens())
        ub = plan.bound(nid, mask, graph.degree(nid))
        score = indexed.node_score(desc, nid)
        assert ub + 1e-9 >= score, (
            f"bound {ub} < score {score} for {desc!r} vs node {nid}"
        )

    def test_budgeted_calls_stay_linear_and_identical(self):
        graph = build_movie_graph()
        linear = ScoringFunction(graph)
        indexed = ScoringFunction(graph)
        index = attach_index(indexed, mode="on")
        qnode = QueryNode(0, "Brad Pitt", "actor")
        budget = Budget(max_nodes=1_000_000)
        expect = node_candidates(linear, qnode, budget=Budget(
            max_nodes=1_000_000))
        got = node_candidates(indexed, qnode, budget=budget)
        assert got == expect
        assert index.evaluated == 0  # the budgeted call never routed


class TestSearchParity:
    def test_star_search_identical_on_off_auto(self):
        graph = build_random_graph(3, num_nodes=40, num_edges=80)
        from repro.query import star_workload

        queries = star_workload(graph, 6, seed=5)
        engines = {
            mode: Star(graph, use_index=mode, candidate_limit=8)
            for mode in ("off", "auto", "on")
        }
        for query in queries:
            results = {
                mode: [(m.key(), round(m.score, 9))
                       for m in engine.search(query, 5)]
                for mode, engine in engines.items()
            }
            assert results["on"] == results["off"]
            assert results["auto"] == results["off"]

    def test_search_parity_after_mutations(self):
        graph = build_random_graph(7, num_nodes=40, num_edges=80)
        from repro.query import star_workload

        queries = star_workload(graph, 4, seed=11)
        off = Star(graph, use_index="off", candidate_limit=8)
        on = Star(graph, use_index="on", candidate_limit=8)
        for round_ in range(3):
            victim = next(iter(graph.nodes()))
            graph.remove_node(victim)
            graph.add_node(f"fresh {round_}", "actor", keywords=("brad",))
            off.scorer.refresh()
            on.scorer.refresh()
            for query in queries:
                a = [(m.key(), round(m.score, 9))
                     for m in off.search(query, 4)]
                b = [(m.key(), round(m.score, 9))
                     for m in on.search(query, 4)]
                assert a == b


class TestEligibilityAndRouting:
    def test_modes_validated(self):
        graph = build_movie_graph()
        with pytest.raises(ValueError):
            GraphIndex(graph, mode="sometimes")
        with pytest.raises(SearchError):
            Star(graph, use_index="sometimes")

    def test_auto_without_limit_builds_nothing(self):
        graph = build_movie_graph()
        engine = Star(graph, use_index="auto")
        assert engine.scorer.graph_index is None

    def test_auto_with_limit_builds_and_on_always_builds(self):
        graph = build_movie_graph()
        assert Star(graph, use_index="auto",
                    candidate_limit=5).scorer.graph_index is not None
        assert Star(graph, use_index="on").scorer.graph_index is not None
        assert Star(graph, use_index="off").scorer.graph_index is None

    def test_attach_detach(self):
        graph = build_movie_graph()
        scorer = ScoringFunction(graph)
        index = attach_index(scorer, mode="on")
        assert scorer.graph_index is index
        assert detach_index(scorer) is index
        assert scorer.graph_index is None

    def test_obs_counters_emitted(self):
        graph = build_movie_graph()
        scorer = ScoringFunction(graph)
        attach_index(scorer, mode="on")
        qnode = QueryNode(0, "Brad Pitt", "actor")
        with obs.capture() as tracer:
            node_candidates(scorer, qnode, limit=3)
        counters = tracer.registry.as_dict()["counters"]
        assert counters.get("index.postings_scanned", 0) > 0
        assert "index.evaluated" in counters
        assert any(span.name == "candidates.indexed"
                   for span in tracer.roots)


class TestCandidateCacheIntegration:
    def test_indexed_results_cached_and_invalidated(self):
        graph = build_movie_graph()
        scorer = ScoringFunction(graph)
        cache = attach_cache(scorer)
        attach_index(scorer, mode="on")
        qnode = QueryNode(0, "Brad Pitt", "actor")
        first = node_candidates(scorer, qnode, limit=5)
        hits0 = cache.stats.hits
        again = node_candidates(scorer, qnode, limit=5)
        assert again == first
        assert cache.stats.hits == hits0 + 1
        # A mutation touching a cached candidate must invalidate.
        top = first[0][0]
        graph.remove_node(top)
        scorer.refresh()
        after = node_candidates(scorer, qnode, limit=5)
        assert all(nid != top for nid, _s in after)
        fresh = ScoringFunction(graph)
        assert after == node_candidates(fresh, qnode, limit=5)


class TestKernels:
    def test_vocabulary_interning(self):
        vocab = Vocabulary()
        a = vocab.intern("brad")
        b = vocab.intern("pitt")
        assert vocab.intern("brad") == a and a != b
        assert vocab.get("brad") == a and vocab.get("ghost") is None
        assert "pitt" in vocab and len(vocab) == 2

    def test_vocabulary_idf_refresh(self):
        graph = build_movie_graph()
        scorer = ScoringFunction(graph)
        vocab = Vocabulary()
        tid = vocab.intern("brad")
        ghost = vocab.intern("zzz-never-indexed")
        assert vocab.idf_stale
        vocab.refresh_idf(scorer.corpus)
        assert not vocab.idf_stale
        assert vocab.idf[tid] == pytest.approx(scorer.corpus.idf_of("brad"))
        assert vocab.idf[ghost] == 1.0  # CorpusContext's unknown default

    def test_postings_match_graph_token_index(self):
        graph = build_movie_graph()
        vocab = Vocabulary()
        postings = PostingIndex.build(graph, vocab)
        for token, members in graph._token_index.items():
            tid = vocab.get(token)
            assert tid is not None
            assert list(postings.posting(tid)) == sorted(members)
        assert list(postings.posting(10_000)) == []

    def test_postings_kill_add_compact(self):
        graph = build_movie_graph()
        vocab = Vocabulary()
        postings = PostingIndex.build(graph, vocab)
        tid = vocab.get("brad")
        before = list(postings.posting(tid))
        postings.kill(before[0])
        assert postings.dead_nodes == 1
        old_array = postings.posting(tid)
        postings.compact()
        assert postings.dead_nodes == 0
        assert list(postings.posting(tid)) == before[1:]
        # Pre-compaction array references keep their frozen contents.
        assert list(old_array) == before
        # Re-adding via add_node is idempotent per node.
        postings.grow(graph.num_node_slots + 1)
        postings.add_node(graph.num_node_slots, frozenset(("brad",)), vocab)
        postings.add_node(graph.num_node_slots, frozenset(("brad",)), vocab)
        assert list(postings.posting(tid)).count(graph.num_node_slots) == 1

    def test_node_footprint_iterates_arrays_and_closure(self):
        from array import array

        fp = NodeFootprint([array("I", [1, 2]), array("I", [3])],
                           frozenset((7,)))
        assert sorted(fp) == [1, 2, 3, 7]
        # The cache probes footprints via frozenset.isdisjoint.
        assert not frozenset((2,)).isdisjoint(fp)
        assert frozenset((9,)).isdisjoint(fp)


class TestRefresh:
    def test_refresh_tracks_adds_and_removes(self):
        graph = build_movie_graph()
        scorer = ScoringFunction(graph)
        index = attach_index(scorer, mode="on")
        qnode = QueryNode(0, "Brad Pitt", "actor")
        base = node_candidates(scorer, qnode, limit=None)
        new = graph.add_node("Brad Pittson", "actor", keywords=("drama",))
        scorer.refresh()
        got = node_candidates(scorer, qnode, limit=None)
        assert new in {nid for nid, _s in got}
        graph.remove_node(new)
        scorer.refresh()
        again = node_candidates(scorer, qnode, limit=None)
        assert again == base

    def test_refresh_full_rebuild_on_journal_overflow(self):
        graph = KnowledgeGraph(name="tiny", journal_limit=4)
        ids = [graph.add_node(f"brad {i}", "actor") for i in range(4)]
        scorer = ScoringFunction(graph)
        index = attach_index(scorer, mode="on")
        for i in range(8):  # blow past the journal window
            graph.add_node(f"extra brad {i}", "actor")
        assert graph.delta_since(index._version) is None
        scorer.refresh()
        qnode = QueryNode(0, "brad", "actor")
        got = node_candidates(scorer, qnode, limit=None)
        fresh = ScoringFunction(graph)
        assert got == node_candidates(fresh, qnode, limit=None)
        assert index._version == graph.version

    def test_refresh_noop_when_synced(self):
        graph = build_movie_graph()
        index = GraphIndex(graph, mode="on")
        assert index.refresh() is False
        graph.add_node("someone new", "actor")
        assert index.refresh() is True
        assert index._version == graph.version
        assert index.refresh() is False
