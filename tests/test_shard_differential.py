"""Hypothesis differential: sharded top-k == single-process top-k.

The headline invariant of ``repro.shard``: for every star query,
:class:`~repro.shard.ShardedEngine` returns the same top-k as the
single-process :class:`~repro.core.framework.Star` -- across random
graphs, every star procedure (``ALGORITHMS``), shard
counts 1..8, d in {1, 2}, and after graph mutations (which trigger an
automatic re-partition).  The comparison is tie-tolerant in the
oracle's style (rank-by-rank score equality plus assignment validity at
that score); across *shard counts* the stronger claim holds --
byte-identical rankings -- because the merger's canonical
``(-score, key)`` order is shard-oblivious.
"""

from __future__ import annotations

from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.core.framework import Star
from repro.core.options import ALGORITHMS
from repro.query import star_workload
from repro.shard import ShardedEngine
from repro.similarity import ScoringFunction

from tests.conftest import build_random_graph

ROUND = 9
K = 5


def ranking(matches):
    return [(m.key(), round(m.score, ROUND)) for m in matches]


def assert_tie_tolerant_equal(got, expected_topk, expected_full):
    """Scores agree rank-by-rank; every assignment is valid at its score."""
    assert ([round(m.score, ROUND) for m in got]
            == [round(m.score, ROUND) for m in expected_topk])
    by_score = defaultdict(set)
    for m in expected_full:
        by_score[round(m.score, ROUND)].add(m.key())
    for m in got:
        assert m.key() in by_score[round(m.score, ROUND)]
    keys = [m.key() for m in got]
    assert len(keys) == len(set(keys))


# Deterministic per-seed fixtures (hypothesis re-runs the same seeds).
_BASELINES = {}


def baseline_for(seed: int, d: int):
    key = (seed, d)
    if key not in _BASELINES:
        graph = build_random_graph(seed)
        scorer = ScoringFunction(graph)
        engine = Star(graph, scorer=scorer, d=d)
        queries = star_workload(graph, 3, seed=seed)
        expected = [(q, engine.search(q, K), engine.search(q, 200))
                    for q in queries]
        _BASELINES[key] = (graph, scorer, expected)
    return _BASELINES[key]


class TestShardedDifferential:
    @given(
        seed=st.integers(min_value=0, max_value=10),
        shards=st.integers(min_value=1, max_value=8),
        algorithm=st.sampled_from(ALGORITHMS),
        d=st.sampled_from((1, 2)),
    )
    @settings(max_examples=40, deadline=None)
    def test_sharded_equals_single_process(self, seed, shards, algorithm, d):
        graph, scorer, expected = baseline_for(seed, d)
        engine = ShardedEngine(
            graph, scorer=scorer, shards=shards, algorithm=algorithm,
            backend="serial", d=d,
        )
        try:
            for query, topk, full in expected:
                got = engine.search(query, K)
                assert_tie_tolerant_equal(got, topk, full)
        finally:
            engine.close()

    @given(
        seed=st.integers(min_value=0, max_value=8),
        algorithm=st.sampled_from(ALGORITHMS),
    )
    @settings(max_examples=15, deadline=None)
    def test_ranking_invariant_across_shard_counts(self, seed, algorithm):
        """Sharded rankings are byte-identical for every shard count."""
        graph = build_random_graph(seed)
        scorer = ScoringFunction(graph)
        queries = star_workload(graph, 2, seed=seed + 100)
        rankings = {}
        for shards in (1, 2, 4, 7):
            engine = ShardedEngine(
                graph, scorer=scorer, shards=shards, algorithm=algorithm,
                backend="serial", d=1,
            )
            try:
                rankings[shards] = [ranking(engine.search(q, K))
                                    for q in queries]
            finally:
                engine.close()
        reference = rankings.pop(1)
        for shards, got in rankings.items():
            assert got == reference, f"shards={shards} diverged"

    @given(
        seed=st.integers(min_value=0, max_value=6),
        shards=st.integers(min_value=2, max_value=5),
        algorithm=st.sampled_from(ALGORITHMS),
    )
    @settings(max_examples=15, deadline=None)
    def test_mutation_triggers_exact_repartition(self, seed, shards,
                                                 algorithm):
        graph = build_random_graph(seed)
        scorer = ScoringFunction(graph)
        queries = star_workload(graph, 2, seed=seed + 50)
        engine = ShardedEngine(
            graph, scorer=scorer, shards=shards, algorithm=algorithm,
            backend="serial", d=1,
        )
        try:
            for query in queries:
                engine.search(query, K)  # warm pre-mutation state
            version_before = engine.partition.graph_version
            fresh_id = graph.add_node("brad fresh", "actor",
                                      keywords=("drama",))
            anchor = next(iter(graph.nodes()))
            if anchor != fresh_id:
                graph.add_edge(fresh_id, anchor, "acted_in")
            oracle = Star(graph, d=1)
            for query in queries:
                got = engine.search(query, K)
                topk = oracle.search(query, K)
                full = oracle.search(query, 200)
                assert_tie_tolerant_equal(got, topk, full)
            assert engine.partition.graph_version == graph.version
            assert engine.partition.graph_version != version_before
        finally:
            engine.close()
