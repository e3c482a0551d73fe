"""Tests for the extended statistics and graph-version staleness checks."""

import pytest

from repro.errors import ScoringError
from repro.graph import KnowledgeGraph
from repro.graph.statistics import (
    average_shortest_path,
    clustering_coefficient,
    label_selectivity,
)
from repro.similarity import Descriptor, ScoringFunction


def triangle_graph():
    g = KnowledgeGraph()
    for i in range(3):
        g.add_node(f"v{i}")
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(0, 2)
    return g


class TestClusteringCoefficient:
    def test_triangle_is_one(self):
        assert clustering_coefficient(triangle_graph()) == pytest.approx(1.0)

    def test_star_is_zero(self):
        g = KnowledgeGraph()
        hub = g.add_node("hub")
        for i in range(4):
            leaf = g.add_node(f"l{i}")
            g.add_edge(hub, leaf)
        assert clustering_coefficient(g) == 0.0

    def test_empty_graph(self):
        assert clustering_coefficient(KnowledgeGraph()) == 0.0

    def test_generated_graph_clusters(self, dense_graph):
        """Preferential attachment around shared endpoints clusters."""
        assert clustering_coefficient(dense_graph, sample=300) > 0.01


class TestLabelSelectivity:
    def test_profile_shape(self, movie_graph):
        profile = label_selectivity(movie_graph)
        assert 0.0 < profile["median"] <= profile["p90"] <= profile["max"] <= 1.0

    def test_empty_graph(self):
        profile = label_selectivity(KnowledgeGraph())
        assert profile == {"median": 0.0, "p90": 0.0, "max": 0.0}

    def test_ambiguity_exists_in_generated_graphs(self, yago_graph):
        """Some tokens are shared by many nodes (the 'Brad' effect)."""
        profile = label_selectivity(yago_graph)
        assert profile["max"] > 0.02


class TestAverageShortestPath:
    def test_path_graph(self):
        g = KnowledgeGraph()
        for i in range(5):
            g.add_node(f"v{i}")
        for i in range(4):
            g.add_edge(i, i + 1)
        avg = average_shortest_path(g, sample_pairs=400, seed=1)
        assert 1.0 < avg < 4.0

    def test_small_world_generated(self, dense_graph):
        avg = average_shortest_path(dense_graph, sample_pairs=100, seed=2)
        assert 0.0 < avg < 6.0  # dense KGs are small-world

    def test_trivial_graph(self):
        g = KnowledgeGraph()
        g.add_node("only")
        assert average_shortest_path(g) == 0.0


class TestStalenessDetection:
    def test_version_counter(self):
        g = KnowledgeGraph()
        assert g.version == 0
        a = g.add_node("a")
        b = g.add_node("b")
        assert g.version == 2
        g.add_edge(a, b)
        assert g.version == 3

    def test_stale_scorer_rejected(self):
        g = triangle_graph()
        scorer = ScoringFunction(g)
        scorer.assert_graph_unchanged()  # fine before mutation
        g.add_node("late arrival")
        with pytest.raises(ScoringError):
            scorer.assert_graph_unchanged()

    def test_stale_scorer_rejected_through_candidates(self):
        from repro.core import node_candidates
        from repro.query import Query

        g = triangle_graph()
        scorer = ScoringFunction(g)
        g.add_node("late")
        q = Query()
        q.add_node("v0")
        with pytest.raises(ScoringError):
            node_candidates(scorer, q.nodes[0])

    def test_fresh_scorer_after_mutation_works(self):
        from repro.core import StarKSearch
        from repro.query import star_query

        g = triangle_graph()
        g.add_edge(g.add_node("Brad Pitt", "actor"), 0, "knows")
        scorer = ScoringFunction(g)
        star = star_query("Brad", [("knows", "?")])
        assert StarKSearch(scorer).search(star, 1)
