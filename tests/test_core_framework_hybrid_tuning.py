"""Tests for the STAR framework facade, hybrid search and tuning."""

import pytest

from repro.baselines import brute_force_star, brute_force_topk
from repro.core import HybridStarSearch, Star, tune_parameters
from repro.core.tuning import aggregate_depth
from repro.errors import DecompositionError, SearchError
from repro.query import StarQuery, complex_workload, star_query, star_workload
from repro.similarity import ScoringFunction


class TestFramework:
    def test_star_query_direct_path(self, yago_scorer, yago_graph):
        """Star-shaped queries bypass decomposition."""
        query = star_workload(yago_graph, 1, seed=51)[0]
        engine = Star(yago_graph, scorer=yago_scorer)
        matches = engine.search(query, 5)
        assert engine.last_decomposition is None
        want = brute_force_star(
            yago_scorer, StarQuery.from_query(query), 5
        )
        assert [m.score for m in matches] == pytest.approx(
            [m.score for m in want]
        )

    def test_star_query_object_accepted(self, yago_scorer, yago_graph):
        star = star_query("?", [("directed", "?")], pivot_type="director")
        engine = Star(yago_graph, scorer=yago_scorer)
        assert engine.search(star, 3)

    def test_general_query_decomposes(self, yago_scorer, yago_graph):
        query = complex_workload(yago_graph, 1, shape=(4, 4), seed=52)[0]
        engine = Star(yago_graph, scorer=yago_scorer)
        engine.search(query, 3)
        assert engine.last_decomposition is not None
        assert engine.last_decomposition.num_stars >= 2

    def test_prebuilt_decomposition_honored(self, yago_scorer, yago_graph):
        from repro.query import decompose

        query = complex_workload(yago_graph, 1, shape=(4, 4), seed=53)[0]
        decomposition = decompose(query, "maxdeg")
        engine = Star(yago_graph, scorer=yago_scorer)
        got = engine.search(query, 3, decomposition=decomposition)
        want = brute_force_topk(yago_scorer, query, 3)
        assert [m.score for m in got] == pytest.approx([m.score for m in want])
        assert engine.last_decomposition is decomposition

    def test_builds_default_scorer(self, movie_graph):
        engine = Star(movie_graph)
        star = star_query("Brad", [("acted_in", "?")], pivot_type="actor")
        assert engine.search(star, 1)

    def test_invalid_k_and_d(self, yago_graph, yago_scorer):
        engine = Star(yago_graph, scorer=yago_scorer)
        star = star_query("Brad", [("acted_in", "?")])
        with pytest.raises(SearchError):
            engine.search(star, 0)
        with pytest.raises(SearchError):
            Star(yago_graph, scorer=yago_scorer, d=0)


class TestHybrid:
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_oracle(self, yago_scorer, yago_graph, d):
        for query in star_workload(yago_graph, 6, seed=54):
            star = StarQuery.from_query(query)
            got = HybridStarSearch(yago_scorer, d=d).search(star, 5)
            want = brute_force_star(yago_scorer, star, 5, d=d)
            assert [m.score for m in got] == pytest.approx(
                [m.score for m in want]
            ), query.name

    def test_never_evaluates_more_than_stark(self, yago_scorer, yago_graph):
        from repro.core import StarKSearch

        for query in star_workload(yago_graph, 6, seed=55):
            star = StarQuery.from_query(query)
            hybrid = HybridStarSearch(yago_scorer)
            hybrid.search(star, 3)
            baseline = StarKSearch(yago_scorer)
            baseline.search(star, 3)
            assert hybrid.stats.pivots_evaluated <= baseline.stats.pivots_considered

    @pytest.mark.parametrize("d", [1, 2])
    def test_bound_skips_pivots_stark_evaluates(self, d):
        """The streaming rule prunes where the old k-th-top-1 stop test
        never fired (2 of 19 pivots on the third query, both d)."""
        from repro.core import StarKSearch
        from repro.graph import dbpedia_like

        graph = dbpedia_like(scale=0.3, seed=7)
        scorer = ScoringFunction(graph)
        saved = 0
        for query in star_workload(graph, 6, seed=23)[:3]:
            star = StarQuery.from_query(query)
            hybrid = HybridStarSearch(scorer, d=d)
            got = hybrid.search(star, 5)
            baseline = StarKSearch(scorer, d=d)
            baseline.search(star, 5)
            want = brute_force_star(scorer, star, 5, d=d)
            assert [m.score for m in got] == pytest.approx(
                [m.score for m in want]
            ), query.name
            skipped = (baseline.stats.pivots_evaluated
                       - hybrid.stats.pivots_evaluated)
            assert skipped >= 0
            saved += skipped
        assert saved > 0

    def test_cutoff_skips_low_score_pivots(self):
        """When pivot scores are spread out, stage 1 stops early."""
        from repro.graph import KnowledgeGraph

        g = KnowledgeGraph(name="spread")
        film = g.add_node("Troy", "film")
        exact = g.add_node("Brad Pitt", "actor")
        g.add_edge(exact, film, "acted_in")
        # Many weak fuzzy pivots ("Brad" token only, long names).
        for i in range(30):
            weak = g.add_node(f"Brad Somebody Else Number {i}", "actor")
            g.add_edge(weak, film, "acted_in")
        scorer = ScoringFunction(g)
        star = star_query("Brad Pitt", [("acted_in", "Troy")],
                          pivot_type="actor")
        hybrid = HybridStarSearch(scorer)
        matches = hybrid.search(star, 1)
        assert matches and matches[0].assignment[0] == exact
        assert hybrid.stats.pivots_evaluated < 31

    def test_k_validation(self, yago_scorer):
        star = star_query("Brad", [("acted_in", "?")])
        with pytest.raises(SearchError):
            HybridStarSearch(yago_scorer).search(star, 0)

    def test_invalid_d(self, yago_scorer):
        with pytest.raises(SearchError):
            HybridStarSearch(yago_scorer, d=0)


class TestTuning:
    def test_aggregate_depth_positive(self, yago_scorer, yago_graph):
        workload = complex_workload(yago_graph, 2, shape=(4, 4), seed=56)
        depth = aggregate_depth(yago_scorer, workload, alpha=0.5, lam=1.0, k=3)
        assert depth >= 2 * len(workload)

    def test_grid_search_finds_minimum(self, yago_scorer, yago_graph):
        workload = complex_workload(yago_graph, 2, shape=(4, 4), seed=57)
        result = tune_parameters(
            yago_scorer, workload, k=3,
            alphas=[0.2, 0.5, 0.8], lams=[0.5, 1.0],
        )
        assert (result.alpha, result.lam) in result.grid
        assert result.total_depth == min(result.grid.values())
        assert len(result.grid) == 6

    def test_empty_workload_rejected(self, yago_scorer):
        with pytest.raises(SearchError):
            tune_parameters(yago_scorer, [])

    def test_empty_grid_rejected(self, yago_scorer, yago_graph):
        workload = complex_workload(yago_graph, 1, shape=(4, 4), seed=58)
        with pytest.raises(SearchError):
            tune_parameters(yago_scorer, workload, alphas=[])

    def test_tune_parameters_rejects_unknown_method(self, yago_scorer,
                                                    yago_graph):
        workload = complex_workload(yago_graph, 1, shape=(4, 4), seed=58)
        with pytest.raises(DecompositionError, match="unknown decomposition"):
            tune_parameters(yago_scorer, workload, method="simdek")

    def test_aggregate_depth_rejects_unknown_method(self, yago_scorer,
                                                    yago_graph):
        workload = complex_workload(yago_graph, 1, shape=(4, 4), seed=58)
        with pytest.raises(DecompositionError, match="unknown decomposition"):
            aggregate_depth(yago_scorer, workload, alpha=0.5, lam=1.0,
                            method="nope")
