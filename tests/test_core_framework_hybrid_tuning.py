"""Tests for the STAR framework facade, stark's pivot bound and tuning."""

import pytest

from repro.baselines import brute_force_star, brute_force_topk
from repro.core import Star, tune_parameters
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


class TestPivotBound:
    """stark's d=1 bound: a pivot is evaluated only while its bound can
    beat a queued match (the Lemma-1 loop ``stard`` runs at d >= 2)."""

    def test_bound_skips_pivots_stark_evaluates(self, yago_scorer,
                                                yago_graph):
        from repro.core import StarKSearch

        skipped = 0
        for query in star_workload(yago_graph, 6, seed=55):
            star = StarQuery.from_query(query)
            matcher = StarKSearch(yago_scorer)
            got = matcher.search(star, 3)
            want = brute_force_star(yago_scorer, star, 3)
            assert [m.score for m in got] == pytest.approx(
                [m.score for m in want]), query.name
            stats = matcher.stats
            assert stats.pivots_evaluated <= stats.pivots_considered
            skipped += stats.pivots_considered - stats.pivots_evaluated
        assert skipped > 0

    def test_cutoff_skips_low_score_pivots(self):
        """When pivot scores are spread out, the weak pivots' bounds
        never beat the exact pivot's match."""
        from repro.core import StarKSearch
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
        matcher = StarKSearch(scorer)
        matches = matcher.search(star, 1)
        assert matches and matches[0].assignment[0] == exact
        assert matcher.stats.pivots_considered == 31
        assert matcher.stats.pivots_evaluated < 31


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
