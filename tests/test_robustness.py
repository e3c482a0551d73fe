"""Failure injection and boundary-condition tests across the stack."""

import pytest

from repro.baselines import BeliefPropagation, GraphTA, brute_force_topk
from repro.core import Star, StarDSearch, StarKSearch
from repro.errors import (
    DataCorruptionError,
    InjectedFaultError,
    QueryError,
    ReproError,
)
from repro.graph import KnowledgeGraph
from repro.query import Query, StarQuery, star_query
from repro.runtime import Budget, FaultSpec, faulty
from repro.similarity import ScoringConfig, ScoringFunction


@pytest.fixture()
def tiny_graph():
    g = KnowledgeGraph(name="tiny")
    a = g.add_node("Alpha", "thing")
    b = g.add_node("Beta", "thing")
    g.add_edge(a, b, "rel")
    return g


class TestExtremeThresholds:
    def test_node_threshold_one_kills_everything(self, movie_graph):
        scorer = ScoringFunction(
            movie_graph, ScoringConfig(node_threshold=1.0)
        )
        star = star_query("Brad", [("acted_in", "?")])
        assert StarKSearch(scorer).search(star, 5) == []
        assert StarDSearch(scorer, d=2).search(star, 5) == []

    def test_edge_threshold_one_requires_perfect_relations(self, movie_graph):
        scorer = ScoringFunction(
            movie_graph, ScoringConfig(edge_threshold=1.0)
        )
        star = star_query("Brad", [("acted_in", "Troy")])
        # relation_score aggregates several measures, so even an exact
        # relation stays below 1.0 -- no admissible edge matches.
        assert StarKSearch(scorer).search(star, 5) == []

    def test_zero_thresholds_still_exact(self, movie_graph):
        scorer = ScoringFunction(
            movie_graph,
            ScoringConfig(node_threshold=0.0, edge_threshold=0.0),
        )
        star = star_query("Brad", [("acted_in", "?")], pivot_type="actor")
        got = StarKSearch(scorer).search(star, 5)
        from repro.baselines import brute_force_star

        want = brute_force_star(scorer, star, 5)
        assert [m.score for m in got] == pytest.approx(
            [m.score for m in want]
        )

    def test_extreme_lambda_values(self, movie_graph):
        for lam in (0.01, 0.99):
            scorer = ScoringFunction(
                movie_graph, ScoringConfig(path_lambda=lam)
            )
            star = star_query("Richard", [("?", "Academy Award")])
            got = StarDSearch(scorer, d=2).search(star, 3)
            from repro.baselines import brute_force_star

            want = brute_force_star(scorer, star, 3, d=2)
            assert [m.score for m in got] == pytest.approx(
                [m.score for m in want]
            )


class TestDegenerateGraphs:
    def test_single_edge_graph(self, tiny_graph):
        scorer = ScoringFunction(tiny_graph)
        star = star_query("Alpha", [("rel", "Beta")])
        matches = StarKSearch(scorer).search(star, 3)
        assert len(matches) == 1

    def test_edgeless_graph(self):
        g = KnowledgeGraph()
        g.add_node("Lonely")
        scorer = ScoringFunction(g)
        star = star_query("Lonely", [("rel", "?")])
        assert StarKSearch(scorer).search(star, 3) == []
        assert StarDSearch(scorer, d=3).search(star, 3) == []

    def test_disconnected_components(self):
        g = KnowledgeGraph()
        a, b = g.add_node("Alpha"), g.add_node("Beta")
        c, d = g.add_node("Gamma"), g.add_node("Delta")
        g.add_edge(a, b, "rel")
        g.add_edge(c, d, "rel")
        scorer = ScoringFunction(g)
        # Alpha and Delta are in different components: no d-bounded match.
        q = Query()
        qa = q.add_node("Alpha")
        qd = q.add_node("Delta")
        q.add_edge(qa, qd, "?")
        assert GraphTA(scorer, d=4).search(q, 3) == []
        assert brute_force_topk(scorer, q, 3, d=4) == []

    def test_single_node_query_via_framework(self, movie_graph, movie_scorer):
        q = Query(name="node-only")
        q.add_node("Brad", type="actor")
        engine = Star(movie_graph, scorer=movie_scorer)
        matches = engine.search(q, 3)
        assert matches
        assert matches[0].assignment == {0: 0}
        assert matches[0].edge_scores == {}


class TestKLargerThanResults:
    def test_all_matchers_return_what_exists(self, movie_graph, movie_scorer):
        star = star_query(
            "Kathryn", [("directed", "?")], pivot_type="director",
            leaf_types=["film"],
        )
        q = Query()
        p = q.add_node("Kathryn", type="director")
        f = q.add_node("?", type="film")
        q.add_edge(p, f, "directed")
        expected = len(brute_force_topk(movie_scorer, q, 100))
        assert len(StarKSearch(movie_scorer).search(star, 100)) == expected
        assert len(GraphTA(movie_scorer).search(q, 100)) == expected
        assert len(BeliefPropagation(movie_scorer).search(q, 100)) == expected


class TestInvalidQueriesThroughFramework:
    def test_empty_query(self, movie_graph, movie_scorer):
        engine = Star(movie_graph, scorer=movie_scorer)
        with pytest.raises(QueryError):
            engine.search(Query(), 3)

    def test_disconnected_query(self, movie_graph, movie_scorer):
        q = Query()
        q.add_node("A")
        q.add_node("B")
        q.add_node("C")
        q.add_edge(0, 1)
        engine = Star(movie_graph, scorer=movie_scorer)
        with pytest.raises(QueryError):
            engine.search(q, 3)


class TestCandidateLimit:
    def test_limit_respected_and_results_valid(self, yago_graph, yago_scorer):
        from repro.query import star_workload

        query = star_workload(yago_graph, 1, seed=81)[0]
        star = StarQuery.from_query(query)
        limited = StarKSearch(yago_scorer, candidate_limit=5)
        matches = limited.search(star, 3)
        assert limited.stats.pivots_considered <= 5
        for m in matches:
            assert m.is_injective()

    def test_limit_one_still_works(self, movie_scorer):
        star = star_query("Brad Pitt", [("acted_in", "?")],
                          pivot_type="actor")
        matches = StarKSearch(movie_scorer, candidate_limit=1).search(star, 5)
        assert matches
        assert all(m.assignment[0] == 0 for m in matches)


class TestFaultInjection:
    """Injected substrate faults: structured errors or flagged partials.

    Contract (see repro.runtime.faults): without an anytime budget a
    fault surfaces as a ReproError subclass; with one, the engine records
    it on the budget and keeps returning best-so-far results.  Raw
    KeyError / RuntimeError must never escape a search call.
    """

    STAR = ("Brad", [("acted_in", "?")])

    #: Every arm of the one Lemma-1 pivot loop, built on a given scorer.
    PROCEDURES = (
        lambda s: StarKSearch(s),
        lambda s: StarDSearch(s, d=2),
    )

    def _star(self):
        return star_query(self.STAR[0], self.STAR[1], pivot_type="actor")

    def test_scorer_raise_strict_propagates(self, movie_scorer):
        bad = faulty(
            movie_scorer,
            specs=[FaultSpec("scorer.node_score", at_call=2, mode="raise")],
        )
        with pytest.raises(InjectedFaultError):
            StarKSearch(bad).search(self._star(), 3)

    def test_scorer_raise_anytime_flagged(self, movie_scorer):
        bad = faulty(
            movie_scorer,
            specs=[FaultSpec("scorer.node_score", at_call=2, mode="raise")],
        )
        matcher = StarKSearch(bad)
        budget = Budget(anytime=True)
        matcher.search(self._star(), 3, budget=budget)
        report = matcher.last_report
        assert report.degraded
        assert report.faults
        assert not report.completed

    def test_adjacency_raise_strict_propagates(self, movie_scorer):
        for make in self.PROCEDURES:
            bad = faulty(
                movie_scorer,
                specs=[FaultSpec("graph.neighbors", at_call=0, mode="raise")],
            )
            with pytest.raises(InjectedFaultError):
                make(bad).search(self._star(), 3)

    def test_adjacency_raise_anytime_flagged(self, movie_scorer):
        for make in self.PROCEDURES:
            bad = faulty(
                movie_scorer,
                specs=[FaultSpec("graph.neighbors", at_call=0, mode="raise")],
            )
            matcher = make(bad)
            budget = Budget(anytime=True)
            got = matcher.search(self._star(), 3, budget=budget)
            assert bad._injector.fired
            assert matcher.last_report.degraded
            for m in got:
                assert m.is_injective()

    def test_corrupt_score_detected(self, movie_scorer):
        bad = faulty(
            movie_scorer,
            specs=[FaultSpec("scorer.node_score", at_call=1, mode="corrupt")],
        )
        with pytest.raises(DataCorruptionError):
            StarKSearch(bad).search(self._star(), 3)

    def test_corrupt_adjacency_detected(self, movie_scorer):
        bad = faulty(
            movie_scorer,
            specs=[FaultSpec("graph.neighbors", at_call=0, mode="corrupt")],
        )
        with pytest.raises(DataCorruptionError):
            StarKSearch(bad).search(self._star(), 3)

    def test_corrupt_anytime_recorded(self, movie_scorer):
        bad = faulty(
            movie_scorer,
            specs=[FaultSpec("scorer.node_score", at_call=1, mode="corrupt")],
        )
        matcher = StarKSearch(bad)
        budget = Budget(anytime=True)
        matcher.search(self._star(), 3, budget=budget)
        assert matcher.last_report.degraded
        assert any("corrupted" in f for f in matcher.last_report.faults)

    def test_slow_scorer_hits_deadline(self, movie_scorer):
        bad = faulty(
            movie_scorer,
            specs=[FaultSpec(
                "scorer.node_score", at_call=0, mode="delay",
                delay_ms=1.0, repeat=True,
            )],
        )
        matcher = StarKSearch(bad)
        budget = Budget(deadline_ms=2, anytime=True)
        matcher.search(self._star(), 3, budget=budget)
        report = matcher.last_report
        assert not report.completed
        assert report.reason == "deadline"

    def test_deadline_zero_strict_raises(self, movie_scorer):
        from repro.errors import SearchTimeoutError

        with pytest.raises(SearchTimeoutError):
            StarKSearch(movie_scorer).search(
                self._star(), 3, budget=Budget(deadline_ms=0)
            )

    def test_deadline_zero_anytime_flagged(self, movie_scorer):
        matcher = StarKSearch(movie_scorer)
        matcher.search(self._star(), 3, budget=Budget(deadline_ms=0, anytime=True))
        assert not matcher.last_report.completed

    def test_stard_propagation_fault_anytime(self, movie_scorer):
        bad = faulty(
            movie_scorer,
            specs=[FaultSpec("graph.neighbors", at_call=0, mode="raise",
                             repeat=True)],
        )
        matcher = StarDSearch(bad, d=2)
        budget = Budget(anytime=True)
        got = matcher.search(self._star(), 3, budget=budget)
        assert matcher.last_report.degraded
        assert isinstance(got, list)
        # the id columns propagation reads pass the same fault point
        assert any(fault.startswith("propagation for leaf")
                   for fault in budget.faults)

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_sweep_only_structured_errors(self, movie_scorer, seed):
        """No raw KeyError/RuntimeError may escape any engine."""
        star = self._star()
        for make in self.PROCEDURES:
            bad = faulty(
                movie_scorer, seed=seed, n_faults=2,
                modes=("raise", "corrupt"), window=30,
            )
            try:
                result = make(bad).search(star, 3)
            except ReproError:
                continue  # structured failure: acceptable without a budget
            assert isinstance(result, list)

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_sweep_anytime_never_raises(self, movie_scorer, seed):
        """With an anytime budget, faults become flagged partials."""
        star = self._star()
        for make in self.PROCEDURES:
            bad = faulty(
                movie_scorer, seed=seed, n_faults=2,
                modes=("raise", "corrupt"), window=30,
            )
            matcher = make(bad)
            budget = Budget(anytime=True)
            got = matcher.search(star, 3, budget=budget)
            assert isinstance(got, list)
            report = matcher.last_report
            if bad._injector.fired:
                assert report.faults
                assert not report.completed
