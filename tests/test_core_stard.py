"""Tests for procedure stard: message passing and d-bounded exactness."""

import itertools

import pytest

from repro.baselines import brute_force_star
from repro.core import StarDSearch, StarKSearch, is_monotone_non_increasing
from repro.core.messages import propagate
from repro.errors import SearchError
from repro.graph import KnowledgeGraph
from repro.query import StarQuery, star_query, star_workload
from repro.similarity import ScoringConfig, ScoringFunction

from tests.oracle import row_bounds
from tests.test_message_kernels import Top2, as_top2


class TestTop2:
    def test_keeps_two_best_distinct_origins(self):
        t = Top2(0.5, origin=1)
        t.offer(0.9, origin=2)
        t.offer(0.7, origin=3)
        assert (t.s1, t.o1) == (0.9, 2)
        assert (t.s2, t.o2) == (0.7, 3)

    def test_same_origin_updates_in_place(self):
        t = Top2(0.5, origin=1)
        t.offer(0.8, origin=1)
        assert (t.s1, t.o1) == (0.8, 1)
        assert t.o2 == -1

    def test_best_excluding(self):
        t = Top2(0.9, origin=7)
        t.offer(0.6, origin=8)
        assert t.best_excluding(None) == 0.9
        assert t.best_excluding(7) == 0.6
        assert t.best_excluding(8) == 0.9

    def test_best_excluding_single_entry(self):
        t = Top2(0.9, origin=7)
        assert t.best_excluding(7) is None

    def test_merge(self):
        a = Top2(0.9, 1)
        b = Top2(0.8, 2)
        b.offer(0.7, 3)
        a.merge(b)
        assert (a.s1, a.o1) == (0.9, 1)
        assert (a.s2, a.o2) == (0.8, 2)


class TestPropagation:
    def path_graph(self, n):
        g = KnowledgeGraph()
        for i in range(n):
            g.add_node(f"v{i}")
        for i in range(n - 1):
            g.add_edge(i, i + 1)
        return g

    def test_walk_distance_semantics(self):
        g = self.path_graph(5)
        layers = [as_top2(layer) for layer in propagate(g, {0: 0.9}, d=3)]
        assert layers[0][0].s1 == 0.9
        assert layers[1][1].s1 == 0.9
        assert layers[2][2].s1 == 0.9
        assert layers[3][3].s1 == 0.9
        # Walks bounce back: at h=2 the seed reaches itself again.
        assert layers[2][0].s1 == 0.9
        assert 4 not in layers[3] or layers[3][4].s1 != 0.9

    def test_multiple_seeds_max_wins(self):
        g = self.path_graph(3)
        layers = [as_top2(layer)
                  for layer in propagate(g, {0: 0.5, 2: 0.9}, d=1)]
        # Node 1 hears both seeds; best first, runner-up kept.
        top2 = layers[1][1]
        assert (top2.s1, top2.o1) == (0.9, 2)
        assert (top2.s2, top2.o2) == (0.5, 0)

    def test_space_bound(self):
        """B[h] never exceeds |V| entries (paper: O(d|V|) space)."""
        g = self.path_graph(30)
        layers = propagate(g, {i: 0.5 for i in range(0, 30, 3)}, d=4)
        assert all(len(layer.s1) == g.num_node_slots for layer in layers)
        assert all(layer.count() <= g.num_nodes for layer in layers)

    def test_empty_seeds(self):
        g = self.path_graph(3)
        layers = propagate(g, {}, d=2)
        assert all(layer.count() == 0 for layer in layers)


class TestEstimates:
    def test_estimate_is_upper_bound(self, yago_scorer, yago_graph):
        """Row-pass estimates dominate exact per-pivot top-1 scores."""
        from repro.core.stark import bounded_leaf_provider

        for query in star_workload(yago_graph, 5, seed=31):
            star = StarQuery.from_query(query)
            plan = StarDSearch(yago_scorer, d=2)._plan(star, {}, None)
            pivots, bounds = plan.pivots, row_bounds(plan)
            exact = StarKSearch(yago_scorer, d=2)
            provider = bounded_leaf_provider(yago_scorer, star, {}, 2, True)
            for (pivot_node, pivot_score), estimate in zip(pivots, bounds):
                gen = exact.build_generator(
                    star, pivot_node, pivot_score, {}, provider
                )
                first = None if gen is None else gen.next_match()
                if first is None:
                    continue
                assert estimate is not None
                assert estimate >= first.score - 1e-9

    @staticmethod
    def path_star(edge_threshold):
        """person - x - x - film: the film is 3 hops from the person."""
        g = KnowledgeGraph()
        for name, kind in [("Ann", "person"), ("Hub", "x"), ("Mid", "x"),
                           ("Reel", "film")]:
            g.add_node(name, kind)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        scorer = ScoringFunction(
            g, ScoringConfig(edge_threshold=edge_threshold))
        star = star_query("?", [("?", "?")], pivot_type="person",
                          leaf_types=["film"])
        return scorer, star

    def test_estimate_leaf_bound_skips_thresholded_hops(self):
        # With a huge edge threshold only direct edges qualify; the person
        # only reaches the film in 3 hops, so no bound exists.
        scorer, star = self.path_star(0.9)
        plan = StarDSearch(scorer, d=3)._plan(star, {}, None)
        assert [pivot for pivot, _score in plan.pivots] == [0]
        assert plan.bounds == [None]
        assert row_bounds(plan) == [None]
        # Below the threshold, hop 3 bounds it at its decay, off the
        # columns and off the row alike.
        scorer, star = self.path_star(0.05)
        plan = StarDSearch(scorer, d=3)._plan(star, {}, None)
        [(_pivot, pivot_score)] = plan.pivots
        leaf_score = scorer.node_score(star.leaves[0][0].descriptor, 3)
        want = [pytest.approx(
            pivot_score + leaf_score + scorer.path.decay(3))]
        assert plan.bounds == want
        assert row_bounds(plan) == want


class TestExactness:
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_oracle(self, yago_scorer, yago_graph, d):
        for query in star_workload(yago_graph, 6, seed=32):
            star = StarQuery.from_query(query)
            got = StarDSearch(yago_scorer, d=d).search(star, 5)
            want = brute_force_star(yago_scorer, star, 5, d=d)
            assert [m.score for m in got] == pytest.approx(
                [m.score for m in want]
            ), query.name

    def test_agrees_with_stark_d(self, yago_scorer, yago_graph):
        """stard == stark at equal d (Fig. 12's correctness premise)."""
        for query in star_workload(yago_graph, 6, seed=33):
            star = StarQuery.from_query(query)
            fast = StarDSearch(yago_scorer, d=2).search(star, 8)
            slow = StarKSearch(yago_scorer, d=2).search(star, 8)
            assert [m.score for m in fast] == pytest.approx(
                [m.score for m in slow]
            )

    def test_d1_delegates_to_stark(self, yago_scorer, yago_graph):
        query = star_workload(yago_graph, 1, seed=34)[0]
        star = StarQuery.from_query(query)
        d1 = StarDSearch(yago_scorer, d=1).search(star, 5)
        stark = StarKSearch(yago_scorer).search(star, 5)
        assert [m.score for m in d1] == [m.score for m in stark]

    def test_monotone_stream(self, yago_scorer, yago_graph):
        query = star_workload(yago_graph, 1, seed=35)[0]
        star = StarQuery.from_query(query)
        stream = StarDSearch(yago_scorer, d=2).stream(star)
        assert is_monotone_non_increasing(list(itertools.islice(stream, 25)))

    def test_invalid_d(self, yago_scorer):
        with pytest.raises(SearchError):
            StarDSearch(yago_scorer, d=0)

    def test_k_validation(self, yago_scorer):
        star = star_query("Brad", [("acted_in", "?")])
        with pytest.raises(SearchError):
            StarDSearch(yago_scorer, d=2).search(star, -1)


class TestLaziness:
    def test_evaluates_fewer_pivots_than_stark(self, yago_scorer, yago_graph):
        """The whole point of stard: skip most exact d-hop traversals."""
        evaluated = []
        considered = []
        for query in star_workload(yago_graph, 10, seed=36):
            star = StarQuery.from_query(query)
            matcher = StarDSearch(yago_scorer, d=2)
            matcher.search(star, 5)
            stark = StarKSearch(yago_scorer, d=2)
            stark.search(star, 5)
            evaluated.append(matcher.stats.pivots_evaluated)
            considered.append(stark.stats.pivots_considered)
        assert sum(evaluated) < sum(considered)
