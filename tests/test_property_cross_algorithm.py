"""Property tests: every matcher agrees on every random input.

The strongest correctness statement in the suite: on arbitrary random
graphs and queries, stark, stard, graphTA (all exact) return
score-identical top-k lists to the brute-force oracle, and BP does so on
acyclic queries.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines import (
    BeliefPropagation,
    GraphTA,
    brute_force_star,
    brute_force_topk,
)
from repro.core import StarDSearch, StarKSearch, Star
from repro.query import Query

from tests.conftest import scorer_for, star_of, triangle_query
from tests.oracle import row_bounds

def rounded(matches):
    return [round(m.score, 9) for m in matches]


class TestStarMatchersAgree:
    @given(
        seed=st.integers(min_value=0, max_value=60),
        size_choice=st.integers(min_value=0, max_value=2),
        k=st.integers(min_value=1, max_value=6),
        d=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_star_matchers_equal_oracle(self, seed, size_choice, k, d):
        scorer = scorer_for(seed)
        star = star_of(size_choice)
        want = rounded(brute_force_star(scorer, star, k, d=d))
        assert rounded(StarKSearch(scorer, d=d).search(star, k)) == want
        assert rounded(StarDSearch(scorer, d=d).search(star, k)) == want


    @given(
        seed=st.integers(min_value=0, max_value=60),
        size_choice=st.integers(min_value=0, max_value=2),
        k=st.integers(min_value=1, max_value=6),
        injective=st.booleans(),
        directed=st.booleans(),
        node_weights=st.lists(
            st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0, 1.5]),
            min_size=4, max_size=4),
    )
    @example(seed=0, size_choice=0, k=3, injective=True, directed=False,
             node_weights=[1.5] * 4)  # a weight > 1 on the leaf part
    @settings(max_examples=40, deadline=None)
    def test_stark_d1_bound_admissible_under_node_weights(
        self, seed, size_choice, k, injective, directed, node_weights
    ):
        """starjoin hands its streams alpha-scheme weights; a bound that
        ignored them, or the orientation, would skip pivots the ranking
        needs, and a None bound on a matchable pivot would lose it."""
        import itertools

        scorer = scorer_for(seed)
        star = star_of(size_choice)
        weights = dict(zip(sorted(star.node_ids()), node_weights))
        modes = {"injective": injective, "directed": directed}
        best, ranked = {}, []
        for m in brute_force_star(scorer, star, 10 ** 6, **modes):
            score = sum(weights[q] * s for q, s in m.node_scores.items()) \
                + sum(m.edge_scores.values())
            pivot = m.assignment[star.pivot.id]
            best[pivot] = max(best.get(pivot, score), score)
            ranked.append(round(score, 9))
        plan = StarKSearch(scorer, **modes)._plan(star, weights, None)
        pivots, bounds = plan.pivots, plan.bounds
        rows = row_bounds(plan)
        assert set(best) <= {pivot for pivot, _score in pivots}
        for (pivot, _score), bound, row in zip(pivots, bounds, rows):
            if row is None:
                assert pivot not in best
            elif pivot in best:
                assert row >= best[pivot] - 1e-9
        got = StarKSearch(scorer, **modes).stream(star, node_weights=weights)
        assert rounded(itertools.islice(got, 8)) == sorted(
            ranked, reverse=True)[:8]
        assert rounded(StarKSearch(scorer, **modes).search(star, k)) == \
            rounded(brute_force_star(scorer, star, k, **modes))


class TestGeneralMatchersAgree:
    @given(
        seed=st.integers(min_value=0, max_value=40),
        k=st.integers(min_value=1, max_value=4),
        alpha=st.sampled_from([0.1, 0.5, 0.9]),
    )
    @settings(max_examples=25, deadline=None)
    def test_join_and_ta_equal_oracle_on_cycles(self, seed, k, alpha):
        scorer = scorer_for(seed)
        query = triangle_query()
        want = rounded(brute_force_topk(scorer, query, k))
        engine = Star(
            scorer.graph, scorer=scorer, alpha=alpha,
            decomposition_method="maxdeg",
        )
        assert rounded(engine.search(query, k)) == want
        assert rounded(GraphTA(scorer).search(query, k)) == want

    @given(seed=st.integers(min_value=0, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_bp_exact_on_acyclic(self, seed):
        scorer = scorer_for(seed)
        query = Query(name="path3")
        a = query.add_node("Brad", type="actor")
        b = query.add_node("?", type="film")
        c = query.add_node("?", type="award")
        query.add_edge(a, b, "acted_in")
        query.add_edge(b, c, "won")
        want = rounded(brute_force_topk(scorer, query, 3))
        got = rounded(BeliefPropagation(scorer).search(query, 3))
        assert got == want
