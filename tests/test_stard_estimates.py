"""``stard``'s pivot estimates at ``d >= 2``: a column bound per pivot,
refined to a row bound by one read of its row.

Each row bound is at most its column bound and is held, pivot by pivot,
between two references written here, independent of the row read under
test, and equals a third (the column bound stays below the upper one):

* below, the pivot's exact top-1 match, built from the d-bounded leaf
  provider -- what the exact phase would evaluate;
* above, the estimate the row pass replaced: every hop-1 leaf priced at
  the flat ``edge_upper_bound(1) = 1.0``, over fully pushed propagation
  layers;
* equal, float for float, the estimate as ``stard`` computed it in a
  loop of its own, before the row read was shared with ``stark``.

The references propagate with the per-node walk
(``tests/test_message_kernels.py``), not the array kernels under test.

End to end, the answers meet the brute-force oracle (``tests/oracle.py``)
and, under alpha weights, ``stark``'s stream at the same ``d``.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import StarDSearch, StarKSearch
from repro.core.stark import bounded_leaf_provider, leaf_candidate_maps
from repro.graph.generators import dbpedia_like
from repro.query import StarQuery, star_query
from repro.query.parser import parse_query
from repro.similarity import ScoringConfig, ScoringFunction

from tests.conftest import scorer_for
from tests.oracle import (
    assert_matches_meet_oracle, rounded_scores, row_bounds,
)
from tests.test_message_kernels import reference_propagate, reference_pull

#: One fixed profile: the same examples on every run.
PROFILE = settings(max_examples=40, deadline=None, derandomize=True)

#: path_lambda is 0.5: 0.3 cuts hop 3, and 0.6 puts lambda^(d-1) below
#: the edge threshold at d = 2 and d = 3 alike (no hop >= 2 term).
THRESHOLDS = [0.05, 0.3, 0.6]

STARS = [
    star_query("Brad", [("acted_in", "?")], pivot_type="actor"),
    star_query("?", [("acted_in", "Troy"), ("won", "?")], pivot_type="actor"),
    star_query("Brad", [("?", "?"), ("directed", "?"), ("?", "?")]),
    star_query("?", [("won", "Oscar"), ("born_in", "?")],
               leaf_types=["award", "place"]),
]

#: Alpha-scheme node weights by query-node id (pivot 0, leaves 1..).
WEIGHTS = [{}, {0: 0.5, 1: 2.0, 2: 0.7, 3: 1.5}]

def flat_estimates(scorer, star, pivot_cands, weights, d, injective):
    """The estimate before the row pass: ``max over h of (B[h] best at
    the pivot + edge_upper_bound(h))`` per leaf, scaled by
    ``max(w, 1)``, with ``edge_upper_bound(1) = 1.0``."""
    threshold = scorer.config.edge_threshold
    maps = leaf_candidate_maps(scorer, star)
    pushed = {id(m): reference_propagate(scorer.graph, m, d) for m in maps}
    estimates = []
    for pivot, pivot_score in pivot_cands:
        total = weights.get(star.pivot.id, 1.0) * pivot_score
        for (leaf, _edge), leaf_scores in zip(star.leaves, maps):
            layers = pushed[id(leaf_scores)]
            best = None
            for hops in range(1, d + 1):
                bound = scorer.edge_upper_bound(hops)
                top2 = layers[hops].get(pivot)
                if bound < threshold or top2 is None:
                    continue
                node_bound = top2.best_excluding(pivot if injective else None)
                if node_bound is not None and (
                        best is None or node_bound + bound > best):
                    best = node_bound + bound
            if best is None:
                total = None
                break
            total += best * max(weights.get(leaf.id, 1.0), 1.0)
        estimates.append(total)
    return estimates


def row_estimates(scorer, star, pivot_cands, weights, d, injective):
    """The estimate as ``stard``'s own pivot loop computed it: per leaf,
    the best of the exact hop-1 term off the pivot's row and
    ``max(w, 1) * (B[h]`` best ``+ lambda^(h-1))`` for ``h >= 2``, with
    ``B[d]`` pulled over the row."""
    edge_threshold = scorer.config.edge_threshold
    decay = scorer.path.decay
    maps = leaf_candidate_maps(scorer, star)
    layers = {id(m): reference_propagate(scorer.graph, m, d - 1)
              for m in maps}
    no_term = float("-inf")
    estimates = []
    for pivot, pivot_score in pivot_cands:
        banned = pivot if injective else None
        row = dict(scorer.graph.grouped_relations(pivot))
        bound = weights.get(star.pivot.id, 1.0) * pivot_score
        for (leaf, edge), leaf_scores in zip(star.leaves, maps):
            far = no_term
            node_bound = reference_pull(layers[id(leaf_scores)][d - 1], row,
                                        banned)
            if node_bound is not None and decay(d) >= edge_threshold:
                far = node_bound + decay(d)
            for hops in range(2, d):
                top2 = layers[id(leaf_scores)][hops].get(pivot)
                if decay(hops) < edge_threshold or top2 is None:
                    continue
                node_bound = top2.best_excluding(banned)
                if node_bound is not None and node_bound + decay(hops) > far:
                    far = node_bound + decay(hops)
            weight = weights.get(leaf.id, 1.0)
            best = max(weight, 1.0) * far
            for nbr in row.keys() & leaf_scores.keys():
                labels = row[nbr]
                edge_score = max(
                    scorer.relation_score(edge.descriptor, rel)
                    for rel in ((labels,) if isinstance(labels, str)
                                else labels))
                combined = weight * leaf_scores[nbr] + edge_score
                if edge_score >= edge_threshold and combined > best:
                    best = combined
            if best == no_term:
                bound = None
                break
            bound += best
        estimates.append(bound)
    return estimates


def exact_top1(scorer, star, pivot_cands, weights, d, injective):
    """Per pivot candidate: its best match's score, or None."""
    exact = StarKSearch(scorer, d=d, injective=injective)
    provider = bounded_leaf_provider(scorer, star, weights, d, injective)
    scores = []
    for pivot, pivot_score in pivot_cands:
        generator = exact.build_generator(star, pivot, pivot_score, weights,
                                          provider)
        first = None if generator is None else generator.next_match()
        scores.append(None if first is None else first.score)
    return scores


class TestEstimateBounds:
    @given(seed=st.integers(min_value=0, max_value=12),
           threshold=st.sampled_from(THRESHOLDS),
           star=st.sampled_from(STARS), d=st.sampled_from([2, 3]),
           injective=st.booleans(), weights=st.sampled_from(WEIGHTS))
    @PROFILE
    def test_between_exact_top1_and_the_flat_estimate(
            self, seed, threshold, star, d, injective, weights):
        scorer = scorer_for(seed, edge_threshold=threshold)
        matcher = StarDSearch(scorer, d=d, injective=injective)
        plan = matcher._plan(star, weights, None)
        pivot_cands, columns = plan.pivots, plan.bounds
        assert len(columns) == len(pivot_cands)
        bounds = row_bounds(plan)  # each at most its column bound
        flat = flat_estimates(scorer, star, pivot_cands, weights, d,
                              injective)
        exact = exact_top1(scorer, star, pivot_cands, weights, d, injective)
        assert bounds == row_estimates(scorer, star, pivot_cands, weights, d,
                                       injective)
        for bound, column, above, below in zip(bounds, columns, flat, exact):
            if below is not None:
                assert bound is not None and bound >= below - 1e-9
            if bound is not None:
                assert above is not None and bound <= above + 1e-12
            if column is not None:
                assert above is not None and column <= above + 1e-12

    @given(seed=st.integers(min_value=0, max_value=12),
           threshold=st.sampled_from(THRESHOLDS),
           star=st.sampled_from(STARS), d=st.sampled_from([2, 3]),
           injective=st.booleans())
    @PROFILE
    def test_answers_meet_the_oracle(self, seed, threshold, star, d,
                                     injective):
        scorer = scorer_for(seed, edge_threshold=threshold)
        for k in (1, 7):
            got = StarDSearch(scorer, d=d, injective=injective).search(star, k)
            assert_matches_meet_oracle(
                got, scorer, star, k, d=d, injective=injective,
                label=f"stard(d={d}, k={k})")

    @given(seed=st.integers(min_value=0, max_value=12),
           star=st.sampled_from(STARS), d=st.sampled_from([2, 3]),
           injective=st.booleans())
    @PROFILE
    def test_weighted_stream_equals_stark(self, seed, star, d, injective):
        scorer = scorer_for(seed, edge_threshold=0.05)
        weights = WEIGHTS[1]
        streams = [
            list(itertools.islice(
                cls(scorer, d=d, injective=injective).stream(
                    star, node_weights=weights), 12))
            for cls in (StarDSearch, StarKSearch)
        ]
        assert rounded_scores(streams[0]) == rounded_scores(streams[1])


class TestExactHopOne:
    def test_hop_one_term_is_the_best_direct_entry(self, yago_graph):
        """With hop 2 thresholded away and one leaf, every estimate is
        the pivot's exact top-1."""
        scorer = ScoringFunction(yago_graph, ScoringConfig(edge_threshold=0.6))
        star = star_query("?", [("acted_in", "?")], pivot_type="actor")
        plan = StarDSearch(scorer, d=2)._plan(star, {}, None)
        pivots, bounds = plan.pivots, row_bounds(plan)
        exact = exact_top1(scorer, star, pivots, {}, 2, True)
        assert any(score is not None for score in exact)
        assert bounds == [None if score is None else pytest.approx(score)
                          for score in exact]


@pytest.fixture(scope="module")
def dbpedia_scorer():
    return ScoringFunction(dbpedia_like(0.5, 7))


class TestCandidateLimit:
    """The cutoff cuts pivots only: the propagation is seeded from the
    full leaf maps the exact phase reads, so no estimate falls below a
    top-1 the exact phase finds."""

    QUERY = "(Christopher Scott:person) -[married_to]- (?v1:person)"

    @pytest.mark.parametrize("limit", [3, 10, 30])
    def test_stream_is_ordered_and_equals_stark(self, dbpedia_scorer, limit):
        star = StarQuery.from_query(parse_query(self.QUERY))
        got = StarDSearch(dbpedia_scorer, d=2,
                          candidate_limit=limit).search(star, 20)
        want = StarKSearch(dbpedia_scorer, d=2,
                           candidate_limit=limit).search(star, 20)
        scores = [m.score for m in got]
        assert scores == sorted(scores, reverse=True)
        assert rounded_scores(got) == rounded_scores(want)
