"""starjoin's hash rank join vs the nested-loop reference it replaced.

The engine indexes every fetched list on its star's joint nodes and
probes a bucket where the reference (``tests/join_oracle.py``) scans the
whole list.  Probing may only *remove* pairs that cannot agree, so on
the same decomposition the two must offer the same complete
combinations in the same order: identical ranked lists (score and
assignment), identical per-star depths, never more join attempts.
"""

import functools
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import brute_force_topk
from repro.core import starjoin as starjoin_module
from repro.core.framework import Star
from repro.core.matches import Match
from repro.core.rankmerge import ScoredPool
from repro.core.starjoin import StarJoin, _StarStream
from repro.graph import dbpedia_like
from repro.query import Query, complex_workload, decompose
from repro.query.decomposition import METHODS, Decomposition
from repro.query.model import StarQuery

from tests.conftest import build_random_graph, scorer_for
from tests.join_oracle import ReferenceJoin, reference_merge
from tests.oracle import assert_against_oracle, oracle_matches, rounded_scores

#: Larger than any match count below: the pool never fills, so every
#: combination the join forms is admitted and ``ranked()`` shows them all.
EVERYTHING = 1_000_000


def ranked(matches):
    return [(m.score, m.key()) for m in matches]


def cycle(n: int, first: str = "?") -> Query:
    """An *n*-cycle of variable nodes; *first* labels node 0."""
    query = Query(name=f"cycle{n}")
    for i in range(n):
        query.add_node("?" if i else first)
    for i in range(n):
        query.add_edge(i, (i + 1) % n)
    return query


def path(n: int, first: str = "?") -> Query:
    query = Query(name=f"path{n}")
    for i in range(n):
        query.add_node("?" if i else first)
    for i in range(n - 1):
        query.add_edge(i, i + 1)
    return query


def stars_at(query: Query, pivots) -> Decomposition:
    """Decompose *query* at exactly these pivots, in this order; an edge
    goes to the first listed pivot it touches."""
    owned = {pivot: [] for pivot in pivots}
    for edge in query.edges:
        owner = next(p for p in pivots if p in (edge.src, edge.dst))
        owned[owner].append(edge)
    stars = [
        StarQuery(query.nodes[pivot],
                  [(query.nodes[e.other(pivot)], e) for e in edges],
                  name=f"{query.name}*{pivot}")
        for pivot, edges in owned.items()
    ]
    return Decomposition(stars, list(pivots), "manual")


def assert_same_join(scorer, decomposition, k, d=1, alpha=0.5,
                     injective=True):
    """Run both joins on *decomposition*; returns ``(engine, reference)``."""
    engine = StarJoin(scorer, d=d, alpha=alpha, injective=injective)
    got = engine.join(decomposition, k)
    reference = ReferenceJoin(scorer, d=d, alpha=alpha, injective=injective)
    want = reference.join(decomposition, k)
    assert ranked(got) == ranked(want)
    assert engine.last_depths == reference.last_depths
    assert engine.last_offered == len(reference.offered)
    assert engine.last_joins_attempted <= reference.last_joins_attempted
    return engine, reference


# ----------------------------------------------------------------------
# Fixture grid
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def yago_queries(yago_graph):
    return (complex_workload(yago_graph, 2, shape=(4, 4), seed=41)
            + complex_workload(yago_graph, 1, shape=(3, 3), seed=42))


class TestAgainstNestedLoop:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("injective", [True, False])
    @pytest.mark.parametrize("method", METHODS)
    def test_yago(self, yago_scorer, yago_queries, method, injective, d):
        joined = 0
        for query in yago_queries:
            decomposition = decompose(query, method=method,
                                      scorer=yago_scorer)
            if decomposition.num_stars < 2:
                continue
            for alpha in (0.0, 0.5, 1.0):
                assert_same_join(yago_scorer, decomposition, 5, d=d,
                                 alpha=alpha, injective=injective)
                joined += 1
        assert joined

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("injective", [True, False])
    @pytest.mark.parametrize("method", METHODS)
    def test_movie(self, movie_scorer, method, injective, d):
        for query in (cycle(3), cycle(4)):
            decomposition = decompose(query, method=method,
                                      scorer=movie_scorer)
            assert decomposition.num_stars >= 2
            for alpha in (0.0, 0.5, 1.0):
                assert_same_join(movie_scorer, decomposition, 5, d=d,
                                 alpha=alpha, injective=injective)


# ----------------------------------------------------------------------
# Shapes the benchmark never produces (its queries are all two stars)
# ----------------------------------------------------------------------

class TestHandBuiltShapes:
    def test_three_star_chain_with_unrelated_first_partner(
        self, movie_scorer
    ):
        """Stars {0,1,2} {2,3,4} {4,5,6}: a new match of the last star
        meets the first star with no node in common, so that partner is
        scanned whole before the middle star is probed on both sides."""
        query = path(7)
        decomposition = stars_at(query, [1, 3, 5])
        first, _middle, last = (set(s.node_ids())
                                for s in decomposition.stars)
        assert not first & last
        for k in (5, EVERYTHING):
            assert_same_join(movie_scorer, decomposition, k)
        # k = EVERYTHING drained every stream, so the join enumerated
        # the query's whole match set.
        want = brute_force_topk(movie_scorer, query, EVERYTHING)
        got = StarJoin(movie_scorer).join(decomposition, EVERYTHING)
        assert rounded_scores(got) == rounded_scores(want)
        assert {m.key() for m in got} == {m.key() for m in want}

    @pytest.mark.parametrize("injective", [True, False])
    def test_five_cycle(self, movie_scorer, injective):
        query = cycle(5)
        decomposition = stars_at(query, [0, 2, 3])
        assert decomposition.num_stars == 3
        assert decomposition.joint_nodes() == {1, 3, 4}
        for k in (3, EVERYTHING):
            assert_same_join(movie_scorer, decomposition, k,
                             injective=injective)
        got = StarJoin(movie_scorer, injective=injective).join(
            decomposition, 8)
        want = brute_force_topk(movie_scorer, query, 8,
                                injective=injective)
        assert rounded_scores(got) == rounded_scores(want)

    def test_second_shared_node_disagrees(self, movie_scorer):
        """Two stars sharing leaves 1 and 3: the bucket is chosen on one
        of them, the other is checked on each candidate.  Without
        injectivity a disagreement there is the only way an attempt
        can fail."""
        decomposition = stars_at(cycle(4), [0, 2])
        assert decomposition.joint_nodes() == {1, 3}
        engine, _ = assert_same_join(movie_scorer, decomposition,
                                     EVERYTHING, injective=False)
        assert engine.last_joins_attempted > engine.last_offered > 0

    def test_absent_bucket_costs_no_attempt(self, movie_scorer):
        decomposition = stars_at(cycle(4), [0, 2])
        engine, reference = assert_same_join(movie_scorer, decomposition, 3)
        assert engine.last_probe_misses > 0
        assert engine.last_joins_attempted < reference.last_joins_attempted

    def test_star_with_zero_matches(self, movie_scorer):
        query = Query(name="impossible")
        a = query.add_node("?")
        b = query.add_node("?")
        c = query.add_node("zzzz-does-not-exist-zzzz")
        d = query.add_node("?")
        for src, dst in ((a, b), (b, c), (c, d), (d, a)):
            query.add_edge(src, dst)
        # the matchless star second: its plan proves it empty before any
        # stream is primed, so not even the first star is fetched
        decomposition = stars_at(query, [a, c])
        engine, _ = assert_same_join(movie_scorer, decomposition, 3)
        assert engine.last_depths == [0, 0]
        assert engine.last_joins_attempted == 0


class TestProbe:
    """``_StarStream.probe`` on hand-made matches (joint nodes 1 and 3)."""

    @staticmethod
    def stream(assignments):
        matches = [Match(1.0, dict(a), {}, {}, {}) for a in assignments]
        stream = _StarStream(None, iter(matches), [1, 3])
        for seq in range(len(matches)):
            stream.fetch(seq)
        return stream

    def test_smallest_bound_bucket_in_sequence_order(self):
        stream = self.stream([
            {0: 10, 1: 7, 3: 8}, {0: 11, 1: 7, 3: 9}, {0: 12, 1: 6, 3: 9},
            {0: 13, 1: 7, 3: 9},
        ])
        assert [seq for seq, _ in stream.probe({1: 7})] == [0, 1, 3]
        assert [seq for seq, _ in stream.probe({1: 7, 3: 8})] == [0]
        assert [seq for seq, _ in stream.probe({3: 9, 5: 7})] == [1, 2, 3]

    def test_absent_bucket(self):
        stream = self.stream([{0: 10, 1: 7, 3: 8}])
        assert stream.probe({1: 99}) is None
        assert stream.probe({1: 7, 3: 99}) is None

    def test_no_bound_joint_node_scans_fetched(self):
        stream = self.stream([{0: 10, 1: 7, 3: 8}, {0: 11, 1: 6, 3: 8}])
        assert stream.probe({0: 10, 5: 7}) is stream.fetched


class TestConsistentWith:
    def make(self, assignment):
        return Match(1.0, dict(assignment), {}, {}, {})

    @pytest.mark.parametrize("mine,theirs", [
        ({0: 5, 1: 6}, {1: 6, 2: 7}),   # joins
        ({0: 5, 1: 6}, {1: 9, 2: 7}),   # disagrees on node 1
        ({0: 5, 1: 6}, {1: 6, 2: 5}),   # agrees, but 0 and 2 collide
        ({0: 5, 1: 6}, {2: 7, 3: 7}),   # disjoint, other not one-to-one
        ({0: 5, 1: 6}, {0: 5, 1: 6}),   # identical
        ({0: 5}, {1: 6}),               # nothing shared
    ])
    def test_decides_what_merge_then_is_injective_did(self, mine, theirs):
        a, b = self.make(mine), self.make(theirs)
        merged = reference_merge(a, b)
        assert a.consistent_with(b) == (merged is not None)
        assert a.consistent_with(b, injective=True) == (
            merged is not None and merged.is_injective()
        )
        assert (a.merge(b) is None) == (merged is None)
        if merged is not None:
            assert a.merge_checked(b).assignment == merged.assignment


# ----------------------------------------------------------------------
# Property: brute force, theta, single offer
# ----------------------------------------------------------------------

@contextmanager
def recording():
    """Run joins with a pool that logs ``(key, theta afterwards)`` of
    every offer it receives; yields the log."""
    log = []

    class RecordingPool(ScoredPool):
        def offer(self, score, item):
            super().offer(score, item)
            log.append((item.key(), self.theta()))

    with mock.patch.object(starjoin_module, "ScoredPool", RecordingPool):
        yield log


#: The random graphs these tests join over: small, so brute force is
#: cheap on every shape.
small_graph = functools.partial(build_random_graph, num_nodes=14,
                                num_edges=30)


SHAPES = {
    "triangle": (cycle, 3),
    "cycle4": (cycle, 4),
    "path4": (path, 4),
    "cycle5": (cycle, 5),
}


class TestJoinProperties:
    @given(
        seed=st.integers(min_value=0, max_value=30),
        shape=st.sampled_from(sorted(SHAPES)),
        method=st.sampled_from(["rand", "maxdeg", "simsize"]),
        alpha=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        injective=st.booleans(),
        k=st.integers(min_value=1, max_value=6),
        anchored=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_monotone_theta_and_single_offer(
        self, seed, shape, method, alpha, injective, k, anchored
    ):
        scorer = scorer_for(seed, graph=small_graph)
        build, size = SHAPES[shape]
        # all-wildcard queries tie almost everywhere; an anchor spreads
        # the scores so the bounds have work to do
        query = build(size, "Brad" if anchored else "?")
        decomposition = decompose(query, method=method, scorer=scorer)
        if decomposition.num_stars < 2:  # path4 under a lucky pivot
            decomposition = stars_at(query, [1, 2])

        # top-k against brute force, through the framework
        assert_against_oracle("starjoin", scorer, query, k, alpha=alpha,
                              method=method, injective=injective)

        join = StarJoin(scorer, alpha=alpha, injective=injective)
        with recording() as log:
            join.join(decomposition, k)
        thetas = [theta for _key, theta in log]
        assert thetas == sorted(thetas)

        # never-full pool: every combination formed is logged, each
        # assignment once, and together they are the whole match set
        with recording() as log:
            join.join(decomposition, EVERYTHING)
        keys = [key for key, _theta in log]
        assert len(keys) == join.last_offered
        assert len(keys) == len(set(keys))
        full = oracle_matches(scorer, query, injective=injective)
        assert set(keys) == {m.key() for m in full}
        assert_same_join(scorer, decomposition, k, alpha=alpha,
                         injective=injective)


# ----------------------------------------------------------------------
# Counter gate (no wall clock)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def general_pool():
    """bench_e2e's ``general_join`` pool at smoke scale (its graph, pool
    seed and shapes, two queries per shape)."""
    graph = dbpedia_like(scale=0.15, seed=7)
    queries = []
    for offset, shape in enumerate(((3, 3), (4, 4), (5, 4))):
        queries.extend(complex_workload(graph, 2, shape=shape,
                                        seed=2016 * 31 + offset))
    return graph, queries


class TestJoinCostGate:
    K = 10

    def test_attempts_bounded_by_depth(self, general_pool):
        """A probe examines the partners that share a data node with the
        new match, not the partner's whole list: attempts stay within a
        small multiple of the depth (the nested loop read up to 400x)."""
        graph, queries = general_pool
        engine = Star(graph)
        joined = 0
        for query in queries:
            engine.search(query, self.K)
            stats = engine.last_engine_stats
            if stats.algorithm != "starjoin":
                continue
            joined += 1
            assert stats.join_depth >= 2
            assert stats.joins_attempted <= 4 * stats.join_depth + self.K, (
                query.name, stats.joins_attempted, stats.join_depth
            )
        assert joined

    def test_join_builds_only_consistent_pairs(self, general_pool):
        """The join never leaves it to ``merge`` to find a mismatch: it
        builds from pairs it has already checked."""
        graph, queries = general_pool
        built = []
        merge_checked = Match.merge_checked

        def counting(self, other):
            built.append(reference_merge(self, other) is None)
            return merge_checked(self, other)

        engine = Star(graph)
        with mock.patch.object(Match, "merge_checked", counting), \
                mock.patch.object(Match, "merge") as merge:
            for query in queries:
                engine.search(query, self.K)
        assert built and not any(built)
        merge.assert_not_called()
