"""``stard`` touches only what it reads -- and reads the same values.

Three exact shortcuts of the d-bounded path are checked against
references written here, independent of the code under test:

(i)   the last propagation round *pulled* at a pivot candidate's row
      equals the pushed round wherever it is read;
(ii)  the leaf provider's last hop, read off the frontier's rows through
      a mask of the leaf map, finds exactly the candidates at shortest
      distance d;
(iii) leaf lists cut to their best ``k + s`` entries yield the same first
      ``k`` matches per pivot, ties and assignments included;
(iv)  end to end, every d=2 procedure still meets the brute-force oracle.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.framework import Star
from repro.core.lattice import PivotMatchGenerator, make_leaf_list
import numpy as np

from repro.core.messages import propagate, pull
from repro.core.stark import bounded_leaf_provider
from repro.graph import KnowledgeGraph
from repro.graph.columns import Columns
from repro.graph.traversal import nodes_within
from repro.obs import EngineStats as SearchStats
from repro.query import star_query
from repro.shard import ShardedEngine

from tests.conftest import build_movie_graph, build_random_graph, scorer_for
from tests.oracle import assert_matches_meet_oracle
from tests.test_message_kernels import Top2, as_top2

#: One fixed profile: the same examples on every run.
PROFILE = settings(max_examples=60, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# (i) pull == push where it is read
# ---------------------------------------------------------------------------
class Adjacency:
    """The part of a graph the kernels read -- neighbour lists and their
    id columns; unlike :class:`KnowledgeGraph` it accepts self-loops."""

    def __init__(self, num_nodes, edges):
        self.adj = [[] for _ in range(num_nodes)]
        for eid, (a, b) in enumerate(edges):
            self.adj[a].append((b, eid))
            if a != b:
                self.adj[b].append((a, eid))

    def neighbors(self, node):
        return self.adj[node]

    def columns(self):
        lengths = [len(row) for row in self.adj]
        indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        indices = np.array([nbr for row in self.adj for nbr, _eid in row],
                           dtype=np.int64)
        return Columns(indptr, indices)


def pushed_layers(graph, seeds, d):
    """Every round pushed to every neighbour (the pre-pull loop)."""
    layers = [{node: Top2(score, node) for node, score in seeds.items()}]
    for _round in range(d):
        nxt = {}
        for node, top2 in layers[-1].items():
            for nbr, _eid in graph.neighbors(node):
                if nbr in nxt:
                    nxt[nbr].merge(top2)
                else:
                    nxt[nbr] = Top2(top2.s1, top2.o1)
                    nxt[nbr].s2, nxt[nbr].o2 = top2.s2, top2.o2
        layers.append(nxt)
    return layers


def read_out(top2, node):
    """Everything an estimate can read of a node's entry."""
    if top2 is None:
        return None
    return top2.s1, top2.best_excluding(node), top2.best_excluding(None)


def pulled_read_out(layer, graph, node):
    """:func:`read_out` of the round pulled at *node* (``-inf`` is a
    merge holding only *node*'s own messages)."""
    at = np.array([node])
    best, reached = pull(graph.columns(), layer, at, False)
    if not reached[0]:
        return None
    excluding = pull(graph.columns(), layer, at, True)[0][0]
    return (best[0], None if excluding == float("-inf") else excluding,
            best[0])


@st.composite
def propagation_cases(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    nodes = st.integers(min_value=0, max_value=n - 1)
    # pairs may repeat (parallel edges) and may be (v, v) (self-loops)
    edges = draw(st.lists(st.tuples(nodes, nodes), max_size=14))
    seeds = draw(st.dictionaries(
        nodes, st.sampled_from([0.3, 0.5, 0.5, 0.9]), max_size=n))
    targets = draw(st.one_of(
        st.just([]), st.just(list(range(n))),
        st.lists(nodes, unique=True, max_size=n)))
    return Adjacency(n, edges), n, seeds, targets


class TestPulledLastRound:
    @given(case=propagation_cases(), d=st.sampled_from([1, 2, 3]))
    @PROFILE
    def test_pull_equals_push_where_it_is_read(self, case, d):
        graph, n, seeds, targets = case
        want = pushed_layers(graph, seeds, d)
        layers = propagate(graph, seeds, d - 1)
        got = [as_top2(layer) for layer in layers]
        assert len(got) == d
        for hops in range(d):
            assert got[hops].keys() == want[hops].keys()
            for node in range(n):
                assert read_out(got[hops].get(node), node) == \
                    read_out(want[hops].get(node), node)
        for node in targets:
            assert pulled_read_out(layers[d - 1], graph, node) == \
                read_out(want[d].get(node), node)

    def test_no_targets_pushes_every_round(self):
        graph = Adjacency(3, [(0, 1), (1, 2)])
        assert set(propagate(graph, {0: 0.9}, 2)[2].reached()) == {0, 2}


# ---------------------------------------------------------------------------
# (ii) last hop == shortest distance d
# ---------------------------------------------------------------------------
def movie_or_random(seed) -> KnowledgeGraph:
    """The movie graph for seed None, else a random graph."""
    return build_movie_graph() if seed is None else build_random_graph(seed)


def scorer_of(seed, edge_threshold=0.05):
    return scorer_for(seed, graph=movie_or_random,
                      edge_threshold=edge_threshold)


STAR = star_query(
    "Brad", [("acted_in", "Troy"), ("won", "?"), ("acted_in", "Troy")],
    pivot_type="actor")  # leaves 0 and 2 share one constraint


def reference_lists(scorer, star, weights, d, leaf_maps, pivot):
    """Per-leaf entry sets from ``nodes_within`` distances alone."""
    graph = scorer.graph
    distance = nodes_within(graph, pivot, d)
    threshold = scorer.config.edge_threshold
    lists = []
    for (leaf, edge), leaf_scores in zip(star.leaves, leaf_maps):
        entries = set()
        for w, node_score in leaf_scores.items():
            hops = distance.get(w)
            if not hops:  # out of reach, or the pivot itself
                continue
            if hops == 1:
                edge_score = max(
                    scorer.relation_score(
                        edge.descriptor, graph.edge(eid)[2].relation)
                    for nbr, eid in graph.neighbors(pivot) if nbr == w)
            else:
                edge_score = scorer.path.decay(hops)
            if edge_score >= threshold:
                entries.add((weights.get(leaf.id, 1.0) * node_score
                             + edge_score, w, node_score, edge_score, hops))
        lists.append(entries)
    return lists


@st.composite
def leaf_map_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=12))
    # path_lambda is 0.5: 0.3 cuts hop 3, 0.6 cuts hop 2 as well
    threshold = draw(st.sampled_from([0.05, 0.3, 0.6]))
    scorer = scorer_of(seed, threshold)
    nodes = sorted(scorer.graph.nodes())
    score = st.sampled_from([0.4, 0.7, 1.0])
    one_map = st.one_of(
        st.just({}),
        st.dictionaries(st.sampled_from(nodes), score, min_size=1,
                        max_size=1),
        st.fixed_dictionaries({node: score for node in nodes}),
        st.dictionaries(st.sampled_from(nodes), score, max_size=12),
    )
    shared = draw(one_map)
    leaf_maps = [shared, draw(one_map), shared]
    weights = draw(st.sampled_from([{}, {1: 0.5, 2: 2.0}]))
    return scorer, leaf_maps, weights, draw(st.sampled_from(nodes))


class TestRestrictedLastHop:
    @given(case=leaf_map_cases(), d=st.sampled_from([2, 3]),
           injective=st.booleans())
    @PROFILE
    def test_entries_equal_the_distance_reference(self, case, d, injective):
        scorer, leaf_maps, weights, pivot = case
        want = reference_lists(scorer, STAR, weights, d, leaf_maps, pivot)
        # the counter: inner-BFS nodes + last-hop candidates reached,
        # once per distinct leaf map
        distance = nodes_within(scorer.graph, pivot, d)
        reached = len(nodes_within(scorer.graph, pivot, d - 1))
        if scorer.path.decay(d) >= scorer.config.edge_threshold:
            distinct = {id(leaf_scores): leaf_scores
                        for leaf_scores in leaf_maps}
            reached += sum(distance.get(w) == d
                           for leaf_scores in distinct.values()
                           for w in leaf_scores)
        stats = SearchStats()
        provide = bounded_leaf_provider(
            scorer, STAR, weights, d, injective, leaf_maps=leaf_maps,
            traversal_stats=stats)
        for _again in range(2):  # the leaf maps' masks are reused
            got = provide(pivot)
            assert [len(entries) for entries in got] == \
                [len(entries) for entries in want]
            assert [set(entries) for entries in got] == want
        assert stats.nodes_traversed == 2 * reached

    def test_last_hop_below_the_edge_threshold_is_not_walked(self):
        scorer = scorer_of(3, 0.6)
        everyone = {node: 1.0 for node in scorer.graph.nodes()}
        stats = SearchStats()
        provide = bounded_leaf_provider(
            scorer, STAR, {}, 2, True, leaf_maps=[everyone] * 3,
            traversal_stats=stats)
        lists = provide(0)
        assert all(hops == 1 for entries in lists
                   for _c, _w, _n, _e, hops in entries)
        assert stats.nodes_traversed == len(nodes_within(scorer.graph, 0, 1))


# ---------------------------------------------------------------------------
# (iii) the best k + s entries of every list are enough
# ---------------------------------------------------------------------------
PIVOT = 0


@st.composite
def leaf_list_cases(draw):
    s = draw(st.sampled_from([1, 2, 3]))
    # a small universe makes the lists overlap; node 0 is the pivot
    # itself, as a self-loop would offer it
    node = st.integers(min_value=0, max_value=14)
    raw_lists = []
    for _pos in range(s):
        scores = draw(st.dictionaries(
            node, st.sampled_from([0.5, 0.7, 0.9]), min_size=1, max_size=15))
        raw_lists.append([(score + 0.5, w, score, 0.5, 2)
                          for w, score in scores.items()])
    return raw_lists


def first_matches(raw_lists, keep, k, injective):
    generator = PivotMatchGenerator(
        100, PIVOT, 1.0, 1.0,
        [(101 + pos, 201 + pos) for pos in range(len(raw_lists))],
        [make_leaf_list(entries, keep) for entries in raw_lists],
        injective=injective,
    )
    found = []
    while len(found) < k:
        match = generator.next_match()
        if match is None:
            break
        found.append((match.score, sorted(match.assignment.items())))
    return found


class TestCollisionSlack:
    @given(raw_lists=leaf_list_cases(), k=st.sampled_from([1, 3, 10]),
           injective=st.booleans())
    @PROFILE
    def test_truncated_lists_emit_the_same_first_k(
            self, raw_lists, k, injective):
        keep = k + len(raw_lists)
        assert first_matches(raw_lists, keep, k, injective) == \
            first_matches(raw_lists, None, k, injective)

    def test_keep_is_a_prefix_of_the_full_order(self):
        entries = [(0.9, 7, 0.4, 0.5, 2), (0.9, 3, 0.4, 0.5, 2),
                   (1.2, 9, 0.7, 0.5, 2), (0.9, 5, 0.4, 0.5, 2),
                   (0.6, 1, 0.1, 0.5, 2)]
        full = [(e.combined, e.node) for e in make_leaf_list(entries)]
        assert full == [(1.2, 9), (0.9, 3), (0.9, 5), (0.9, 7), (0.6, 1)]
        for keep in range(1, 7):
            cut = [(e.combined, e.node)
                   for e in make_leaf_list(entries, keep)]
            assert cut == full[:keep]

    def test_slack_of_s_is_needed(self):
        # the two best entries of list 1 collide with leaf 0 and with
        # the pivot: the top-1 match sits at rank 2 = k + s - 1
        raw_lists = [[(1.0, 5, 0.5, 0.5, 2)],
                     [(1.0, 5, 0.5, 0.5, 2), (0.9, PIVOT, 0.4, 0.5, 2),
                      (0.8, 6, 0.3, 0.5, 2), (0.7, 7, 0.2, 0.5, 2)]]
        want = first_matches(raw_lists, None, 1, True)
        assert want[0][1][-1] == (102, 6)
        assert first_matches(raw_lists, 1 + 2, 1, True) == want
        assert first_matches(raw_lists, 1 + 1, 1, True) == []


# ---------------------------------------------------------------------------
# (iv) the procedures still meet the oracle at d = 2
# ---------------------------------------------------------------------------
STARS = [
    star_query("Brad", [("acted_in", "?")], pivot_type="actor"),
    star_query("?", [("acted_in", "Troy"), ("won", "?")], pivot_type="actor"),
    star_query("Brad", [("?", "?"), ("directed", "?"), ("?", "?")]),
]

CELLS = [("stard", None), ("stard", 2), ("stark", None), ("stark", 2)]


@pytest.mark.parametrize("algorithm,shards", CELLS)
@pytest.mark.parametrize("seed", [None, 1, 4])
def test_d2_procedures_meet_brute_force(algorithm, shards, seed):
    scorer = scorer_of(seed)
    options = {"d": 2, "algorithm": algorithm}
    engine = (Star(scorer.graph, scorer=scorer, **options)
              if shards is None else
              ShardedEngine(scorer.graph, scorer=scorer, shards=shards,
                            backend="serial", **options))
    try:
        for star in STARS:
            for k in (1, 5, 20):  # below and above the usual list length
                assert_matches_meet_oracle(
                    engine.search(star, k), scorer, star, k, d=2,
                    label=f"{algorithm}(k={k}, shards={shards})")
    finally:
        if shards is not None:
            engine.close()
