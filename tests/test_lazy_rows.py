"""Lazy row reads: a star plan bounds every pivot candidate from the id
columns, and the shared Lemma-1 loop reads a pivot's row only when its
column bound reaches the head of the pivot queue
(:func:`repro.core.stark.column_bounds`, :meth:`StarKSearch.stream`).

The reference kept here is the eager plan: every candidate's row read up
front, in candidate order, its row bound standing in for the column
bound.  Every cell -- d = 1, 2, 3; injective or not; directed (d = 1);
with or without a candidate limit; untyped wildcard leaves; parallel
edges; in memory, mmap at base, mmap after overlay writes, in memory
after writes -- must

* give the eager plan's answers (and brute force's without a limit);
* evaluate the same pivots in the same order, with the same lattice
  pops;
* hold column bound >= row bound >= top-1 for every pivot;
* read only rows of pivots whose column bound beat the match queue's
  head when they popped, in column-bound order, and count each read.

Under a tripping budget the rows read are still a prefix of that order,
each charged one node at d = 1, and every answer is a true match.  A
fault in the column read is a candidate-setup fault.  Off a store, no
adjacency row is materialised and only the rows read are packed.
starjoin's id-level cut joins exactly as the unreduced join does
(:mod:`tests.join_oracle`).
"""

import random
from typing import Dict, List, Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import brute_force_star
from repro.core import StarDSearch, StarKSearch
from repro.core import stark as stark_module
from repro.core import starjoin as starjoin_module
from repro.core.lattice import PivotMatchGenerator
from repro.core.stark import (
    bounded_leaf_provider, column_bounds, hop_one_reader,
    leaf_candidate_maps,
)
from repro.errors import DataCorruptionError, InjectedFaultError
from repro.graph import KnowledgeGraph
from repro.query import StarQuery, star_query, star_workload
from repro.runtime import Budget, FaultSpec, faulty
from repro.similarity import ScoringFunction
from repro.store import open_graph, write_store

from tests.conftest import build_random_graph, star_of
from tests.join_oracle import ReferenceJoin
from tests.oracle import assert_same_results, oracle_matches, rounded_scores
from tests.test_joint_semijoin import SHAPES, TYPES, shape_query

NUM_NODES, NUM_EDGES = 40, 90

#: Named and typed leaves, untyped ``?`` leaves (no map at d = 1),
#: wildcard and named pivots.
STARS = (
    ("?", "film", [("acted_in", "Brad", ""), ("won", "?", "award")]),
    ("?", "actor", [("acted_in", "Troy", "")]),
    ("?", "", [("?", "Oscar", ""), ("?", "?", "")]),
    ("Brad", "", [("?", "?", "film"), ("married_to", "Angelina", "")]),
    ("?", "director", [("directed", "?", "film"), ("won", "Globe", ""),
                       ("?", "?", "")]),
)

BACKINGS = ("memory", "memory_written", "mmap", "mmap_written")


def build_graph(seed: int) -> KnowledgeGraph:
    """A random graph with a parallel edge of another label beside some
    of its edges."""
    graph = build_random_graph(seed, NUM_NODES, NUM_EDGES)
    rng = random.Random(seed)
    for edge_id, src, dst in list(graph.edges())[::7]:
        graph.add_edge(src, dst, rng.choice(["won", "married_to"]))
    return graph


def write(graph, scorer, seed: int) -> None:
    """Pack some rows with a search, then insert and remove edges."""
    StarKSearch(scorer).search(star_of(seed % len(STARS), STARS), 3)
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    for _ in range(8):
        src, dst = rng.sample(nodes, 2)
        graph.add_edge(src, dst, rng.choice(["acted_in", "won"]))
    for _ in range(6):
        live = [eid for eid, _src, _dst in graph.edges()]
        graph.remove_edge(rng.choice(live))
    scorer.refresh()


@pytest.fixture(scope="module")
def open_backing(tmp_path_factory):
    """``(seed, backing) -> scorer`` over a fresh graph of *seed*: in
    memory or mmap-opened off its store, written to or not."""
    root = tmp_path_factory.mktemp("lazy_rows")
    stores: Dict[int, object] = {}

    def open_(seed: int, backing: str) -> ScoringFunction:
        if backing.startswith("memory"):
            graph = build_graph(seed)
        else:
            if seed not in stores:
                stores[seed] = root / f"g{seed}.rkgs2"
                write_store(build_graph(seed), stores[seed])
            graph = open_graph(stores[seed])
        scorer = ScoringFunction(graph)
        if backing.endswith("written"):
            write(graph, scorer, seed)
        return scorer

    return open_


class Log:
    """The match queue as the loop sees it: every match a generator
    gives is pushed, every match the stream yields is popped."""

    active: Optional["Log"] = None
    real_next = PivotMatchGenerator.next_match

    def __init__(self) -> None:
        self.queued: Dict[int, float] = {}

    def head(self) -> Optional[float]:
        return max(self.queued.values(), default=None)

    @staticmethod
    def next_match(gen):
        match = Log.real_next(gen)
        if match is not None and Log.active is not None:
            Log.active.queued[id(match)] = match.score
        return match


class Watched:
    """Mixin: log the column bounds, every row read (with the queue head
    when it popped), every evaluation and the nodes the plan charged."""

    def plan(self, star, node_weights=None, budget=None):
        self.log = Log.active = Log()
        self.reads: List[tuple] = []
        self.evaluated: List[int] = []
        plan = super().plan(star, node_weights, budget)
        self.planned_nodes = None if budget is None else budget.nodes_visited
        self.pivots = None if plan is None else plan.pivots
        if plan is None or plan.reader is None:
            self.columns = None
            return plan
        self.columns = plan.bounds
        reader = plan.reader

        def read(index):
            self.reads.append((index, self.log.head()))
            return reader(index)

        return plan._replace(reader=read)

    def build_generator(self, star, pivot_node, *args, **kwargs):
        self.evaluated.append(pivot_node)
        return super().build_generator(star, pivot_node, *args, **kwargs)

    def stream(self, *args, **kwargs):
        for match in super().stream(*args, **kwargs):
            self.log.queued.pop(id(match), None)
            yield match


class Eager(Watched):
    """Reference: every candidate's row read up front, in candidate
    order; the row bounds stand in for the column bounds."""

    def plan(self, star, node_weights=None, budget=None):
        plan = super().plan(star, node_weights, budget)
        if plan is None or plan.reader is None:
            return plan
        self.rows = [plan.reader(index) for index in range(len(plan.pivots))]
        return plan._replace(bounds=self.rows, reader=self.rows.__getitem__)


class WatchedStarK(Watched, StarKSearch):
    pass


class WatchedStarD(Watched, StarDSearch):
    pass


class EagerStarK(Eager, StarKSearch):
    pass


class EagerStarD(Eager, StarDSearch):
    pass


def engines(scorer, d, injective, directed, candidate_limit):
    """``(lazy, eager)``: stark at d = 1, stard above."""
    if d == 1:
        opts = dict(injective=injective, directed=directed,
                    candidate_limit=candidate_limit)
        return WatchedStarK(scorer, **opts), EagerStarK(scorer, **opts)
    opts = dict(d=d, injective=injective, candidate_limit=candidate_limit)
    return WatchedStarD(scorer, **opts), EagerStarD(scorer, **opts)


def search(matcher, star, k, budget=None):
    with mock.patch.object(PivotMatchGenerator, "next_match",
                           Log.next_match):
        try:
            return matcher.search(star, k, budget=budget)
        finally:
            Log.active = None


def top1(scorer, star, d, injective, directed, pivots):
    """Each pivot's best match score, or None."""
    exact = StarKSearch(scorer, d=d, injective=injective,
                        directed=directed)
    if d == 1:
        provider = hop_one_reader(scorer, star, {}, leaf_candidate_maps(
            scorer, star, at_row=True), directed)
    else:
        provider = bounded_leaf_provider(scorer, star, {}, d, injective)
    scores = []
    for pivot, pivot_score in pivots:
        gen = exact.build_generator(star, pivot, pivot_score, {}, provider)
        first = None if gen is None else gen.next_match()
        scores.append(None if first is None else first.score)
    return scores


def assert_reads_follow_column_order(matcher) -> None:
    """The rows read are a prefix of the column-bound order, each of a
    pivot whose column bound beat the queue head when it popped."""
    if matcher.columns is None:
        assert not matcher.reads
        return
    order = sorted((-bound, index)
                   for index, bound in enumerate(matcher.columns)
                   if bound is not None)
    indices = [index for index, _head in matcher.reads]
    assert indices == [index for _neg, index in order[:len(indices)]]
    for index, head in matcher.reads:
        assert head is None or matcher.columns[index] > head + 1e-12


CELLS = dict(
    seed=st.integers(min_value=0, max_value=30),
    choice=st.integers(min_value=0, max_value=len(STARS) - 1),
    k=st.integers(min_value=1, max_value=6),
    d=st.sampled_from([1, 1, 2, 3]),
    injective=st.booleans(),
    directed=st.booleans(),
    candidate_limit=st.sampled_from([None, 5]),
    backing=st.sampled_from(BACKINGS),
)


class TestAgainstTheEagerPlan:
    @given(**CELLS)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_same_run_bounds_and_reads(self, open_backing, seed, choice, k,
                                       d, injective, directed,
                                       candidate_limit, backing):
        scorer = open_backing(seed, backing)
        directed = directed and d == 1
        star = star_of(choice, STARS)
        lazy, eager = engines(scorer, d, injective, directed,
                              candidate_limit)
        got = search(lazy, star, k)
        want = search(eager, star, k)
        assert_same_results(got, want)
        if candidate_limit is None:
            assert rounded_scores(got) == rounded_scores(brute_force_star(
                scorer, star, k, d=d, injective=injective,
                directed=directed))
        counters = ("pivots_considered", "pivots_evaluated",
                    "pivots_with_match", "lattice_pops")
        assert [getattr(lazy.stats, key) for key in counters] == \
            [getattr(eager.stats, key) for key in counters]
        assert lazy.evaluated == eager.evaluated

        # column bound >= row bound >= top-1, pivot by pivot
        assert lazy.pivots == eager.pivots
        tops = top1(scorer, star, d, injective, directed, lazy.pivots)
        for column, row, top in zip(lazy.columns, eager.rows, tops):
            if top is not None:
                assert row is not None and row >= top - 1e-9
            if row is not None:
                assert column is not None and column >= row

        assert_reads_follow_column_order(lazy)
        reads = len(lazy.reads)
        assert reads <= sum(bound is not None for bound in lazy.columns)
        # an evaluation reuses the lists its bound read gave, at every d
        assert lazy.stats.rows_read == reads
        # every evaluated pivot's row was read first
        read_nodes = {lazy.pivots[index][0] for index, _head in lazy.reads}
        assert set(lazy.evaluated) <= read_nodes

    @given(**CELLS, cap=st.integers(min_value=0, max_value=80))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_tripping_budget_reads_a_prefix(self, open_backing, seed, choice,
                                            k, d, injective, directed,
                                            candidate_limit, backing, cap):
        scorer = open_backing(seed, backing)
        directed = directed and d == 1
        star = star_of(choice, STARS)
        lazy, _eager = engines(scorer, d, injective, directed,
                               candidate_limit)
        budget = Budget(max_nodes=cap, anytime=True)
        got = search(lazy, star, k, budget)
        report = lazy.last_report
        scores = [m.score for m in got]
        assert scores == sorted(scores, reverse=True)
        truth = {m.key(): round(m.score, 9) for m in oracle_matches(
            scorer, star, d=d, injective=injective, directed=directed)}
        for match in got:
            assert truth[match.key()] == round(match.score, 9)
        if report.completed:
            exact = StarKSearch(scorer, d=d, injective=injective,
                                directed=directed,
                                candidate_limit=candidate_limit)
            assert rounded_scores(got) == rounded_scores(
                exact.search(star, k))
        else:
            assert report.reason is not None
        if lazy.pivots is None:  # a candidate fault: no plan
            return
        assert_reads_follow_column_order(lazy)
        # d = 1: one node per row read (and the one that tripped);
        # d >= 2: one per evaluation
        charged = budget.nodes_visited - lazy.planned_nodes
        paid = len(lazy.reads) if d == 1 else lazy.stats.pivots_evaluated
        assert paid <= charged <= paid + 1
        if report.completed:
            assert charged == paid


def reference_column_bounds(scorer, star, weights, pivots, leaf_maps):
    """The column bound as :func:`column_bounds` states it, walked pivot
    by pivot over ``graph.neighbors``: per leaf, the best ``w F_N(n) +
    F_E`` over every edge to a neighbour ``n`` in the leaf's map (``F_N``
    1 for an untyped leaf), the edge's relation passing the threshold."""
    graph = scorer.graph
    threshold = scorer.config.edge_threshold
    bounds = []
    for pivot, pivot_score in pivots:
        bound = weights.get(star.pivot.id, 1.0) * pivot_score
        for (leaf, edge), leaf_map in zip(star.leaves, leaf_maps):
            weight = weights.get(leaf.id, 1.0)
            best = float("-inf")
            for nbr, eid in graph.neighbors(pivot):
                if leaf_map is not None and nbr not in leaf_map:
                    continue
                edge_score = scorer.relation_score(
                    edge.descriptor, graph.edge(eid)[2].relation)
                if edge_score < threshold:
                    continue
                node_score = (leaf_map[nbr] if isinstance(leaf_map, dict)
                              else 1.0)
                best = max(best, weight * node_score + edge_score)
            bound += best
        bounds.append(None if bound == float("-inf") else bound)
    return bounds


WEIGHTS = st.sampled_from([{}, {0: 0.5, 1: 1.5, 2: 0.0, 3: 0.9}])


class TestColumnBounds:
    @given(seed=CELLS["seed"], choice=CELLS["choice"],
           backing=CELLS["backing"], weights=WEIGHTS,
           candidate_limit=CELLS["candidate_limit"])
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_equal_the_reference_float_for_float(
            self, open_backing, seed, choice, backing, weights,
            candidate_limit):
        scorer = open_backing(seed, backing)
        star = star_of(choice, STARS)
        plan = StarKSearch(scorer, candidate_limit=candidate_limit)._plan(
            star, weights, None)
        assert plan.bounds == reference_column_bounds(
            scorer, star, weights, plan.pivots, plan.leaf_maps)

    def test_either_side_gives_the_same_bounds(self):
        """A term is read off the pivots' rows or off the leaf map's rows
        turned around, whichever holds fewer entries; both happen here,
        and both equal the reference."""
        gathered = []
        real = stark_module._Rows.entries

        def spy(rows):
            gathered.append(rows.nodes.tolist())
            return real(rows)

        sides = set()
        for seed in range(6):
            scorer = ScoringFunction(build_graph(seed))
            for choice in range(len(STARS)):
                star = star_of(choice, STARS)
                search = StarKSearch(scorer)
                pivots = search._pivot_candidates(star)
                maps = leaf_candidate_maps(scorer, star, at_row=True)
                del gathered[:]
                with mock.patch.object(stark_module._Rows, "entries", spy):
                    got = column_bounds(scorer, star, {}, pivots, maps)
                assert got == reference_column_bounds(scorer, star, {},
                                                      pivots, maps)
                # the slot scratch is all -inf again between terms
                assert np.isneginf(stark_module._SCRATCH.slots).all()
                sides.update(
                    "pivots" if nodes == [node for node, _s in pivots]
                    else "map" for nodes in gathered)
        assert sides == {"pivots", "map"}


def test_a_column_bound_goes_before_an_equal_row_bound():
    """Two pivots with one score and one row bound, the second's column
    bound looser (directed: an edge the wrong way holds a better film).
    The second's row is read first; then the first's column bound ties
    the second's row bound and must go first, so the first is read and
    evaluated first -- candidate order among equal row bounds, as the
    eager plan evaluates them."""
    graph = KnowledgeGraph()
    first, second = (graph.add_node("Brad Pitt", "actor") for _ in range(2))
    films = [graph.add_node("Troy", "film") for _ in range(3)]
    graph.add_edge(first, films[0], "acted_in")
    graph.add_edge(second, films[1], "acted_in")
    graph.add_edge(films[2], second, "acted_in")
    graph.add_edge(graph.add_node("Oscar", "award"), first, "acted_in")
    for i in range(3):  # a higher degree: the wrong-way film scores more
        graph.add_edge(films[2], graph.add_node(f"Venice {i}", "place"),
                       "born_in")
    scorer = ScoringFunction(graph)
    star = star_query("Brad", [("acted_in", "Troy")], pivot_type="actor",
                      leaf_types=["film"])
    lazy = WatchedStarK(scorer, directed=True)
    eager = EagerStarK(scorer, directed=True)
    assert_same_results(search(lazy, star, 2), search(eager, star, 2))
    assert lazy.pivots[0][1] == lazy.pivots[1][1]
    assert eager.rows[0] == eager.rows[1] == lazy.columns[0]
    assert lazy.columns[1] > lazy.columns[0]
    assert [index for index, _head in lazy.reads] == [1, 0]
    assert lazy.evaluated == eager.evaluated == [first, second]


def test_the_lazy_loop_skips_rows(yago_graph):
    """The cells above are not vacuous: on the yago-like graph most stars
    read fewer rows than they have bounded pivots, at d = 1 and 2, and
    all of them together read under half."""
    scorer = ScoringFunction(yago_graph)
    reads = bounded = fewer = cells = 0
    for query in star_workload(yago_graph, 12, seed=54):
        star = StarQuery.from_query(query)
        for lazy in (WatchedStarK(scorer), WatchedStarD(scorer, d=2)):
            search(lazy, star, 5)
            columns = sum(bound is not None for bound in lazy.columns)
            reads += len(lazy.reads)
            bounded += columns
            fewer += len(lazy.reads) < columns
            cells += 1
    assert 2 * reads < bounded
    assert 2 * fewer >= cells


class TestColumnFaults:
    """The column read passes the ``graph.neighbors`` fault point once,
    in the plan, before any row: a fault there is a candidate-setup
    fault, recorded under an anytime budget and raised otherwise."""

    STAR = star_of(1, STARS)

    def scorer(self, specs):
        return faulty(ScoringFunction(build_graph(0)), specs=specs)

    @pytest.mark.parametrize("mode, error", [
        ("raise", InjectedFaultError), ("corrupt", DataCorruptionError)])
    def test_raised_without_an_anytime_budget(self, mode, error):
        spec = FaultSpec("graph.neighbors", at_call=0, mode=mode)
        with pytest.raises(error):
            StarKSearch(self.scorer([spec])).search(self.STAR, 3)

    def test_recorded_under_an_anytime_budget(self):
        spec = FaultSpec("graph.neighbors", at_call=0)
        scorer = self.scorer([spec])
        search = StarKSearch(scorer)
        assert search.search(self.STAR, 3, budget=Budget(anytime=True)) == []
        report = search.last_report
        assert report.degraded and report.faults == [
            "stark candidate setup: injected fault at graph.neighbors "
            "call #0"]
        # The columns were the only read: no row followed.
        assert scorer._injector.calls["graph.neighbors"] == 1
        assert search.stats.rows_read == 0


class TestMmapGuard:
    """A d = 1 search off a store bounds its pivots off ``csr.*``: no
    adjacency row is materialised, and only the rows read are packed."""

    def test_no_lazy_row_and_only_read_rows_packed(self, tmp_path,
                                                   yago_graph):
        write_store(yago_graph, tmp_path / "g.rkgs2")
        skipped = 0
        for query in star_workload(yago_graph, 6, seed=54):
            graph = open_graph(tmp_path / "g.rkgs2")
            lazy = WatchedStarK(ScoringFunction(graph))
            star = StarQuery.from_query(query)
            search(lazy, star, 5)
            assert not graph._adj._cache
            read = {lazy.pivots[index][0] for index, _head in lazy.reads}
            assert {key // 3 for key in graph._row_at} == read
            skipped += len(read) < len(lazy.pivots)
        assert skipped >= 4


class TestSerialShards:
    """Each shard's pivot scope bounds and reads within its scope, and
    the shards' merged answers are the unsharded eager plan's."""

    @given(seed=CELLS["seed"], choice=CELLS["choice"], k=CELLS["k"],
           directed=CELLS["directed"],
           candidate_limit=CELLS["candidate_limit"])
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_each_shard_reads_within_its_scope(self, seed, choice, k,
                                               directed, candidate_limit):
        from repro.shard import ShardedEngine

        graph = build_graph(seed)
        scorer = ScoringFunction(graph)
        star = star_of(choice, STARS)
        opts = dict(directed=directed, candidate_limit=candidate_limit)
        with ShardedEngine(graph, scorer=scorer, shards=2, backend="serial",
                           **opts) as engine:
            got = engine.search(star, k)
            for scope in engine._partition.owned:
                lazy = WatchedStarK(scorer, pivot_scope=scope, **opts)
                eager = EagerStarK(scorer, pivot_scope=scope, **opts)
                assert_same_results(search(lazy, star, k),
                                    search(eager, star, k))
                assert lazy.evaluated == eager.evaluated
                pivots = lazy._pivot_candidates(star)
                assert all(pivots[index][0] in scope
                           for index, _head in lazy.reads)
                assert_reads_follow_column_order(lazy)
        assert_same_results(got, search(EagerStarK(scorer, **opts), star, k))


def no_cut(*_args):
    return 0, 0, 0


JOIN_CELLS = dict(
    seed=st.integers(min_value=0, max_value=30),
    shape=st.sampled_from(sorted(SHAPES)),
    types=st.lists(st.sampled_from(TYPES), min_size=7, max_size=7).filter(
        lambda types: types.count("") <= 4),
    k=st.integers(min_value=1, max_value=6),
    injective=st.booleans(),
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
    directed=st.booleans(),
    candidate_limit=st.sampled_from([None, 5]),
    backing=st.sampled_from(BACKINGS),
)


class TestStarjoinCut:
    @given(**JOIN_CELLS)
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_reduced_joins_as_unreduced(self, open_backing, seed, shape,
                                        types, k, injective, alpha,
                                        directed, candidate_limit, backing):
        """The nested-loop reference over the cut streams ranks and, run
        to exhaustion, offers what it does over the uncut streams."""
        scorer = open_backing(seed, backing)
        _query, decomposition = shape_query(shape, types)
        options = dict(injective=injective, alpha=alpha, directed=directed,
                       candidate_limit=candidate_limit)
        reduced = ReferenceJoin(scorer, **options)
        unreduced = ReferenceJoin(scorer, **options)
        got = reduced.join(decomposition, k)
        with mock.patch.object(starjoin_module, "joint_semijoin", no_cut):
            want = unreduced.join(decomposition, k)
            unreduced.join(decomposition, 10 ** 6)
        assert rounded_scores(got) == rounded_scores(want)
        reduced.join(decomposition, 10 ** 6)
        assert {m.key() for m in reduced.offered} == {
            m.key() for m in unreduced.offered}
