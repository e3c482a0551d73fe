"""``stark``'s ``d == 1`` pivot semijoin: a pivot adjacent to no node of
one leaf's candidate map has an empty list for that leaf, so its row is
not read (:func:`repro.core.stark.pivot_semijoin`).

The reference kept here is the plan that reads every pivot's row.  Every
cell -- directed or not, injective or not, memory or mmap, with or
without a candidate limit, after edge insertions and removals on packed
rows, per shard, under a tripping anytime budget -- must give the same
bounds, the same answers and the same engine counters, and every pivot
the semijoin drops must read an empty leaf list.
"""

import random
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import StarKSearch
from repro.core.stark import (
    PivotPlan, hop_one_reader, leaf_candidate_maps, pivot_semijoin,
)
from repro.errors import DataCorruptionError, InjectedFaultError
from repro.graph import KnowledgeGraph
from repro.query import star_query
from repro.runtime import Budget, FaultSpec, faulty
from repro.shard import ShardedEngine
from repro.similarity import ScoringFunction
from repro.store import open_graph, write_store

from tests.conftest import build_random_graph
from tests.oracle import assert_same_results


class ReadEveryStarK(StarKSearch):
    """Reference: the ``d == 1`` plan reading every pivot's row."""

    def _plan(self, star, weights, budget):
        pivot_cands = self._pivot_candidates(star, budget=budget)
        leaf_maps = leaf_candidate_maps(self.scorer, star, budget=budget,
                                        at_row=True)
        bounds, read = self._read_pivots(
            star, weights, pivot_cands,
            hop_one_reader(self.scorer, star, weights, leaf_maps,
                           self.directed), budget)
        return PivotPlan(pivot_cands, bounds, read.pop, read)


#: Named and typed leaves (small maps), an untyped ``?`` leaf (no map),
#: wildcard and named pivots.
STARS = (
    ("?", "film", [("acted_in", "Brad", ""), ("won", "?", "award")]),
    ("?", "actor", [("acted_in", "Troy", "")]),
    ("?", "", [("?", "Oscar", ""), ("?", "?", "")]),
    ("Brad", "", [("?", "?", "film"), ("married_to", "Angelina", "")]),
    ("?", "director", [("directed", "?", "film"), ("won", "Globe", ""),
                       ("?", "?", "")]),
)

NUM_NODES, NUM_EDGES = 60, 120


def star_of(choice: int):
    pivot, pivot_type, leaves = STARS[choice]
    return star_query(pivot, [(rel, label) for rel, label, _t in leaves],
                      pivot_type=pivot_type,
                      leaf_types=[t for _r, _l, t in leaves])


@pytest.fixture(scope="module")
def open_backing(tmp_path_factory):
    """``(seed, backing) -> graph``: a fresh graph of *seed*, in memory
    or mmap-opened off its store (written on first use)."""
    root = tmp_path_factory.mktemp("semijoin")
    stores: Dict[int, object] = {}

    def open_(seed: int, backing: str) -> KnowledgeGraph:
        if backing == "memory":
            return build_random_graph(seed, NUM_NODES, NUM_EDGES)
        if seed not in stores:
            stores[seed] = root / f"g{seed}.rkgs2"
            write_store(build_random_graph(seed, NUM_NODES, NUM_EDGES),
                        stores[seed])
        return open_graph(stores[seed])

    return open_


def mutate(graph, scorer, star, seed: int) -> None:
    """Pack the star's rows with one search, then insert edges between
    pivot candidates and leaf candidates and remove random edges."""
    StarKSearch(scorer).search(star, 3)
    rng = random.Random(seed)
    pivots = [n for n, _s in StarKSearch(scorer)._pivot_candidates(star)]
    leaves = sorted({node for leaf_map in leaf_candidate_maps(
        scorer, star, at_row=True) if leaf_map for node in leaf_map})
    for _ in range(6):
        if pivots and leaves:
            src, dst = rng.choice(pivots), rng.choice(leaves)
            if src != dst:
                graph.add_edge(src, dst, rng.choice(["acted_in", "won"]))
    for _ in range(6):
        live = [eid for eid, _src, _dst in graph.edges()]
        graph.remove_edge(rng.choice(live))
    scorer.refresh()


def plan_of(search, star):
    """The plan's candidates, bounds and leaf lists by pivot read."""
    plan = search._plan(star, {}, None)
    return plan.pivots, plan.bounds, plan.read


def counters(search) -> List[int]:
    stats = search.stats
    return [stats.pivots_considered, stats.pivots_evaluated,
            stats.lattice_pops]


def reference_semijoin(graph, pivot_cands, leaf_maps):
    """The side-choosing rule, one ``degree`` call per node: the first
    leaf map whose total degree is the smallest, and below the pivots'
    total, gives the neighbour set; otherwise None."""
    cost = sum(graph.degree(node) for node, _score in pivot_cands)
    cheapest = None
    for leaf_map in leaf_maps:
        if leaf_map is None:
            continue
        total = sum(graph.degree(node) for node in leaf_map)
        if total < cost:
            cheapest, cost = leaf_map, total
    if cheapest is None:
        return None
    return {nbr for node in cheapest for nbr, _eid in graph.neighbors(node)}


def assert_dropped_pivots_read_empty(search, star) -> int:
    """The semijoin set is the reference rule's, and every pivot outside
    it reads an empty leaf list; returns how many were dropped."""
    scorer = search.scorer
    pivots = search._pivot_candidates(star)
    leaf_maps = leaf_candidate_maps(scorer, star, at_row=True)
    near = pivot_semijoin(search.graph, pivots, leaf_maps)
    assert near == reference_semijoin(search.graph, pivots, leaf_maps)
    if near is None:
        return 0
    read = hop_one_reader(scorer, star, {}, leaf_maps, search.directed)
    dropped = [node for node, _s in pivots if node not in near]
    for node in dropped:
        lists = read(node)
        assert lists and not lists[-1], node
    return len(dropped)


def assert_same_run(search, reference, star, k, budget_of=lambda: None):
    """Same plan, same answers, same counters (and budget outcome)."""
    assert plan_of(search, star) == plan_of(reference, star)
    budget, reference_budget = budget_of(), budget_of()
    got = search.search(star, k, budget=budget)
    want = reference.search(star, k, budget=reference_budget)
    assert_same_results(got, want)
    assert counters(search) == counters(reference)
    if budget is not None:
        assert search.last_report.reason == reference.last_report.reason
        assert budget.nodes_visited == reference_budget.nodes_visited


CELLS = dict(
    seed=st.integers(min_value=0, max_value=30),
    choice=st.integers(min_value=0, max_value=len(STARS) - 1),
    k=st.integers(min_value=1, max_value=6),
    injective=st.booleans(),
    directed=st.booleans(),
    backing=st.sampled_from(["memory", "mmap"]),
    candidate_limit=st.sampled_from([None, 5]),
    mutated=st.booleans(),
)


class TestAgainstReadEveryPivot:
    @given(**CELLS)
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_plan_answers_and_counters(self, open_backing, seed, choice, k,
                                       injective, directed, backing,
                                       candidate_limit, mutated):
        graph = open_backing(seed, backing)
        scorer = ScoringFunction(graph)
        star = star_of(choice)
        if mutated:
            mutate(graph, scorer, star, seed)
        opts = dict(injective=injective, directed=directed,
                    candidate_limit=candidate_limit)
        search = StarKSearch(scorer, **opts)
        assert_dropped_pivots_read_empty(search, star)
        assert_same_run(search, ReadEveryStarK(scorer, **opts), star, k)

    @given(**CELLS, cap=st.integers(min_value=1, max_value=200))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_anytime_budget_trips_where_it_did(
            self, open_backing, seed, choice, k, injective, directed, backing,
            candidate_limit, mutated, cap):
        graph = open_backing(seed, backing)
        scorer = ScoringFunction(graph)
        star = star_of(choice)
        if mutated:
            mutate(graph, scorer, star, seed)
        opts = dict(injective=injective, directed=directed,
                    candidate_limit=candidate_limit)
        assert_same_run(StarKSearch(scorer, **opts),
                        ReadEveryStarK(scorer, **opts), star, k,
                        lambda: Budget(max_nodes=cap, anytime=True))

    @given(seed=CELLS["seed"], choice=CELLS["choice"], k=CELLS["k"],
           directed=CELLS["directed"],
           candidate_limit=CELLS["candidate_limit"])
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_each_shard_drops_within_its_scope(self, seed, choice, k,
                                               directed, candidate_limit):
        graph = build_random_graph(seed, NUM_NODES, NUM_EDGES)
        scorer = ScoringFunction(graph)
        star = star_of(choice)
        opts = dict(directed=directed, candidate_limit=candidate_limit)
        with ShardedEngine(graph, scorer=scorer, shards=2, backend="serial",
                           **opts) as engine:
            got = engine.search(star, k)
            for scope in engine._partition.owned:
                search = StarKSearch(scorer, pivot_scope=scope, **opts)
                assert_dropped_pivots_read_empty(search, star)
                assert_same_run(
                    search, ReadEveryStarK(scorer, pivot_scope=scope, **opts),
                    star, k)
        want = ReadEveryStarK(scorer, **opts).search(star, k)
        assert_same_results(got, want)


def test_the_semijoin_drops_pivots():
    """The cells above are not vacuous: most stars drop pivots here."""
    dropped = []
    for seed in range(5):
        scorer = ScoringFunction(build_random_graph(seed, NUM_NODES,
                                                    NUM_EDGES))
        for choice in range(len(STARS)):
            dropped.append(assert_dropped_pivots_read_empty(
                StarKSearch(scorer), star_of(choice)))
    assert sum(count > 0 for count in dropped) >= len(dropped) * 3 // 4


def test_the_cheaper_side_is_walked():
    """The walk runs only from a leaf map whose total degree is below
    the pivot candidates' total degree."""
    graph = KnowledgeGraph()
    hub = graph.add_node("Hub", "film")
    for i in range(5):
        graph.add_edge(hub, graph.add_node(f"Brad {i}", "actor"), "acted_in")
    leaf_map = {node: 1.0 for node in range(1, 6)}
    assert pivot_semijoin(graph, [(hub, 1.0)], [leaf_map]) is None
    pivots = [(node, 1.0) for node in range(1, 6)] + [(hub, 1.0)]
    assert pivot_semijoin(graph, pivots, [None, {hub: 1.0}]) == {1, 2, 3, 4, 5}


def test_the_first_of_equally_cheap_maps_is_walked():
    """Ties go to the earlier leaf map; a map exactly as costly as the
    pivots is not walked."""
    graph = KnowledgeGraph()
    hubs = [graph.add_node(f"Hub {i}", "film") for i in range(2)]
    for hub in hubs:
        for i in range(3):
            graph.add_edge(hub, graph.add_node(f"Brad {hub}{i}", "actor"),
                           "acted_in")
    first, second = ({hub: 1.0} for hub in hubs)
    pivots = [(node, 1.0) for node in graph.nodes() if node not in hubs]
    assert pivot_semijoin(graph, pivots, [first, second]) == {2, 3, 4}
    assert pivot_semijoin(graph, pivots, [second, first]) == {5, 6, 7}
    assert pivot_semijoin(graph, pivots[:3], [first]) is None
    assert pivot_semijoin(graph, pivots, [None]) is None


class TestWalkFaults:
    """A fault on an id read of the walk is a candidate-setup fault."""

    STAR = star_of(1)

    def scorer(self, specs):
        return faulty(ScoringFunction(build_random_graph(0, NUM_NODES,
                                                         NUM_EDGES)),
                      specs=specs)

    @pytest.mark.parametrize("mode, error", [
        ("raise", InjectedFaultError), ("corrupt", DataCorruptionError)])
    def test_raised_without_an_anytime_budget(self, mode, error):
        spec = FaultSpec("graph.neighbor_ids", at_call=0, mode=mode)
        with pytest.raises(error):
            StarKSearch(self.scorer([spec])).search(self.STAR, 3)

    def test_recorded_under_an_anytime_budget(self):
        spec = FaultSpec("graph.neighbor_ids", at_call=0)
        scorer = self.scorer([spec])
        search = StarKSearch(scorer)
        assert search.search(self.STAR, 3, budget=Budget(anytime=True)) == []
        report = search.last_report
        assert report.degraded and report.faults == [
            "stark candidate setup: injected fault at graph.neighbor_ids "
            "call #0"]
        # No row was read: the walk comes first.
        assert scorer._injector.calls["graph.neighbors"] == 0


class TestMmapGuard:
    """A d=1 search off a store reads ids off ``csr.indices``: no
    adjacency row is materialised, and only read pivots' rows packed."""

    def test_no_lazy_row_and_only_read_rows_packed(self, tmp_path):
        write_store(build_random_graph(2, NUM_NODES, NUM_EDGES),
                    tmp_path / "g.rkgs2")
        walked = 0
        for choice in range(len(STARS)):
            graph = open_graph(tmp_path / "g.rkgs2")
            scorer = ScoringFunction(graph)
            star = star_of(choice)
            search = StarKSearch(scorer)
            pivots = search._pivot_candidates(star)
            near = pivot_semijoin(
                graph, pivots, leaf_candidate_maps(scorer, star, at_row=True))
            search.search(star, 3)
            assert not graph._adj._cache
            read = {node for node, _s in pivots
                    if near is None or node in near}
            assert {key // 3 for key in graph._row_at} == read
            walked += near is not None
        assert walked >= 3
