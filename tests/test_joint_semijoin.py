"""starjoin's cross-star cut at ``d == 1``: every star is planned, the
plans are cut to the joint values every star containing a joint node can
bind (:func:`repro.core.starjoin.joint_semijoin`), and each star streams
from its cut plan.

The reference kept here is the unreduced join: each star's own
``star_matcher(...).stream``, planned lazily and never cut, fed to the
same rank-join loop.  Every cell -- a path (joint leaf or joint pivot), a
4-cycle and a 3-star chain; injective or not; alpha 0, 0.5 and 1;
directed or not; with or without a candidate limit; memory or mmap;
after edge insertions and removals -- must rank the reference's scores
(and, without a candidate limit, brute force's), offer exactly the
oracle's matches when the pool never fills, and cut only matches that
bind a joint node to a value some partner's cut stream never binds.
Under budgets: a join-step cap stops on a prefix of the cut join's
offers; a node cap that trips inside a plan streams every plan uncut;
a strict trip raises its typed error.  The cut's span,
``starjoin.reduce``, carries its counts, and tracing changes no answer.
"""

import random
from typing import Dict, List
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.baselines import brute_force_topk
from repro.core import starjoin as starjoin_module
from repro.core.procedures import star_matcher
from repro.core.rankmerge import ScoredPool
from repro.core.starjoin import StarJoin, alpha_weights
from repro.errors import BudgetExceededError
from repro.graph import KnowledgeGraph
from repro.query import Query
from repro.runtime import Budget
from repro.similarity import ScoringFunction
from repro.store import open_graph, write_store

from tests.conftest import build_random_graph
from tests.join_oracle import ReferenceJoin
from tests.oracle import oracle_matches, rounded_scores
from tests.test_starjoin_hash import EVERYTHING, stars_at

NUM_NODES, NUM_EDGES = 30, 60

#: name -> (node count, edges, pivots in decomposition order)
SHAPES = {
    # stars {0,1,2} {2,3,4}: the joint node is a leaf of both
    "path": (5, [(0, 1), (1, 2), (2, 3), (3, 4)], [1, 3]),
    # stars {0,1,2} {2,3}: the joint node is the second star's pivot
    "path_at_pivot": (4, [(0, 1), (1, 2), (2, 3)], [1, 2]),
    # stars {0,1,3} {1,2,3}: two joint leaves
    "cycle4": (4, [(0, 1), (1, 2), (2, 3), (3, 0)], [0, 2]),
    # stars {0,1,2} {2,3,4} {4,5,6}: the middle star meets both ends
    "chain3": (7, [(i, i + 1) for i in range(6)], [1, 3, 5]),
}

#: Node types the queries draw from; "" is untyped (every live node).
TYPES = ["", "actor", "film", "director"]


class UnreducedJoin(StarJoin):
    """Reference: every star's own stream, planned lazily, never cut."""

    def _streams(self, decomposition, weights, budget=None):
        return [
            star_matcher(self.scorer, self.options).stream(
                star, star_weights, budget=budget)
            for star, star_weights in zip(decomposition.stars, weights)
        ]


class SpyJoin(StarJoin):
    """The engine, noting whether the cut ran, whether any stream was
    made, and whether the budget had tripped by the end of planning
    (streams charge only once pulled)."""

    cut_ran = streamed = plan_tripped = None

    def _streams(self, decomposition, weights, budget=None):
        calls = []
        real = starjoin_module.joint_semijoin

        def spy(*args):
            calls.append(args)
            return real(*args)

        with mock.patch.object(starjoin_module, "joint_semijoin", spy):
            sources = super()._streams(decomposition, weights, budget)
        self.cut_ran = bool(calls)
        self.streamed = sources is not None
        self.plan_tripped = budget is not None and budget.exhausted
        return sources


def no_cut(*_args):
    return 0, 0, 0


def shape_query(shape: str, types: List[str]):
    """The query of *shape* with node *i* typed ``types[i]``, and its
    decomposition at the shape's pivots."""
    size, edges, pivots = SHAPES[shape]
    query = Query(name=shape)
    for i in range(size):
        query.add_node("?", types[i])
    for src, dst in edges:
        query.add_edge(src, dst)
    return query, stars_at(query, pivots)


@pytest.fixture(scope="module")
def open_backing(tmp_path_factory):
    """``(seed, backing) -> graph``: a fresh graph of *seed*, in memory
    or mmap-opened off its store (written on first use)."""
    root = tmp_path_factory.mktemp("joint")
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


def mutate(graph, scorer, seed: int) -> None:
    """Pack some rows with one search, then insert and remove edges."""
    rng = random.Random(seed)
    query, decomposition = shape_query("path", ["actor"] * 5)
    StarJoin(scorer).join(decomposition, 3)
    nodes = list(range(NUM_NODES))
    for _ in range(8):
        src, dst = rng.sample(nodes, 2)
        graph.add_edge(src, dst, rng.choice(["acted_in", "directed"]))
    for _ in range(8):
        live = [eid for eid, _src, _dst in graph.edges()]
        graph.remove_edge(rng.choice(live))
    scorer.refresh()


def drain(sources):
    return [list(source) for source in sources]


def assert_cut_removes_only_unjoinable(engine, decomposition) -> int:
    """The cut streams are the unreduced streams minus matches binding a
    joint node to a value some partner's cut stream never binds; returns
    how many matches were cut."""
    weights = alpha_weights(decomposition, engine.options.alpha)
    every = drain(UnreducedJoin(engine.scorer, engine.options)._streams(
        decomposition, weights))
    sources = engine._streams(decomposition, weights)
    if sources is None:  # a plan proved its star empty: no join exists
        return sum(len(matches) for matches in every)
    kept = drain(sources)
    stars = decomposition.stars
    joint = decomposition.joint_nodes()
    shared = [joint.intersection(star.node_ids()) for star in stars]
    bound = [{qid: {match.assignment[qid] for match in matches}
              for qid in nodes}
             for matches, nodes in zip(kept, shared)]
    removed = 0
    for at, (all_matches, cut_matches) in enumerate(zip(every, kept)):
        scores = {match.key(): round(match.score, 9)
                  for match in all_matches}
        assert len(scores) == len(all_matches)
        kept_keys = set()
        for match in cut_matches:
            assert scores.get(match.key()) == round(match.score, 9)
            kept_keys.add(match.key())
        for match in all_matches:
            if match.key() in kept_keys:
                continue
            removed += 1
            assert any(
                match.assignment[qid] not in bound[partner][qid]
                for qid in shared[at]
                for partner in range(len(stars))
                if partner != at and qid in bound[partner]
            ), match
    return removed


CELLS = dict(
    seed=st.integers(min_value=0, max_value=30),
    shape=st.sampled_from(sorted(SHAPES)),
    # at most four untyped nodes: an untyped 3-star chain has ~35k matches
    types=st.lists(st.sampled_from(TYPES), min_size=7, max_size=7).filter(
        lambda types: types.count("") <= 4),
    k=st.integers(min_value=1, max_value=6),
    injective=st.booleans(),
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
    directed=st.booleans(),
    backing=st.sampled_from(["memory", "mmap"]),
    candidate_limit=st.sampled_from([None, 5]),
    mutated=st.booleans(),
)


def cell(open_backing, seed, shape, types, injective, alpha, directed,
         backing, candidate_limit, mutated):
    graph = open_backing(seed, backing)
    scorer = ScoringFunction(graph)
    if mutated:
        mutate(graph, scorer, seed)
    query, decomposition = shape_query(shape, types)
    options = dict(injective=injective, alpha=alpha, directed=directed,
                   candidate_limit=candidate_limit)
    return scorer, query, decomposition, options


class TestAgainstUnreducedJoin:
    @given(**CELLS)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_same_scores_oracle_offers_and_only_unjoinable_cuts(
            self, open_backing, seed, shape, types, k, injective, alpha,
            directed, backing, candidate_limit, mutated):
        scorer, query, decomposition, options = cell(
            open_backing, seed, shape, types, injective, alpha, directed,
            backing, candidate_limit, mutated)
        engine = StarJoin(scorer, **options)
        got = engine.join(decomposition, k)
        want = UnreducedJoin(scorer, **options).join(decomposition, k)
        assert rounded_scores(got) == rounded_scores(want)

        everything = engine.join(decomposition, EVERYTHING)
        assert engine.last_offered == len(everything)
        if candidate_limit is None:
            oracle_args = dict(injective=injective, directed=directed)
            assert rounded_scores(got) == rounded_scores(
                brute_force_topk(scorer, query, k, **oracle_args))
            assert {m.key() for m in everything} == {
                m.key() for m in oracle_matches(scorer, query,
                                                **oracle_args)}
        else:
            assert {m.key() for m in everything} == {
                m.key() for m in UnreducedJoin(scorer, **options).join(
                    decomposition, EVERYTHING)}

        assert_cut_removes_only_unjoinable(engine, decomposition)


class TestBudgets:
    @given(**CELLS, cap=st.integers(min_value=0, max_value=300))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_join_step_cap_stops_on_a_prefix_of_the_cut_offers(
            self, open_backing, seed, shape, types, k, injective, alpha,
            directed, backing, candidate_limit, mutated, cap):
        """Join steps are charged only in the rank join: the plans are
        complete, so they are cut, and the pool returned is the pool of
        the first combinations the unbudgeted cut join offers."""
        scorer, _query, decomposition, options = cell(
            open_backing, seed, shape, types, injective, alpha, directed,
            backing, candidate_limit, mutated)
        reference = ReferenceJoin(scorer, **options)
        reference.join(decomposition, k)
        engine = SpyJoin(scorer, **options)
        budget = Budget(max_join_steps=cap, anytime=True)
        got = engine.join(decomposition, k, budget=budget)
        assert not engine.plan_tripped
        assert engine.cut_ran or not engine.streamed
        prefix = ScoredPool(k)
        for match in reference.offered[:engine.last_offered]:
            prefix.offer(match.score, match)
        assert [(m.score, m.key()) for m in got] == [
            (m.score, m.key()) for m in prefix.ranked()]

    @given(**CELLS, cap=st.integers(min_value=0, max_value=150))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_node_cap_inside_a_plan_streams_uncut(
            self, open_backing, seed, shape, types, k, injective, alpha,
            directed, backing, candidate_limit, mutated, cap):
        """A trip by the end of planning leaves some plan partial: no plan
        is cut, so the run is the uncut engine's under the same budget.
        A later trip cuts, and every answer is still a true match."""
        scorer, query, decomposition, options = cell(
            open_backing, seed, shape, types, injective, alpha, directed,
            backing, candidate_limit, mutated)
        engine = SpyJoin(scorer, **options)
        got = engine.join(decomposition, k,
                          budget=Budget(max_nodes=cap, anytime=True))
        if not engine.plan_tripped:
            # complete plans: cut, unless one proved the join empty
            assert engine.cut_ran or not engine.streamed
        else:
            assert not engine.cut_ran and engine.streamed
            assert engine.last_report.degraded
            with mock.patch.object(starjoin_module, "joint_semijoin",
                                   no_cut):
                uncut = StarJoin(scorer, **options)
                want = uncut.join(decomposition, k,
                                  budget=Budget(max_nodes=cap, anytime=True))
            assert [(m.score, m.key()) for m in got] == [
                (m.score, m.key()) for m in want]
            assert engine.last_depths == uncut.last_depths
        if candidate_limit is None:
            truth = {m.key(): round(m.score, 9) for m in oracle_matches(
                scorer, query, injective=injective, directed=directed)}
            for match in got:
                assert truth[match.key()] == round(match.score, 9)

    @pytest.mark.parametrize("cap", [
        dict(max_nodes=0), dict(max_nodes=12), dict(max_join_steps=0)])
    def test_strict_trip_raises_typed_error(self, cap):
        scorer = ScoringFunction(build_random_graph(3, NUM_NODES, NUM_EDGES))
        _query, decomposition = shape_query("cycle4", [""] * 4)
        engine = StarJoin(scorer)
        assert engine.join(decomposition, 3)
        with pytest.raises(BudgetExceededError) as caught:
            engine.join(decomposition, 3, budget=Budget(**cap))
        assert caught.value.report is engine.last_report
        assert not engine.last_report.completed
        assert len(engine.last_depths) == 2


def test_the_cut_removes_matches():
    """The cells above are not vacuous: every shape loses matches to the
    cut on some graph, most cells do, and some cut takes a second round
    (a pivot one round drops takes another joint node's value along)."""
    removed: Dict[str, List[int]] = {shape: [] for shape in SHAPES}
    rounds = []
    real = starjoin_module.joint_semijoin

    def count_rounds(*args):
        result = real(*args)
        rounds.append(result[0])
        return result

    with mock.patch.object(starjoin_module, "joint_semijoin", count_rounds):
        for seed in range(4):
            scorer = ScoringFunction(build_random_graph(seed, NUM_NODES,
                                                        NUM_EDGES))
            for shape in SHAPES:
                for types in (["actor", "", "film", "", "director", "",
                               "actor"],
                              ["", "actor", "", "film", "", "actor", ""]):
                    _query, decomposition = shape_query(shape, types)
                    removed[shape].append(assert_cut_removes_only_unjoinable(
                        StarJoin(scorer), decomposition))
    assert all(any(counts) for counts in removed.values())
    cells = [count for counts in removed.values() for count in counts]
    assert sum(count > 0 for count in cells) >= len(cells) // 2
    # a cut round, then one that confirms nothing shrinks: 2; more means
    # a second round cut again
    assert max(rounds) >= 3


def test_budget_cells_trip_on_both_sides_of_the_plan():
    """Some node caps trip inside a plan, others only once streaming."""
    scorer = ScoringFunction(build_random_graph(1, NUM_NODES, NUM_EDGES))
    _query, decomposition = shape_query("cycle4", [""] * 4)
    seen = set()
    for cap in range(0, 151, 5):
        engine = SpyJoin(scorer)
        engine.join(decomposition, 3, budget=Budget(max_nodes=cap,
                                                    anytime=True))
        seen.add(engine.plan_tripped)
    assert seen == {True, False}


def test_the_cut_is_traced_and_tracing_changes_nothing():
    """``starjoin.reduce`` carries the cut's counts; the answers are the
    untraced run's."""
    scorer = ScoringFunction(build_random_graph(0, NUM_NODES, NUM_EDGES))
    _query, decomposition = shape_query(
        "chain3", ["actor", "", "film", "", "director", "", "actor"])
    untraced = StarJoin(scorer).join(decomposition, 5)
    counts = []
    real = starjoin_module.joint_semijoin

    def spy(*args):
        counts.append(real(*args))
        return counts[-1]

    with mock.patch.object(starjoin_module, "joint_semijoin", spy), \
            obs.capture() as tracer:
        traced = StarJoin(scorer).join(decomposition, 5)
    assert [(m.score, m.key()) for m in traced] == [
        (m.score, m.key()) for m in untraced]
    spans = [span for span, _depth, _path in tracer.iter_spans()
             if span.name == "starjoin.reduce"]
    assert len(spans) == 1
    attrs = spans[0].attrs
    assert (attrs["rounds"], attrs["pivots_cut"], attrs["values_cut"]) \
        == counts[0]
    assert attrs["stars"] == 3 and counts[0][0] >= 2 and counts[0][1] > 0
