"""Untyped-wildcard leaves scored at the pivot's row (``d == 1``).

An untyped ``?`` leaf may match every live node, so at ``d == 1`` it gets
no candidate map: the provider scores the neighbours a pivot's row holds
(edge threshold first, then the memoised ``F_N`` against the node
threshold).  These tests hold that path to the brute-force oracle and to
the map-backed provider it replaced, kept here as the reference: same
answers, same pivots considered and evaluated, same lattice pops.
"""

import itertools
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import StarDSearch, StarKSearch
from repro.core import stark as stark_module
from repro.core.candidates import shortlist
from repro.core.stark import PivotPlan, leaf_candidate_maps, pivot_bound
from repro.errors import InjectedFaultError
from repro.graph.generators import dbpedia_like
from repro.query import star_query
from repro.runtime import Budget, FaultSpec, faulty
from repro.similarity import ScoringConfig, ScoringFunction
from repro.store import open_graph, write_store

from tests.conftest import build_random_graph, scorer_for, star_of
from tests.oracle import (
    ROUND,
    assert_matches_meet_oracle,
    assert_same_results,
    oracle_matches,
    rounded_scores,
)


def map_backed_provider(search, star, weights, leaf_maps):
    """Reference: the ``d == 1`` provider with every leaf scored into a
    map first (``?`` leaves included) and rows intersected with it."""
    scorer = search.scorer
    edge_threshold = scorer.config.edge_threshold
    leaf_info = [
        (leaf_scores, edge.descriptor, weights.get(leaf.id, 1.0),
         (0 if not search.directed
          else (1 if edge.src == star.pivot.id else -1)))
        for (leaf, edge), leaf_scores in zip(star.leaves, leaf_maps)
    ]

    def provide(pivot_node):
        lists = []
        for leaf_scores, edge_desc, weight, orientation in leaf_info:
            row = dict(search.graph.grouped_relations(pivot_node,
                                                      orientation))
            entries = []
            for nbr in row.keys() & leaf_scores.keys():
                labels = row[nbr]
                edge_score = max(
                    scorer.relation_score(edge_desc, rel)
                    for rel in ((labels,) if isinstance(labels, str)
                                else labels))
                if edge_score < edge_threshold:
                    continue
                node_score = leaf_scores[nbr]
                entries.append((weight * node_score + edge_score, nbr,
                                node_score, edge_score, 1))
            lists.append(entries)
            if not entries:
                break
        return lists

    return provide


class MapBacked:
    """Mixin: the ``d == 1`` plan over map-backed leaves only, every
    pivot's row read up front; the row bounds stand in for the column
    bounds, so the loop's reads are lookups."""

    def _plan(self, star, weights, budget):
        pivot_cands = self._pivot_candidates(star, budget=budget)
        leaf_maps = leaf_candidate_maps(self.scorer, star, budget=budget)
        assert all(leaf_map is not None for leaf_map in leaf_maps)
        provider = map_backed_provider(self, star, weights, leaf_maps)
        pivot_weight = weights.get(star.pivot.id, 1.0)
        bounds, read = [], {}
        for pivot_node, pivot_score in pivot_cands:
            lists = provider(pivot_node)
            if lists and not lists[-1]:
                bounds.append(None)
                continue
            read[pivot_node] = lists
            bounds.append(pivot_bound(pivot_weight, pivot_score, lists))
        return PivotPlan(pivot_cands, bounds, read.pop, bounds.__getitem__,
                         leaf_maps)


class MapBackedStarK(MapBacked, StarKSearch):
    pass


class MapBackedStarD(MapBacked, StarDSearch):
    pass


def engines(algorithm, scorer, injective, directed):
    """``(engine, map-backed reference)`` at ``d == 1``."""
    if algorithm == "stark":
        opts = {"injective": injective, "directed": directed}
        return StarKSearch(scorer, **opts), MapBackedStarK(scorer, **opts)
    return (StarDSearch(scorer, d=1, injective=injective),
            MapBackedStarD(scorer, d=1, injective=injective))


#: Stars with untyped wildcard leaves: alone, beside a named leaf, under
#: a wildcard pivot beside a typed wildcard, twice with one constraint.
STARS = (
    ("Brad", "actor", [("acted_in", "?", "")]),
    ("Brad", "actor", [("?", "?", ""), ("won", "Oscar", "")]),
    ("?", "", [("acted_in", "?", ""), ("?", "?", "film")]),
    ("Troy", "", [("?", "?", ""), ("?", "?", "")]),
    ("?", "film", [("directed", "?", ""), ("won", "?", ""),
                   ("acted_in", "Pitt", "")]),
)

#: Node thresholds: the default, and one above part of the ``?`` scores
#: (0.4 plus a log-degree prior), so the row filter has work to do.
THRESHOLDS = (ScoringConfig().node_threshold, 0.5)


def read_lists(search, star):
    """The d=1 plan's candidates, row bounds and every bounded pivot's
    leaf lists (as sorted entries: the lattice sorts them anyway), every
    row read through the plan's reader."""
    plan = search._plan(star, {}, None)
    bounds = [plan.reader(index) for index in range(len(plan.pivots))]
    lists = {pivot: [sorted(entries) for entries in plan.provider(pivot)]
             for (pivot, _score), bound in zip(plan.pivots, bounds)
             if bound is not None}
    return plan.pivots, bounds, lists


def counters(search) -> List[int]:
    stats = search.stats
    return [stats.pivots_considered, stats.pivots_evaluated,
            stats.lattice_pops]


class TestAgainstOracleAndReference:
    @given(
        seed=st.integers(min_value=0, max_value=40),
        choice=st.integers(min_value=0, max_value=len(STARS) - 1),
        k=st.integers(min_value=1, max_value=6),
        algorithm=st.sampled_from(["stark", "stard"]),
        injective=st.booleans(),
        directed=st.booleans(),
        threshold=st.sampled_from(THRESHOLDS),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_top_k(self, seed, choice, k, algorithm, injective, directed,
                   threshold):
        directed = directed and algorithm == "stark"
        scorer = scorer_for(seed, node_threshold=threshold)
        star = star_of(choice, STARS)
        search, reference = engines(algorithm, scorer, injective, directed)
        assert read_lists(search, star) == read_lists(reference, star)
        got = search.search(star, k)
        want = reference.search(star, k)
        assert_matches_meet_oracle(got, scorer, star, k, injective=injective,
                                   directed=directed, label=algorithm)
        assert counters(search) == counters(reference)
        if injective:
            assert_same_results(got, want)
        else:
            # Prop. 3 keeps one of several tied entries by list order.
            assert rounded_scores(got) == rounded_scores(want)

    @given(
        seed=st.integers(min_value=0, max_value=40),
        choice=st.integers(min_value=0, max_value=len(STARS) - 1),
        k=st.integers(min_value=1, max_value=6),
        algorithm=st.sampled_from(["stark", "stard"]),
        injective=st.booleans(),
        directed=st.booleans(),
        node_weights=st.lists(
            st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0, 1.5]),
            min_size=4, max_size=4),
        threshold=st.sampled_from(THRESHOLDS),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_alpha_weighted_stream(self, seed, choice, k, algorithm,
                                   injective, directed, node_weights,
                                   threshold):
        """starjoin streams stars under alpha-scheme node weights."""
        directed = directed and algorithm == "stark"
        scorer = scorer_for(seed, node_threshold=threshold)
        star = star_of(choice, STARS)
        weights = dict(zip(sorted(star.node_ids()), node_weights))
        search, reference = engines(algorithm, scorer, injective, directed)
        got = list(itertools.islice(
            search.stream(star, node_weights=weights, prune_k=k), k))
        want = list(itertools.islice(
            reference.stream(star, node_weights=weights, prune_k=k), k))
        assert counters(search) == counters(reference)
        assert rounded_scores(got) == rounded_scores(want)
        if injective:
            assert_same_results(got, want)
        full = oracle_matches(scorer, star, injective=injective,
                              directed=directed)
        weighted = sorted(
            (round(sum(weights[q] * s for q, s in m.node_scores.items())
                   + sum(m.edge_scores.values()), ROUND) for m in full),
            reverse=True)
        assert rounded_scores(got) == weighted[:k]


class TestNoMapForTheWildcard:
    STAR = star_of(2, STARS)  # an untyped and a typed wildcard leaf

    def scored_qnodes(self, monkeypatch, search):
        seen = []
        real = stark_module.node_candidates

        def spy(scorer, qnode, **kwargs):
            seen.append((qnode.label, qnode.type))
            return real(scorer, qnode, **kwargs)

        monkeypatch.setattr(stark_module, "node_candidates", spy)
        search.search(self.STAR, 3)
        return seen

    def test_d1_scores_no_map_for_the_untyped_leaf(self, monkeypatch):
        scorer = scorer_for(3)
        for search in (StarKSearch(scorer), StarDSearch(scorer, d=1)):
            seen = self.scored_qnodes(monkeypatch, search)
            assert ("?", "") in seen  # the untyped pivot is unchanged
            assert ("?", "film") in seen  # a typed wildcard keeps its map
            assert len(seen) == 2

    def test_d2_keeps_every_map(self, monkeypatch):
        scorer = scorer_for(3)
        seen = self.scored_qnodes(monkeypatch, StarDSearch(scorer, d=2))
        assert len(seen) == 3

    def test_rows_of_a_mutated_graph_hold_live_nodes_only(self):
        graph = build_random_graph(5)
        for node in (1, 4, 9, 17):
            graph.remove_node(node)
        scorer = ScoringFunction(graph)
        for choice in range(len(STARS)):
            star = star_of(choice, STARS)
            got = StarKSearch(scorer).search(star, 5)
            assert_matches_meet_oracle(got, scorer, star, 5)

    def test_store_backed_graph_agrees_with_memory(self, tmp_path):
        graph = dbpedia_like(0.15, 7)
        write_store(graph, tmp_path / "g.rkgs2")
        mapped = ScoringFunction(open_graph(tmp_path / "g.rkgs2"))
        memory = ScoringFunction(graph)
        star = star_query("?", [("?", "?")], pivot_type="person")
        assert_same_results(StarKSearch(mapped).search(star, 10),
                            StarKSearch(memory).search(star, 10))


class TestBudgetAndFaults:
    """Random graph 1 (30 nodes): four Brad actors, one ``?`` leaf."""

    STAR = star_query("Brad", [("acted_in", "?")], pivot_type="actor")

    def test_budget_charges_pivots_not_the_graph(self):
        scorer = scorer_for(1)
        budget = Budget(max_nodes=10 ** 6)
        search = StarKSearch(scorer)
        got = search.search(self.STAR, 3, budget=budget)
        reference_budget = Budget(max_nodes=10 ** 6)
        want = MapBackedStarK(scorer).search(
            self.STAR, 3, budget=reference_budget)
        assert_same_results(got, want)
        assert counters(search) == [4, 3, 3]
        # One charge per scored pivot candidate (9 shortlisted, 4
        # admitted), one per row read -- the three pivots whose column
        # bound beat the queue head -- none for the leaf.
        assert len(shortlist(scorer, self.STAR.pivot)) == 9
        assert budget.nodes_visited == 9 + search.stats.rows_read == 9 + 3
        # The map-backed plan also charged every live node for the leaf;
        # it read its rows up front, and its loop charged a lookup per
        # pivot whose row bound beat the queue head.
        assert reference_budget.nodes_visited == 9 + 30 + 3

    @pytest.mark.parametrize("make", [
        lambda s: StarKSearch(s), lambda s: StarDSearch(s, d=1)])
    def test_fault_on_a_wildcard_neighbour(self, make):
        scorer = scorer_for(1)
        # The first node_score call after the pivot candidates' is the
        # first row-scored wildcard neighbour.
        first_row_call = len(shortlist(scorer, self.STAR.pivot))
        spec = FaultSpec("scorer.node_score", at_call=first_row_call,
                         mode="raise")
        with pytest.raises(InjectedFaultError):
            make(faulty(scorer, specs=[spec])).search(self.STAR, 3)

        search = make(faulty(scorer, specs=[spec]))
        got = search.search(self.STAR, 3, budget=Budget(anytime=True))
        report = search.last_report
        assert report.degraded and len(report.faults) == 1
        skipped = int(report.faults[0].split(":")[0].split()[1])
        assert report.faults[0].startswith(f"pivot {skipped}: ")
        pivot = self.STAR.pivot.id
        full = oracle_matches(scorer, self.STAR)
        assert any(m.assignment[pivot] == skipped for m in full)
        kept = [m for m in full if m.assignment[pivot] != skipped]
        assert got and rounded_scores(got) == rounded_scores(kept[:3])
        assert all(m.assignment[pivot] != skipped for m in got)
