"""The candidate pipeline: one route decides, one pass runs.

``node_candidates`` is cache probe -> universe (the index's bound walk or
the shortlist loop) -> semantic tier -> sort and cut -> cache put, and
``candidate_route`` is the only place that decides which stages run.

* ``TestRoute`` pins the route table rule by rule.
* ``test_cell`` walks {cache off|on} x {index none|auto|on} x
  {tier none|auto|on} x {limit None|3} x {budget none|generous|tripping
  anytime} x {scope None|subset} for an in-vocabulary, an
  out-of-vocabulary, a typed-wildcard and a wildcard query node, against
  a reference that scores the expanded-token + subtype shortlist with a
  fresh scorer (plus a keyword-only node whose shortlist is short and
  partly below threshold).
* ``TestBudgetedHits`` holds what a budget observes on a warm cache: a
  hit charges what the cold scan charged, a cap below that returns the
  cold partial, and no tripped or faulted partial is ever written.
* ``TestScopedTier`` holds the scoped-call contract (the unscoped result
  filtered to the scope, ANN extras included), sharded engines included.
"""

from __future__ import annotations

import itertools

import pytest

from repro import obs
from repro.ann import SemanticTier, attach_semantic
from repro.core import Star
from repro.core.candidates import (
    _ANYTIME_FLOOR,
    candidate_route,
    expanded_query_tokens,
    live_index,
    node_candidates,
)
from repro.errors import BudgetExceededError
from repro.index import attach_index
from repro.perf import attach_cache, fork_available
from repro.query import parse_query
from repro.query.model import QueryNode
from repro.runtime import FaultSpec, faulty
from repro.runtime.budget import Budget
from repro.shard import ShardedEngine
from repro.similarity import ScoringConfig, ScoringFunction

from tests.conftest import build_movie_graph

#: Out-of-vocabulary names score only on character evidence, under the
#: default threshold; the tier is exercised where its benchmark runs.
CONFIG = ScoringConfig(node_threshold=0.1)
TRIP_AT = 5


def build_graph():
    """The movie graph plus 60 ``Pitt Fan`` persons: shortlists longer
    than the anytime floor, so a tripping budget really truncates."""
    graph = build_movie_graph()
    for i in range(60):
        fan = graph.add_node(f"Pitt Fan {i}", "person", keywords=("drama",))
        graph.add_edge(fan, 4, "likes")
    return graph


GRAPH = build_graph()
EXACT = ScoringFunction(GRAPH, CONFIG)
QNODES = {
    "in_vocabulary": QueryNode(0, "Brad Pitt", "actor"),
    "out_of_vocabulary": QueryNode(0, "Pit Fans"),
    # Shortlisted through its keyword only: one of the two war films
    # scores below threshold, and an ``on`` tier adds fans beside them.
    "keyword_only": QueryNode(0, "Pit Fans", "", ("war",)),
    "typed_wildcard": QueryNode(0, "?", "person"),
    "wildcard": QueryNode(0, "?"),
}
SCOPE = frozenset(n for n in GRAPH.nodes() if n % 3 == 1)
BUDGETS = {
    "none": lambda: None,
    "generous": lambda: Budget(max_nodes=1_000_000),
    "tripping": lambda: Budget(max_nodes=TRIP_AT, anytime=True),
}


def universe(qnode):
    """The shortlist by its definition: expanded query tokens plus the
    type's subtype closure; a wildcard with nothing to go on scans all."""
    desc = qnode.descriptor
    nodes = set(GRAPH.nodes_matching_any(expanded_query_tokens(desc)))
    if qnode.type:
        nodes |= GRAPH.nodes_of_subtype(qnode.type)
    if desc.is_wildcard and (not qnode.type or not nodes):
        nodes = set(GRAPH.nodes())
    return nodes


def reference(qnode):
    """Every admissible ``(node, F_N)`` of the universe, fresh scorer."""
    fresh = ScoringFunction(GRAPH, CONFIG)
    pairs = [(n, fresh.node_score(qnode.descriptor, n))
             for n in universe(qnode)]
    return sorted((p for p in pairs if p[1] >= CONFIG.node_threshold),
                  key=lambda t: (-t[1], t[0]))


#: One built tier per mode, shared by the cells' scorers: a tier holds
#: per-graph embeddings, nothing of the scorer it serves.
TIERS = {mode: SemanticTier(GRAPH, mode=mode) for mode in ("auto", "on")}


def make_scorer(cache, index, tier):
    scorer = ScoringFunction(GRAPH, CONFIG)
    if cache:
        attach_cache(scorer)
    if index != "none":
        attach_index(scorer, mode=index)
    if tier != "none":
        attach_semantic(scorer, TIERS[tier])
    return scorer


def run_cell(cache, index, tier, qnode, limit, budget_kind, scope):
    """One call on a fresh scorer: ``(result, budget, scorer, span)``."""
    scorer = make_scorer(cache, index, tier)
    budget = BUDGETS[budget_kind]()
    with obs.capture() as tracer:
        got = node_candidates(scorer, qnode, limit=limit, budget=budget,
                              scope=scope)
    span = next(s for s in tracer.roots if s.name.startswith("candidates."))
    return got, budget, scorer, span


# ----------------------------------------------------------------------
# The route table
# ----------------------------------------------------------------------
class TestRoute:
    def route(self, scorer, qname="in_vocabulary", limit=None, budget=None,
              scope=None):
        return candidate_route(scorer, QNODES[qname].descriptor, limit,
                               budget, scope)

    def tier_scorer(self, mode):
        scorer = ScoringFunction(GRAPH, CONFIG)
        attach_semantic(scorer, mode=mode)
        return scorer

    def test_index_route_table(self):
        scorer = ScoringFunction(GRAPH, CONFIG)
        index = attach_index(scorer, mode="auto")
        assert self.route(scorer, limit=5).index is index
        assert self.route(scorer).index is None  # auto needs a cutoff
        assert self.route(scorer, limit=5,
                          budget=Budget(max_nodes=10)).index is None
        assert self.route(scorer, "wildcard", limit=5).index is None
        assert self.route(scorer, "typed_wildcard", limit=5).index is None
        assert self.route(scorer, limit=5, scope=SCOPE).index is None
        index.mode = "on"
        assert self.route(scorer).index is index
        index.mode = "off"
        assert self.route(scorer, limit=5).index is None
        # An index over another graph never routes.
        other = ScoringFunction(build_graph(), CONFIG)
        other.graph_index = index
        index.mode = "on"
        assert self.route(other, limit=5).index is None

    def test_live_index_is_the_route_gate(self):
        scorer = ScoringFunction(GRAPH, CONFIG)
        assert live_index(scorer) is None
        assert self.route(scorer, limit=5).index is None
        index = attach_index(scorer, mode="auto")
        assert live_index(scorer) is index  # live whatever the cutoff
        assert self.route(scorer, limit=5).index is index
        index.mode = "off"
        assert live_index(scorer) is None
        assert self.route(scorer, limit=5).index is None

    def test_cache_skipped_by_scope_alone(self):
        scorer = ScoringFunction(GRAPH, CONFIG)
        cache = attach_cache(scorer)
        attach_index(scorer, mode="on")
        assert self.route(scorer).cache is cache
        for budget in (Budget(max_nodes=10), Budget(anytime=True)):
            route = self.route(scorer, limit=3, budget=budget)
            # A budget keeps the cache but still skips the index.
            assert route.cache is cache and route.index is None
            assert self.route(scorer, budget=budget,
                              scope=SCOPE).cache is None
        assert self.route(scorer, scope=SCOPE).cache is None

    def test_tier_off_never_engages(self):
        route = self.route(self.tier_scorer("off"), "out_of_vocabulary")
        assert route.tier is None
        assert not route.wants_tier(None, lambda: False)

    def test_tier_wildcard_never_engages(self):
        scorer = self.tier_scorer("on")
        assert self.route(scorer, "wildcard").tier is None
        assert self.route(scorer, "typed_wildcard").tier is None

    def test_tier_foreign_graph_never_engages(self):
        scorer = ScoringFunction(GRAPH, CONFIG)
        scorer.semantic_tier = SemanticTier(build_graph(), mode="on")
        assert self.route(scorer, "out_of_vocabulary").tier is None

    def test_tier_exhausted_budget_never_engages(self):
        budget = Budget(max_nodes=0, anytime=True)
        budget.charge_nodes()
        assert budget.exhausted
        route = self.route(self.tier_scorer("on"), "out_of_vocabulary",
                           budget=budget)
        assert not route.wants_tier(budget, lambda: False)

    def test_tier_auto_engages_only_when_nothing_admits(self):
        route = self.route(self.tier_scorer("auto"), "out_of_vocabulary")
        assert route.wants_tier(None, lambda: False)
        assert not route.wants_tier(None, lambda: True)

    def test_tier_on_engages_despite_candidates(self):
        route = self.route(self.tier_scorer("on"))
        assert route.wants_tier(None, lambda: True)

    def test_reason_names_every_stage(self):
        scorer = ScoringFunction(GRAPH, CONFIG)
        attach_cache(scorer)
        attach_index(scorer, mode="auto")
        attach_semantic(scorer, mode="auto")
        assert self.route(scorer, limit=3).reason == (
            "cache, index (auto), tier auto")
        assert self.route(scorer, budget=Budget()).reason == (
            "cache, shortlist (budgeted), tier auto")
        assert self.route(scorer, budget=Budget(), scope=SCOPE).reason == (
            "no cache, shortlist (a shard's owned pivots), tier auto")


# ----------------------------------------------------------------------
# Every cell against the reference
# ----------------------------------------------------------------------
def check_cell(cell, got, budget, scorer, span, qnode, ref, limit,
               budget_kind, scope, index, tier, cache):
    desc = qnode.descriptor
    wildcard = desc.is_wildcard
    # Well-formed: exact scores, admissible, ordered, cut, in scope.
    assert got == sorted(got, key=lambda t: (-t[1], t[0])), cell
    assert len({n for n, _ in got}) == len(got), cell
    assert limit is None or len(got) <= limit, cell
    for n, score in got:
        assert score == EXACT.node_score(desc, n), cell
        assert score >= CONFIG.node_threshold, cell
        assert scope is None or n in scope, cell
    # The universe stage the table routes to, reason annotated.
    indexed = ((index == "on" or (index == "auto" and limit is not None))
               and budget is None and scope is None and not wildcard)
    assert span.name == (
        "candidates.indexed" if indexed else "candidates.score"), cell
    assert ("index (" in span.attrs["route"]) == indexed, cell
    assert (scorer.graph_index is not None
            and scorer.graph_index.evaluated > 0) == (
                indexed and bool(ref)), cell
    # Scored-list cache entries: written by every unscoped call that
    # finished untripped, holding the list returned and, for a budget,
    # the node visits it charged (no count without one).
    entries = ([e for k, e in scorer.candidate_cache._data.items()
                if k[0] == "cand"] if cache else [])
    complete = budget is None or not budget.exhausted
    assert len(entries) == int(cache and scope is None and complete), cell
    if entries:
        assert entries[0].payload == tuple(got), cell
        assert entries[0].cost == (
            None if budget is None else budget.nodes_visited), cell
    # Shortlisted pairs against the reference; extras only from the tier.
    shortlisted = universe(qnode)
    in_scope = [p for p in ref if scope is None or p[0] in scope]
    part = [p for p in got if p[0] in shortlisted]
    extras = [p for p in got if p[0] not in shortlisted]
    engages = not wildcard and (tier == "on" or (tier == "auto" and not ref))
    if not engages:
        assert not extras, cell
    n_scope = len([n for n in shortlisted if scope is None or n in scope])
    if budget_kind == "tripping":
        assert len(extras) <= TRIP_AT, cell
        if n_scope > _ANYTIME_FLOOR:
            # Every shortlisted node admits here, so the trip keeps
            # exactly the minimum-progress prefix (before the cut).
            assert len(in_scope) == n_scope, cell
            assert len(part) == min(_ANYTIME_FLOOR, limit or n_scope), cell
            assert set(part) <= set(in_scope), cell
            return
    assert part == in_scope[:len(part)], cell
    if limit is None or len(got) < limit:
        assert part == in_scope, cell
    if not engages:
        assert got == in_scope[:limit], cell
        if budget is not None:
            assert budget.nodes_visited == (
                n_scope if budget_kind == "generous"
                else min(n_scope, TRIP_AT + 1)), cell


@pytest.mark.parametrize("tier", ["none", "auto", "on"])
@pytest.mark.parametrize("index", ["none", "auto", "on"])
def test_cell(index, tier):
    for qname, qnode in QNODES.items():
        ref = reference(qnode)
        for limit, budget_kind, scope in itertools.product(
                (None, 3), BUDGETS, (None, SCOPE)):
            results = []
            for cache in (False, True):
                cell = (qname, index, tier, cache, limit, budget_kind,
                        "subset" if scope is not None else None)
                got, budget, scorer, span = run_cell(
                    cache, index, tier, qnode, limit, budget_kind, scope)
                check_cell(cell, got, budget, scorer, span, qnode, ref,
                           limit, budget_kind, scope, index, tier, cache)
                if cache and scope is None and (
                        budget is None or not budget.exhausted):
                    # The second call, under a fresh budget of the same
                    # kind, is a hit: the same list, the same charge.
                    hits = scorer.candidate_cache.stats.hits
                    again = BUDGETS[budget_kind]()
                    assert node_candidates(scorer, qnode, limit=limit,
                                           budget=again) == got, cell
                    assert scorer.candidate_cache.stats.hits == hits + 1
                    if budget is not None:
                        assert again.nodes_visited == budget.nodes_visited
                        assert not again.exhausted, cell
                results.append(got)
            assert results[0] == results[1], cell  # the cache is invisible
            # One candidate list per tier: whatever the index, cutoff,
            # scope or budget that never trips, a call returns the
            # unbudgeted shortlist route's full list filtered to its
            # scope and cut.
            if budget_kind == "tripping":
                continue
            whole = run_cell(False, "none", tier, qnode, None, "none",
                             None)[0]
            assert got == [p for p in whole
                           if scope is None or p[0] in scope][:limit], cell


# ----------------------------------------------------------------------
# A budget on a warm cache observes what it observes on a cold one
# ----------------------------------------------------------------------
def cand_entries(scorer):
    return {k: e for k, e in scorer.candidate_cache._data.items()
            if k[0] == "cand"}


@pytest.mark.parametrize("tier", ["none", "auto", "on"])
class TestBudgetedHits:
    def cold(self, tier, qnode, budget, limit=None):
        """The call on a fresh scorer with an empty cache."""
        scorer = make_scorer(True, "none", tier)
        return node_candidates(scorer, qnode, limit=limit, budget=budget)

    def test_warm_hit_charges_what_the_cold_call_charged(self, tier):
        for qnode in QNODES.values():
            for limit in (None, 3):
                cold_budget = Budget(max_nodes=10 ** 6, anytime=True)
                cold = self.cold(tier, qnode, cold_budget, limit)
                scorer = make_scorer(True, "none", tier)
                first = Budget(max_nodes=10 ** 6, anytime=True)
                assert node_candidates(scorer, qnode, limit=limit,
                                       budget=first) == cold
                assert first.nodes_visited == cold_budget.nodes_visited
                calls = scorer.node_score_calls
                warm_budget = Budget(max_nodes=10 ** 6, anytime=True)
                warm = node_candidates(scorer, qnode, limit=limit,
                                       budget=warm_budget)
                assert warm == cold
                assert scorer.node_score_calls == calls  # nothing scored
                assert warm_budget.nodes_visited == cold_budget.nodes_visited
                assert not warm_budget.exhausted

    def test_cap_below_the_charge_returns_the_cold_partial(self, tier):
        for qnode in QNODES.values():
            scorer = make_scorer(True, "none", tier)
            full = node_candidates(scorer, qnode, budget=Budget())
            (key, entry), = cand_entries(scorer).items()
            for anytime in (True, False):
                for cap in sorted({c for c in (0, 1, TRIP_AT,
                                               entry.cost // 2,
                                               entry.cost - 1)
                                   if 0 <= c < entry.cost}):
                    cold_budget = Budget(max_nodes=cap, anytime=anytime)
                    warm_budget = Budget(max_nodes=cap, anytime=anytime)
                    if not anytime:
                        with pytest.raises(BudgetExceededError):
                            self.cold(tier, qnode, cold_budget)
                        with pytest.raises(BudgetExceededError):
                            node_candidates(scorer, qnode,
                                            budget=warm_budget)
                    else:
                        assert node_candidates(
                            scorer, qnode, budget=warm_budget) == self.cold(
                                tier, qnode, cold_budget)
                    assert warm_budget.exhausted and cold_budget.exhausted
                    assert (warm_budget.nodes_visited
                            == cold_budget.nodes_visited)
                    # The complete entry is still the one held.
                    assert cand_entries(scorer) == {key: entry}
                    assert entry.payload == tuple(full)
            # A cap the charge just fits serves the hit, untripped.
            exact = Budget(max_nodes=entry.cost)
            assert node_candidates(scorer, qnode, budget=exact) == full
            assert exact.nodes_visited == entry.cost and not exact.exhausted

    def test_tripped_or_faulted_partials_are_never_written(self, tier):
        qnode = QNODES["typed_wildcard"]
        scorer = make_scorer(True, "none", tier)
        budget = Budget(max_nodes=TRIP_AT, anytime=True)
        node_candidates(scorer, qnode, budget=budget)
        assert budget.exhausted and not cand_entries(scorer)
        # A budget that tripped before the call writes nothing either.
        node_candidates(scorer, qnode, budget=budget)
        assert not cand_entries(scorer)
        # A recorded fault under a budget that never trips: not written.
        chaos = faulty(scorer, specs=[
            FaultSpec("scorer.node_score", mode="raise", at_call=3)])
        budget = Budget(anytime=True)
        partial = node_candidates(chaos, qnode, budget=budget)
        assert budget.faults and not budget.exhausted
        assert not cand_entries(scorer)
        # The next complete call writes the whole list.
        full = node_candidates(scorer, qnode, budget=Budget(anytime=True))
        assert len(full) == len(partial) + 1
        assert [e.payload for e in cand_entries(scorer).values()] == [
            tuple(full)]

    @pytest.mark.parametrize("index", ["none", "on"])
    def test_unbudgeted_entry_is_paid_for_once_rescanned(self, tier, index):
        qnode = QNODES["in_vocabulary"]
        scorer = make_scorer(True, index, tier)
        unbudgeted = node_candidates(scorer, qnode, limit=3)
        (key, entry), = cand_entries(scorer).items()
        # No budget counted the visits (the index's bound walk scores
        # no shortlist at all), so a budget misses and rescans, and the
        # rescan records what it charged.
        assert entry.cost is None
        misses = scorer.candidate_cache.stats.misses
        cold = Budget(anytime=True)
        assert node_candidates(scorer, qnode, limit=3,
                               budget=cold) == unbudgeted
        assert scorer.candidate_cache.stats.misses > misses
        assert cand_entries(scorer)[key].cost == cold.nodes_visited > 0
        warm = Budget(anytime=True)
        hits = scorer.candidate_cache.stats.hits
        assert node_candidates(scorer, qnode, limit=3,
                               budget=warm) == unbudgeted
        assert scorer.candidate_cache.stats.hits == hits + 1
        assert warm.nodes_visited == cold.nodes_visited


# ----------------------------------------------------------------------
# Scoped calls and the semantic tier
# ----------------------------------------------------------------------
class TestScopedTier:
    def test_empty_slice_leaves_auto_tier_alone_when_anything_admits(self):
        scorer = ScoringFunction(GRAPH, CONFIG)
        tier = attach_semantic(scorer, mode="auto")
        qnode = QNODES["in_vocabulary"]
        elsewhere = frozenset(GRAPH.nodes()) - universe(qnode)
        assert node_candidates(scorer, qnode, scope=elsewhere) == []
        assert tier.probed == 0 and not tier.built
        # The global check stopped at the first admissible node.
        assert scorer.node_score_calls == 1

    def test_scoped_out_of_vocabulary_keeps_its_extras(self):
        scorer = ScoringFunction(GRAPH, CONFIG)
        attach_semantic(scorer, mode="auto")
        qnode = QNODES["out_of_vocabulary"]
        whole = node_candidates(scorer, qnode)
        assert whole and not universe(qnode)
        for scope in (SCOPE, frozenset(GRAPH.nodes()) - SCOPE):
            sliced = node_candidates(scorer, qnode, scope=scope)
            assert sliced == [p for p in whole if p[0] in scope]
            assert sliced

    @pytest.mark.parametrize("backend", [
        "serial",
        pytest.param("fork", marks=pytest.mark.skipif(
            not fork_available(), reason="fork start method unavailable")),
    ])
    def test_sharded_star_keeps_out_of_vocabulary_matches(self, backend):
        query = parse_query("(bradpitt) -[?]- (?)")
        expect = Star(build_movie_graph(), config=CONFIG).search(query, 5)
        assert expect and round(expect[0].score, 4) == 0.9578
        with ShardedEngine(build_movie_graph(), config=CONFIG, shards=2,
                           backend=backend) as engine:
            assert engine.backend == backend
            got = engine.search(query, 5)
            if backend == "fork":
                # Workers embed the graph themselves, on first need.
                assert not engine.scorer.semantic_tier.built
        assert ([(m.key(), m.score) for m in got]
                == [(m.key(), m.score) for m in expect])
