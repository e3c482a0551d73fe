"""Online candidate generation for query nodes.

The paper computes match scores online; indexes are only used to shortlist
candidates (Section V-A: "This can be further optimized with various
indices").  We shortlist through the graph's inverted token index expanded
with synonyms/abbreviations, plus the graph's precomputed subtype-closure
index (ontology subtypes); wildcards fall back to a full scan.  Every
shortlisted node is scored with the full ranking function and kept only
above the node threshold -- so all matchers see identical candidate sets.

:func:`node_candidates` is one pass over ordered stages -- cache probe,
universe (the :class:`repro.index.GraphIndex` bound walk or the shortlist
scoring loop), :class:`repro.ann.SemanticTier` augmentation, sort and
cut, cache put -- and :func:`candidate_route` alone decides which of them
run.  Stage order, route table and why each stage is exact: see
docs/architecture.md, "Candidate pipeline".
"""

from __future__ import annotations

from typing import (AbstractSet, Callable, FrozenSet, Iterable, Iterator,
                    List, NamedTuple, Optional, Set, Tuple)

from repro import obs
from repro.query.model import QueryNode
from repro.runtime.budget import Budget
from repro.runtime.faults import SUBSTRATE_ERRORS
from repro.similarity import ontology
from repro.similarity.scoring import ScoringFunction

#: Minimum shortlist prefix scored even after an anytime budget trips, so
#: downstream always has *some* admissible candidates to assemble a
#: best-so-far answer from (the anytime minimum-progress guarantee).
_ANYTIME_FLOOR = 48


def expanded_query_tokens(desc) -> FrozenSet[str]:
    """Synonym/abbreviation-expanded token set of a query descriptor.

    This is the exact token footprint the shortlist probes the inverted
    index with; the candidate cache stores it as a dependency so a graph
    delta touching any of these tokens invalidates the entry.
    """
    tokens: Set[str] = set(desc.name_tokens) | set(desc.keyword_tokens)
    expanded = set(tokens)
    for token in tokens:
        expanded |= ontology.synonyms_of(token)
        long_form = ontology.expand_abbreviation(token)
        if long_form:
            expanded.add(long_form)
    return frozenset(expanded)


def _remember(cache, key, value, scorer, qnode, nodes, tokens,
              cost=None) -> None:
    """The one write into the candidate cache: *value* stamped with the
    graph version and the ``(nodes, tokens, query type)`` footprint a
    delta must miss for the entry to survive, plus the node visits a
    budgeted hit pays (see ``repro.perf.cache``)."""
    cache.put(key, value, graph=scorer.graph,
              deps=(nodes, tokens, qnode.type), cost=cost)


def every_live_node(qnode: QueryNode) -> bool:
    """Whether *qnode*'s universe is every live node: an untyped
    wildcard, the one shortlist that reads no index."""
    return qnode.descriptor.is_wildcard and not qnode.type


def shortlist(scorer: ScoringFunction, qnode: QueryNode) -> Set[int]:
    """Index-based shortlist of possibly-matching node ids (no scoring).

    When a candidate cache is attached, a hit returns the *stored* set
    object, not a copy: anytime budgets truncate work by shortlist
    iteration order, so serving the identical object is what keeps warm
    runs byte-identical to cold ones.  Callers must treat the returned
    set as read-only (every in-tree caller does).
    """
    graph = scorer.graph
    desc = qnode.descriptor
    if every_live_node(qnode):
        return set(graph.nodes())
    cache = scorer.candidate_cache
    key = None
    if cache is not None:
        key = cache.shortlist_key(scorer, qnode)
        hit = cache.get(key, graph=graph)
        if hit is not None:
            return hit
    candidates: Set[int] = set()
    expanded = expanded_query_tokens(desc)
    candidates |= graph.nodes_matching_any(expanded)
    if qnode.type:
        candidates |= graph.nodes_of_subtype(qnode.type)
    if desc.is_wildcard and not candidates:
        # Typed wildcards whose type matches nothing fall back to a full
        # scan; the fallback is cached like any other shortlist so warm
        # runs return the stored object (the anytime-order contract).
        candidates = set(graph.nodes())
    if key is not None:
        _remember(cache, key, candidates, scorer, qnode,
                  frozenset(candidates), expanded)
    return candidates


class CandidateRoute(NamedTuple):
    """Which stages one :func:`node_candidates` call runs: the scored-list
    *cache* to probe and put, the *index* whose bound walk is the universe
    (None: the shortlist loop), the *tier* that may augment, and why."""

    cache: Optional[object]
    index: Optional[object]
    tier: Optional[object]
    reason: str

    def wants_tier(self, budget: Optional[Budget],
                   admits: Callable[[], bool]) -> bool:
        """The tier's part of the route read after the universe: never on
        an exhausted budget, ``auto`` only when nothing *admits*."""
        tier = self.tier
        if tier is None or (budget is not None and budget.exhausted):
            return False
        return tier.mode == "on" or not admits()


def live_index(scorer):
    """The scorer's graph index, unless it is ``off`` or over another
    graph: what may replace the shortlist."""
    index = getattr(scorer, "graph_index", None)
    live = index is not None and index.mode != "off"
    return index if live and index.graph is scorer.graph else None


def candidate_route(scorer: ScoringFunction, desc, limit: Optional[int],
                    budget: Optional[Budget],
                    scope: Optional[AbstractSet[int]]) -> CandidateRoute:
    """Every engagement rule of the candidate pipeline (the route table
    and the reason for each rule: docs/architecture.md)."""
    bypass = "a shard's owned pivots" if scope is not None else (
        "budgeted" if budget is not None else "")
    cache = None if scope is not None else scorer.candidate_cache
    index = None
    if bypass:
        universe = f"shortlist ({bypass})"
    elif desc.is_wildcard:
        universe = "shortlist (wildcard)"
    else:
        index = live_index(scorer)
        if index is None:
            universe = "shortlist (no index)"
        elif index.mode == "auto" and limit is None:
            index, universe = None, "shortlist (auto without cutoff)"
        else:
            universe = f"index ({index.mode})"
    tier = getattr(scorer, "semantic_tier", None)
    if tier is not None and (tier.mode == "off" or desc.is_wildcard
                             or tier.graph is not scorer.graph):
        tier = None
    reason = (f"{'cache' if cache is not None else 'no cache'}, {universe}, "
              f"tier {tier.mode if tier is not None else 'none'}")
    return CandidateRoute(cache, index, tier, reason)


def _admissible(scorer: ScoringFunction, desc, nodes: Iterable[int],
                budget: Optional[Budget]) -> Iterator[Tuple[int, float]]:
    """``(node, F_N)`` for the admissible *nodes*, in their order.

    Under a budget each node charges one visit; after an anytime trip a
    short prefix is still scored (minimum progress) and the scan stops,
    and substrate faults skip the node and are recorded on the budget.
    """
    threshold = scorer.config.node_threshold
    node_score = scorer.node_score
    if budget is None:
        for node_id in nodes:
            score = node_score(desc, node_id)
            if score >= threshold:
                yield node_id, score
        return
    processed = 0
    for node_id in nodes:
        if budget.charge_nodes() and processed >= _ANYTIME_FLOOR:
            return
        processed += 1
        try:
            score = node_score(desc, node_id)
        except SUBSTRATE_ERRORS as exc:
            if not budget.anytime:
                raise
            budget.record_fault(f"node_score({node_id}): {exc}")
            continue
        if score >= threshold:
            yield node_id, score


def node_candidates(
    scorer: ScoringFunction,
    qnode: QueryNode,
    limit: Optional[int] = None,
    budget: Optional[Budget] = None,
    scope: Optional[AbstractSet[int]] = None,
) -> List[Tuple[int, float]]:
    """Scored, threshold-filtered candidates for *qnode*.

    Returns ``[(node_id, F_N), ...]`` sorted by decreasing score (ties by
    node id, so ordering is deterministic).

    Args:
        limit: optional cutoff keeping only the best *limit* candidates
            ("a cutoff threshold will be applied to retain a few candidate
            nodes", Section V-A).  None keeps everything above threshold.
        budget: optional :class:`Budget`; each scored node charges one
            node visit.  An anytime trip returns a partial -- but
            correctly scored and ordered -- list.
        scope: optional node-id set restricting the candidate universe
            (a shard's owned pivots).  The result is the unscoped one
            filtered to the scope, ANN extras included.  Combining
            ``scope`` with ``limit`` changes which nodes survive the
            cutoff, so callers needing global-truncation parity apply the
            limit globally and filter afterwards (see
            ``repro.core.stark``).
    """
    scorer.assert_graph_unchanged()
    desc = qnode.descriptor
    route = candidate_route(scorer, desc, limit, budget, scope)
    cache = route.cache
    visited = budget.nodes_visited if budget is not None else 0
    faults = len(budget.faults) if budget is not None else 0
    if cache is not None:
        # A budgeted hit pays what the cold scan would have charged, or
        # is a miss when that does not fit, and the scan trips.
        key = cache.candidate_key(scorer, qnode, limit)
        hit = cache.get(key, graph=scorer.graph, pay=(
            None if budget is None else budget.try_charge_nodes))
        if hit is not None:
            return list(hit)
    index = route.index
    if index is not None:
        index.refresh()
        with obs.trace("candidates.indexed", qnode=qnode.id,
                       route=route.reason) as span:
            scored, footprint = index.candidates(scorer, qnode, limit)
            span.annotate(admissible=len(scored))
    else:
        with obs.trace("candidates.score", qnode=qnode.id,
                       route=route.reason) as span:
            footprint = shortlist(scorer, qnode)
            nodes = footprint if scope is None else (
                n for n in footprint if n in scope)
            scored = list(_admissible(scorer, desc, nodes, budget))
            span.annotate(admissible=len(scored))

    def admits() -> bool:
        # Globally: an empty scoped list must not engage ``auto`` where
        # the unscoped call would not.  The first admit settles it.
        if scored or scope is None:
            return bool(scored)
        outside = (n for n in footprint if n not in scope)
        return next(_admissible(scorer, desc, outside, budget),
                    None) is not None

    probed: FrozenSet[int] = frozenset()
    if route.wants_tier(budget, admits):
        # The probe skips the whole universe, scored above: the tier
        # never runs on a tripped budget, so no tail is left unscored.
        extra, probed = route.tier.augment(
            scorer, qnode, scored, budget=budget, exclude=footprint)
        scored.extend(extra if scope is None
                      else [pair for pair in extra if pair[0] in scope])
    scored.sort(key=lambda t: (-t[1], t[0]))
    if limit is not None and len(scored) > limit:
        del scored[limit:]
    if cache is not None and (budget is None or (
            not budget.exhausted and len(budget.faults) == faults)):
        # The footprint covers every shortlisted node, not only the
        # admitted ones (a delta may lift one above threshold), plus
        # every probed node.  The cost is what this scan charged its
        # budget (unknown without one: the first budgeted call rescans).
        _remember(cache, key, tuple(scored), scorer, qnode,
                  frozenset(footprint) | probed if probed else footprint,
                  expanded_query_tokens(desc),
                  None if budget is None else budget.nodes_visited - visited)
    return scored
