"""Procedure ``stard``: d-bounded top-k star search by message passing.

Section V-B.  The bottleneck of d-bounded search is finding the top-1
match of *every* pivot candidate -- an eager d-hop traversal per pivot
(what ``stark`` with ``d >= 2`` does).  ``stard`` avoids it:

1. **Message passing** (:mod:`repro.core.messages`): every leaf match
   seeds a message carrying its ``F_N``; ``d - 1`` propagation rounds
   give, per node and hop count, the best (top-2, to survive the
   ping-pong effect) leaf scores reachable by a walk of that length.
   Round 1 -- the one walk of the leaf candidates' edges -- also inverts
   them for the exact phase's last hop.
2. **Pivot estimates**: the one bound pass
   (:meth:`repro.core.stark.StarKSearch._read_pivots`) reads each pivot
   candidate's grouped row once.  It gives every leaf its exact hop-1
   entries (:func:`repro.core.stark.hop_one_reader`, relation-aware
   ``F_E`` included) and the last round, pulled at the pivot; with the
   pushed rounds and the monotone edge-path bound that is an *upper
   bound* on the pivot's top-1 match.
3. **Lazy exact phase**: the shared Lemma-1 loop
   (:meth:`repro.core.stark.StarKSearch.stream`) run with those bounds --
   pivots are visited in decreasing estimate order and one is traversed
   (exact bounded BFS) only when its estimate beats every
   already-generated match, so the stream stays exact while traversing
   only the pivots that matter.

This module is step 1 and the far terms of step 2.  At ``d == 1`` stard
degrades to ``stark`` (same runtime), as in Fig. 12.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Mapping, Optional, Tuple

from repro import obs
from repro.core.matches import Match
from repro.core.messages import Top2, propagate, pull
from repro.core.stark import (
    Entry,
    LeafProvider,
    PivotPlan,
    StarKSearch,
    bounded_leaf_provider,
    hop_one_reader,
    leaf_candidate_maps,
)
from repro.query.model import StarQuery
from repro.runtime.budget import Budget
from repro.runtime.faults import SUBSTRATE_ERRORS
from repro.similarity.scoring import ScoringFunction


class StarDSearch(StarKSearch):
    """The ``stard`` procedure bound to a graph + scoring function.

    Args:
        scorer: shared :class:`ScoringFunction`.
        d: search bound (>= 1); 1 runs as ``stark``.
        injective: enforce one-to-one matching.
        candidate_limit: optional pivot candidate cutoff; the leaf maps
            (and so the propagation seeds) are never cut.
        pivot_scope: optional pivot restriction (a shard's owned
            pivots), as for :class:`~repro.core.stark.StarKSearch`.
            Propagation seeds are never scoped, so every owned pivot's
            estimate is the one the unscoped run computes.
    """

    name = "stard"
    eval_span = "stard.pivot_eval"
    # The rescue's work cap counts scoring calls, not traversal, so it
    # stays in the direct neighborhood (d=1 matches are valid d-bounded
    # matches).
    rescue_d = 1

    def __init__(
        self,
        scorer: ScoringFunction,
        d: int = 2,
        injective: bool = True,
        candidate_limit: Optional[int] = None,
        pivot_scope: Optional[AbstractSet[int]] = None,
    ) -> None:
        super().__init__(
            scorer, injective=injective, candidate_limit=candidate_limit,
            prop3=False, d=d, pivot_scope=pivot_scope,
        )

    # ------------------------------------------------------------------
    def _propagate_leaves(
        self,
        star: StarQuery,
        leaf_maps: List[Dict[int, float]],
        budget: Optional[Budget] = None,
    ) -> Tuple[Dict[int, List[Dict[int, Top2]]], Dict[int, Dict[int, List[int]]]]:
        """Phase 1: ``d - 1`` rounds per *distinct* leaf map.

        The seeds are the leaf maps themselves -- the candidates the exact
        phase looks for -- whatever the ``candidate_limit``, which cuts
        pivots only.  Leaves carrying one constraint share one map
        (:func:`repro.core.stark.leaf_candidate_maps`) and so one
        propagation.  Round 1 walks the map's edges once, and that walk
        also inverts them for the provider's last hop
        (:func:`repro.core.messages.propagate`); round ``d`` is pulled
        at each pivot candidate's row by :meth:`_bounding_provider`.

        Returns ``B[0 .. d-1]`` by ``id(leaf map)``, and the inverted
        adjacencies by ``id(leaf map)`` for the maps whose walk ran to
        completion under the budget (the provider inverts any other
        itself).  Under an anytime budget, a substrate fault during one
        map's propagation leaves it with empty layers (its hop >= 2
        terms vanish) and the run continues, flagged.
        """
        anytime = budget is not None and budget.anytime
        rounds = self.d - 1
        layers_by_map: Dict[int, List[Dict[int, Top2]]] = {}
        last_hop: Dict[int, Dict[int, List[int]]] = {}
        for (leaf, _edge), seeds in zip(star.leaves, leaf_maps):
            if id(seeds) in layers_by_map:
                continue
            with obs.trace("stard.propagate", leaf=leaf.id,
                           rounds=rounds) as span:
                adjacent: Dict[int, List[int]] = {}
                try:
                    layers = propagate(self.graph, seeds, rounds,
                                       budget=budget, adjacent=adjacent)
                except SUBSTRATE_ERRORS as exc:
                    if not anytime:
                        raise
                    budget.record_fault(
                        f"propagation for leaf {leaf.id}: {exc}"
                    )
                    layers = [{} for _ in range(rounds + 1)]
                else:
                    if budget is None or not budget.exhausted:
                        last_hop[id(seeds)] = adjacent
                messages = sum(len(layer) for layer in layers)
                self.stats.messages_propagated += messages
                span.annotate(messages=messages)
            layers_by_map[id(seeds)] = layers
        return layers_by_map, last_hop

    def _bounding_provider(
        self,
        star: StarQuery,
        weights: Mapping[int, float],
        leaf_maps: List[Dict[int, float]],
        leaf_layers: Dict[int, List[Dict[int, Top2]]],
        pulled: Dict[int, int],
    ) -> LeafProvider:
        """Phase 2: the bound pass's provider, one row read per pivot.

        Per leaf, the row's hop-1 entries (:func:`hop_one_reader`, every
        leaf read) and one far entry ``(max(w, 1) * far,)``: ``far`` is
        the best, over the hops ``h >= 2`` whose decay passes the edge
        threshold, of ``B[h]``'s best origin (not the pivot, under
        injective matching) plus ``lambda^(h-1)``.  ``B[d]`` is
        ``B[d-1]`` pulled over the row -- the best origin over a merge is
        the best over its parts -- and a ``-inf`` pull (only the pivot's
        own messages) is no term.  A leaf with no entry ends the lists.

        *pulled* counts, per distinct map, the rows that reach ``B[d-1]``:
        the pulled round's messages, which the caller charges after the
        pass.
        """
        decay = self.scorer.path.decay
        edge_threshold = self.scorer.config.edge_threshold
        grouped_relations = self.graph.grouped_relations
        injective = self.injective
        d = self.d
        # Hop d scores the pure decay; below the threshold it is no term.
        decay_d = decay(d)
        pulled_term = decay_d >= edge_threshold
        # Per distinct map: B[d-1] to pull, and the pushed layers
        # B[2 .. d-1] whose decay passes the threshold.
        maps = {}
        for leaf_scores in leaf_maps:
            layers = leaf_layers[id(leaf_scores)]
            maps[id(leaf_scores)] = (layers[d - 1], [
                (layers[hops], decay(hops)) for hops in range(2, d)
                if decay(hops) >= edge_threshold
            ])
            pulled.setdefault(id(leaf_scores), 0)
        scales = [
            (id(leaf_scores), max(weights.get(leaf.id, 1.0), 1.0))
            for (leaf, _edge), leaf_scores in zip(star.leaves, leaf_maps)
        ]
        read = hop_one_reader(self.scorer, star, weights, leaf_maps)
        no_term = float("-inf")

        def provide(pivot_node: int) -> List[List[Entry]]:
            row = dict(grouped_relations(pivot_node))
            banned = pivot_node if injective else None
            far = {}
            for key, (previous, pushed) in maps.items():
                best = no_term
                node_bound = pull(previous, row, banned)
                if node_bound is not None:
                    pulled[key] += 1
                    if pulled_term:
                        best = node_bound + decay_d
                for layer, edge_score in pushed:
                    top2 = layer.get(pivot_node)
                    if top2 is None:
                        continue
                    node_bound = top2.best_excluding(banned)
                    if node_bound is not None and (
                            node_bound + edge_score > best):
                        best = node_bound + edge_score
                far[key] = best
            lists = read(pivot_node, False, {0: row})
            for index, (entries, (key, scale)) in enumerate(
                    zip(lists, scales)):
                if far[key] > no_term:
                    entries.append((scale * far[key],))
                if not entries:
                    return lists[:index + 1]
            return lists

        return provide

    # ------------------------------------------------------------------
    def _plan(
        self,
        star: StarQuery,
        weights: Mapping[int, float],
        budget: Optional[Budget],
    ) -> PivotPlan:
        """Propagate from the leaf maps, then bound every pivot
        candidate by its estimate.

        The leaf maps are scored once, under the budget: they seed the
        propagation and are the candidates the exact phase looks for.
        """
        if self.d == 1:
            return super()._plan(star, weights, budget)
        pivot_cands = self._pivot_candidates(star, budget=budget)
        leaf_maps = leaf_candidate_maps(self.scorer, star, budget=budget)
        leaf_layers, last_hop = self._propagate_leaves(
            star, leaf_maps, budget=budget)
        provider = bounded_leaf_provider(
            self.scorer, star, weights, self.d, self.injective,
            leaf_maps=leaf_maps, traversal_stats=self.stats,
            last_hop=last_hop,
        )
        with obs.trace("stard.estimates", pivots=len(pivot_cands)) as span:
            pulled: Dict[int, int] = {}
            bounds, read = self._read_pivots(
                star, weights, pivot_cands,
                self._bounding_provider(star, weights, leaf_maps,
                                        leaf_layers, pulled), budget)
            for count in pulled.values():
                self.stats.messages_propagated += count
                if budget is not None:
                    budget.charge_messages(count)
            span.annotate(viable=len(read), pulled=sum(pulled.values()))
        return PivotPlan(pivot_cands, bounds, provider)

    def search(
        self, star: StarQuery, k: int, budget: Optional[Budget] = None
    ) -> List[Match]:
        """Top-k matches of *star*: the contract of
        :meth:`repro.core.stark.StarKSearch.search`."""
        return self._top_k(star, k, budget)
