"""Procedure ``stard``: d-bounded top-k star search by message passing.

Section V-B.  The bottleneck of d-bounded search is finding the top-1
match of *every* pivot candidate -- an eager d-hop traversal per pivot
(what ``stark`` with ``d >= 2`` does).  ``stard`` avoids it:

1. **Message passing** (:mod:`repro.core.messages`): every leaf match
   seeds a message carrying its ``F_N``; ``d - 1`` propagation rounds
   give, per node and hop count, the best (top-2, to survive the
   ping-pong effect) leaf scores reachable by a walk of that length.
   Each round is one array pass over the graph's id columns, and round
   ``d`` is pulled over every pivot candidate's row in one gather.
2. **Pivot estimates**: every pivot candidate's column bound
   (:func:`repro.core.stark.column_bounds`) takes, per leaf, the larger
   of its best hop-1 term off the id columns and its far term from step
   1, in one array pass that reads no row.  A pivot whose column bound
   reaches the head of the shared loop's queue has its grouped row read
   once (:meth:`StarDSearch._bounding_provider`): every leaf's exact
   hop-1 entries (:func:`repro.core.stark.hop_one_reader`,
   relation-aware ``F_E`` included) beside the far term give its row
   bound.  With the monotone edge-path bound both are *upper bounds* on
   the pivot's top-1 match.
3. **Lazy exact phase**: the shared Lemma-1 loop
   (:meth:`repro.core.stark.StarKSearch.stream`) run with those bounds --
   pivots are visited in decreasing estimate order, and one has its row
   read, then is traversed (exact bounded BFS), only while its estimate
   beats every already-generated match, so the stream stays exact while
   reading and traversing only the pivots that matter.

This module is step 1 and the far terms of step 2.  At ``d == 1`` stard
degrades to ``stark`` (same runtime), as in Fig. 12.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.matches import Match
from repro.core.messages import propagate, pull
from repro.core.stark import (
    Entry,
    LeafProvider,
    PivotPlan,
    StarKSearch,
    bounded_leaf_provider,
    column_bounds,
    hop_one_reader,
    leaf_candidate_maps,
    row_bounder,
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
    def _far_terms(
        self,
        star: StarQuery,
        leaf_maps: List[Dict[int, float]],
        pivots: np.ndarray,
        budget: Optional[Budget] = None,
    ) -> Dict[int, Tuple[np.ndarray, List[bool]]]:
        """Phase 1: per *distinct* leaf map, propagation and the far term
        of every pivot candidate (*pivots*, in candidate order).

        The seeds are the leaf maps themselves -- the candidates the exact
        phase looks for -- whatever the ``candidate_limit``, which cuts
        pivots only.  Leaves carrying one constraint share one map
        (:func:`repro.core.stark.leaf_candidate_maps`) and so one
        propagation: ``d - 1`` pushed rounds, then round ``d`` pulled
        over every pivot's row in one gather (:func:`pull`).

        A pivot's far term is the best, over the hops ``h >= 2`` whose
        decay passes the edge threshold, of ``B[h]``'s best origin (not
        the pivot, under injective matching) plus ``lambda^(h-1)``; the
        best origin over a merge is the best over its parts, so ``B[d]``
        is ``B[d-1]`` pulled over the row.  ``-inf`` is no term: no hop
        reaches, or the pull holds only the pivot's own messages.

        Returns, by ``id(leaf map)``, the far terms and whether each
        pivot's row reaches ``B[d-1]`` at all (the pulled round's
        messages; a row read for a bound charges its own).
        Under an anytime budget, a substrate fault while one map
        propagates leaves it no far terms (its hop >= 2 terms vanish)
        and the run continues, flagged.
        """
        anytime = budget is not None and budget.anytime
        decay = self.scorer.path.decay
        edge_threshold = self.scorer.config.edge_threshold
        d = self.d
        rounds = d - 1
        # Hop d scores the pure decay; below the threshold it is no term.
        decay_d = decay(d)
        pushed = [hops for hops in range(2, d)
                  if decay(hops) >= edge_threshold]
        no_terms = np.full(len(pivots), -np.inf)
        terms: Dict[int, Tuple[np.ndarray, List[bool]]] = {}
        for (leaf, _edge), seeds in zip(star.leaves, leaf_maps):
            if id(seeds) in terms:
                continue
            with obs.trace("stard.propagate", leaf=leaf.id,
                           rounds=rounds) as span:
                try:
                    layers = propagate(self.graph, seeds, rounds,
                                       budget=budget)
                    far, reached = pull(self.graph.columns(),
                                        layers[rounds], pivots,
                                        self.injective)
                    far = (far + decay_d if decay_d >= edge_threshold
                           else no_terms)
                    for hops in pushed:
                        far = np.maximum(far, layers[hops].best_excluding(
                            pivots, self.injective) + decay(hops))
                except SUBSTRATE_ERRORS as exc:
                    if not anytime:
                        raise
                    budget.record_fault(
                        f"propagation for leaf {leaf.id}: {exc}"
                    )
                    layers, far = [], no_terms
                    reached = np.zeros(len(pivots), dtype=bool)
                messages = sum(layer.count() for layer in layers)
                self.stats.messages_propagated += messages
                span.annotate(messages=messages)
            terms[id(seeds)] = (far, reached.tolist())
        return terms

    def _bounding_provider(
        self,
        star: StarQuery,
        weights: Mapping[int, float],
        leaf_maps: List[Dict[int, float]],
        pivot_cands: List[Tuple[int, float]],
        terms: Dict[int, Tuple[np.ndarray, List[bool]]],
        budget: Optional[Budget],
        hop_one: Dict[int, List[List[Entry]]],
    ) -> LeafProvider:
        """Phase 2's row read, one per pivot whose column bound reached
        the head of the queue.

        Per leaf, the row's hop-1 entries (:func:`hop_one_reader`, every
        leaf read) and one far entry ``(max(w, 1) * far,)`` from
        :meth:`_far_terms`.  A leaf with no entry ends the lists.  The
        hop-1 lists, without the far entries, are kept by pivot in
        *hop_one* for evaluation, so no pivot's row is read twice.

        A read charges the pulled round's messages it holds: one per
        distinct map whose ``B[d-1]`` the row reaches.
        """
        position = {node: index
                    for index, (node, _score) in enumerate(pivot_cands)}
        scales = [
            (id(leaf_scores), max(weights.get(leaf.id, 1.0), 1.0))
            for (leaf, _edge), leaf_scores in zip(star.leaves, leaf_maps)
        ]
        far_of = {key: far.tolist() for key, (far, _reached) in terms.items()}
        read = hop_one_reader(self.scorer, star, weights, leaf_maps,
                              stats=self.stats)
        no_term = float("-inf")

        def provide(pivot_node: int) -> List[List[Entry]]:
            lists = hop_one[pivot_node] = read(pivot_node, False)
            index = position[pivot_node]
            pulled = sum(reached[index] for _far, reached in terms.values())
            if pulled:
                self.stats.messages_propagated += pulled
                if budget is not None:
                    budget.charge_messages(pulled)
            bounding = []
            for entries, (key, scale) in zip(lists, scales):
                far = far_of[key][index]
                if far > no_term:
                    entries = entries + [(scale * far,)]
                bounding.append(entries)
                if not entries:
                    break
            return bounding

        return provide

    # ------------------------------------------------------------------
    def _plan(
        self,
        star: StarQuery,
        weights: Mapping[int, float],
        budget: Optional[Budget],
    ) -> PivotPlan:
        """Propagate from the leaf maps, then bound every pivot
        candidate by its column estimate; no row is read here.

        The leaf maps are scored once, under the budget: they seed the
        propagation and are the candidates the exact phase looks for.
        """
        if self.d == 1:
            return super()._plan(star, weights, budget)
        pivot_cands = self._pivot_candidates(star, budget=budget)
        leaf_maps = leaf_candidate_maps(self.scorer, star, budget=budget)
        pivots = np.fromiter((node for node, _score in pivot_cands),
                             dtype=np.int64, count=len(pivot_cands))
        terms = self._far_terms(star, leaf_maps, pivots, budget=budget)
        hop_one: Dict[int, List[List[Entry]]] = {}
        provider = bounded_leaf_provider(
            self.scorer, star, weights, self.d, self.injective,
            leaf_maps=leaf_maps, traversal_stats=self.stats,
            hop_one=hop_one,
        )
        with obs.trace("stard.estimates", pivots=len(pivot_cands)) as span:
            scales = [max(weights.get(leaf.id, 1.0), 1.0)
                      for leaf, _edge in star.leaves]
            bounds = column_bounds(
                self.scorer, star, weights, pivot_cands, leaf_maps,
                far=[scale * terms[id(leaf_scores)][0]
                     for scale, leaf_scores in zip(scales, leaf_maps)])
            reader = row_bounder(
                pivot_cands, weights.get(star.pivot.id, 1.0),
                self._bounding_provider(star, weights, leaf_maps,
                                        pivot_cands, terms, budget,
                                        hop_one))
            span.annotate(viable=sum(bound is not None for bound in bounds),
                          rows_read=self.stats.rows_read)
        return PivotPlan(pivot_cands, bounds, provider, reader)

    def search(
        self, star: StarQuery, k: int, budget: Optional[Budget] = None
    ) -> List[Match]:
        """Top-k matches of *star*: the contract of
        :meth:`repro.core.stark.StarKSearch.search`."""
        return self._top_k(star, k, budget)
