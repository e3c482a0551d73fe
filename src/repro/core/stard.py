"""Procedure ``stard``: d-bounded top-k star search by message passing.

Section V-B.  The bottleneck of d-bounded search is finding the top-1
match of *every* pivot candidate -- an eager d-hop traversal per pivot
(what ``stark`` with ``d >= 2`` does).  ``stard`` avoids it:

1. **Message passing** (:mod:`repro.core.messages`): every leaf match
   seeds a message carrying its ``F_N``; ``d`` propagation rounds give,
   per node and hop count, the best (top-2, to survive the ping-pong
   effect) leaf scores reachable by a walk of that length.
2. **Pivot estimates**: combining the propagated scores with the monotone
   edge-path bound yields an *upper bound* on each pivot's top-1 match.
3. **Lazy exact phase**: the shared Lemma-1 loop
   (:meth:`repro.core.stark.StarKSearch.stream`) run with those bounds --
   pivots are visited in decreasing estimate order and one is traversed
   (exact bounded BFS) only when its estimate beats every
   already-generated match, so the stream stays exact while traversing
   only the pivots that matter.

This module is steps 1 and 2.  At ``d == 1`` stard degrades to ``stark``
(same runtime), as in Fig. 12.
"""

from __future__ import annotations

from typing import AbstractSet, Collection, Dict, List, Mapping, Optional

from repro import obs
from repro.core.candidates import node_candidates
from repro.core.matches import Match
from repro.core.messages import (
    Top2,
    estimate_leaf_bound,
    propagate,
    pulls_last_round,
)
from repro.core.stark import (
    PivotPlan,
    StarKSearch,
    bounded_leaf_provider,
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
        candidate_limit: optional pivot/leaf candidate cutoff.
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
        budget: Optional[Budget] = None,
        leaf_maps: Optional[List[Dict[int, float]]] = None,
        targets: Optional[Collection[int]] = None,
    ) -> Dict[object, List[Dict[int, Top2]]]:
        """Phase 1: one propagation per *distinct* leaf constraint.

        Distinctness is by canonical descriptor content
        (``Descriptor.cache_key``), so two leaves carrying the same
        constraint -- common in template queries -- share one
        propagation instead of paying it twice.

        *leaf_maps* (one per leaf position, as ``_plan`` built them) are
        the seeds unless a ``candidate_limit`` is set: a cutoff forces
        truncated seeds.  *targets* are the pivot candidates, the only
        nodes the last layer is read at
        (:func:`repro.core.messages.propagate`).

        Under an anytime budget, a substrate fault during one leaf's
        propagation leaves that leaf with empty layers (its pivot
        estimates vanish) and the run continues, flagged.
        """
        anytime = budget is not None and budget.anytime
        results: Dict[object, List[Dict[int, Top2]]] = {}
        for position, (leaf, _edge) in enumerate(star.leaves):
            desc = leaf.descriptor.cache_key
            if desc in results:
                continue
            with obs.trace("stard.propagate", leaf=leaf.id,
                           rounds=self.d) as span:
                pulled = 0
                try:
                    if leaf_maps is not None and self.candidate_limit is None:
                        seeds = leaf_maps[position]
                    else:
                        seeds = dict(node_candidates(
                            self.scorer, leaf, limit=self.candidate_limit,
                            budget=budget,
                        ))
                    layers = propagate(self.graph, seeds, self.d,
                                       budget=budget, targets=targets)
                    if pulls_last_round(targets, layers[-2]):
                        pulled = len(layers[-1])
                except SUBSTRATE_ERRORS as exc:
                    if not anytime:
                        raise
                    budget.record_fault(
                        f"propagation for leaf {leaf.id}: {exc}"
                    )
                    layers = [{} for _ in range(self.d + 1)]
                messages = sum(len(layer) for layer in layers)
                self.stats.messages_propagated += messages
                span.annotate(messages=messages, pulled=pulled)
            results[desc] = layers
        return results

    def _pivot_estimate(
        self,
        star: StarQuery,
        pivot_node: int,
        pivot_score: float,
        node_weights: Mapping[int, float],
        leaf_layers: Dict[object, List[Dict[int, Top2]]],
    ) -> Optional[float]:
        """Upper bound on the best match pivoted at *pivot_node*."""
        scorer = self.scorer
        total = node_weights.get(star.pivot.id, 1.0) * pivot_score
        for leaf, _edge in star.leaves:
            bound = estimate_leaf_bound(
                leaf_layers[leaf.descriptor.cache_key],
                pivot_node,
                self.d,
                scorer.edge_upper_bound,
                scorer.config.edge_threshold,
                exclude_pivot=self.injective,
            )
            if bound is None:
                return None
            weight = node_weights.get(leaf.id, 1.0)
            # bound = node_part + edge_part with node weight 1; reweigh the
            # node part conservatively: weight <= 1 shrinks, > 1 grows.
            if weight != 1.0:
                # node part is at most the whole bound; scaling the whole
                # bound by max(weight, 1) keeps it an upper bound.
                bound = bound * max(weight, 1.0)
            total += bound
        return total

    # ------------------------------------------------------------------
    def _plan(
        self,
        star: StarQuery,
        weights: Mapping[int, float],
        budget: Optional[Budget],
    ) -> PivotPlan:
        """Propagate towards the pivot candidates, then bound each of
        them by its estimate.

        The leaf maps are scored once, under the budget: they seed the
        propagation and are the candidates the exact phase looks for.
        """
        if self.d == 1:
            return super()._plan(star, weights, budget)
        pivot_cands = self._pivot_candidates(star, budget=budget)
        leaf_maps = leaf_candidate_maps(self.scorer, star, budget=budget)
        leaf_layers = self._propagate_leaves(
            star, budget=budget, leaf_maps=leaf_maps,
            targets=[pivot_node for pivot_node, _score in pivot_cands],
        )
        provider = bounded_leaf_provider(
            self.scorer, star, weights, self.d, self.injective,
            leaf_maps=leaf_maps, traversal_stats=self.stats,
        )
        with obs.trace("stard.estimates", pivots=len(pivot_cands)) as span:
            bounds = [
                self._pivot_estimate(
                    star, pivot_node, pivot_score, weights, leaf_layers
                )
                for pivot_node, pivot_score in pivot_cands
            ]
            span.annotate(
                viable=sum(bound is not None for bound in bounds)
            )
        return pivot_cands, bounds, provider

    def search(
        self, star: StarQuery, k: int, budget: Optional[Budget] = None
    ) -> List[Match]:
        """Top-k matches of *star*: the contract of
        :meth:`repro.core.stark.StarKSearch.search`."""
        return self._top_k(star, k, budget)
