"""Section V-C alternative: TA-guided star search.

The paper sketches (and leaves to "future study" -- implemented here as an
ablation) a strategy combining graphTA's sorted access with stark's
pivot-wise search: scan pivot candidates in decreasing node-score order,
and bound every pivot not yet evaluated by its node score plus the best
possible leaf contributions anywhere in the graph.  Once that bound falls
to the best match already generated, no unseen pivot can supply the next
answer (Lemma 1) and scanning pauses until the queue's best drops.

That is the shared Lemma-1 loop (:meth:`repro.core.stark.StarKSearch.stream`)
run with a *global* leaf bound, and this module is that bound.  Compared
to ``stark`` it avoids evaluating low-score pivots when node scores
correlate with match scores; compared to ``stard`` its bound is global
rather than per-pivot, so it scans more pivots on d-bounded queries.  The
ablation benchmark quantifies both effects.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Mapping, Optional, Tuple

from repro.core.matches import Match
from repro.core.stark import StarKSearch
from repro.query.model import StarQuery
from repro.runtime.budget import Budget
from repro.similarity.scoring import ScoringFunction


class HybridStarSearch(StarKSearch):
    """The Section V-C alternative.

    Args:
        scorer: shared :class:`ScoringFunction`.
        d: search bound.
        injective: enforce one-to-one matching.
        candidate_limit: optional candidate cutoff.
        pivot_scope: optional pivot restriction (a shard's owned pivots),
            as for :class:`~repro.core.stark.StarKSearch`.  The global
            leaf bound reads full leaf maps, so it stays exact under it.
    """

    name = "hybrid"
    eval_span = "hybrid.pivot_eval"

    def __init__(
        self,
        scorer: ScoringFunction,
        d: int = 1,
        injective: bool = True,
        candidate_limit: Optional[int] = None,
        pivot_scope: Optional[AbstractSet[int]] = None,
    ) -> None:
        super().__init__(
            scorer, injective=injective, candidate_limit=candidate_limit,
            prop3=False, d=d, pivot_scope=pivot_scope,
        )

    def _bounds(
        self,
        star: StarQuery,
        weights: Mapping[int, float],
        pivot_cands: List[Tuple[int, float]],
        leaf_maps: List[Dict[int, float]],
    ) -> Optional[List[Optional[float]]]:
        """Pivot score plus the best total leaf contribution anywhere.

        Per leaf: its best candidate node score in the graph plus the
        best achievable edge score (1.0 caps relation scores; a direct
        edge always beats the decay), scaled by ``max(weight, 1)`` so an
        alpha-weighted node part stays covered (stard's rule).  A leaf
        with no admissible candidate leaves every pivot unmatchable.
        """
        if any(not leaf_scores for leaf_scores in leaf_maps):
            return [None] * len(pivot_cands)
        leaf_bound = sum(
            max(weights.get(leaf.id, 1.0), 1.0)
            * (max(leaf_scores.values()) + 1.0)
            for (leaf, _edge), leaf_scores in zip(star.leaves, leaf_maps)
        )
        pivot_weight = weights.get(star.pivot.id, 1.0)
        return [
            pivot_weight * pivot_score + leaf_bound
            for _pivot_node, pivot_score in pivot_cands
        ]

    def search(
        self, star: StarQuery, k: int, budget: Optional[Budget] = None
    ) -> List[Match]:
        """Top-k matches of *star*: the contract of
        :meth:`repro.core.stark.StarKSearch.search`."""
        return self._top_k(star, k, budget)
