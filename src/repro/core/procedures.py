"""The one place a star procedure is chosen and constructed.

``stark``, ``stard`` and ``hybrid`` are one lazy Lemma-1 loop
(:meth:`repro.core.stark.StarKSearch.stream`) under three pivot bounds;
every caller that needs a star matcher -- the framework, ``starjoin``'s
streams, the shard workers, the evaluation harness -- gets it here.
"""

from __future__ import annotations

from typing import AbstractSet, Optional

from repro.core.hybrid import HybridStarSearch
from repro.core.stard import StarDSearch
from repro.core.stark import StarKSearch
from repro.errors import SearchError
from repro.similarity.scoring import ScoringFunction

#: Star-procedure choices.  ``auto`` is the paper's routing (stark at
#: d = 1, stard at d >= 2); the explicit names pin one procedure
#: regardless of ``d``.  All three are exact: they produce score-identical
#: rankings (only exact-tie order may vary), so the choice is purely a
#: performance decision, which is why the learned planner may pick it per
#: query.
ALGORITHMS = ("auto", "stark", "stard", "hybrid")


def star_matcher(
    scorer: ScoringFunction,
    algorithm: str = "auto",
    d: int = 1,
    injective: bool = True,
    candidate_limit: Optional[int] = None,
    directed: bool = False,
    pivot_scope: Optional[AbstractSet[int]] = None,
    leaf_scope: Optional[AbstractSet[int]] = None,
):
    """Build the matcher for *algorithm* at search bound *d*.

    Raises:
        SearchError: for an unknown algorithm, or for an option the
            chosen procedure does not implement (stard and hybrid ignore
            edge orientation, hybrid has no scopes) -- silently dropping
            it would change results.
    """
    if algorithm not in ALGORITHMS:
        raise SearchError(
            f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}"
        )
    if algorithm == "auto":
        algorithm = "stark" if d == 1 else "stard"
    if algorithm == "stark":
        return StarKSearch(
            scorer, injective=injective, candidate_limit=candidate_limit,
            d=d, directed=directed,
            pivot_scope=pivot_scope, leaf_scope=leaf_scope,
        )
    if directed:
        raise SearchError(
            f"directed matching requires algorithm auto or stark, "
            f"got {algorithm!r}"
        )
    if algorithm == "stard":
        return StarDSearch(
            scorer, d=d, injective=injective,
            candidate_limit=candidate_limit,
            pivot_scope=pivot_scope, leaf_scope=leaf_scope,
        )
    if pivot_scope is not None or leaf_scope is not None:
        raise SearchError("hybrid does not implement pivot/leaf scopes")
    return HybridStarSearch(
        scorer, d=d, injective=injective, candidate_limit=candidate_limit,
    )
