"""The one place a star procedure is chosen and constructed.

``stark`` and ``stard`` are one lazy Lemma-1 loop
(:meth:`repro.core.stark.StarKSearch.stream`) under two pivot bounds;
every caller that needs a star matcher -- the framework, ``starjoin``'s
streams, the shard workers, the evaluation harness -- gets it here, from
the :class:`~repro.core.options.SearchOptions` record it was handed.
"""

from __future__ import annotations

from typing import AbstractSet, Optional

from repro.core.options import ALGORITHMS, SearchOptions
from repro.core.stard import StarDSearch
from repro.core.stark import StarKSearch
from repro.similarity.scoring import ScoringFunction

__all__ = ["ALGORITHMS", "star_matcher"]


def star_matcher(
    scorer: ScoringFunction,
    options: SearchOptions,
    pivot_scope: Optional[AbstractSet[int]] = None,
):
    """Build the matcher ``options.algorithm`` names at ``options.d``,
    its pivots restricted to *pivot_scope* (a shard's owned pivots).

    What a procedure does not implement among the *options* (edge
    orientation) the record has already rejected.
    """
    algorithm = options.algorithm
    if algorithm == "auto":
        algorithm = "stark" if options.d == 1 else "stard"
    if algorithm == "stark":
        return StarKSearch(
            scorer, injective=options.injective,
            candidate_limit=options.candidate_limit, d=options.d,
            directed=options.directed, pivot_scope=pivot_scope,
        )
    return StarDSearch(
        scorer, d=options.d, injective=options.injective,
        candidate_limit=options.candidate_limit, pivot_scope=pivot_scope,
    )
