"""Core STAR algorithms.

* :class:`StarKSearch` -- procedure ``stark`` (Section V-A).
* :class:`StarDSearch` -- procedure ``stard`` (Section V-B).
* :class:`StarJoin` -- procedure ``starjoin`` + alpha-scheme (Section VI-A).
* :class:`Star` -- the full framework (Fig. 4).
* :class:`SearchOptions` -- the engine's knobs, declared once.
* :func:`tune_parameters` -- Section VI-C's offline grid search.
"""

from repro.core.candidates import node_candidates, shortlist
from repro.core.framework import Star
from repro.core.lattice import LeafEntry, PivotMatchGenerator, make_leaf_list
from repro.core.matches import (
    Match,
    distinct_by,
    is_monotone_non_increasing,
    scores_of,
)
from repro.core.options import SearchOptions
from repro.core.stard import StarDSearch
from repro.core.stark import StarKSearch, bounded_leaf_provider
from repro.core.starjoin import StarJoin, alpha_weights
from repro.core.topk import (
    kth_largest_sum_bound,
    prop3_keep_sets,
    prop3_prune,
    top_k,
    top_k_items,
    top_k_sorted,
)
from repro.core.tuning import TuningResult, aggregate_depth, tune_parameters

__all__ = [
    "LeafEntry",
    "Match",
    "PivotMatchGenerator",
    "SearchOptions",
    "Star",
    "StarDSearch",
    "StarJoin",
    "StarKSearch",
    "TuningResult",
    "aggregate_depth",
    "alpha_weights",
    "bounded_leaf_provider",
    "distinct_by",
    "is_monotone_non_increasing",
    "kth_largest_sum_bound",
    "make_leaf_list",
    "node_candidates",
    "prop3_keep_sets",
    "prop3_prune",
    "scores_of",
    "shortlist",
    "top_k",
    "top_k_items",
    "top_k_sorted",
    "tune_parameters",
]
