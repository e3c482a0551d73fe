"""The unified :class:`EngineStats` schema every engine reports.

Before this module, ``framework.last_stats`` had a different shape per
algorithm, so batch merging, benchmarks and dashboards all special-cased
the algorithm.  ``EngineStats`` fixes the schema: **every** search
(star matchers count straight into one) populates
the same counters (irrelevant ones stay zero), ``as_dict`` always emits
the same keys in the same order, and numeric dicts merge by plain
addition (the batch API's cross-query aggregation).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Mapping

#: The unified counter schema, in export order.  Regression-tested: every
#: algorithm's ``last_stats`` exposes exactly these keys.
STAT_KEYS = (
    "pivots_considered",
    "pivots_evaluated",
    "pivots_with_match",
    "matches_emitted",
    "lattice_pops",
    "rows_read",
    "nodes_traversed",
    "messages_propagated",
    "joins_attempted",
    "join_depth",
    "cache_hits",
    "cache_misses",
)


@dataclass
class EngineStats:
    """One search run's counters under the unified schema.

    ``algorithm`` identifies the engine that produced the run ("stark",
    "stard", "starjoin", ...); it is carried as an attribute but excluded
    from :meth:`as_dict`, which stays numeric-only so snapshots from many
    queries (possibly different engines) merge by addition.

    ``pivots_evaluated`` counts the pivots whose lattice generator was
    built; at ``d == 1`` a pivot whose bound cannot beat a queued match,
    or that has no match at all, is considered but never evaluated.

    ``joins_attempted`` counts the candidate pairs the rank join
    examined: a newly fetched star match against one earlier match of
    another star, taken from the hash bucket of a joint node they share
    (charged where ``Budget.join_steps`` is).  ``join_depth`` is the
    total search depth ``D = sum_i |L_i|``, set on every exit of a join,
    a strict budget trip included.

    ``rows_read`` counts the pivot rows read into leaf lists
    (:func:`repro.core.stark.hop_one_reader`): one per pivot whose
    column bound reached the head of the pivot queue (its evaluation
    reuses the lists), one per evaluated pivot for ``stark`` at
    ``d >= 2``, which bounds none, plus the rescue's.

    At ``d >= 2``, ``nodes_traversed`` counts per evaluated pivot the
    nodes of its (d-1)-hop BFS plus the leaf candidates reached at hop
    d, and ``messages_propagated`` the entries of the seed and pushed
    layers plus, per distinct leaf map, the pivots whose row was read
    for its bound and holds a message of the last round.
    """

    algorithm: str = ""
    pivots_considered: int = 0
    pivots_evaluated: int = 0
    pivots_with_match: int = 0
    matches_emitted: int = 0
    lattice_pops: int = 0
    rows_read: int = 0
    nodes_traversed: int = 0
    messages_propagated: int = 0
    joins_attempted: int = 0
    join_depth: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Numeric counters only, every schema key present, fixed order."""
        return {key: getattr(self, key) for key in STAT_KEYS}

    @classmethod
    def from_dict(cls, data: Mapping[str, int],
                  algorithm: str = "") -> "EngineStats":
        known = {f.name for f in fields(cls)} - {"algorithm"}
        return cls(algorithm=algorithm,
                   **{k: int(v) for k, v in data.items() if k in known})

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Accumulate *other*'s counters into self (cross-query roll-up)."""
        for key in STAT_KEYS:
            setattr(self, key, getattr(self, key) + getattr(other, key))
        return self

    def summary(self) -> str:
        busy = ", ".join(
            f"{key}={getattr(self, key)}"
            for key in STAT_KEYS if getattr(self, key)
        )
        name = self.algorithm or "engine"
        return f"{name}: {busy}" if busy else f"{name}: all counters zero"
