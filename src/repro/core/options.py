"""``SearchOptions``: the engine's options, declared once.

The one place the parameters of Framework STAR (Fig. 4) and of the
layers around it are named, defaulted and validated.  Every front door
-- ``Star``, ``ShardedEngine``, ``search_many``, the serve workers, the
CLI -- turns what it was given into one record through
:meth:`SearchOptions.coerce` and hands the record itself down.
It is frozen and hashable: a variant is
``dataclasses.replace(engine.options, **overrides)``, never a mutation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Union

from repro.errors import DecompositionError, SearchError
from repro.query.decomposition import METHODS

#: Star procedures; all exact, so the choice is purely a performance
#: decision.  ``auto`` is the paper's routing (Fig. 4).
ALGORITHMS = ("auto", "stark", "stard")
_TIER_MODES = ("auto", "on", "off")


def _option(default, doc: str, choices=None):
    """A field and its one description (``--help`` prints the same)."""
    return field(default=default, metadata={"doc": doc, "choices": choices})


@dataclass(frozen=True)
class SearchOptions:
    """Everything that configures an engine, validated on construction.

    The last field routes construction: ``Star`` attaches the store's
    index columns.  Each field's description is its ``metadata["doc"]``.

    Raises:
        SearchError / DecompositionError: for an invalid value or
            combination.
    """

    d: int = _option(
        1, "search bound: a query edge may match a path of length <= d")
    alpha: float = _option(
        0.5, "alpha-scheme split for rank joins, in [0, 1]")
    decomposition_method: str = _option(
        "simdec", "decomposition method, Section VI-B", METHODS)
    lam: float = _option(
        1.0, "Eq. 5's lambda trade-off for the optimized decompositions")
    injective: bool = _option(True, "enforce one-to-one matching")
    candidate_limit: Optional[int] = _option(
        None, "candidate cutoff for large graphs")
    directed: bool = _option(
        False, "enforce query-edge orientation (d=1, stark only)")
    use_index: str = _option(
        "auto", "route candidate generation through the upper-bound-pruned "
        "graph index (identical results): 'on' always; 'auto' only for "
        "calls that carry a candidate cutoff (candidate_limit, which no "
        "CLI command sets); 'off' never builds one.  A scorer that already holds an "
        "index keeps it", _TIER_MODES)
    use_semantic: str = _option(
        "auto", "augment token shortlists with ANN-sourced, exactly-"
        "reranked candidates: 'auto' only when the shortlist finds "
        "nothing (out-of-vocabulary queries), 'on' on every non-wildcard "
        "candidate call, 'off' never attaches the tier.  A scorer that "
        "already holds a tier (repro.ann.attach_semantic) keeps it",
        _TIER_MODES)
    algorithm: str = _option(
        "auto", "star procedure, for direct star searches, starjoin's "
        "streams and shard matchers alike (auto = the paper's routing: "
        "stark at d=1, stard at d>=2; a name pins one at any d; all are "
        "exact and score-identical, only exact-tie order may vary)",
        ALGORITHMS)
    mmap_store: Any = _option(
        None, "an RKGS2 store (path, reader or mmap-backed graph) whose "
        "index columns are attached zero-copy instead of built, unless "
        "use_index is off or the scorer already holds an index")

    def __post_init__(self) -> None:
        if self.d < 1:
            raise SearchError(f"search bound d must be >= 1, got {self.d}")
        if self.directed and self.d != 1:
            raise SearchError("directed matching is defined for d == 1 only")
        if not (0.0 <= self.alpha <= 1.0):
            raise SearchError(f"alpha={self.alpha} must be in [0, 1]")
        method = self.decomposition_method
        if method not in METHODS:
            # Fail fast: otherwise a bad name only surfaces on the first
            # *non-star* search, deep inside decompose.
            raise DecompositionError(
                f"unknown decomposition method {method!r}; "
                f"choose from {METHODS}"
            )
        for name in ("use_index", "use_semantic"):
            if getattr(self, name) not in _TIER_MODES:
                raise SearchError(
                    f"{name} must be auto, on or off, "
                    f"got {getattr(self, name)!r}"
                )
        if self.algorithm not in ALGORITHMS:
            raise SearchError(
                f"algorithm must be one of {ALGORITHMS}, "
                f"got {self.algorithm!r}"
            )
        if self.directed and self.algorithm not in ("auto", "stark"):
            # stard does not implement edge orientation; silently
            # ignoring it would change results.
            raise SearchError(
                f"directed matching requires algorithm auto or stark, "
                f"got {self.algorithm!r}"
            )
        if self.candidate_limit is not None and self.candidate_limit < 1:
            raise SearchError(
                f"candidate_limit must be >= 1, got {self.candidate_limit}")

    @classmethod
    def coerce(
        cls,
        options: Union["SearchOptions", Mapping[str, Any], None] = None,
        knobs: Optional[Mapping[str, Any]] = None,
    ) -> "SearchOptions":
        """The record a front door was handed: *options* (a record, or a
        mapping of field values) or keyword *knobs*, never both.

        Raises:
            SearchError: for both at once, or a key that is no field.
        """
        if options is not None and knobs:
            raise SearchError(
                f"pass options= or keyword options, not both "
                f"(got options= and {sorted(knobs)})"
            )
        if isinstance(options, cls):
            return options
        values = dict(knobs or {}) if options is None else dict(options)
        unknown = sorted(set(values).difference(FIELD_NAMES))
        if unknown:
            raise SearchError(
                f"unknown search option {', '.join(map(repr, unknown))}; "
                f"valid options: {', '.join(FIELD_NAMES)}"
            )
        return cls(**values)


#: Every option name, in declaration order.
FIELD_NAMES = tuple(f.name for f in dataclasses.fields(SearchOptions))
