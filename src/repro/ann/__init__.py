"""``repro.ann``: the two-stage semantic candidate tier.

Stage one is approximate: hashed character-n-gram embeddings
(:class:`NgramEmbedder`) under a random-hyperplane LSH band index
(:class:`BandIndex`) surface nodes whose descriptions are *near* the
query even when they share no tokens with it.  Stage two is exact:
the surfaced candidates are reranked with the real
:class:`~repro.similarity.scoring.ScoringFunction` before anything
reaches the search algorithms, so the tier changes recall, never
scoring semantics.  :class:`SemanticTier` packages both stages plus
the engagement policy (``use_semantic=auto|on|off``) and the
delta-journal refresh; it embeds the graph in memory on its first probe.
"""

from repro.ann.embedding import DEFAULT_DIM, NgramEmbedder
from repro.ann.lsh import (
    DEFAULT_BAND_BITS,
    DEFAULT_BANDS,
    DEFAULT_SEED,
    BandIndex,
    cosine,
    hyperplanes,
    signatures,
)
from repro.ann.semantic import (
    DEFAULT_PROBE_LIMIT,
    DEFAULT_RERANK_PERCENTILE,
    MODES,
    SemanticTier,
    attach_semantic,
    build_columns,
    detach_semantic,
)

__all__ = [
    "DEFAULT_BAND_BITS",
    "DEFAULT_BANDS",
    "DEFAULT_DIM",
    "DEFAULT_PROBE_LIMIT",
    "DEFAULT_RERANK_PERCENTILE",
    "DEFAULT_SEED",
    "MODES",
    "BandIndex",
    "NgramEmbedder",
    "SemanticTier",
    "attach_semantic",
    "build_columns",
    "cosine",
    "detach_semantic",
    "hyperplanes",
    "signatures",
]
