"""Hashed character-n-gram embeddings over node descriptions.

The semantic tier needs a vector per node that two paraphrased
descriptions of the same entity land *near*, without any learned model
or external dependency.  Feature hashing over character trigrams plus
word tokens does exactly that: trigrams capture fuzzy surface overlap
("nite" vs "night"), tokens capture shared vocabulary, and hashing them
into a fixed ``dim``-dimensional space keeps every vector a flat
``array('f')`` column.

Determinism is a hard requirement -- every process embeds the graph
for itself and must probe the same neighbors -- so features hash with
:func:`zlib.crc32` (stable across runs, platforms and
``PYTHONHASHSEED``), never Python's randomized ``hash()``.  The sign
trick (feature hashing's variance reducer) takes the hash's top bit,
which is independent of the ``h % dim`` bucket for any ``dim`` well
below 2^31.
"""

from __future__ import annotations

import zlib
from array import array
from typing import List, Sequence

from repro.similarity.strings import ngrams
from repro.textutil import tokenize

#: Default embedding width.  64 float32 lanes keep the whole-graph
#: matrix at 256 bytes/node -- small enough to mmap casually, wide
#: enough that hash collisions stay rare for description-sized inputs.
DEFAULT_DIM = 64

#: Relative feature-family weights: shared whole tokens are stronger
#: paraphrase evidence than any single character trigram.
_TOKEN_WEIGHT = 2.0
_TYPE_WEIGHT = 1.5
_KEYWORD_WEIGHT = 1.0
_GRAM_WEIGHT = 1.0


def _hash(feature: str) -> int:
    return zlib.crc32(feature.encode("utf-8"))


class NgramEmbedder:
    """Deterministic feature-hashing embedder for node descriptions.

    One instance is shared by a :class:`~repro.ann.SemanticTier` for
    both the data side (graph nodes, embedded at build/refresh time)
    and the query side (embedded per probe); both sides must therefore
    use the *same* feature extraction, which :meth:`embed` is.
    """

    __slots__ = ("dim",)

    def __init__(self, dim: int = DEFAULT_DIM) -> None:
        if dim < 8:
            raise ValueError(f"embedding dim must be >= 8, got {dim}")
        self.dim = dim

    # ------------------------------------------------------------------
    def features(
        self, name: str, type: str = "", keywords: Sequence[str] = ()
    ) -> List[tuple]:
        """``(feature-string, weight)`` pairs for one description.

        Families are namespaced by prefix so a name token never
        collides with an equal-spelled type token at the string level
        (they may still collide in the hashed space -- that is the
        point of feature hashing).
        """
        pairs: List[tuple] = []
        name_lower = name.lower().strip()
        for gram in ngrams(name_lower, 3):
            pairs.append(("g:" + gram, _GRAM_WEIGHT))
        for token in tokenize(name):
            pairs.append(("t:" + token, _TOKEN_WEIGHT))
        for token in tokenize(type):
            pairs.append(("y:" + token, _TYPE_WEIGHT))
        for keyword in keywords:
            for token in tokenize(keyword):
                pairs.append(("k:" + token, _KEYWORD_WEIGHT))
        return pairs

    def embed(
        self, name: str, type: str = "", keywords: Sequence[str] = ()
    ) -> array:
        """L2-normalized ``array('f')`` vector for one description.

        A description with no extractable features (a blank name and
        no type or keywords) embeds to the zero vector: "no semantic
        signal", which :meth:`repro.ann.lsh.BandIndex.probe` answers
        with no neighbours before reading a bucket.

        Accumulation happens in float64 and rounds to float32 once at
        the end, so the query side and the stored float32 columns see
        the same values.
        """
        acc = [0.0] * self.dim
        dim = self.dim
        for feature, weight in self.features(name, type, keywords):
            h = _hash(feature)
            if h & 0x80000000:
                acc[h % dim] -= weight
            else:
                acc[h % dim] += weight
        norm = sum(x * x for x in acc) ** 0.5
        if norm > 0.0:
            acc = [x / norm for x in acc]
        return array("f", acc)

    def embed_descriptor(self, desc) -> array:
        """Vector of a :class:`~repro.similarity.descriptors.Descriptor`."""
        return self.embed(desc.name, desc.type, desc.keywords)

    def __repr__(self) -> str:
        return f"NgramEmbedder(dim={self.dim})"
