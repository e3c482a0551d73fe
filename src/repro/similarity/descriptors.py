"""Descriptors: the common "description" view both sides of a match share.

A similarity function compares a *query-side* description (a query node's
label, type constraint and keywords) against a *data-side* description (a
graph node's name, type and keywords).  Both are represented by
:class:`Descriptor`, which precomputes the token sets, n-grams and phonetic
keys the 46 similarity functions consume, so per-pair evaluation does no
repeated string processing.

:class:`CorpusContext` holds graph-level statistics (IDF table, degree
normalization) needed by the TF-IDF and frequency measures; one instance is
built per graph and shared across queries.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.graph.knowledge_graph import KnowledgeGraph, NodeData
from repro.textutil import tokenize, tokenize_tuple
from repro.similarity.strings import initials, ngrams, rough_phonetic, soundex

WILDCARD = "?"


class DescriptorKey:
    """Canonical, pre-hashed identity of a descriptor's content.

    Scoring memos and the cross-query candidate cache key on descriptor
    *content* so equal constraints from different query objects share
    entries.  Hashing a raw content tuple on every hot-path dict lookup
    re-hashes its strings each time; a ``DescriptorKey`` hashes the tuple
    once at construction and serves the stored hash thereafter.  Keys are
    interned (see :func:`intern_descriptor_key`), so equality checks
    between live keys normally short-circuit on identity.
    """

    __slots__ = ("content", "_hash")

    def __init__(self, content: Tuple) -> None:
        self.content = content
        self._hash = hash(content)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, DescriptorKey) and self.content == other.content

    def __repr__(self) -> str:
        return f"DescriptorKey{self.content!r}"


#: Intern table for descriptor keys.  Bounded: query-side descriptors are
#: few, but pathological workloads (millions of distinct constraints)
#: must not grow it without limit -- on overflow the table resets, which
#: only costs the identity fast path, never correctness.
_KEY_INTERN: Dict[Tuple, DescriptorKey] = {}
_KEY_INTERN_MAX = 65536


def intern_descriptor_key(content: Tuple) -> DescriptorKey:
    """The canonical :class:`DescriptorKey` for *content* (interned)."""
    key = _KEY_INTERN.get(content)
    if key is None:
        if len(_KEY_INTERN) >= _KEY_INTERN_MAX:
            _KEY_INTERN.clear()
        key = DescriptorKey(content)
        _KEY_INTERN[content] = key
    return key


class Descriptor:
    """Precomputed description features for one node-side of a comparison.

    Attributes:
        name: raw text (entity name or query label); ``"?"`` is a wildcard.
        type: type label ("" when unconstrained).
        keywords: extra keywords.
        degree: data-side undirected degree (0 for query-side descriptors).
    """

    __slots__ = (
        "name", "type", "keywords", "degree", "is_wildcard", "name_lower",
        "name_tokens", "name_token_set", "token_set", "keyword_tokens",
        "type_tokens",
        "bigrams", "trigrams", "soundex_first", "phonetic", "initials",
        "numbers", "_cache_key",
    )

    def __init__(
        self,
        name: str,
        type: str = "",
        keywords: Tuple[str, ...] = (),
        degree: int = 0,
    ) -> None:
        self.name = name
        self.type = type
        self.keywords = keywords
        self.degree = degree
        self.is_wildcard = name.strip() in ("", WILDCARD)
        self.name_lower = name.lower().strip()
        self.name_tokens: Tuple[str, ...] = tokenize_tuple(name)
        self.name_token_set: FrozenSet[str] = frozenset(self.name_tokens)
        self.keyword_tokens: FrozenSet[str] = frozenset(
            t for kw in keywords for t in tokenize_tuple(kw)
        )
        self.type_tokens: FrozenSet[str] = frozenset(tokenize_tuple(type))
        self.token_set: FrozenSet[str] = (
            self.name_token_set | self.keyword_tokens
        )
        self.bigrams = ngrams(self.name_lower, 2)
        self.trigrams = ngrams(self.name_lower, 3)
        self.soundex_first = soundex(self.name_tokens[0]) if self.name_tokens else ""
        self.phonetic = rough_phonetic("".join(self.name_tokens))
        self.initials = initials(self.name_tokens)
        self.numbers: Tuple[float, ...] = tuple(
            float(t) for t in self.name_tokens if t.isdigit()
        )
        self._cache_key: Optional[DescriptorKey] = None

    @property
    def cache_key(self) -> DescriptorKey:
        """Canonical content key of this descriptor (interned, lazy).

        Two descriptors built from the same ``(name, type, keywords,
        degree)`` share the *same* key object, so score memos and the
        candidate cache can treat them as one constraint.  Built on
        first access: data-side descriptors (one per graph node) are
        never used as memo keys and skip the cost entirely.
        """
        key = self._cache_key
        if key is None:
            key = intern_descriptor_key(
                (self.name, self.type, self.keywords, self.degree)
            )
            self._cache_key = key
        return key

    @classmethod
    def from_node_data(cls, data: NodeData, degree: int = 0) -> "Descriptor":
        """Build a data-side descriptor from a graph node's description."""
        return cls(data.name, data.type, data.keywords, degree)

    def __repr__(self) -> str:
        return f"Descriptor({self.name!r}, type={self.type!r})"


class CorpusContext:
    """Graph-level statistics consumed by frequency-aware measures.

    Attributes:
        idf: token -> inverse document frequency, normalized to (0, 1].
        log_max_degree: normalizer for the degree-prior measure.
    """

    def __init__(self, idf: Dict[str, float], max_degree: int) -> None:
        self.idf = idf
        self.log_max_degree = math.log1p(max(1, max_degree))

    @classmethod
    def from_graph(cls, graph: KnowledgeGraph) -> "CorpusContext":
        """Compute IDF over node descriptions and the degree normalizer."""
        n = max(1, graph.num_nodes)
        log_n = math.log1p(n)
        # token_dfs() yields the same integer document frequencies as
        # len(graph.nodes_with_token(token)) -- mmap-backed graphs serve
        # them from stored posting offsets without materializing sets,
        # and identical integer inputs make the floats bit-identical
        # across the in-memory and zero-copy paths.
        idf = {
            token: math.log1p(n / df) / log_n
            for token, df in graph.token_dfs()
        }
        return cls(idf, graph.max_degree)

    @classmethod
    def empty(cls) -> "CorpusContext":
        """A context with no corpus statistics (IDF defaults to 1.0)."""
        return cls({}, 1)

    def idf_of(self, token: str) -> float:
        """IDF of *token*; unknown tokens are maximally rare (1.0)."""
        return self.idf.get(token, 1.0)


class DescriptorCache:
    """Lazy per-graph cache of data-side descriptors.

    Descriptors are built on first access and reused across queries; the
    cache also owns the graph's :class:`CorpusContext`.
    """

    def __init__(self, graph: KnowledgeGraph) -> None:
        self._graph = graph
        self._descriptors: Dict[int, Descriptor] = {}
        self.corpus = CorpusContext.from_graph(graph)

    def get(self, node_id: int) -> Descriptor:
        """Descriptor of graph node *node_id* (cached)."""
        desc = self._descriptors.get(node_id)
        if desc is None:
            desc = Descriptor.from_node_data(
                self._graph.node(node_id), self._graph.degree(node_id)
            )
            self._descriptors[node_id] = desc
        return desc

    def invalidate(self, node_ids) -> None:
        """Drop cached descriptors for *node_ids* (degree/attrs changed).

        Part of the incremental ``ScoringFunction.refresh`` path: after
        a mutation whose delta touched only these nodes, every other
        descriptor -- and the corpus statistics -- are still exact.
        """
        for node_id in node_ids:
            self._descriptors.pop(node_id, None)

    def rebuild_corpus(self) -> None:
        """Recompute the :class:`CorpusContext` from the live graph."""
        self.corpus = CorpusContext.from_graph(self._graph)
