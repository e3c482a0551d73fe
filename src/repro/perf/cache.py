"""Cross-query candidate cache: memoized scored candidate lists.

Template-generated workloads repeat the same query-node constraints across
hundreds of queries, yet the seed engine re-scores every (descriptor,
node) pair per query -- online scoring dominates per-query latency
(Section V-A).  Wang et al. ("Semantic Guided and Response Times Bounded
Top-k Similarity Search over Knowledge Graphs") obtain their response-time
bounds precisely by reusing semantic indexes across queries; this module
is that lever for our engine.

:class:`CandidateCache` is an LRU keyed on::

    (kind, graph.uid, scoring-config fingerprint,
     canonical descriptor key, limit)

so entries are never shared between graphs (uid) or scoring
configurations (fingerprint) and distinguish candidate cutoffs (limit).
The descriptor key is the interned, pre-hashed
:class:`repro.similarity.descriptors.DescriptorKey` -- it canonicalizes
``(name, type, keywords)``, so equal constraints from different query
objects hit the same entry.

Graph *mutation* no longer appears in the key at all.  Each entry
remembers the structural version it was computed at plus a dependency
footprint ``(candidate node ids, expanded query tokens, query type)``;
on lookup the cache diffs that version against the graph's delta
journal (:meth:`KnowledgeGraph.delta_since`) and the entry **survives**
unless the merged delta could have changed it:

* ``stats_changed`` -- corpus statistics moved (node count backs every
  IDF; max degree backs the degree prior), all scores are suspect;
* a touched node intersects the entry's candidate footprint (its score
  or membership may have changed) -- the footprint is the *shortlist*
  set, a superset of the scored list, so nodes hovering below the score
  threshold are covered;
* a touched token intersects the entry's expanded query tokens (the
  shortlist could gain/lose members through the inverted index);
* a touched type descends into the entry's query type (subtype-closure
  membership could change).

Survivals and invalidations are counted in :class:`CacheStats` and as
``dynamic.survivals`` / ``dynamic.invalidations`` obs counters.  An
entry whose version has fallen off the bounded journal is invalidated
conservatively.  Entries cached through the legacy ``get(key)`` /
``put(key, value)`` API (no graph, no deps) are never validated --
callers of that form bake their own freshness into the key.

Correctness contract (asserted by the parity suite):

* a cache hit returns a defensive copy of a list computed by the exact
  uncached code path -- byte-identical scores and ordering;
* which calls read and write scored entries is the candidate route's
  decision (docs/architecture.md, "Candidate pipeline"): every call
  without a shard scope, budgeted or not;
* a budgeted hit observes what the cold scan would have: the entry
  records the node visits its budgeted scan charged (shortlist scored
  plus tier reranks), the hit charges them in one go, and when they do
  not fit under the budget's node cap (or it has tripped) the hit is a
  miss and the scan trips where it would have anyway; an entry written
  without a budget records no count, so the first budgeted call
  rescans and rewrites it;
* only complete lists are written: a call whose budget tripped or
  recorded a fault during it leaves the cache as it was;
* unscored *shortlist* entries serve every call, and a hit returns the
  identical set object, preserving the order anytime truncation
  depends on;
* a detached cache (``scorer.candidate_cache is None``, the default) is
  a single ``is None`` test on the hot path -- the seed behavior.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro import obs

#: Estimated bytes per cached ``(node_id, score)`` entry: the pair tuple
#: plus a boxed int and float.  An estimate, not an exact account -- it
#: exists so ``max_bytes`` bounds memory within a small constant factor.
ENTRY_BYTES = sys.getsizeof((0, 0.0)) + 28 + 24


@dataclass
class CacheStats:
    """Hit/miss/eviction counters plus byte-size accounting."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0
    entries: int = 0
    bytes: int = 0
    #: Entries revalidated against the delta journal and kept (the
    #: mutation since their computation provably could not affect them).
    survivals: int = 0
    #: Entries dropped by journal validation (counted as misses too).
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits, "misses": self.misses,
            "evictions": self.evictions, "inserts": self.inserts,
            "entries": self.entries, "bytes": self.bytes,
            "survivals": self.survivals,
            "invalidations": self.invalidations,
        }

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Accumulate *other* into self (cross-worker aggregation)."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.inserts += other.inserts
        self.entries += other.entries
        self.bytes += other.bytes
        self.survivals += other.survivals
        self.invalidations += other.invalidations
        return self

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "CacheStats":
        return cls(**data)

    def summary(self) -> str:
        return (
            f"cache: {self.hits} hit(s) / {self.misses} miss(es) "
            f"({self.hit_rate:.0%}), {self.entries} entrie(s), "
            f"~{self.bytes / 1024:.1f} KiB, {self.evictions} eviction(s)"
        )


class _Entry:
    """A cached payload plus what it depends on.

    ``version`` is the graph structural version the payload was computed
    at (bumped forward on every successful revalidation so later diffs
    stay short).  ``deps`` is ``(nodes, tokens, qtype)``: the candidate
    node footprint, the synonym/abbreviation-expanded query tokens, and
    the query type whose subtype closure fed the shortlist.  ``None``
    for either means "unknown -- never try to prove survival".  ``cost``
    is the node visits a budgeted cold computation of the payload
    charges (``None``: unknown, so the entry serves no budget).
    """

    __slots__ = ("payload", "version", "deps", "cost")

    def __init__(self, payload, version: Optional[int],
                 deps: Optional[Tuple], cost: Optional[int] = None) -> None:
        self.payload = payload
        self.version = version
        self.deps = deps
        self.cost = cost


class CandidateCache:
    """LRU cache of scored candidate lists, shared across queries.

    Args:
        max_entries: entry-count bound (least recently used evicts first).
        max_bytes: approximate byte bound on cached payloads.

    Attach to a scorer with :func:`attach_cache` (or by assigning
    ``scorer.candidate_cache``); ``repro.core.candidates`` consults it
    where its route says so.  One instance may serve many scorers and
    graphs -- keys carry graph uid and config fingerprint.
    """

    def __init__(self, max_entries: int = 4096,
                 max_bytes: int = 64 * 1024 * 1024) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._data: "OrderedDict[Tuple, _Entry]" = OrderedDict()

    # ------------------------------------------------------------------
    def candidate_key(self, scorer, qnode, limit: Optional[int]) -> Tuple:
        """Cache key for a ``node_candidates(scorer, qnode, limit)`` call.

        The trailing element is the attached semantic tier's
        configuration token (``None`` for a detached scorer): candidate
        unions computed with ANN augmentation engaged must never serve a
        tier-less scorer, nor one with a different tier configuration.
        """
        tier = getattr(scorer, "semantic_tier", None)
        return ("cand", scorer.graph.uid, scorer.fingerprint,
                qnode.descriptor.cache_key, limit,
                tier.cache_token if tier is not None else None)

    def shortlist_key(self, scorer, qnode) -> Tuple:
        """Cache key for a ``shortlist(scorer, qnode)`` call."""
        return ("short", scorer.graph.uid, scorer.fingerprint,
                qnode.descriptor.cache_key, None)

    # ------------------------------------------------------------------
    def get(self, key: Tuple, graph=None,
            pay: Optional[Callable[[int], bool]] = None):
        """Cached payload for *key* (marks it most recently used).

        When *graph* is supplied and the entry carries a version, the
        entry is first revalidated against the graph's delta journal;
        an entry the deltas may have affected is dropped and counted as
        an invalidation + miss.

        With *pay* (a budgeted caller), a hit must be paid for: *pay*
        gets the entry's recorded cost and returns whether it charged
        it.  An entry without a cost, or one *pay* refuses, is a miss
        and stays cached.
        """
        entry = self._data.get(key)
        if entry is None or (
                graph is not None and entry.version is not None
                and entry.version != graph.version
                and not self._revalidate(entry, graph)):
            if entry is not None:
                self._drop(key, entry)
                self.stats.invalidations += 1
                obs.count("dynamic.invalidations")
            self.stats.misses += 1
            obs.count("cache.misses")
            return None
        if pay is not None and (entry.cost is None or not pay(entry.cost)):
            self.stats.misses += 1
            obs.count("cache.misses")
            return None
        self._data.move_to_end(key)
        self.stats.hits += 1
        obs.count("cache.hits")
        return entry.payload

    def _revalidate(self, entry: _Entry, graph) -> bool:
        """True iff *entry* provably survives every delta since its version."""
        summary = graph.delta_since(entry.version)
        if summary is None:  # journal trimmed past the entry: can't prove
            return False
        if not summary.empty:
            if summary.stats_changed or entry.deps is None:
                return False
            dep_nodes, dep_tokens, dep_type = entry.deps
            if not summary.nodes.isdisjoint(dep_nodes):
                return False
            if not summary.tokens.isdisjoint(dep_tokens):
                return False
            if summary.types and self._types_touch(summary.types, dep_type):
                return False
        entry.version = graph.version
        self.stats.survivals += 1
        obs.count("dynamic.survivals")
        return True

    @staticmethod
    def _types_touch(touched_types, dep_type: str) -> bool:
        if not dep_type:
            return False
        if dep_type in touched_types:
            return True
        # Local import: the similarity package pulls in the graph layer;
        # importing it at module scope from here would tangle package
        # initialization.  This branch only runs when a delta actually
        # touched type membership.
        from repro.similarity import ontology

        return any(ontology.is_subtype(t, dep_type) for t in touched_types)

    def put(self, key: Tuple, value, graph=None, deps: Optional[Tuple] = None,
            cost: Optional[int] = None) -> None:
        """Insert an (immutable) payload, evicting LRU entries as needed.

        Args:
            graph: the graph *value* was computed from; stamps the entry
                with the current structural version for journal
                revalidation.  Omitted (legacy callers): the entry is
                served as-is forever, freshness is the caller's problem.
            deps: ``(candidate node ids, expanded query tokens, query
                type)`` dependency footprint for fine-grained survival.
            cost: node visits a budgeted caller pays for a hit (see
                :meth:`get`); None serves unbudgeted callers only.
        """
        old = self._data.pop(key, None)
        if old is not None:
            self.stats.bytes -= self._payload_bytes(old.payload)
            self.stats.entries -= 1
        version = graph.version if graph is not None else None
        self._data[key] = _Entry(value, version, deps, cost)
        self.stats.inserts += 1
        obs.count("cache.inserts")
        self.stats.entries += 1
        self.stats.bytes += self._payload_bytes(value)
        while self._data and (
            self.stats.entries > self.max_entries
            or self.stats.bytes > self.max_bytes
        ):
            _k, evicted = self._data.popitem(last=False)
            self.stats.evictions += 1
            obs.count("cache.evictions")
            self.stats.entries -= 1
            self.stats.bytes -= self._payload_bytes(evicted.payload)

    def _drop(self, key: Tuple, entry: _Entry) -> None:
        """Remove a journal-invalidated entry (not an LRU eviction)."""
        del self._data[key]
        self.stats.entries -= 1
        self.stats.bytes -= self._payload_bytes(entry.payload)

    def clear(self) -> None:
        """Drop all entries (counters keep accumulating)."""
        self._data.clear()
        self.stats.entries = 0
        self.stats.bytes = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        return key in self._data

    @staticmethod
    def _payload_bytes(value) -> int:
        return sys.getsizeof(value) + len(value) * ENTRY_BYTES

    def __repr__(self) -> str:
        return (
            f"CandidateCache(entries={self.stats.entries}/{self.max_entries}, "
            f"bytes~{self.stats.bytes}, hits={self.stats.hits}, "
            f"misses={self.stats.misses})"
        )


def attach_cache(scorer, cache: Optional[CandidateCache] = None,
                 **kwargs) -> CandidateCache:
    """Attach a :class:`CandidateCache` to *scorer* and return it.

    Builds a fresh cache (forwarding **kwargs**) when none is supplied.
    """
    if cache is None:
        cache = CandidateCache(**kwargs)
    scorer.candidate_cache = cache
    return cache


def detach_cache(scorer) -> Optional[CandidateCache]:
    """Detach and return *scorer*'s cache (restores the seed code path)."""
    cache = scorer.candidate_cache
    scorer.candidate_cache = None
    return cache
