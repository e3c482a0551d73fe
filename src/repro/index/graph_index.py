"""``GraphIndex``: the compact graph kernels behind indexed candidate
generation.

One instance per :class:`~repro.graph.knowledge_graph.KnowledgeGraph`
bundles the three array-backed structures of :mod:`repro.index` --

* :class:`~repro.index.vocab.Vocabulary` (token interning + IDF),
* :class:`~repro.index.postings.PostingIndex` (inverted index), and
* :class:`~repro.index.features.NodeFeatures` (bound features)

-- and keeps them synchronized with the graph through the delta journal
(:meth:`refresh`): node adds append, removals tombstone, and a
compaction threshold bounds the garbage.  Edges are not indexed; the
graph itself serves relation-grouped adjacency
(:meth:`~repro.graph.knowledge_graph.KnowledgeGraph.grouped_relations`).

:meth:`candidates` is the WAND-style generator that replaces the linear
shortlist scan in ``repro.core.candidates`` when the candidate route
picks it (docs/architecture.md, "Candidate pipeline"): it walks the posting
lists of the expanded query tokens accumulating per-node probe masks,
upper-bounds every candidate with the :class:`~repro.index.bounds.
QueryPlan`, and evaluates candidates in decreasing-bound order until
the bound falls strictly below max(node threshold, current k-th best
admissible score).

**Exactness.**  The candidate universe (postings union + subtype
closure) equals the linear shortlist by construction.  Real scores come
from the *same* memoized ``scorer.node_score``; only the evaluation
order and the cutoff differ.  A skipped candidate ``v`` satisfies
``score(v) <= bound(v) < kth``, i.e. at least ``limit`` nodes score
*strictly* higher, so ``v`` cannot appear in the linear path's
top-``limit`` under the ``(-score, node_id)`` tie-break; with the bound
below the threshold it would be filtered out anyway.  Ties at the k-th
score are never skipped (the cutoff comparison is strict), so the
tie-break still sees every contender.  Sorting the evaluated admissible
pairs and truncating therefore reproduces the linear results
byte-for-byte.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro import obs
from repro.core.candidates import expanded_query_tokens
from repro.index.bounds import QueryPlan
from repro.index.features import NodeFeatures
from repro.index.postings import PostingIndex
from repro.index.vocab import Vocabulary

#: Valid ``use_index`` modes; what each routes is
#: :func:`repro.core.candidates.candidate_route`'s to decide.
MODES = ("auto", "on", "off")

_PLAN_CACHE_MAX = 1024


class NodeFootprint:
    """Candidate-node dependency footprint backed by live posting arrays.

    The candidate cache stores, per entry, the node ids whose mutation
    must invalidate it, and checks them with
    ``summary.nodes.isdisjoint(footprint)`` -- any iterable works.  This
    one *shares* the posting arrays instead of materializing a
    frozenset: iterating may over-report (tombstoned entries linger
    until compaction, appends grow the shared arrays), which can only
    cause a spurious invalidation, never a stale hit.  Shortlist
    *growth* beyond these arrays requires ``add_node``, which flags
    ``stats_changed`` and invalidates unconditionally.
    """

    __slots__ = ("_arrays", "_closure")

    def __init__(self, arrays, closure: FrozenSet[int]) -> None:
        self._arrays = tuple(arrays)
        self._closure = closure

    def __iter__(self) -> Iterator[int]:
        for arr in self._arrays:
            yield from arr
        yield from self._closure


class GraphIndex:
    """Compact kernels + pruned candidate generation for one graph."""

    def __init__(self, graph, mode: str = "auto") -> None:
        if mode not in MODES:
            raise ValueError(
                f"use_index mode must be one of {MODES}, got {mode!r}"
            )
        self.graph = graph
        self.mode = mode
        self.vocab = Vocabulary()
        #: Cumulative generator counters (mirrored as obs counters).
        self.postings_scanned = 0
        self.pruned = 0
        self.evaluated = 0
        self._plans: Dict[Tuple, QueryPlan] = {}
        self._rebuild()

    # -- construction / maintenance -------------------------------------
    def _rebuild(self) -> None:
        graph = self.graph
        self.postings = PostingIndex.build(graph, self.vocab)
        self.features = NodeFeatures.build(graph, self.vocab)
        self.vocab.idf_stale = True
        self._version = graph.version

    def refresh(self) -> bool:
        """Resynchronize with the graph via the delta journal.

        Walks the per-mutation :class:`~repro.dynamic.journal.Delta`
        entries (the merged summary erases membership detail once
        ``stats_changed`` is set, which node mutations always set):
        added nodes are appended to postings/features and removed nodes
        tombstoned; edge mutations and attribute updates touch nothing
        indexed.  Falls back to a full rebuild when the journal no
        longer covers the gap.  Returns True when anything changed.
        """
        graph = self.graph
        if graph.version == self._version:
            return False
        if graph.delta_since(self._version) is None:
            self._rebuild()
            self._plans.clear()
            return True
        postings = self.postings
        features = self.features
        vocab = self.vocab
        stats = False
        for delta in graph.journal.entries():
            if delta.version <= self._version:
                continue
            if delta.stats_changed:
                stats = True
            kind = delta.kind
            if kind == "add_node":
                for nid in delta.nodes:
                    if nid in graph:
                        data = graph.node(nid)
                        postings.add_node(nid, data.tokens(), vocab)
                        features.set_node(nid, data, vocab)
                    # else: added then removed again before this refresh;
                    # the remove_node delta tombstones it (no-op here).
            elif kind == "remove_node":
                # ``nodes`` = the removed node plus its former neighbors.
                # Which is which can only be read off the *current* graph:
                # the gone ones are tombstoned (idempotent for neighbors
                # removed by a later delta).
                for nid in delta.nodes:
                    if nid not in graph:
                        postings.kill(nid)
        if stats:
            vocab.idf_stale = True
            self._plans.clear()
        slots = graph.num_node_slots
        postings.grow(slots)
        features.grow(slots)
        if postings.should_compact():
            postings.compact()
        self._version = graph.version
        return True

    # -- candidate generation -------------------------------------------
    def _plan_for(self, scorer, desc) -> QueryPlan:
        key = (scorer.fingerprint, desc.cache_key)
        plan = self._plans.get(key)
        if plan is None:
            if len(self._plans) >= _PLAN_CACHE_MAX:
                self._plans.clear()
            plan = QueryPlan(
                desc,
                sorted(expanded_query_tokens(desc)),
                scorer.node_weights,
                self.vocab,
                self.features,
                scorer.corpus,
            )
            self._plans[key] = plan
        return plan

    def candidates(
        self, scorer, qnode, limit: Optional[int]
    ) -> Tuple[List[Tuple[int, float]], NodeFootprint]:
        """Scored admissible candidates for *qnode*, pruned by bounds.

        Returns ``(pairs, footprint)`` where *pairs* -- once sorted by
        ``(-score, node_id)`` and truncated to *limit* -- are identical
        to the linear path's result, and *footprint* is the cache
        dependency set (see :class:`NodeFootprint`).  The caller is
        responsible for the final sort/truncate (mirroring
        ``node_candidates``).
        """
        graph = self.graph
        desc = qnode.descriptor
        threshold = scorer.config.node_threshold
        if self.vocab.idf_stale:
            self.vocab.refresh_idf(scorer.corpus)
        plan = self._plan_for(scorer, desc)
        postings = self.postings
        alive = postings.alive
        adj = graph._adj

        masks: Dict[int, int] = {}
        scanned = 0
        for bit, tid in enumerate(plan.probe_tids):
            arr = postings.posting(tid)
            scanned += len(arr)
            flag = 1 << bit
            for nid in arr:
                if alive[nid]:
                    masks[nid] = masks.get(nid, 0) | flag
        closure: FrozenSet[int] = (
            graph.nodes_of_subtype(qnode.type) if qnode.type
            else frozenset()
        )
        for nid in closure:
            if nid not in masks:
                masks[nid] = 0

        bound = plan.bound
        order = sorted(
            (-bound(nid, mask, len(adj[nid])), nid)
            for nid, mask in masks.items()
        )
        scored: List[Tuple[int, float]] = []
        heap: List[float] = []
        node_score = scorer.node_score
        evaluated = 0
        for neg_ub, nid in order:
            ub = -neg_ub
            if ub < threshold:
                break
            if limit is not None and len(heap) == limit and ub < heap[0]:
                break
            evaluated += 1
            score = node_score(desc, nid)
            if score >= threshold:
                scored.append((nid, score))
                if limit is not None:
                    if len(heap) < limit:
                        heapq.heappush(heap, score)
                    elif score > heap[0]:
                        heapq.heapreplace(heap, score)
        pruned = len(order) - evaluated
        self.postings_scanned += scanned
        self.pruned += pruned
        self.evaluated += evaluated
        obs.count("index.postings_scanned", scanned)
        obs.count("index.pruned", pruned)
        obs.count("index.evaluated", evaluated)
        footprint = NodeFootprint(
            (postings.posting(tid) for tid in plan.probe_tids), closure
        )
        return scored, footprint

    # -- introspection ---------------------------------------------------
    def nbytes(self) -> int:
        """Approximate footprint of the packed structures in bytes."""
        return self.postings.entry_count() * 4 + len(self.postings.alive)

    def __repr__(self) -> str:
        return (
            f"GraphIndex(mode={self.mode!r}, tokens={len(self.vocab)}, "
            f"postings~{self.postings.entry_count()}, "
            f"v{self._version})"
        )


def attach_index(scorer, index: Optional[GraphIndex] = None,
                 mode: str = "auto") -> GraphIndex:
    """Attach a :class:`GraphIndex` to *scorer* and return it.

    Builds one over the scorer's graph when none is supplied.  Like
    ``attach_cache``, attaching is an explicit opt-in; a detached scorer
    (``graph_index is None``) keeps the seed's exact linear code path.
    """
    if index is None:
        index = GraphIndex(scorer.graph, mode=mode)
    scorer.graph_index = index
    return index


def detach_index(scorer) -> Optional[GraphIndex]:
    """Detach and return *scorer*'s index (restores the linear path)."""
    index = getattr(scorer, "graph_index", None)
    scorer.graph_index = None
    return index
