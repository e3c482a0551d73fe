"""``SemanticTier``: ANN candidate generation + exact rerank.

The token shortlist (``repro.core.candidates``) is exact over surface
vocabulary: a query whose tokens (after synonym/abbreviation expansion)
share nothing with an entity's description simply never sees it.  The
semantic tier is the recall backstop for that failure mode.  It keeps a
hashed-n-gram embedding per node (:mod:`repro.ann.embedding`) under an
LSH band index (:mod:`repro.ann.lsh`); when it engages, nearby vectors
are *probed*, the best by cosine are *reranked* with the real
:class:`~repro.similarity.scoring.ScoringFunction`, and only admissible
scores (>= the node threshold) join the candidate list.  Cosine is
never a score -- it only decides who gets scored -- so every returned
pair is exactly what the linear scan would have produced for that node.

The ``mode`` (``off`` | ``auto``: only when the token shortlist admits
nothing, the out-of-vocabulary case | ``on``) is read by
:func:`repro.core.candidates.candidate_route`, the one place that
decides when the tier runs (docs/architecture.md, "Candidate pipeline").

The tier has one layout and no knobs: the embedding width, banding and
seed are :mod:`repro.ann`'s constants, and the graph is embedded in
memory on the first probe of the process (no store carries the
columns).  Cost control: a **percentile skip** reranks only the top
``1 - DEFAULT_RERANK_PERCENTILE`` fraction of probed candidates by
cosine (the rest are counted ``ann.skipped``), and every rerank charges
the caller's :class:`~repro.runtime.budget.Budget` when one was passed.
"""

from __future__ import annotations

from array import array
from typing import FrozenSet, Iterable, List, Optional, Tuple

from repro import obs
from repro.ann.embedding import DEFAULT_DIM, NgramEmbedder
from repro.ann.lsh import BandIndex
from repro.runtime.budget import Budget
from repro.runtime.faults import SUBSTRATE_ERRORS

#: Valid ``use_semantic`` modes (same vocabulary as ``use_index``).
MODES = ("auto", "on", "off")

#: How many ANN neighbors a probe may surface before reranking.
DEFAULT_PROBE_LIMIT = 64

#: Fraction of probed candidates (lowest cosine first) that skip the
#: exact rerank.  0.0 reranks everything; 0.5 reranks the top half.
DEFAULT_RERANK_PERCENTILE = 0.5


class SemanticTier:
    """Per-graph ANN structure + exact rerank.

    Attached to a scorer (``scorer.semantic_tier``) exactly like the
    candidate cache and the graph index: a detached scorer keeps the
    seed code path.  Construction is cheap -- embedding the graph is
    deferred to the first engagement (:meth:`ensure_built`), so
    attaching the tier to a query that never under-fills costs nothing.
    """

    def __init__(self, graph, mode: str = "auto") -> None:
        if mode not in MODES:
            raise ValueError(
                f"use_semantic mode must be one of {MODES}, got {mode!r}"
            )
        self.graph = graph
        self.mode = mode
        self.embedder = NgramEmbedder(DEFAULT_DIM)
        self.index = BandIndex(DEFAULT_DIM)
        self.vecs = array("f")
        self.sigs = array("Q")
        self.alive = bytearray()
        self._built = False
        self._version: Optional[int] = None
        #: Cumulative counters (mirrored as ``ann.*`` obs counters).
        self.probed = 0
        self.reranked = 0
        self.skipped = 0

    # -- construction / maintenance -------------------------------------
    @property
    def built(self) -> bool:
        return self._built

    def ensure_built(self) -> None:
        """Embed the graph on first use (idempotent)."""
        if not self._built:
            self._rebuild()

    def _rebuild(self) -> None:
        self.vecs, self.sigs, self.alive = array("f"), array("Q"), bytearray()
        self._grow(self.graph.num_node_slots)
        for nid in self.graph.nodes():
            self._set_node(nid, self.graph.node(nid))
        self.index.bind(self.vecs, self.sigs, self.alive, len(self.alive))
        self._version = self.graph.version
        self._built = True

    def _grow(self, slots: int) -> None:
        if slots > len(self.alive):
            grow = slots - len(self.alive)
            self.vecs.extend(array(
                "f", bytes(4 * grow * self.embedder.dim)))
            self.sigs.extend(array("Q", bytes(8 * grow * self.index.bands)))
            self.alive.extend(bytes(grow))

    def _set_node(self, nid: int, data) -> None:
        dim = self.embedder.dim
        bands = self.index.bands
        vec = self.embedder.embed(data.name, data.type, data.keywords)
        self.vecs[nid * dim:(nid + 1) * dim] = vec
        for b, sig in enumerate(self.index.signatures_of(vec)):
            self.sigs[nid * bands + b] = sig
        self.alive[nid] = 1

    def refresh(self) -> bool:
        """Resynchronize with the graph via the delta journal.

        Same protocol as :meth:`repro.index.GraphIndex.refresh`: added
        nodes are embedded into their slot, removed nodes tombstoned
        via the liveness byte, and a journal gap forces a full rebuild.
        Edge mutations and attribute updates are no-ops -- embeddings
        read only the immutable name/type/keywords description.
        Returns True when anything changed.
        """
        if not self._built:
            return False
        graph = self.graph
        if graph.version == self._version:
            return False
        if graph.delta_since(self._version) is None:
            self._rebuild()
            return True
        changed = False
        for delta in graph.journal.entries():
            if delta.version <= self._version:
                continue
            kind = delta.kind
            if kind == "add_node":
                self._grow(graph.num_node_slots)
                for nid in delta.nodes:
                    if nid in graph:
                        self._set_node(nid, graph.node(nid))
                        changed = True
                    # else: added then removed before this refresh; the
                    # remove_node delta tombstones the slot below.
            elif kind == "remove_node":
                for nid in delta.nodes:
                    if nid not in graph and nid < len(self.alive):
                        if self.alive[nid]:
                            self.alive[nid] = 0
                            changed = True
        self._grow(graph.num_node_slots)
        if changed:
            self.index.invalidate()
        self.index.bind(self.vecs, self.sigs, self.alive, len(self.alive))
        self._version = graph.version
        return changed

    def synced(self) -> bool:
        return self._built and self._version == self.graph.version

    @property
    def cache_token(self) -> Tuple:
        """Hashable identity of this tier's observable configuration.

        Joins the candidate-cache key so entries computed with the tier
        engaged can never serve a scorer in another mode (or a detached
        one), and vice versa.
        """
        return ("ann", self.mode)

    # -- probe + rerank --------------------------------------------------
    def augment(
        self, scorer, qnode, scored: List[Tuple[int, float]],
        budget: Optional[Budget] = None,
        exclude: Optional[Iterable[int]] = None,
    ) -> Tuple[List[Tuple[int, float]], FrozenSet[int]]:
        """Probe the ANN index and exactly rerank the best neighbors.

        Returns ``(extra, probed_ids)``:

        * ``extra`` -- admissible ``(node_id, score)`` pairs for nodes
          not already in *scored* (or *exclude*), scored by the real
          scorer under the normal node threshold;
        * ``probed_ids`` -- every node id the probe surfaced, for the
          caller's cache-dependency footprint (a delta touching any of
          them must invalidate the cached union).

        Each rerank charges the caller's *budget* when one was passed
        (deadline semantics, strict or anytime, are the caller's).
        """
        self.ensure_built()
        self.refresh()
        desc = qnode.descriptor
        qvec = self.embedder.embed_descriptor(desc)
        seen = {nid for nid, _ in scored}
        if exclude:
            seen.update(exclude)
        with obs.trace("ann.probe", qnode=qnode.id) as span:
            ranked = self.index.probe(qvec, DEFAULT_PROBE_LIMIT)
            probed = [(cos, nid) for cos, nid in ranked if nid not in seen]
            span.annotate(probed=len(probed))
        self.probed += len(probed)
        obs.count("ann.probed", len(probed))
        if not probed:
            return [], frozenset()
        probed_ids = frozenset(nid for _, nid in probed)
        keep_n = max(1, len(probed)
                     - int(len(probed) * DEFAULT_RERANK_PERCENTILE))
        skipped = len(probed) - keep_n
        if skipped:
            self.skipped += skipped
            obs.count("ann.skipped", skipped)
        threshold = scorer.config.node_threshold
        extra: List[Tuple[int, float]] = []
        reranked = 0
        for cos, nid in probed[:keep_n]:
            if budget is not None and budget.charge_nodes():
                break
            reranked += 1
            if budget is not None and budget.anytime:
                try:
                    score = scorer.node_score(desc, nid)
                except SUBSTRATE_ERRORS as exc:
                    budget.record_fault(f"ann_rerank({nid}): {exc}")
                    continue
            else:
                score = scorer.node_score(desc, nid)
            if score >= threshold:
                extra.append((nid, score))
        self.reranked += reranked
        obs.count("ann.reranked", reranked)
        return extra, probed_ids

    def __repr__(self) -> str:
        state = "built" if self._built else "lazy"
        return (f"SemanticTier(mode={self.mode!r}, dim={self.embedder.dim}, "
                f"bands={self.index.bands}x{self.index.band_bits}, "
                f"{state}, v{self._version})")


def build_columns(graph):
    """Embed every live node of *graph* into flat columns.

    Returns ``(vecs, sigs, alive)``: ``array('f')`` of
    ``slots * DEFAULT_DIM`` values, ``array('Q')`` of ``slots *
    DEFAULT_BANDS`` band signatures, and a per-slot liveness bytearray
    (tombstoned slots stay zero) -- what :class:`SemanticTier` builds in
    memory on its first probe.
    """
    tier = SemanticTier(graph)
    tier.ensure_built()
    return tier.vecs, tier.sigs, tier.alive


def attach_semantic(scorer, tier: Optional[SemanticTier] = None,
                    mode: str = "auto") -> SemanticTier:
    """Attach a :class:`SemanticTier` to *scorer* and return it.

    Builds a lazy tier over the scorer's graph when none is supplied.
    Like ``attach_cache``/``attach_index``, attaching is an explicit
    opt-in; a detached scorer (``semantic_tier is None``) keeps the
    seed's exact code path.
    """
    if tier is None:
        tier = SemanticTier(scorer.graph, mode=mode)
    scorer.semantic_tier = tier
    return tier


def detach_semantic(scorer) -> Optional[SemanticTier]:
    """Detach and return *scorer*'s tier (restores the seed path)."""
    tier = getattr(scorer, "semantic_tier", None)
    scorer.semantic_tier = None
    return tier
