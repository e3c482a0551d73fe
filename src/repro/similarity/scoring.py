"""Aggregate scoring: ``F_N``, ``F_E`` and the match score ``F`` (Eq. 1-2).

The paper's ranking function aggregates 46 similarity measures with learned
weights:

    F_N(v, phi(v)) = sum_i alpha_i * f_i(v, phi(v))          (Eq. 1)
    F(phi(Q)) = sum_v F_N(v, phi(v)) + sum_e F_E(e, phi(e))  (Eq. 2)

plus a practical constraint that every node and edge score exceeds a
threshold.  :class:`ScoringFunction` implements this against a fixed graph:
weights are normalized so each per-element score lies in ``[0, 1]``
(matching the paper's running examples, e.g. node score 0.9), scores are
computed online and memoized per (query element, data element) pair so each
algorithm pays for a score exactly once per query.
"""

from __future__ import annotations

import hashlib
import math

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ScoringError
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.similarity.descriptors import (
    CorpusContext,
    Descriptor,
    DescriptorCache,
    DescriptorKey,
)
from repro.similarity.functions import (
    EDGE_FUNCTIONS,
    FAST_NODE_FUNCTION_NAMES,
    NODE_FUNCTIONS,
    BoundMeasure,
    SimilarityFn,
    bind_measures,
    bind_variable_score,
)
from repro.similarity.path_score import PathScore

#: Hand-set default weights (un-normalized); emphasis mirrors what
#: :func:`repro.similarity.learning.learn_weights` converges to on the
#: synthetic training set: exact/token evidence dominates, fuzzy measures
#: refine, priors contribute weakly.
DEFAULT_NODE_WEIGHTS: Dict[str, float] = {
    "exact_name": 3.0,
    "name_edit": 1.2,
    "name_jaro_winkler": 1.0,
    "token_jaccard": 2.0,
    "token_dice": 1.0,
    "token_overlap": 1.0,
    "prefix_ratio": 0.4,
    "suffix_ratio": 0.3,
    "containment": 1.2,
    "first_token_equal": 1.0,
    "last_token_equal": 1.0,
    "query_token_coverage": 2.0,
    "data_token_coverage": 0.8,
    "bigram_jaccard": 0.5,
    "trigram_jaccard": 0.5,
    "soundex_first_token": 0.3,
    "phonetic_name": 0.3,
    "acronym_forward": 1.0,
    "acronym_backward": 0.8,
    "abbreviation_tokens": 0.8,
    "initials_similarity": 0.4,
    "best_token_edit": 1.0,
    "synonym_token": 1.5,
    "synset_jaccard": 0.8,
    "type_exact": 1.5,
    "type_synonym": 0.8,
    "type_ontology": 0.8,
    "type_subsumption": 1.0,
    "type_token_overlap": 0.4,
    "keyword_jaccard": 0.8,
    "keyword_overlap": 0.5,
    "keyword_in_name": 0.6,
    "name_in_keyword": 0.6,
    "tfidf_cosine": 1.5,
    "idf_weighted_coverage": 1.5,
    "rare_token_bonus": 0.6,
    "length_ratio": 0.2,
    "numeric_exact": 0.8,
    "numeric_close": 0.3,
    "unit_convert_match": 0.8,
    "degree_prior": 0.25,
    "wildcard": 1.8,
}

DEFAULT_EDGE_WEIGHTS: Dict[str, float] = {
    "relation_exact": 3.0,
    "relation_synonym": 1.5,
    "relation_token_jaccard": 1.0,
    "relation_wildcard": 2.0,
}


@dataclass(frozen=True)
class ScoringConfig:
    """Configuration of the aggregate scoring function.

    Attributes:
        node_weights: weight per node-measure name (missing names weigh 0).
        edge_weights: weight per edge-measure name.
        node_threshold: minimum ``F_N`` for a node match to be admissible.
        edge_threshold: minimum ``F_E`` for an edge/path match.
        path_lambda: decay base of the edge-path score ``lambda^(h-1)``.
        fast: use only the cheap measure subset (benchmark mode; see
            :data:`repro.similarity.functions.FAST_NODE_FUNCTION_NAMES`).
    """

    node_weights: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_NODE_WEIGHTS)
    )
    edge_weights: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_EDGE_WEIGHTS)
    )
    node_threshold: float = 0.25
    edge_threshold: float = 0.05
    path_lambda: float = 0.5
    fast: bool = False

    def validate(self) -> None:
        """Raise :class:`ScoringError` on invalid settings."""
        known_node = {name for name, _fn in NODE_FUNCTIONS}
        known_edge = {name for name, _fn in EDGE_FUNCTIONS}
        for name in self.node_weights:
            if name not in known_node:
                raise ScoringError(f"unknown node measure {name!r}")
        for name in self.edge_weights:
            if name not in known_edge:
                raise ScoringError(f"unknown edge measure {name!r}")
        if any(w < 0 for w in self.node_weights.values()):
            raise ScoringError("node weights must be non-negative")
        if any(w < 0 for w in self.edge_weights.values()):
            raise ScoringError("edge weights must be non-negative")
        if not (0.0 <= self.node_threshold <= 1.0):
            raise ScoringError(f"node_threshold {self.node_threshold} not in [0,1]")
        if not (0.0 <= self.edge_threshold <= 1.0):
            raise ScoringError(f"edge_threshold {self.edge_threshold} not in [0,1]")
        if not (0.0 < self.path_lambda < 1.0):
            raise ScoringError(f"path_lambda {self.path_lambda} not in (0,1)")

    def with_fast(self, fast: bool = True) -> "ScoringConfig":
        """Copy of this config with the fast-mode flag set."""
        return replace(self, fast=fast)

    def fingerprint(self) -> str:
        """Stable short digest of every score-relevant setting.

        Two configs with equal fingerprints produce identical scores for
        any (query, node) pair, so cross-query caches key on it: a cache
        shared between scorers with different weights or thresholds must
        never serve one's entries to the other.
        """
        payload = repr((
            sorted(self.node_weights.items()),
            sorted(self.edge_weights.items()),
            self.node_threshold,
            self.edge_threshold,
            self.path_lambda,
            self.fast,
        ))
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]


def _normalized_weights(
    catalog: Sequence[Tuple[str, SimilarityFn]],
    weights: Mapping[str, float],
    kind: str,
) -> Dict[str, float]:
    selected = {
        name: weights[name]
        for name, _fn in catalog
        if weights.get(name, 0.0) > 0.0
    }
    if not selected:
        raise ScoringError(f"no {kind} measures selected (all weights zero?)")
    total = sum(selected.values())
    return {name: w / total for name, w in selected.items()}


def selected_node_weights(config: ScoringConfig) -> Dict[str, float]:
    """Normalized weight per selected node measure, in catalog order.

    The one definition of which measures *config* scores with (positive
    weight; under ``fast`` only the cheap subset) and how their weights
    are normalized to sum to 1.  Names not selected are absent.
    """
    weights = config.node_weights
    if config.fast:
        weights = {
            name: weights[name]
            for name in FAST_NODE_FUNCTION_NAMES if name in weights
        }
    return _normalized_weights(NODE_FUNCTIONS, weights, "node")


def selected_edge_weights(config: ScoringConfig) -> Dict[str, float]:
    """Normalized weight per selected edge measure, in catalog order."""
    return _normalized_weights(EDGE_FUNCTIONS, config.edge_weights, "edge")


#: Bound evaluators kept per scorer; on overflow the table resets, which
#: only costs re-binding (serve workers see unboundedly many descriptors).
_EVALUATORS_MAX = 1024


class ScoringFunction:
    """Online, memoized scoring of query elements against one graph.

    Args:
        graph: the data graph.
        config: scoring configuration (validated on construction).

    The instance owns the graph's :class:`DescriptorCache`, so creating one
    per (graph, config) pair and sharing it across queries and algorithms
    is the intended usage -- every compared algorithm then sees byte-
    identical scores and pays the same scoring cost.
    """

    def __init__(
        self, graph: KnowledgeGraph, config: Optional[ScoringConfig] = None
    ) -> None:
        self.graph = graph
        self.config = config or ScoringConfig()
        self.config.validate()
        self._graph_version = graph.version
        self.descriptors = DescriptorCache(graph)
        self.path = PathScore(self.config.path_lambda)
        #: Normalized weight per selected measure name (catalog order).
        self.node_weights = selected_node_weights(self.config)
        self.edge_weights = selected_edge_weights(self.config)
        # Bound node evaluators per query descriptor content.  They hold
        # hoisted corpus statistics (IDF, degree normalizer), so every
        # path that replaces the corpus must drop them.
        self._evaluators: Dict[DescriptorKey, BoundMeasure] = {}
        self._edge_evaluators: Dict[DescriptorKey, BoundMeasure] = {}
        # Memos are keyed on descriptor *content* (interned, pre-hashed
        # DescriptorKey), so equal constraints from different query
        # objects -- the norm in template-generated workloads -- share
        # entries instead of re-scoring per query.
        self._node_cache: Dict[Tuple[DescriptorKey, int], float] = {}
        self._edge_cache: Dict[Tuple[DescriptorKey, str], float] = {}
        self._relation_descriptors: Dict[str, Descriptor] = {}
        self._relation_vectors: Dict[DescriptorKey, np.ndarray] = {}
        self.node_score_calls = 0
        self.edge_score_calls = 0
        self._fingerprint: Optional[str] = None
        #: Optional cross-query :class:`repro.perf.CandidateCache`.
        #: ``None`` (the default) keeps the seed's exact code path --
        #: attaching a cache is always an explicit opt-in.
        self.candidate_cache = None
        #: Optional :class:`repro.index.GraphIndex` for upper-bound-
        #: pruned candidate generation (attach via
        #: :func:`repro.index.attach_index`); same opt-in contract.
        self.graph_index = None
        #: Optional :class:`repro.ann.SemanticTier` adding ANN-sourced,
        #: exactly-reranked candidates when the token shortlist
        #: under-fills (attach via :func:`repro.ann.attach_semantic`);
        #: same opt-in contract.
        self.semantic_tier = None

    # ------------------------------------------------------------------
    @property
    def corpus(self) -> CorpusContext:
        return self.descriptors.corpus

    @property
    def fingerprint(self) -> str:
        """Digest of the scoring config (cached; see
        :meth:`ScoringConfig.fingerprint`)."""
        if self._fingerprint is None:
            self._fingerprint = self.config.fingerprint()
        return self._fingerprint

    def node_score(self, query: Descriptor, node_id: int) -> float:
        """``F_N(query, node_id)`` in [0, 1] (Eq. 1), memoized.

        A memo miss runs the query descriptor's *bound evaluator*: the
        weighted catalog with the query side bound once (see
        :func:`repro.similarity.functions.bind_measures`), built lazily
        on the descriptor's first miss.  Wildcard ('?') query nodes
        bypass the aggregate
        (:func:`repro.similarity.functions.bind_variable_score`).
        """
        query_key = query.cache_key
        key = (query_key, node_id)
        cached = self._node_cache.get(key)
        if cached is not None:
            return cached
        self.node_score_calls += 1
        evaluate = self._evaluators.get(query_key)
        if evaluate is None:
            evaluate = self._bind_node(query)
        score = min(1.0, max(0.0, evaluate(self.descriptors.get(node_id))))
        self._node_cache[key] = score
        return score

    def _bind_node(self, query: Descriptor) -> BoundMeasure:
        if query.is_wildcard:
            evaluate = bind_variable_score(query, self.corpus)
        else:
            evaluate = bind_measures(
                NODE_FUNCTIONS, self.node_weights, query, self.corpus
            )
        if len(self._evaluators) >= _EVALUATORS_MAX:
            self._evaluators.clear()
        self._evaluators[query.cache_key] = evaluate
        return evaluate

    def relation_score(self, query: Descriptor, relation: str) -> float:
        """``F_E`` for a direct edge with the given relation label, memoized."""
        key = (query.cache_key, relation)
        cached = self._edge_cache.get(key)
        if cached is not None:
            return cached
        self.edge_score_calls += 1
        data = self._relation_descriptors.get(relation)
        if data is None:
            data = Descriptor(relation)
            self._relation_descriptors[relation] = data
        evaluate = self._edge_evaluators.get(query.cache_key)
        if evaluate is None:
            if len(self._edge_evaluators) >= _EVALUATORS_MAX:
                self._edge_evaluators.clear()
            evaluate = self._edge_evaluators[query.cache_key] = bind_measures(
                EDGE_FUNCTIONS, self.edge_weights, query, self.corpus)
        score = min(1.0, max(0.0, evaluate(data)))
        self._edge_cache[key] = score
        return score

    def relation_scores(self, query: Descriptor,
                        relations: np.ndarray) -> np.ndarray:
        """:meth:`relation_score` of *query* for each relation id in
        *relations* -- ids of the graph's columns, named by
        :meth:`KnowledgeGraph.relation_names` -- as one array.  Kept per
        query, one slot per id, each scored the first time it is asked
        for (so a query pays only for the relations its rows hold);
        memoised until a label is rescored (:meth:`refresh`)."""
        key = query.cache_key
        scores = self._relation_vectors.get(key)
        names = self.graph.relation_names()
        if scores is None or len(scores) < len(names):
            grown = np.full(len(names), np.nan)
            if scores is not None:
                grown[:len(scores)] = scores
            scores = self._relation_vectors[key] = grown
        found = scores[relations]
        if math.isnan(found.sum()):  # some id not scored yet
            for rid in set(relations[np.isnan(found)].tolist()):
                scores[rid] = self.relation_score(query, names[rid])
            found = scores[relations]
        return found

    def edge_score(
        self, query: Descriptor, best_relation_score: float, hops: int
    ) -> float:
        """``F_E(e, phi_d(e))`` for a path of length *hops*.

        *best_relation_score* is the best :meth:`relation_score` over the
        parallel data edges when ``hops == 1``; ignored for longer paths
        (see :mod:`repro.similarity.path_score` for the semantics).
        """
        if hops == 1:
            return best_relation_score
        return self.path.decay(hops)

    def edge_upper_bound(self, hops: int) -> float:
        """Largest possible ``F_E`` for a path of exactly *hops* hops."""
        return 1.0 if hops == 1 else self.path.decay(hops)

    # ------------------------------------------------------------------
    def passes_node_threshold(self, score: float) -> bool:
        return score >= self.config.node_threshold

    def passes_edge_threshold(self, score: float) -> bool:
        return score >= self.config.edge_threshold

    def reset_counters(self) -> None:
        """Zero the call counters (cache stays warm)."""
        self.node_score_calls = 0
        self.edge_score_calls = 0

    def clear_cache(self) -> None:
        """Drop memoized scores and bound evaluators (for cold-run
        measurements)."""
        self._node_cache.clear()
        self._edge_cache.clear()
        self._relation_vectors.clear()
        self._evaluators.clear()
        self._edge_evaluators.clear()

    def refresh(self) -> bool:
        """Resynchronize memoized state after graph mutations.

        Diffs the scorer's last-seen structural version against the
        graph's delta journal and drops exactly the state the mutations
        could have affected:

        * corpus statistics drifted (``stats_changed``: node count moved
          every IDF denominator, or the max-degree normalizer changed)
          or the journal no longer covers the span -- full rebuild of
          the descriptor cache, both score memos and the bound
          evaluators (which hold the old IDF and degree normalizer);
        * otherwise, only descriptors and node-score memo entries for
          the touched node ids, and edge-score memo entries for the
          touched relation labels, are dropped -- everything else is
          provably still exact.

        Returns True when anything was dropped; False when the graph
        has not changed.  Idempotent; call between a mutation batch and
        the next search (the engines' ``assert_graph_unchanged`` guard
        fails loudly if you forget).
        """
        graph = self.graph
        if graph.version == self._graph_version:
            return False
        summary = graph.delta_since(self._graph_version)
        if summary is None or summary.stats_changed:
            self.descriptors = DescriptorCache(graph)
            self.clear_cache()
        else:
            if summary.nodes:
                self.descriptors.invalidate(summary.nodes)
                touched = summary.nodes
                self._node_cache = {
                    key: score for key, score in self._node_cache.items()
                    if key[1] not in touched
                }
            if summary.relations:
                relations = summary.relations
                self._edge_cache = {
                    key: score for key, score in self._edge_cache.items()
                    if key[1] not in relations
                }
                for relation in relations:
                    self._relation_descriptors.pop(relation, None)
                self._relation_vectors.clear()
        self._graph_version = graph.version
        return True

    def assert_graph_unchanged(self) -> None:
        """Fail loudly if the graph was mutated after this scorer last
        synchronized -- cached descriptors, IDF statistics and memoized
        scores would silently be stale otherwise.

        Raises:
            ScoringError: on a version mismatch; call :meth:`refresh`
                (incremental) or rebuild the scorer.
        """
        if self.graph.version != self._graph_version:
            raise ScoringError(
                "graph was modified after this ScoringFunction was built "
                f"(version {self._graph_version} -> {self.graph.version}); "
                "call refresh() or construct a fresh ScoringFunction"
            )
