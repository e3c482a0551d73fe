"""``repro.index``: compact graph kernels for candidate generation.

The hottest path in every engine is candidate generation: for each
query node, shortlist plausible graph nodes and score them online
(Section V-A).  This package replaces the set-of-Python-objects
shortlist scan with array-backed kernels:

* :class:`Vocabulary` -- token interning (dense int ids + IDF),
* :class:`PostingIndex` -- ``token_id -> array('I')`` inverted index,
* :class:`NodeFeatures` -- per-node description features feeding
* :class:`QueryPlan` -- per-query score upper bounds (WAND-style), and
* :class:`GraphIndex` -- the bundle: journal-driven incremental
  maintenance plus the upper-bound-pruned candidate generator, which
  returns results byte-identical to the linear scan.

Adjacency is not indexed here: the graph itself serves the leaf fetch's
relation-grouped rows
(:meth:`~repro.graph.knowledge_graph.KnowledgeGraph.grouped_relations`).

Attach to a scorer with :func:`attach_index`; route selection is the
``use_index`` mode (``auto`` | ``on`` | ``off``) exposed on the
:class:`repro.core.framework.Star` facade and the CLI.
"""

from repro.index.bounds import QueryPlan
from repro.index.features import NodeFeatures
from repro.index.graph_index import (
    MODES,
    GraphIndex,
    NodeFootprint,
    attach_index,
    detach_index,
)
from repro.index.postings import PostingIndex
from repro.index.vocab import NO_TOKEN, Vocabulary

__all__ = [
    "GraphIndex",
    "MODES",
    "NO_TOKEN",
    "NodeFeatures",
    "NodeFootprint",
    "PostingIndex",
    "QueryPlan",
    "Vocabulary",
    "attach_index",
    "detach_index",
]
