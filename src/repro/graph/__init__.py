"""Knowledge-graph substrate.

This package implements the labeled, multi-relational knowledge graph the
STAR paper queries (Section II), plus everything needed to *have* such
graphs without the paper's proprietary dumps: deterministic synthetic
generators mimicking DBpedia / YAGO2 / Freebase, the BFS graph-expansion
protocol of Exp-5, statistics for Table I, and serialization.
"""

from repro.graph.attributes import AttributeStore
from repro.graph.generators import (
    GeneratorConfig,
    dbpedia_like,
    freebase_like,
    yago2_like,
)
from repro.graph.io import load_graph, save_graph
from repro.graph.knowledge_graph import EdgeData, KnowledgeGraph, NodeData
from repro.graph.sampling import bfs_expand, bfs_sample
from repro.graph.schema import NodeTypeSpec, RelationSpec, Schema
from repro.graph.statistics import GraphStatistics, summarize
from repro.graph.traversal import bounded_bfs_layers, nodes_within

__all__ = [
    "AttributeStore",
    "EdgeData",
    "GeneratorConfig",
    "GraphStatistics",
    "KnowledgeGraph",
    "NodeData",
    "NodeTypeSpec",
    "RelationSpec",
    "Schema",
    "bfs_expand",
    "bfs_sample",
    "bounded_bfs_layers",
    "dbpedia_like",
    "freebase_like",
    "load_graph",
    "nodes_within",
    "save_graph",
    "summarize",
    "yago2_like",
]
