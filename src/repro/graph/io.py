"""Serialization of knowledge graphs.

A simple line-oriented JSON format (one header line, one line per node,
one line per edge) -- streamable, diff-able, and robust to large graphs.
Used by the benchmark harness to cache generated datasets between runs.
"""

from __future__ import annotations

import json
import os
from typing import Union

from repro.errors import DatasetError
from repro.graph.knowledge_graph import KnowledgeGraph

_FORMAT_VERSION = 1


def save_graph(graph: KnowledgeGraph, path: Union[str, os.PathLike]) -> None:
    """Write *graph* to *path* in the line-JSON format.

    Raises:
        DatasetError: if *graph* has tombstoned (removed) nodes or
            edges.  This format identifies nodes by file position, so a
            graph with id gaps cannot round-trip -- ids would silently
            renumber.  Use :meth:`KnowledgeGraph.save` (the binary
            store) for mutated graphs.
    """
    if graph.has_tombstones:
        raise DatasetError(
            "cannot save a graph with removed nodes/edges in the "
            "positional line-JSON format (ids would renumber); snapshot "
            "it with KnowledgeGraph.save / `repro compact` instead"
        )
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "version": _FORMAT_VERSION,
            "name": graph.name,
            "directed": graph.directed,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
        }
        fh.write(json.dumps(header) + "\n")
        for node_id in graph.nodes():
            data = graph.node(node_id)
            record = ["n", data.name, data.type, list(data.keywords), data.attrs]
            fh.write(json.dumps(record) + "\n")
        for edge_id, src, dst in graph.edges():
            data = graph.edge(edge_id)[2]
            record = ["e", src, dst, data.relation, data.attrs]
            fh.write(json.dumps(record) + "\n")


def load_graph(path: Union[str, os.PathLike]) -> KnowledgeGraph:
    """Load a graph previously written by :func:`save_graph`.

    Raises:
        DatasetError: on missing file, bad version, or malformed records.
    """
    if not os.path.exists(path):
        raise DatasetError(f"graph file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise DatasetError(f"empty graph file: {path}")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"malformed header in {path}: {exc}") from exc
        if header.get("version") != _FORMAT_VERSION:
            raise DatasetError(
                f"unsupported graph format version {header.get('version')!r}"
            )
        graph = KnowledgeGraph(
            name=header.get("name", ""), directed=header.get("directed", True)
        )
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                kind = record[0]
                if kind == "n":
                    _k, name, type_, keywords, attrs = record
                    graph.add_node(name, type_, keywords, **attrs)
                elif kind == "e":
                    _k, src, dst, relation, attrs = record
                    graph.add_edge(src, dst, relation, **attrs)
                else:
                    raise ValueError(f"unknown record kind {kind!r}")
            except (ValueError, IndexError, TypeError) as exc:
                raise DatasetError(
                    f"malformed record at {path}:{line_no}: {exc}"
                ) from exc
    expected_nodes = header.get("num_nodes")
    if expected_nodes is not None and graph.num_nodes != expected_nodes:
        raise DatasetError(
            f"node count mismatch in {path}: header says {expected_nodes}, "
            f"file contains {graph.num_nodes}"
        )
    return graph
