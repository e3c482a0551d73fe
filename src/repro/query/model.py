"""Graph-query model: general queries and star queries (Section II).

A query ``Q = (V_Q, E_Q)`` where each node carries an entity constraint
(label text, optional type, keywords -- or the wildcard ``"?"``) and each
edge carries a relationship constraint (relation label or wildcard).  A
:class:`StarQuery` is a query with a designated *pivot* node adjacent to
every edge; it is STAR's unit of fast evaluation.

Query nodes/edges are identified by dense integer ids, mirroring the graph
side.  Descriptors (the similarity layer's view) are built lazily and
cached on the node/edge objects.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import QueryError
from repro.similarity.descriptors import Descriptor, WILDCARD


class QueryNode:
    """One query node: an entity constraint.

    Attributes:
        id: dense index within the query.
        label: constraint text (``"?"`` for a variable node).
        type: optional type constraint.
        keywords: optional keyword constraints.
    """

    __slots__ = ("id", "label", "type", "keywords", "_descriptor")

    def __init__(
        self,
        id: int,
        label: str,
        type: str = "",
        keywords: Tuple[str, ...] = (),
    ) -> None:
        self.id = id
        self.label = label
        self.type = type
        self.keywords = keywords
        self._descriptor: Optional[Descriptor] = None

    @property
    def descriptor(self) -> Descriptor:
        """Similarity-layer descriptor of this constraint (cached)."""
        if self._descriptor is None:
            self._descriptor = Descriptor(self.label, self.type, self.keywords)
        return self._descriptor

    @property
    def is_wildcard(self) -> bool:
        return self.descriptor.is_wildcard

    def __repr__(self) -> str:
        type_part = f":{self.type}" if self.type else ""
        return f"QueryNode({self.id}, {self.label!r}{type_part})"


class QueryEdge:
    """One query edge: a relationship constraint between two query nodes."""

    __slots__ = ("id", "src", "dst", "label", "_descriptor")

    def __init__(self, id: int, src: int, dst: int, label: str = WILDCARD) -> None:
        self.id = id
        self.src = src
        self.dst = dst
        self.label = label
        self._descriptor: Optional[Descriptor] = None

    @property
    def descriptor(self) -> Descriptor:
        if self._descriptor is None:
            self._descriptor = Descriptor(self.label)
        return self._descriptor

    def other(self, node_id: int) -> int:
        """The endpoint opposite to *node_id*.

        Raises:
            QueryError: if *node_id* is not an endpoint of this edge.
        """
        if node_id == self.src:
            return self.dst
        if node_id == self.dst:
            return self.src
        raise QueryError(f"node {node_id} not an endpoint of edge {self.id}")

    def __repr__(self) -> str:
        return f"QueryEdge({self.src} -[{self.label}]- {self.dst})"


class Query:
    """A general graph query.

    Example:
        >>> q = Query()
        >>> brad = q.add_node("Brad", type="actor")
        >>> maker = q.add_node("?", type="director")
        >>> award = q.add_node("Academy Award", type="award")
        >>> _ = q.add_edge(brad, maker, "collaborated_with")
        >>> _ = q.add_edge(maker, award, "won")
        >>> q.is_star()
        True
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.nodes: List[QueryNode] = []
        self.edges: List[QueryEdge] = []
        self._adj: List[List[Tuple[int, int]]] = []  # node -> [(nbr, edge_id)]

    # ------------------------------------------------------------------
    def add_node(
        self,
        label: str,
        type: str = "",
        keywords: Iterable[str] = (),
    ) -> int:
        """Add a query node; returns its id."""
        node = QueryNode(len(self.nodes), label, type, tuple(keywords))
        self.nodes.append(node)
        self._adj.append([])
        return node.id

    def add_edge(self, src: int, dst: int, label: str = WILDCARD) -> int:
        """Add a query edge; returns its id.

        Raises:
            QueryError: on out-of-range endpoints, self-loops, or duplicate
                edges between the same node pair (queries are simple graphs).
        """
        n = len(self.nodes)
        if not (0 <= src < n) or not (0 <= dst < n):
            raise QueryError(f"edge endpoints ({src}, {dst}) out of range [0, {n})")
        if src == dst:
            raise QueryError("query self-loops are not supported")
        if any(nbr == dst for nbr, _e in self._adj[src]):
            raise QueryError(f"duplicate query edge between {src} and {dst}")
        edge = QueryEdge(len(self.edges), src, dst, label)
        self.edges.append(edge)
        self._adj[src].append((dst, edge.id))
        self._adj[dst].append((src, edge.id))
        return edge.id

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, node_id: int) -> List[Tuple[int, int]]:
        """Adjacent ``(neighbor_node_id, edge_id)`` pairs."""
        return self._adj[node_id]

    def degree(self, node_id: int) -> int:
        return len(self._adj[node_id])

    def validate(self) -> None:
        """Check the query is non-empty and connected.

        Raises:
            QueryError: otherwise.
        """
        if not self.nodes:
            raise QueryError("query has no nodes")
        if len(self.nodes) > 1 and not self.edges:
            raise QueryError("multi-node query has no edges")
        # Connectivity via BFS.
        seen: Set[int] = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for nbr, _e in self._adj[v]:
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        if len(seen) != len(self.nodes):
            raise QueryError(
                f"query is disconnected ({len(seen)}/{len(self.nodes)} reachable)"
            )

    def is_star(self) -> bool:
        """True if some node is incident to every edge (and |V| >= 1)."""
        if not self.edges:
            return len(self.nodes) == 1
        return self.star_center() is not None

    def star_center(self) -> Optional[int]:
        """A node incident to all edges, or None.

        For a single-edge query (both endpoints qualify) the higher-degree
        endpoint across... both have degree 1; the smaller id is returned
        for determinism.
        """
        if not self.edges:
            return 0 if self.nodes else None
        candidates = {self.edges[0].src, self.edges[0].dst}
        for edge in self.edges[1:]:
            candidates &= {edge.src, edge.dst}
            if not candidates:
                return None
        return min(candidates)

    def __repr__(self) -> str:
        label = self.name or "Query"
        return f"<{label}: |V|={self.num_nodes} |E|={self.num_edges}>"


class StarQuery:
    """A star query ``Q*``: a pivot node plus leaf constraints.

    Attributes:
        pivot: the pivot :class:`QueryNode`.
        leaves: ``[(leaf_node, edge), ...]`` -- one entry per star edge, in
            edge order.  The same underlying query node may appear as a
            leaf of several stars after decomposition.
    """

    def __init__(
        self,
        pivot: QueryNode,
        leaves: Sequence[Tuple[QueryNode, QueryEdge]],
        name: str = "",
    ) -> None:
        self.pivot = pivot
        self.leaves = list(leaves)
        self.name = name
        for leaf, edge in self.leaves:
            if {edge.src, edge.dst} != {pivot.id, leaf.id}:
                raise QueryError(
                    f"edge {edge!r} does not connect pivot {pivot.id} "
                    f"to leaf {leaf.id}"
                )

    @classmethod
    def from_query(cls, query: Query, pivot_id: Optional[int] = None) -> "StarQuery":
        """View a star-shaped :class:`Query` as a :class:`StarQuery`.

        Raises:
            QueryError: if the query is not a star, or *pivot_id* is not a
                valid center.
        """
        query.validate()
        center = pivot_id if pivot_id is not None else query.star_center()
        if center is None:
            raise QueryError("query is not star-shaped")
        return cls.around(query, center)

    @classmethod
    def around(cls, query: Query, center: int) -> "StarQuery":
        """An already validated *query* as the star around node *center*.

        Raises:
            QueryError: if *center* is not incident to every edge.
        """
        leaves: List[Tuple[QueryNode, QueryEdge]] = []
        for edge in query.edges:
            if center not in (edge.src, edge.dst):
                raise QueryError(f"node {center} is not incident to edge {edge.id}")
            leaves.append((query.nodes[edge.other(center)], edge))
        return cls(query.nodes[center], leaves, name=query.name)

    @property
    def size(self) -> int:
        """Number of query nodes (pivot + leaves, counting repeats once each
        as star positions -- matches the paper's |V*|)."""
        return 1 + len(self.leaves)

    @property
    def num_edges(self) -> int:
        return len(self.leaves)

    def node_ids(self) -> List[int]:
        """Underlying query-node ids covered by this star (pivot first)."""
        ids = [self.pivot.id]
        ids.extend(leaf.id for leaf, _edge in self.leaves)
        return ids

    def __repr__(self) -> str:
        leaf_part = ", ".join(leaf.label for leaf, _e in self.leaves)
        return f"<StarQuery pivot={self.pivot.label!r} leaves=[{leaf_part}]>"


def star_query(
    pivot_label: str,
    leaves: Sequence[Tuple[str, str]],
    pivot_type: str = "",
    leaf_types: Optional[Sequence[str]] = None,
) -> StarQuery:
    """Convenience constructor: build a star query from labels.

    Args:
        pivot_label: pivot constraint text.
        leaves: ``[(relation_label, leaf_label), ...]``.
        pivot_type: optional pivot type constraint.
        leaf_types: optional per-leaf type constraints.

    Example:
        >>> q = star_query("?", [("directed", "?"), ("won", "Academy Award")],
        ...                pivot_type="director")
        >>> q.size
        3
    """
    query = Query()
    pivot = query.add_node(pivot_label, type=pivot_type)
    for i, (relation, leaf_label) in enumerate(leaves):
        leaf_type = leaf_types[i] if leaf_types else ""
        leaf = query.add_node(leaf_label, type=leaf_type)
        query.add_edge(pivot, leaf, relation)
    return StarQuery.from_query(query, pivot_id=pivot)
