"""The core labeled knowledge-graph data structure.

The paper (Section II) models a knowledge graph ``G = (V, E, L)`` where each
node and edge carries a description ``L(v)`` / ``L(e)``: a type, an entity
name, free keywords, or attribute/value pairs.  This module provides that
structure with the access paths every algorithm in the library needs:

* integer node ids with O(1) data access,
* undirected adjacency view (knowledge-graph matching treats relationship
  direction as irrelevant for path matching; a ``directed`` flag preserves
  orientation for callers that want it),
* relation-grouped neighbour rows (:meth:`KnowledgeGraph.grouped_relations`)
  for the leaf fetch of the star procedures,
* id-only CSR columns of the adjacency (:meth:`KnowledgeGraph.columns`)
  for the array kernels of ``stard``'s message passing,
* an inverted token index (name tokens, keywords, type names) used for
  online candidate generation -- the paper computes match scores online and
  uses keyword indices only to shortlist candidates,
* a type index for schema-aware template instantiation.

The graph is *dynamic*: besides ``add_node`` / ``add_edge`` it supports
``remove_edge``, ``remove_node``, ``update_node_attrs`` and
``update_edge``.  Node and edge ids are stable across mutations
(removal tombstones the slot instead of renumbering), every derived
index (token postings, type index, subtype closure, relation set, max
degree) is maintained incrementally, and each mutation appends a
:class:`repro.dynamic.Delta` to the graph's journal recording exactly
what it touched -- the cross-query candidate cache and the scorer memos
use those deltas for fine-grained invalidation instead of discarding
all warm state on every version bump.  Algorithms still never mutate a
graph *while* querying; mutate between searches and call
``ScoringFunction.refresh()``.
"""

from __future__ import annotations

import itertools
import threading

from array import array
from dataclasses import dataclass, field
from typing import (
    Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple,
)

from repro import obs
from repro.dynamic.journal import Delta, DeltaJournal, DeltaSummary
from repro.errors import GraphError
from repro.graph.columns import Columns, from_endpoints
from repro.textutil import tokenize, tokenize_tuple  # re-exported: index and queries share it

_EMPTY: FrozenSet = frozenset()

#: What splicing one entry into the columns costs (a row is copied off
#: its adjacency list in Python) over what a bulk rebuild spends on one:
#: 0.65-0.68 against 0.028 us per entry on a 2,100-node, 33,600-edge
#: graph, 2-core x86 VM.  Past 1/_SPLICE_COST of the entries in touched
#: rows, rebuilding is cheaper.
_SPLICE_COST = 24


@dataclass(frozen=True)
class NodeData:
    """Description ``L(v)`` of a graph node.

    Attributes:
        name: entity name, e.g. ``"Brad Pitt"``.
        type: node type, e.g. ``"actor"``; free-form string.
        keywords: extra descriptive keywords attached to the node.
        attrs: arbitrary attribute/value pairs (the "rich content" tier;
            see :class:`repro.graph.attributes.AttributeStore`).
    """

    name: str
    type: str = ""
    keywords: Tuple[str, ...] = ()
    attrs: Dict[str, Any] = field(default_factory=dict)

    def tokens(self) -> FrozenSet[str]:
        """All lowercase tokens describing this node (name, type, keywords).

        Memoized per instance: graph construction indexes these tokens and
        the similarity layer re-derives them when building descriptors, so
        the set is computed once and shared.
        """
        cached = getattr(self, "_tokens", None)
        if cached is None:
            toks: Set[str] = set(tokenize_tuple(self.name))
            if self.type:
                toks.update(tokenize_tuple(self.type))
            for kw in self.keywords:
                toks.update(tokenize_tuple(kw))
            cached = frozenset(toks)
            object.__setattr__(self, "_tokens", cached)  # frozen dataclass
        return cached


@dataclass(frozen=True)
class EdgeData:
    """Description ``L(e)`` of a graph edge.

    Attributes:
        relation: relation label, e.g. ``"acted_in"``.
        attrs: arbitrary attribute/value pairs.  Never mutated in place:
            a graph shares one record among its attribute-free edges of
            one relation (see :meth:`KnowledgeGraph.add_edge`).
    """

    relation: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)


class KnowledgeGraph:
    """A labeled multi-relational graph with integer node ids.

    Nodes are numbered ``0 .. num_nodes - 1`` in insertion order; edges are
    numbered ``0 .. num_edges - 1``.  Adjacency is exposed both directed
    (``out_neighbors`` / ``in_neighbors``) and undirected (``neighbors``),
    because d-bounded matching in the paper treats an edge as matchable by a
    path regardless of orientation.

    Example:
        >>> g = KnowledgeGraph(name="toy")
        >>> brad = g.add_node("Brad Pitt", "actor")
        >>> movie = g.add_node("Troy", "film")
        >>> eid = g.add_edge(brad, movie, "acted_in")
        >>> sorted(n for n, _ in g.neighbors(movie))
        [0]
    """

    #: Process-wide graph id source; see :attr:`uid`.
    _uid_counter = itertools.count()

    def __init__(self, name: str = "", directed: bool = True,
                 journal_limit: int = 4096) -> None:
        self.name = name
        self.directed = directed
        # Node/edge slots; ``None`` marks a removed (tombstoned) entry,
        # so ids handed out earlier -- including ids inside cached
        # candidate lists -- stay valid names for the surviving elements.
        self._nodes: List[Optional[NodeData]] = []
        self._edges: List[Optional[Tuple[int, int, EdgeData]]] = []
        # relation -> the one EdgeData its attribute-free edges share.
        self._plain_edges: Dict[str, EdgeData] = {}
        self._removed_nodes = 0
        self._removed_edges = 0
        # Undirected adjacency: v -> list of (neighbor, edge_id), the one
        # list per node; directed reads filter it by the edge's source.
        self._adj: List[List[Tuple[int, int]]] = []
        # Flat endpoint column: ``src, dst`` per edge slot, ``-1, -1``
        # once removed, and the relation id of each edge slot (see
        # relation_names); the CSR columns are built from them (see
        # columns), and the rows a node or edge touches after that are
        # spliced in on the next read (_changed_rows).  None on a
        # store-backed graph, whose columns come from its csr.* sections.
        self._ends: Optional[array] = array("i")
        self._edge_relations: Optional[array] = array("i")
        self._relation_names: List[str] = []
        self._relation_ids: Dict[str, int] = {}
        self._columns: Optional[Columns] = None
        self._changed_rows: Set[int] = set()
        # Relation-grouped rows (see grouped_relations), packed on first
        # read: one arena holding, per row, its pair count and then
        # (neighbor, label id) pairs; ``_row_at`` maps a row key to its
        # offset.  Flat ints only, so packing every row of a large graph
        # adds nothing for the garbage collector to walk.
        self._rows = array("I")
        self._row_at: Dict[int, int] = {}
        self._rows_dead = 0
        # label id -> relation label, or a tuple of parallel-edge labels.
        self._labels: List[Any] = []
        self._label_ids: Dict[Any, int] = {}
        # Engines share one graph across threads (search_many's thread
        # backend, serve's thread pool): packing is check-then-append.
        self._rows_lock = threading.Lock()
        # token -> sorted-insertion list of node ids (deduplicated via set).
        self._token_index: Dict[str, Set[int]] = {}
        self._type_index: Dict[str, List[int]] = {}
        # Relation label -> live edge count; maintained incrementally by
        # add/remove/update_edge (callers poll relations() inside
        # query-construction loops).
        self._relations: Dict[str, int] = {}
        # query type -> frozenset of subtype-closure node ids, built
        # lazily per queried type and maintained incrementally by the
        # mutation methods (see nodes_of_subtype).
        self._subtype_closure: Dict[str, FrozenSet[int]] = {}
        self._max_degree = 0
        # True when a node removal may have lowered the maximum but the
        # O(V) degree rescan has been deferred (resolved lazily by the
        # ``max_degree`` property and by the edge mutators, whose
        # ``stats_changed`` decisions need the exact value).
        self._max_degree_dirty = False
        #: Structural version: bumped on every mutation so derived
        #: structures (scorers, caches) can detect staleness.
        self.version = 0
        #: Bounded delta log: what each version bump touched (node ids,
        #: tokens, types, relations, global-stat drift).  Consumers diff
        #: against it via :meth:`delta_since`.
        self.journal = DeltaJournal(limit=journal_limit)
        #: Process-unique graph identity.  ``version`` distinguishes
        #: states of *one* graph; cross-graph caches (the perf layer's
        #: candidate cache) key on ``uid`` so two graphs never collide.
        self.uid = next(KnowledgeGraph._uid_counter)

    # ------------------------------------------------------------------
    # Construction and mutation
    # ------------------------------------------------------------------
    def _record(
        self,
        kind: str,
        nodes: FrozenSet[int] = _EMPTY,
        tokens: FrozenSet[str] = _EMPTY,
        types: FrozenSet[str] = _EMPTY,
        relations: FrozenSet[str] = _EMPTY,
        stats_changed: bool = False,
    ) -> None:
        """Bump the structural version and journal what changed."""
        self.version += 1
        self.journal.append(Delta(
            self.version, kind, nodes=nodes, tokens=tokens, types=types,
            relations=relations, stats_changed=stats_changed,
        ))
        obs.count("dynamic.mutations")
        obs.set_gauge("dynamic.journal.len", float(len(self.journal)))

    def add_node(
        self,
        name: str,
        type: str = "",
        keywords: Iterable[str] = (),
        **attrs: Any,
    ) -> int:
        """Add a node and return its id.

        Args:
            name: entity name.
            type: node type label.
            keywords: additional descriptive keywords.
            **attrs: attribute/value pairs stored on the node.
        """
        data = NodeData(name=name, type=type, keywords=tuple(keywords), attrs=attrs)
        node_id = len(self._nodes)
        self._nodes.append(data)
        self._adj.append([])
        self._columns_touched(node_id)
        for token in data.tokens():
            self._token_index.setdefault(token, set()).add(node_id)
        if type:
            self._type_index.setdefault(type, []).append(node_id)
            self._closure_add(type, node_id)
        # A new node shifts every IDF denominator (document count), so
        # corpus statistics -- and with them every cached score -- drift.
        self._record(
            "add_node", nodes=frozenset((node_id,)), tokens=data.tokens(),
            types=frozenset((type,)) if type else _EMPTY, stats_changed=True,
        )
        return node_id

    def add_edge(self, src: int, dst: int, relation: str = "", **attrs: Any) -> int:
        """Add a directed edge ``src -> dst`` and return its id.

        Attribute-free edges of one relation share one :class:`EdgeData`:
        less memory, and fewer objects for a full garbage collection.

        Raises:
            GraphError: if either endpoint is not a node of this graph, or
                if ``src == dst`` (self-loops carry no matching semantics in
                the paper and are rejected).
        """
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            raise GraphError(f"self-loop on node {src} is not allowed")
        self._resolve_max_degree()
        data = self._edge_data(relation, attrs)
        edge_id = len(self._edges)
        if relation:
            self._relations[relation] = self._relations.get(relation, 0) + 1
        self._edges.append((src, dst, data))
        ends = self._ends
        if ends is not None:
            ends.append(src)
            ends.append(dst)
            self._edge_relations.append(self._relation_id(relation))
        self._adj[src].append((dst, edge_id))
        self._adj[dst].append((src, edge_id))
        self._columns_touched(src, dst)
        self._drop_rows(src, dst)
        new_max = max(len(self._adj[src]), len(self._adj[dst]))
        # Endpoint degrees changed (their descriptors / degree priors are
        # stale); everything else survives unless the max-degree
        # normalizer moved, which shifts degree-prior scores globally.
        stats_changed = new_max > self._max_degree
        if stats_changed:
            self._max_degree = new_max
        self._record(
            "add_edge", nodes=frozenset((src, dst)),
            relations=frozenset((relation,)) if relation else _EMPTY,
            stats_changed=stats_changed,
        )
        return edge_id

    def remove_edge(self, edge_id: int) -> EdgeData:
        """Remove edge *edge_id*; its id is never reused.

        Returns the removed :class:`EdgeData`.

        Raises:
            GraphError: if *edge_id* is unknown or already removed.
        """
        src, dst, data = self.edge(edge_id)
        self._detach_edge(edge_id, src, dst, data)
        stats_changed = self._recheck_max_degree(
            len(self._adj[src]) + 1, len(self._adj[dst]) + 1
        )
        self._record(
            "remove_edge", nodes=frozenset((src, dst)),
            relations=frozenset((data.relation,)) if data.relation else _EMPTY,
            stats_changed=stats_changed,
        )
        return data

    def remove_node(self, node_id: int) -> NodeData:
        """Remove a node and all its incident edges (ids are not reused).

        Returns the removed :class:`NodeData`.  One journal entry covers
        the whole cascade: the removed node plus every former neighbor
        (their degrees changed).  Node removal always flags a global
        statistics change -- the corpus document count backs every IDF
        value.

        Raises:
            GraphError: if *node_id* is unknown or already removed.
        """
        data = self.node(node_id)
        neighbors = {nbr for nbr, _eid in self._adj[node_id]}
        # Defer the O(V) maximum-degree rescan: mark it unverified only
        # when a degree that *was* at the maximum is about to drop.  A
        # removal cascade thus pays at most one rescan, at the next
        # degree-dependent read, instead of one rescan per removed node.
        if not self._max_degree_dirty:
            at_max = self._max_degree
            if (len(self._adj[node_id]) >= at_max and at_max > 0) or any(
                len(self._adj[nbr]) >= at_max for nbr in neighbors
            ):
                self._max_degree_dirty = True
        removed_relations: Set[str] = set()
        for nbr, eid in list(self._adj[node_id]):
            record = self._edges[eid]
            if record is None:  # pragma: no cover - adjacency is in sync
                continue
            esrc, edst, edata = record
            self._detach_edge(eid, esrc, edst, edata)
            if edata.relation:
                removed_relations.add(edata.relation)
        self._adj[node_id] = []
        for token in data.tokens():
            postings = self._token_index.get(token)
            if postings is not None:
                postings.discard(node_id)
                if not postings:
                    del self._token_index[token]
        if data.type:
            members = self._type_index.get(data.type)
            if members is not None and node_id in members:
                members.remove(node_id)
            self._closure_remove(node_id)
        self._nodes[node_id] = None
        self._removed_nodes += 1
        self._record(
            "remove_node", nodes=frozenset(neighbors | {node_id}),
            tokens=data.tokens(),
            types=frozenset((data.type,)) if data.type else _EMPTY,
            relations=frozenset(removed_relations), stats_changed=True,
        )
        return data

    def update_node_attrs(self, node_id: int, **attrs: Any) -> NodeData:
        """Merge *attrs* into a node's attribute map (``None`` deletes).

        Name, type and keywords -- everything the indexes and similarity
        measures consume -- are immutable; only the attribute tier
        changes, so no index maintenance and no global score drift.  The
        node is still journalled as touched, keeping invalidation
        conservative for attribute-aware consumers.
        """
        data = self.node(node_id)
        merged = dict(data.attrs)
        for key, value in attrs.items():
            if value is None:
                merged.pop(key, None)
            else:
                merged[key] = value
        self._nodes[node_id] = NodeData(
            name=data.name, type=data.type, keywords=data.keywords,
            attrs=merged,
        )
        self._record("update_node_attrs", nodes=frozenset((node_id,)))
        return self._nodes[node_id]

    def update_edge(
        self, edge_id: int, relation: Optional[str] = None, **attrs: Any
    ) -> EdgeData:
        """Update an edge's relation label and/or attributes in place.

        Args:
            relation: new relation label (``None`` keeps the current one).
            **attrs: merged into the edge attribute map (``None`` deletes).

        Structure and degrees are untouched, so cached candidate lists
        fully survive a relabel; only relation-keyed scorer memos for the
        old/new labels need refreshing (``ScoringFunction.refresh``).
        """
        src, dst, data = self.edge(edge_id)
        new_relation = data.relation if relation is None else relation
        merged = dict(data.attrs)
        for key, value in attrs.items():
            if value is None:
                merged.pop(key, None)
            else:
                merged[key] = value
        touched: Set[str] = set()
        if new_relation != data.relation:
            touched = {r for r in (data.relation, new_relation) if r}
            if data.relation:
                self._relation_decref(data.relation)
            if new_relation:
                self._relations[new_relation] = (
                    self._relations.get(new_relation, 0) + 1
                )
        new_data = self._edge_data(new_relation, merged)
        self._edges[edge_id] = (src, dst, new_data)
        if new_relation != data.relation:
            if self._edge_relations is not None:
                self._edge_relations[edge_id] = self._relation_id(
                    new_relation)
            self._columns_touched(src, dst)
            self._drop_rows(src, dst)
        self._record("update_edge", relations=frozenset(touched))
        return new_data

    # -- mutation internals --------------------------------------------
    def _edge_data(self, relation: str, attrs: Dict[str, Any]) -> EdgeData:
        """A new record for an edge with *attrs*, else *relation*'s
        shared one."""
        if attrs:
            return EdgeData(relation=relation, attrs=attrs)
        data = self._plain_edges.get(relation)
        if data is None:
            data = self._plain_edges[relation] = EdgeData(relation=relation)
        return data

    def _detach_edge(
        self, edge_id: int, src: int, dst: int, data: EdgeData
    ) -> None:
        """Unlink one live edge from every adjacency structure."""
        self._edges[edge_id] = None
        self._removed_edges += 1
        ends = self._ends
        if ends is not None:
            ends[2 * edge_id] = ends[2 * edge_id + 1] = -1
        self._adj[src].remove((dst, edge_id))
        self._adj[dst].remove((src, edge_id))
        self._columns_touched(src, dst)
        self._drop_rows(src, dst)
        if data.relation:
            self._relation_decref(data.relation)

    def _drop_rows(self, *nodes: int) -> None:
        """Forget the packed rows of *nodes*, whose edges or labels just
        changed; the next read repacks them.  Once the arena holds more
        dead than live entries it starts over empty."""
        row_at = self._row_at
        if not row_at:
            return
        with self._rows_lock:
            rows = self._rows
            for v in nodes:
                for key in (3 * v, 3 * v + 1, 3 * v + 2):
                    start = row_at.pop(key, None)
                    if start is not None:
                        self._rows_dead += 1 + 2 * rows[start]
            if 2 * self._rows_dead > len(rows):
                self._rows = array("I")
                row_at.clear()
                self._rows_dead = 0

    def _relation_decref(self, relation: str) -> None:
        count = self._relations.get(relation, 0) - 1
        if count > 0:
            self._relations[relation] = count
        else:
            self._relations.pop(relation, None)

    def _resolve_max_degree(self) -> None:
        """Perform the deferred degree rescan, if one is pending."""
        if self._max_degree_dirty:
            self._max_degree = max(
                (len(entries) for entries in self._adj), default=0
            )
            self._max_degree_dirty = False

    def _recheck_max_degree(self, *former_degrees: int) -> bool:
        """Recompute ``max_degree`` if a removal may have lowered it.

        *former_degrees* are the pre-removal degrees of the touched
        nodes; a rescan is only needed when one of them reached the
        current maximum (or a deferred rescan is pending, which makes
        the stored maximum an unverified upper bound).  Returns True
        when the maximum changed.
        """
        if not self._max_degree_dirty and all(
            d < self._max_degree for d in former_degrees
        ):
            return False
        new_max = max((len(entries) for entries in self._adj), default=0)
        self._max_degree_dirty = False
        if new_max == self._max_degree:
            return False
        self._max_degree = new_max
        return True

    def _closure_add(self, type: str, node_id: int) -> None:
        """Incrementally extend cached subtype closures for a new node."""
        if not self._subtype_closure:
            return
        from repro.similarity import ontology

        for query_type, closure in self._subtype_closure.items():
            if ontology.is_subtype(type, query_type):
                self._subtype_closure[query_type] = closure | {node_id}

    def _closure_remove(self, node_id: int) -> None:
        """Drop a removed node from every cached subtype closure."""
        for query_type, closure in self._subtype_closure.items():
            if node_id in closure:
                self._subtype_closure[query_type] = closure - {node_id}

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._nodes) - self._removed_nodes

    @property
    def num_edges(self) -> int:
        return len(self._edges) - self._removed_edges

    @property
    def num_node_slots(self) -> int:
        """Total node slots ever allocated, including tombstones."""
        return len(self._nodes)

    @property
    def num_edge_slots(self) -> int:
        """Total edge slots ever allocated, including tombstones."""
        return len(self._edges)

    @property
    def has_tombstones(self) -> bool:
        """True if any node or edge has been removed (ids have gaps)."""
        return self._removed_nodes > 0 or self._removed_edges > 0

    @property
    def max_degree(self) -> int:
        """Largest undirected node degree ``m`` (used in complexity bounds)."""
        self._resolve_max_degree()
        return self._max_degree

    def node(self, node_id: int) -> NodeData:
        """Return the :class:`NodeData` for *node_id*.

        Raises:
            GraphError: if *node_id* is out of range or removed.
        """
        return self._nodes[self._check_node(node_id)]

    def edge(self, edge_id: int) -> Tuple[int, int, EdgeData]:
        """Return ``(src, dst, EdgeData)`` for *edge_id*.

        Raises:
            GraphError: if *edge_id* is out of range or removed.
        """
        if not (0 <= edge_id < len(self._edges)):
            raise GraphError(f"unknown edge id {edge_id}")
        record = self._edges[edge_id]
        if record is None:
            raise GraphError(f"unknown edge id {edge_id} (removed)")
        return record

    def neighbors(self, node_id: int) -> List[Tuple[int, int]]:
        """Undirected neighbor list ``[(neighbor_id, edge_id), ...]``."""
        return self._adj[self._check_node(node_id)]

    def out_neighbors(self, node_id: int) -> List[Tuple[int, int]]:
        """The entries of :meth:`neighbors` whose edge leaves *node_id*,
        in its order."""
        return self._directed(self._check_node(node_id), 1)

    def in_neighbors(self, node_id: int) -> List[Tuple[int, int]]:
        """The entries of :meth:`neighbors` whose edge enters *node_id*,
        in its order."""
        return self._directed(self._check_node(node_id), -1)

    def _directed(self, node_id: int, orientation: int) \
            -> List[Tuple[int, int]]:
        """The entries of ``_adj[node_id]`` whose edge leaves
        (*orientation* 1) or enters (-1) *node_id*.  Self-loops are
        rejected, so each entry is one or the other."""
        edges = self._edges
        leaves = orientation > 0
        return [(nbr, eid) for nbr, eid in self._adj[node_id]
                if (edges[eid][0] == node_id) == leaves]

    def grouped_relations(
        self, node_id: int, orientation: int = 0
    ) -> List[Tuple[int, Any]]:
        """*node_id*'s distinct neighbors, each with its relation label.

        *orientation* picks the list read: 0 ``neighbors``, 1
        ``out_neighbors``, -1 ``in_neighbors``.  Neighbors come in that
        list's first-seen order, paired with the edge's relation label,
        or with the tuple of labels (list order) of parallel edges; such
        tuples are interned, one per distinct label sequence.

        Rows are packed on first read and kept until a mutation touches
        the node; a store-backed graph fills them from its adjacency
        columns (:meth:`_row_entries`).
        """
        if orientation not in (0, 1, -1):
            raise ValueError(
                f"orientation must be 0, 1 or -1, got {orientation!r}")
        key = 3 * self._check_node(node_id) + 1 + orientation
        start = self._row_at.get(key)
        if start is None:
            with self._rows_lock:
                start = self._row_at.get(key)
                if start is None:
                    start = self._pack_row(
                        key, self._row_entries(node_id, orientation))
        rows = self._rows
        end = start + 1 + 2 * rows[start]
        return list(zip(rows[start + 1:end:2],
                        map(self._labels.__getitem__, rows[start + 2:end:2])))

    def _row_entries(
        self, node_id: int, orientation: int
    ) -> Iterable[Tuple[int, str]]:
        """``(neighbor, relation label)`` per entry of the *orientation*
        list (see :meth:`grouped_relations`), in list order."""
        entries = (self._directed(node_id, orientation) if orientation
                   else self._adj[node_id])
        edges = self._edges
        return ((nbr, edges[eid][2].relation) for nbr, eid in entries)

    def _pack_row(self, key: int, entries: Iterable[Tuple[int, str]]) -> int:
        """Append one grouped row to the arena and return its offset; the
        caller holds ``_rows_lock``.  The offset is published last, so an
        unlocked reader never sees a partial row."""
        grouped: Dict[int, List[str]] = {}
        for nbr, label in entries:
            grouped.setdefault(nbr, []).append(label)
        label_ids = self._label_ids
        row = array("I", (len(grouped),))
        for nbr, labels in grouped.items():
            label = labels[0] if len(labels) == 1 else tuple(labels)
            lid = label_ids.get(label)
            if lid is None:
                lid = label_ids[label] = len(self._labels)
                self._labels.append(label)
            row.append(nbr)
            row.append(lid)
        start = len(self._rows)
        self._rows.extend(row)
        self._row_at[key] = start
        return start

    def relation_names(self) -> List[str]:
        """The relation label of each relation id the columns carry
        (read-only; it only grows)."""
        return self._relation_names

    def _relation_id(self, relation: str) -> int:
        rid = self._relation_ids.get(relation)
        if rid is None:
            rid = self._relation_ids[relation] = len(self._relation_names)
            self._relation_names.append(relation)
        return rid

    def _column_row(self, node_id: int) -> Tuple[List[int], List[int]]:
        """Row *node_id* of the columns, off its adjacency list: its
        neighbor ids and the relation id of each entry's edge."""
        entries = self._adj[node_id]
        edges = self._edges
        relation_id = self._relation_id
        return ([nbr for nbr, _eid in entries],
                [relation_id(edges[eid][2].relation) for _nbr, eid in entries])

    def _columns_touched(self, *rows: int) -> None:
        """Note *rows* for the next :meth:`columns` call to splice in;
        nothing while there are no columns to splice into."""
        if self._columns is not None:
            self._changed_rows.update(rows)

    def columns(self) -> Columns:
        """Read-only CSR columns of the adjacency: row ``v`` is the
        neighbor ids of :meth:`neighbors` ``(v)`` in its order, each entry
        with its edge's relation id (see :mod:`repro.graph.columns`).
        Built in one bulk pass on the first call.  On a later call after
        nodes or edges came or went or an edge changed relation, the rows
        they touched are spliced into the last columns, unless those rows
        hold more than 1/_SPLICE_COST of the entries; an attribute update
        keeps the columns.  Rows of removed nodes are empty."""
        columns = self._columns
        if columns is None or self._changed_rows:
            with self._rows_lock:
                columns = self._columns
                changed = self._changed_rows
                if columns is None or _SPLICE_COST * sum(
                        map(len, map(self._adj.__getitem__, changed))
                ) > len(columns.indices):
                    columns = self._build_columns()
                elif changed:
                    columns = columns.spliced(
                        {v: self._column_row(v) for v in changed},
                        len(self._nodes))
                # published before the change set empties: a reader that
                # sees no change sees these columns
                self._columns = columns
                self._changed_rows = set()
        return columns

    def _build_columns(self) -> Columns:
        return from_endpoints(self._ends, self._edge_relations,
                              len(self._nodes))

    def _fill_endpoints(self) -> None:
        """Rebuild the endpoint and relation columns from the edge
        records, for an importer that filled ``_edges`` itself."""
        ends = array("i", [-1]) * (2 * len(self._edges))
        relations = array("i", [0]) * len(self._edges)
        for edge_id, record in enumerate(self._edges):
            if record is not None:
                ends[2 * edge_id] = record[0]
                ends[2 * edge_id + 1] = record[1]
                relations[edge_id] = self._relation_id(record[2].relation)
        self._ends = ends
        self._edge_relations = relations

    def degree(self, node_id: int) -> int:
        """Undirected degree of *node_id*."""
        return len(self._adj[self._check_node(node_id)])

    def nodes(self) -> Iterator[int]:
        """Iterate over live node ids (tombstones skipped)."""
        return (
            node_id for node_id, data in enumerate(self._nodes)
            if data is not None
        )

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate over live ``(edge_id, src, dst)`` triples."""
        for edge_id, record in enumerate(self._edges):
            if record is not None:
                yield edge_id, record[0], record[1]

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------
    def nodes_with_token(self, token: str) -> FrozenSet[int]:
        """Node ids whose description contains *token* (lowercased)."""
        return frozenset(self._token_index.get(token.lower(), ()))

    def nodes_matching_any(self, tokens: Iterable[str]) -> Set[int]:
        """Union of postings for *tokens* -- the online candidate shortlist."""
        result: Set[int] = set()
        for token in tokens:
            result |= self._token_index.get(token.lower(), set())
        return result

    def nodes_of_type(self, type: str) -> Tuple[int, ...]:
        """Node ids of the given *type* (insertion order).

        Returns an immutable tuple: the underlying type index must never
        be mutated by callers.  (``types()`` already returns a fresh
        list for the same reason.)
        """
        return tuple(self._type_index.get(type, ()))

    def nodes_of_subtype(self, type: str) -> FrozenSet[int]:
        """Node ids whose type is *type* or an ontology subtype of it.

        The subtype closure (union of ``nodes_of_type`` over every graph
        type ``t`` with ``ontology.is_subtype(t, type)``) is precomputed
        lazily, once per queried type, replacing the per-query O(|types|)
        ontology scan candidate shortlisting used to pay.  The mutation
        methods maintain cached closures incrementally (a new node joins
        every closure its type descends into; a removed node leaves every
        closure containing it), so version drift never forces a rebuild.
        """
        if not type:
            return frozenset()
        closure = self._subtype_closure.get(type)
        if closure is None:
            # Local import: ontology is a dependency-free table module,
            # but the similarity package's __init__ imports this module.
            from repro.similarity import ontology

            ids: Set[int] = set(self._type_index.get(type, ()))
            for type_name, members in self._type_index.items():
                if ontology.is_subtype(type_name, type):
                    ids.update(members)
            closure = frozenset(ids)
            self._subtype_closure[type] = closure
        return closure

    def types(self) -> List[str]:
        """Node types with live members, in first-seen order."""
        return [t for t, members in self._type_index.items() if members]

    def relations(self) -> Set[str]:
        """Set of relation labels present on live edges (copy of the
        incrementally refcounted map; callers may mutate it freely)."""
        return set(self._relations)

    def vocabulary(self) -> FrozenSet[str]:
        """All indexed description tokens."""
        return frozenset(self._token_index)

    # ------------------------------------------------------------------
    # Dynamic-update support
    # ------------------------------------------------------------------
    def delta_since(self, version: int) -> Optional[DeltaSummary]:
        """Merged delta of every mutation after *version*.

        ``None`` means the journal no longer covers that span (too many
        mutations since) and the caller must rebuild derived state; an
        empty summary means nothing changed.
        """
        return self.journal.since(version)

    def save(self, path) -> None:
        """Write this graph to *path* as an ``RKGS2`` store (see
        :func:`repro.store.format.write_store`): ids, tombstones, index
        columns, version and the journal tail are preserved, so a
        serving process restarts warm.  *path* is replaced atomically
        and may be the file this graph was loaded from."""
        from repro.store.format import write_store

        write_store(self, path)

    @classmethod
    def load(cls, path) -> "KnowledgeGraph":
        """Load *path* in whatever format its first bytes say it is (see
        :func:`repro.dynamic.snapshot.load_any`)."""
        from repro.dynamic.snapshot import load_any

        return load_any(path)

    @classmethod
    def open_mmap(cls, path, verify: bool = False) -> "KnowledgeGraph":
        """Open an ``RKGS2`` store (see ``repro compact``) zero-copy.

        Returns an :class:`~repro.store.MmapKnowledgeGraph`: a graph
        whose node/edge/adjacency/index state is read from the mmap'd
        file on first touch instead of deserialized up front, so
        opening is O(1) in graph size.  Mutations work through a
        copy-on-write overlay; the file itself is never written.
        """
        from repro.store.lazygraph import open_graph

        return open_graph(path, verify=verify)

    def token_dfs(self) -> Iterator[Tuple[str, int]]:
        """``(token, document frequency)`` for every indexed token.

        The IDF table (:meth:`CorpusContext.from_graph`) needs only the
        posting *sizes*; mmap-backed graphs override this to read sizes
        off the stored offsets without materializing any posting set.
        """
        return ((token, len(members))
                for token, members in self._token_index.items())

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def _check_node(self, node_id: int) -> int:
        if (not (0 <= node_id < len(self._nodes))
                or self._nodes[node_id] is None):
            raise GraphError(f"unknown node id {node_id}")
        return node_id

    def __contains__(self, node_id: object) -> bool:
        return (isinstance(node_id, int)
                and 0 <= node_id < len(self._nodes)
                and self._nodes[node_id] is not None)

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:
        label = self.name or "KnowledgeGraph"
        return f"<{label}: |V|={self.num_nodes} |E|={self.num_edges}>"

    def describe(self, node_id: int) -> str:
        """Human-readable one-line description of a node (for examples/CLI)."""
        data = self.node(node_id)
        parts = [data.name]
        if data.type:
            parts.append(f"[{data.type}]")
        if data.keywords:
            parts.append("{" + ", ".join(data.keywords) + "}")
        return " ".join(parts)


def subgraph_view(graph: KnowledgeGraph, nodes: Iterable[int]) -> KnowledgeGraph:
    """Materialize the induced subgraph on *nodes* as a new graph.

    Node ids are renumbered densely (insertion order follows the sorted
    original ids); used by the Exp-5 sampling protocol and by tests.
    """
    keep = sorted(set(nodes))
    mapping = {}
    out = KnowledgeGraph(name=f"{graph.name}-sub", directed=graph.directed)
    for old_id in keep:
        data = graph.node(old_id)
        mapping[old_id] = out.add_node(
            data.name, data.type, data.keywords, **data.attrs
        )
    keep_set = set(keep)
    for _edge_id, src, dst in graph.edges():
        if src in keep_set and dst in keep_set:
            _s, _d, data = graph.edge(_edge_id)
            out.add_edge(mapping[src], mapping[dst], data.relation, **data.attrs)
    return out
