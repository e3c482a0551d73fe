"""Copy-on-write lazy views that make an ``RKGS2`` file a live graph.

:func:`open_graph` returns a :class:`MmapKnowledgeGraph` -- a real
:class:`~repro.graph.knowledge_graph.KnowledgeGraph` whose internal
containers read the mmap'd columns *on first touch* instead of being
deserialized up front.  Opening is O(sections): no node, edge, token or
adjacency row is materialized until something asks for it.

Mutations keep working through a copy-on-write overlay that falls out
of one invariant: every container caches the mutable object it returns
from ``__getitem__`` on first materialization.  The base
``KnowledgeGraph`` mutators always *read* a row before mutating it
(``self._adj[src].append(...)``, ``members.remove(node_id)``,
``postings.discard(node_id)``), so the first materialization always
captures pure frozen-base state and every later mutation lands in the
process-local cache -- the mapping itself is never written (it is
opened ``ACCESS_READ``; concurrent readers in other processes keep
seeing the frozen base).  Versioning, the delta journal and
``delta_since`` behave exactly as on an in-memory graph; ``repro
compact`` (or :meth:`KnowledgeGraph.save`) folds the overlay back into a
fresh base file -- onto the same path if asked, since
:func:`~repro.store.format.write_store` replaces its target atomically
and a reader's mapping keeps the inode it opened.
"""

from __future__ import annotations

from itertools import chain
from typing import (
    Dict, Iterable, Iterator, List, Optional, Set, Tuple,
)

try:  # pragma: no cover - import-shape compat
    from collections.abc import MutableMapping
except ImportError:  # pragma: no cover
    from collections import MutableMapping  # type: ignore

import numpy as np

from repro.dynamic.journal import DeltaJournal
from repro.errors import GraphError
from repro.graph.columns import Columns
from repro.graph.knowledge_graph import EdgeData, KnowledgeGraph, NodeData
from repro.store.format import NO_ID, StoreReader


class _LazyNodes:
    """List-protocol view of the node table (slot -> NodeData | None)."""

    __slots__ = ("_reader", "_alive", "_names", "_kws", "_attrs", "_ntype",
                 "_types", "_base", "_cache", "_extra")

    def __init__(self, reader: StoreReader, type_keys: List[str]) -> None:
        slots = reader.meta.node_slots
        self._reader = reader
        self._alive = reader.section("node.alive")
        self._names = reader.strings("name", slots)
        self._kws = reader.strings("kw", slots)
        self._attrs = reader.strings("nattr", slots)
        self._ntype = reader.section("ntype")
        self._types = type_keys
        self._base = slots
        self._cache: Dict[int, Optional[NodeData]] = {}
        self._extra: List[Optional[NodeData]] = []

    def __len__(self) -> int:
        return self._base + len(self._extra)

    def is_live(self, i: int) -> bool:
        """Liveness without materializing the NodeData."""
        if i >= self._base:
            return self._extra[i - self._base] is not None
        if i in self._cache:
            return self._cache[i] is not None
        return bool(self._alive[i])

    def _materialize(self, i: int) -> Optional[NodeData]:
        if not self._alive[i]:
            return None
        tid = self._ntype[i]
        if tid == NO_ID:
            node_type = ""
        elif tid < len(self._types):
            node_type = self._types[tid]
        else:
            self._reader.corrupt(
                f"node {i} type id {tid} out of range", section="ntype")
        raw_kw = self._kws[i]
        keywords: Tuple[str, ...] = ()
        if raw_kw:
            keywords = tuple(self._reader.json_at("kw", i, raw_kw, list))
        raw_attrs = self._attrs[i]
        attrs = (self._reader.json_at("nattr", i, raw_attrs, dict)
                 if raw_attrs else {})
        return NodeData(name=self._names[i], type=node_type,
                        keywords=keywords, attrs=attrs)

    def __getitem__(self, i: int) -> Optional[NodeData]:
        if i >= self._base:
            return self._extra[i - self._base]
        if i < 0:
            raise IndexError(i)
        try:
            return self._cache[i]
        except KeyError:
            data = self._materialize(i)
            self._cache[i] = data
            return data

    def __setitem__(self, i: int, value: Optional[NodeData]) -> None:
        if i >= self._base:
            self._extra[i - self._base] = value
        else:
            self._cache[i] = value

    def append(self, value: Optional[NodeData]) -> None:
        self._extra.append(value)

    def __iter__(self) -> Iterator[Optional[NodeData]]:
        for i in range(len(self)):
            yield self[i]


class _LazyEdges:
    """List-protocol view of the edge table
    (slot -> ``(src, dst, EdgeData)`` | None)."""

    __slots__ = ("_reader", "_alive", "_src", "_dst", "_rel", "_attrs",
                 "_rels", "_base", "_cache", "_extra")

    def __init__(self, reader: StoreReader, rel_keys: List[str]) -> None:
        eslots = reader.meta.edge_slots
        self._reader = reader
        self._alive = reader.section("edge.alive")
        self._src = reader.section("edge.src")
        self._dst = reader.section("edge.dst")
        self._rel = reader.section("edge.rel")
        self._attrs = reader.strings("eattr", eslots)
        self._rels = rel_keys
        self._base = eslots
        self._cache: Dict[int, Optional[Tuple[int, int, EdgeData]]] = {}
        self._extra: List[Optional[Tuple[int, int, EdgeData]]] = []

    def __len__(self) -> int:
        return self._base + len(self._extra)

    def _materialize(self, i: int):
        if not self._alive[i]:
            return None
        rid = self._rel[i]
        if rid == NO_ID:
            relation = ""
        elif rid < len(self._rels):
            relation = self._rels[rid]
        else:
            self._reader.corrupt(
                f"edge {i} relation id {rid} out of range",
                section="edge.rel")
        raw = self._attrs[i]
        attrs = self._reader.json_at("eattr", i, raw, dict) if raw else {}
        return (self._src[i], self._dst[i],
                EdgeData(relation=relation, attrs=attrs))

    def __getitem__(self, i: int):
        if i >= self._base:
            return self._extra[i - self._base]
        if i < 0:
            raise IndexError(i)
        try:
            return self._cache[i]
        except KeyError:
            record = self._materialize(i)
            self._cache[i] = record
            return record

    def __setitem__(self, i: int, value) -> None:
        if i >= self._base:
            self._extra[i - self._base] = value
        else:
            self._cache[i] = value

    def append(self, value) -> None:
        self._extra.append(value)

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def triples(self) -> Iterator[Tuple[int, int, int]]:
        """Live ``(edge_id, src, dst)`` rows without building EdgeData."""
        for i in range(self._base):
            record = self._cache.get(i, _SENTINEL)
            if record is _SENTINEL:
                if self._alive[i]:
                    yield i, self._src[i], self._dst[i]
            elif record is not None:
                yield i, record[0], record[1]
        for j, record in enumerate(self._extra):
            if record is not None:
                yield self._base + j, record[0], record[1]


_SENTINEL = object()


class _LazyAdj:
    """The adjacency list (``graph._adj``) over the ``csr.*`` columns: a
    row lists v's ``(neighbor, edge id)`` entries in
    ``graph.neighbors(v)`` order."""

    __slots__ = ("_indptr", "_indices", "_eids", "_rels", "_base",
                 "_cache", "_extra", "_changed")

    def __init__(self, reader: StoreReader) -> None:
        self._indptr = reader.section("csr.indptr")
        self._indices = reader.section("csr.indices")
        self._eids = reader.section("csr.eids")
        self._rels = reader.section("csr.rels")
        self._base = reader.meta.node_slots
        self._cache: Dict[int, List[Tuple[int, int]]] = {}
        self._extra: List[List[Tuple[int, int]]] = []
        # Base rows an edge was added to, removed from or relabelled in
        # (see MmapKnowledgeGraph._drop_rows); a row only read is not one.
        self._changed: Set[int] = set()

    def __len__(self) -> int:
        return self._base + len(self._extra)

    def _materialize(self, v: int) -> List[Tuple[int, int]]:
        start, end = self._indptr[v], self._indptr[v + 1]
        return list(zip(self._indices[start:end], self._eids[start:end]))

    def __getitem__(self, v: int) -> List[Tuple[int, int]]:
        if v >= self._base:
            return self._extra[v - self._base]
        if v < 0:
            raise IndexError(v)
        try:
            return self._cache[v]
        except KeyError:
            row = self._materialize(v)
            self._cache[v] = row
            return row

    def __setitem__(self, v: int, value: List[Tuple[int, int]]) -> None:
        if v >= self._base:
            self._extra[v - self._base] = value
        else:
            self._cache[v] = value

    def append(self, value: List[Tuple[int, int]]) -> None:
        self._extra.append(value)

    def __iter__(self) -> Iterator[List[Tuple[int, int]]]:
        for v in range(len(self)):
            yield self[v]

    def touched(self, v: int) -> bool:
        """Whether row *v* lives in the overlay (materialized or added);
        an untouched row is still its ``csr.*`` slices."""
        return v >= self._base or v in self._cache

    def fast_len(self, v: int) -> int:
        """Row length without materializing the row."""
        if self.touched(v):
            return len(self[v])
        return self._indptr[v + 1] - self._indptr[v]

    def change(self, nodes: Iterable[int]) -> None:
        """Take the rows of *nodes* off base: an edge was added to,
        removed from or relabelled in each."""
        self._changed.update(v for v in nodes if v < self._base)

    def on_base(self, v: int) -> bool:
        """Whether row *v* still equals its ``csr.*`` slices, edge ids
        and labels included."""
        return v < self._base and v not in self._changed

    def base_columns(self) -> Columns:
        """The columns of the base rows (see :mod:`repro.graph.columns`):
        the ``csr.indptr`` / ``csr.indices`` / ``csr.rels`` sections
        themselves."""
        return Columns(np.frombuffer(self._indptr, dtype=np.uint32),
                       np.frombuffer(self._indices, dtype=np.uint32),
                       np.frombuffer(self._rels, dtype=np.uint32))

    def off_base(self) -> Iterator[int]:
        """The rows that no longer equal their ``csr.*`` slices, and the
        rows added past them."""
        return chain(self._changed, range(self._base, len(self)))


class _LazyTokenIndex(MutableMapping):
    """``token -> set of node ids`` over vocab + postings columns.

    Key order is base vocabulary order (tokens deleted by mutations
    drop out) followed by overlay-added tokens in insertion order.  A
    deleted-then-re-added base token resumes its base position -- a
    deliberate, compaction-only divergence from dict semantics.
    """

    __slots__ = ("_reader", "_vocab", "_post_data", "_post_offs", "_idmap",
                 "_over", "_deleted", "_extra")

    def __init__(self, reader: StoreReader) -> None:
        count = reader.meta.counts["vocab"]
        self._reader = reader
        self._vocab = reader.strings("vocab", count)
        self._post_data = reader.section("post.data")
        self._post_offs = reader.section("post.offs")
        self._idmap: Optional[Dict[str, int]] = None
        #: materialized (or overlay-created) sets, mutated in place.
        self._over: Dict[str, Set[int]] = {}
        self._deleted: Set[str] = set()
        #: insertion-ordered registry of tokens absent from the base.
        self._extra: Dict[str, None] = {}

    def _ids(self) -> Dict[str, int]:
        idmap = self._idmap
        if idmap is None:
            vocab = self._vocab
            idmap = {vocab[i]: i for i in range(len(vocab))}
            if len(idmap) != len(vocab):
                self._reader.corrupt("duplicate vocabulary token",
                                     section="vocab.blob")
            self._idmap = idmap
        return idmap

    def _posting(self, tid: int) -> Set[int]:
        start, end = self._post_offs[tid], self._post_offs[tid + 1]
        if not 0 <= start <= end <= len(self._post_data):
            self._reader.corrupt(
                f"posting {tid} offsets [{start}, {end}) out of range",
                section="post.offs")
        members = set(self._post_data[start:end])
        slots = self._reader.meta.node_slots
        if members and max(members) >= slots:
            self._reader.corrupt(
                f"posting {tid} references node >= {slots}",
                section="post.data")
        return members

    def __getitem__(self, token: str) -> Set[int]:
        if token in self._deleted:
            raise KeyError(token)
        members = self._over.get(token)
        if members is not None:
            return members
        tid = self._ids().get(token)
        if tid is None:
            raise KeyError(token)
        members = self._posting(tid)
        self._over[token] = members
        return members

    def __setitem__(self, token: str, members: Set[int]) -> None:
        self._deleted.discard(token)
        self._over[token] = members
        if token not in self._ids():
            self._extra[token] = None

    def __delitem__(self, token: str) -> None:
        if token in self._extra:
            del self._extra[token]
            del self._over[token]
            return
        if token in self._deleted or token not in self._ids():
            raise KeyError(token)
        self._over.pop(token, None)
        self._deleted.add(token)

    def __iter__(self) -> Iterator[str]:
        vocab, deleted = self._vocab, self._deleted
        for i in range(len(vocab)):
            token = vocab[i]
            if token not in deleted:
                yield token
        yield from self._extra

    def __len__(self) -> int:
        return len(self._vocab) - len(self._deleted) + len(self._extra)

    def __contains__(self, token: object) -> bool:
        if token in self._deleted:
            return False
        return token in self._over or token in self._ids()

    def dfs(self) -> Iterator[Tuple[str, int]]:
        """``(token, document frequency)`` pairs in key order, reading
        posting *lengths* from the offsets instead of materializing
        member sets -- the IDF table builds from this in O(vocab)."""
        offs = self._post_offs
        ids = self._ids()
        for token in self:
            members = self._over.get(token)
            if members is not None:
                yield token, len(members)
            else:
                tid = ids[token]
                yield token, offs[tid + 1] - offs[tid]


class _LazyTypeIndex(MutableMapping):
    """``type -> member-id list`` over the type table.  Keys are eager
    (the table is small and ``types()`` order matters); member lists
    materialize on first access."""

    __slots__ = ("_reader", "_tmem_data", "_tmem_offs", "_slots", "_over")

    def __init__(self, reader: StoreReader, type_keys: List[str]) -> None:
        self._reader = reader
        self._tmem_data = reader.section("tmem.data")
        self._tmem_offs = reader.section("tmem.offs")
        #: key -> base table index (None for overlay-added types).
        self._slots: Dict[str, Optional[int]] = {
            t: i for i, t in enumerate(type_keys)
        }
        if len(self._slots) != len(type_keys):
            reader.corrupt("duplicate type key", section="type.blob")
        self._over: Dict[str, List[int]] = {}

    def __getitem__(self, t: str) -> List[int]:
        members = self._over.get(t)
        if members is not None:
            return members
        idx = self._slots[t]
        if idx is None:  # pragma: no cover - overlay types always in _over
            raise KeyError(t)
        start, end = self._tmem_offs[idx], self._tmem_offs[idx + 1]
        if not 0 <= start <= end <= len(self._tmem_data):
            self._reader.corrupt(
                f"type {t!r} member offsets [{start}, {end}) out of range",
                section="tmem.offs")
        members = list(self._tmem_data[start:end])
        slots = self._reader.meta.node_slots
        if members and max(members) >= slots:
            self._reader.corrupt(
                f"type {t!r} references node >= {slots}",
                section="tmem.data")
        self._over[t] = members
        return members

    def __setitem__(self, t: str, members: List[int]) -> None:
        if t not in self._slots:
            self._slots[t] = None
        self._over[t] = members

    def __delitem__(self, t: str) -> None:
        del self._slots[t]
        self._over.pop(t, None)

    def __iter__(self) -> Iterator[str]:
        return iter(self._slots)

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, t: object) -> bool:
        return t in self._slots

    def has_members(self, t: str) -> bool:
        """Truthiness of the member list without materializing it."""
        members = self._over.get(t)
        if members is not None:
            return bool(members)
        idx = self._slots[t]
        if idx is None:  # pragma: no cover
            return False
        return self._tmem_offs[idx + 1] > self._tmem_offs[idx]


class MmapKnowledgeGraph(KnowledgeGraph):
    """A ``KnowledgeGraph`` whose base state lives in an mmap'd RKGS2
    file; see the module docstring for the overlay contract.  Construct
    via :meth:`KnowledgeGraph.open_mmap` / :func:`open_graph`."""

    def __init__(self, *_args, **_kwargs) -> None:
        raise TypeError(
            "MmapKnowledgeGraph cannot be constructed directly; "
            "use KnowledgeGraph.open_mmap(path)")

    # -- overridden access paths (avoid full materialization) ----------
    def nodes(self) -> Iterator[int]:
        nodes = self._nodes
        return (i for i in range(len(nodes)) if nodes.is_live(i))

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        return self._edges.triples()

    def degree(self, node_id: int) -> int:
        return self._adj.fast_len(self._check_node(node_id))

    def _check_node(self, node_id: int) -> int:
        nodes = self._nodes
        if not (isinstance(node_id, int) and 0 <= node_id < len(nodes)) \
                or not nodes.is_live(node_id):
            raise GraphError(f"unknown node id {node_id}")
        return node_id

    def __contains__(self, node_id: object) -> bool:
        nodes = self._nodes
        return (isinstance(node_id, int) and 0 <= node_id < len(nodes)
                and nodes.is_live(node_id))

    def types(self) -> List[str]:
        index = self._type_index
        return [t for t in index if index.has_members(t)]

    def nodes_of_subtype(self, type: str):
        # Base implementation walks _type_index.items(), which would
        # materialize every member list; probe the ontology per key and
        # only materialize matching types.
        if not type:
            return frozenset()
        closure = self._subtype_closure.get(type)
        if closure is None:
            from repro.similarity import ontology

            index = self._type_index
            ids: Set[int] = set(index.get(type, ()))
            for type_name in index:
                if type_name != type and ontology.is_subtype(type_name, type):
                    ids.update(index[type_name])
            closure = frozenset(ids)
            self._subtype_closure[type] = closure
        return closure

    def token_dfs(self) -> Iterator[Tuple[str, int]]:
        return self._token_index.dfs()

    def _drop_rows(self, *nodes: int) -> None:
        # Every edge added, removed or relabelled passes here with both
        # ends: those rows no longer read as their csr.* slices.
        self._adj.change(nodes)
        super()._drop_rows(*nodes)

    def _directed(self, node_id: int, orientation: int):
        # An edge's ends never change, so an untouched row's csr.dirs
        # flags still give its direction: no row, no EdgeData.
        if self._adj.touched(node_id):
            return super()._directed(node_id, orientation)
        store = self._store
        start, end = store.section("csr.indptr")[node_id:node_id + 2]
        want = 1 if orientation > 0 else 0
        return [(nbr, eid) for nbr, eid, out in zip(
                    store.section("csr.indices")[start:end],
                    store.section("csr.eids")[start:end],
                    store.section("csr.dirs")[start:end]) if out == want]

    def _row_entries(self, node_id: int, orientation: int):
        # A row on base reads its labels off csr.rels: no row, no
        # EdgeData.
        if not self._adj.on_base(node_id):
            return super()._row_entries(node_id, orientation)
        store = self._store
        start, end = store.section("csr.indptr")[node_id:node_id + 2]
        keys = self._edges._rels
        entries = zip(store.section("csr.indices")[start:end],
                      store.section("csr.rels")[start:end],
                      store.section("csr.dirs")[start:end])
        if not orientation:
            return ((nbr, keys[rid]) for nbr, rid, _out in entries)
        want = 1 if orientation > 0 else 0
        return ((nbr, keys[rid]) for nbr, rid, out in entries if out == want)

    def _build_columns(self) -> Columns:
        # csr.rels holds ids into the store's relation table, which is
        # where this graph's relation ids start (see open_graph)
        adj = self._adj
        return adj.base_columns().spliced(
            {v: self._column_row(v) for v in adj.off_base()}, len(adj))

    # -- store plumbing -------------------------------------------------
    @property
    def store_path(self) -> str:
        """Path of the backing RKGS2 file (workers re-open it)."""
        return self._store.path

    def close(self) -> None:
        """Release the mapping (views already handed out keep it alive
        until dropped; see :meth:`StoreReader.close`)."""
        self._store.close()

    def __repr__(self) -> str:
        label = self.name or "KnowledgeGraph"
        return (f"<{label} (mmap {self._store.path}): "
                f"|V|={self.num_nodes} |E|={self.num_edges}>")


def open_graph(path, *, verify: bool = False) -> MmapKnowledgeGraph:
    """Open *path* (an ``RKGS2`` store) as a live graph, zero-copy.

    Args:
        path: file written by :func:`repro.store.write_store`.
        verify: force a CRC check of every section up front (defaults
            to lazy per-section verification on first touch).
    """
    from repro.textutil import clear_token_memo

    reader = StoreReader(path, verify=verify)
    try:
        meta = reader.meta
        type_keys = reader.strings("type", meta.counts["types"]).materialize()
        rel_keys = reader.strings("rel", meta.counts["rels"]).materialize()
        graph = MmapKnowledgeGraph.__new__(MmapKnowledgeGraph)
        KnowledgeGraph.__init__(graph, name=meta.name,
                                directed=meta.directed,
                                journal_limit=meta.journal_limit)
        graph._nodes = _LazyNodes(reader, type_keys)
        graph._edges = _LazyEdges(reader, rel_keys)
        graph._adj = _LazyAdj(reader)
        graph._ends = graph._edge_relations = None
        graph._relation_names = list(rel_keys)
        graph._relation_ids = {key: rid for rid, key in enumerate(rel_keys)}
        graph._token_index = _LazyTokenIndex(reader)
        graph._type_index = _LazyTypeIndex(reader, type_keys)
        graph._relations = dict(meta.relations)
        graph._removed_nodes = meta.removed_nodes
        graph._removed_edges = meta.removed_edges
        graph._max_degree = meta.max_degree
        graph._max_degree_dirty = False
        graph.version = meta.version
        graph.journal = DeltaJournal(limit=meta.journal_limit)
        graph.journal.replace(meta.journal_entries,
                              latest=meta.journal_latest)
        graph._store = reader
        #: The frozen base version: concurrent readers of the same file
        #: see exactly this state regardless of overlay mutations here.
        graph.base_version = meta.version
    except BaseException:
        reader.close()
        raise
    clear_token_memo()
    return graph
