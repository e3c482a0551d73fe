"""The varint codec, the ``RKGS`` v1 importer, and :func:`load_any`.

``RKGS`` v1 was the first binary format here: the whole graph in one
zlib-compressed body.  Nothing writes it any more --
:meth:`KnowledgeGraph.save`, ``repro compact`` (alias ``snapshot``) and
``repro apply-delta`` write the mmap-able ``RKGS2`` store
(:mod:`repro.store.format`), which holds the same state (slots with
tombstones, structural version, journal tail) plus the index columns.
What stays here:

* :class:`_Writer` / :class:`_Reader` -- the bounds-checked varint
  codec, journal tail included, that the store's ``meta`` section is
  written and read with;
* :func:`load_snapshot` -- a read-only importer, so existing v1 files
  keep loading (``tests/data/movies_v1.kgs`` is the last one this code
  base wrote);
* :func:`load_any` -- the one loader: it reads the file's magic and
  dispatches to the store, this importer or line-JSON.

v1 layout (integers are unsigned LEB128 varints; strings are UTF-8 with
a varint byte-length prefix; id sets are delta-encoded ascending)::

    magic  b"RKGS"
    u8     format version (currently 1)
    u32le  CRC-32 of the uncompressed body
    bytes  zlib-compressed body

    body := name  directed:u8  structural_version
            node_section edge_section
            token_index type_index relation_refcounts max_degree
            journal_section

Node and edge sections store *slots*, a presence byte each, so
tombstones survive.  Loading calls
:func:`repro.textutil.clear_token_memo`: a graph swap is the boundary
where the previous graph's memoised tokens stop paying for themselves.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.dynamic.journal import Delta, DeltaJournal
from repro.errors import DatasetError, SnapshotCorruptionError

MAGIC = b"RKGS"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sBI")  # magic, format version, body CRC-32


class _Writer:
    """Append-only little encoder (the store's ``meta`` section)."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def u8(self, value: int) -> None:
        self._buf.append(value & 0xFF)

    def varint(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"varint cannot encode negative value {value}")
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                self._buf.append(byte | 0x80)
            else:
                self._buf.append(byte)
                return

    def string(self, value: str) -> None:
        raw = value.encode("utf-8")
        self.varint(len(raw))
        self._buf += raw

    def id_set(self, ids) -> None:
        ordered = sorted(ids)
        self.varint(len(ordered))
        previous = 0
        for node_id in ordered:
            self.varint(node_id - previous)  # ascending => non-negative
            previous = node_id

    def string_set(self, values) -> None:
        ordered = sorted(values)
        self.varint(len(ordered))
        for value in ordered:
            self.string(value)

    def journal(self, journal: DeltaJournal) -> None:
        """Journal tail: limit, latest version, retained entries."""
        self.varint(journal.limit)
        self.varint(journal.latest_version)
        entries = journal.entries()
        self.varint(len(entries))
        for delta in entries:
            self.varint(delta.version)
            self.string(delta.kind)
            self.u8(1 if delta.stats_changed else 0)
            self.id_set(delta.nodes)
            self.string_set(delta.tokens)
            self.string_set(delta.types)
            self.string_set(delta.relations)

    def getvalue(self) -> bytes:
        return bytes(self._buf)


class _Reader:
    """Bounds-checked decoder: every failure is a typed
    :class:`SnapshotCorruptionError` carrying the body offset where
    decoding went wrong -- never a bare ``IndexError`` / ``ValueError``
    escaping from a flipped byte.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    @property
    def offset(self) -> int:
        return self._pos

    def _corrupt(self, message: str, at: Optional[int] = None):
        raise SnapshotCorruptionError(
            f"corrupt snapshot: {message}",
            offset=self._pos if at is None else at,
        )

    def u8(self) -> int:
        if self._pos >= len(self._data):
            self._corrupt("truncated body (unexpected end of data)")
        value = self._data[self._pos]
        self._pos += 1
        return value

    def varint(self) -> int:
        start = self._pos
        value = 0
        shift = 0
        while True:
            byte = self.u8()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 63:
                self._corrupt("varint overflow", at=start)

    def count(self) -> int:
        """A varint used as an element count.

        Bounded by the bytes that remain: every encoded element costs at
        least one byte, so a larger claim is corruption -- caught here
        rather than surfacing as a giant allocation in a decode loop.
        """
        start = self._pos
        value = self.varint()
        if value > len(self._data) - self._pos:
            self._corrupt(
                f"implausible count {value} with "
                f"{len(self._data) - self._pos} byte(s) left", at=start)
        return value

    def string(self) -> str:
        start = self._pos
        length = self.varint()
        raw = self._data[self._pos:self._pos + length]
        if len(raw) != length:
            self._corrupt("truncated string", at=start)
        self._pos += length
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            self._corrupt(f"invalid UTF-8 in string: {exc}", at=start)

    def attrs(self) -> Dict[str, Any]:
        start = self._pos
        raw = self.string()
        if not raw:
            return {}
        try:
            decoded = json.loads(raw)
        except json.JSONDecodeError as exc:
            self._corrupt(f"invalid attrs JSON: {exc}", at=start)
        if not isinstance(decoded, dict):
            self._corrupt(
                f"attrs must decode to an object, "
                f"got {type(decoded).__name__}", at=start)
        return decoded

    def id_set(self) -> List[int]:
        count = self.count()
        ids: List[int] = []
        previous = 0
        for _ in range(count):
            previous += self.varint()
            ids.append(previous)
        return ids

    def string_set(self) -> List[str]:
        return [self.string() for _ in range(self.count())]

    def journal(self, node_slots: int) -> Tuple[int, int, List[Delta]]:
        """What :meth:`_Writer.journal` wrote: ``(limit, latest version,
        entries)``.  Entries may name tombstoned nodes (that is what a
        remove_node delta records) but never ids past *node_slots*."""
        limit = self.varint()
        latest = self.varint()
        entries: List[Delta] = []
        for _ in range(self.count()):
            version = self.varint()
            kind = self.string()
            stats_changed = bool(self.u8())
            nodes = frozenset(self.id_set())
            for nid in nodes:
                if nid >= node_slots:
                    self._corrupt(
                        f"journal delta v{version} references node {nid} "
                        f">= {node_slots} slot(s)")
            entries.append(Delta(
                version, kind,
                nodes=nodes,
                tokens=frozenset(self.string_set()),
                types=frozenset(self.string_set()),
                relations=frozenset(self.string_set()),
                stats_changed=stats_changed,
            ))
        return limit, latest, entries

    @property
    def exhausted(self) -> bool:
        return self._pos == len(self._data)


# ----------------------------------------------------------------------
def _decode(body: bytes):
    from repro.graph.knowledge_graph import EdgeData, KnowledgeGraph, NodeData

    reader = _Reader(body)
    name = reader.string()
    directed = bool(reader.u8())
    version = reader.varint()
    graph = KnowledgeGraph(name=name, directed=directed)

    node_slots = reader.count()
    nodes: List[Optional[NodeData]] = []
    removed_nodes = 0
    for _ in range(node_slots):
        if not reader.u8():
            nodes.append(None)
            removed_nodes += 1
            continue
        node_name = reader.string()
        node_type = reader.string()
        keywords = tuple(reader.string() for _ in range(reader.count()))
        nodes.append(NodeData(name=node_name, type=node_type,
                              keywords=keywords, attrs=reader.attrs()))

    edge_slots = reader.count()
    edges: List[Optional[Tuple[int, int, EdgeData]]] = []
    removed_edges = 0
    for _ in range(edge_slots):
        if not reader.u8():
            edges.append(None)
            removed_edges += 1
            continue
        src = reader.varint()
        dst = reader.varint()
        relation = reader.string()
        edges.append((src, dst, EdgeData(relation=relation,
                                         attrs=reader.attrs())))

    token_index: Dict[str, set] = {}
    for _ in range(reader.count()):
        token = reader.string()
        members_set = set(reader.id_set())
        # Bound-check index membership: a flipped byte inside an id_set
        # must not yield a graph that silently references nonexistent or
        # tombstoned nodes (queries would return wrong results instead
        # of failing loudly).
        for nid in members_set:
            if nid >= node_slots or nodes[nid] is None:
                raise SnapshotCorruptionError(
                    f"corrupt snapshot: token {token!r} posting "
                    f"references dead node {nid}", offset=reader.offset)
        token_index[token] = members_set
    type_index: Dict[str, List[int]] = {}
    for _ in range(reader.count()):
        type_name = reader.string()
        members = reader.id_set()
        for nid in members:
            if nid >= node_slots or nodes[nid] is None:
                raise SnapshotCorruptionError(
                    f"corrupt snapshot: type {type_name!r} member list "
                    f"references dead node {nid}", offset=reader.offset)
        type_index[type_name] = members
    relations: Dict[str, int] = {}
    for _ in range(reader.count()):
        relation = reader.string()
        relations[relation] = reader.varint()
    max_degree = reader.varint()

    journal_limit, journal_latest, journal_entries = reader.journal(
        node_slots)
    if not reader.exhausted:
        raise SnapshotCorruptionError(
            "corrupt snapshot: trailing bytes after body",
            offset=reader.offset)
    if journal_latest != version:
        raise SnapshotCorruptionError(
            f"corrupt snapshot: journal latest {journal_latest} "
            f"!= graph version {version}", offset=reader.offset)

    # Rebuild adjacency in edge-id order: removals preserve relative
    # order of survivors, so this reproduces the live graph's lists
    # exactly (engines iterate neighbor lists in order).
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(node_slots)]
    for edge_id, record in enumerate(edges):
        if record is None:
            continue
        src, dst, _data = record
        if not (0 <= src < node_slots and 0 <= dst < node_slots) \
                or nodes[src] is None or nodes[dst] is None:
            raise SnapshotCorruptionError(
                f"corrupt snapshot: edge {edge_id} references dead node",
                offset=reader.offset)
        adj[src].append((dst, edge_id))
        adj[dst].append((src, edge_id))

    graph._nodes = nodes
    graph._edges = edges
    graph._removed_nodes = removed_nodes
    graph._removed_edges = removed_edges
    graph._adj = adj
    graph._fill_endpoints()
    graph._token_index = token_index
    graph._type_index = type_index
    graph._relations = relations
    graph._max_degree = max_degree
    graph.version = version
    graph.journal = DeltaJournal(limit=journal_limit)
    graph.journal.replace(journal_entries, latest=journal_latest)
    return graph


# ----------------------------------------------------------------------
def load_snapshot(path):
    """Import an ``RKGS`` v1 snapshot (written by builds before the
    ``RKGS2`` store became the only binary format).

    The loaded graph gets a fresh ``uid`` (it is a different in-process
    object; warm *in-process* caches key on uid and must not be fooled),
    keeps its persisted structural version and journal, and clears the
    process-wide token memo (graph-swap boundary).

    Raises:
        DatasetError: for a missing file, non-snapshot content (bad
            magic) or an unsupported format version.
        SnapshotCorruptionError: for everything that *should* have been
            a readable snapshot but is not -- truncation, a failed
            decompression, a CRC mismatch, or structural corruption in
            the body.  Always typed, with the failing offset attached;
            a bare ``struct.error`` / ``zlib.error`` / ``IndexError``
            never escapes this function.
    """
    from repro.textutil import clear_token_memo

    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        raise DatasetError(f"graph file not found: {path}") from None
    if raw.startswith(b"RKGS2"):
        raise DatasetError(
            f"{path}: this is an RKGS2 store, not an RKGS snapshot; "
            "open it with KnowledgeGraph.open_mmap (or load_any)")
    if not raw.startswith(MAGIC):
        raise DatasetError(f"{path}: not a repro snapshot (bad magic)")
    if len(raw) < _HEADER.size:
        raise SnapshotCorruptionError(
            "corrupt snapshot: truncated header", path=path,
            offset=len(raw))
    _magic, fmt, crc = _HEADER.unpack_from(raw)
    if fmt != FORMAT_VERSION:
        raise DatasetError(
            f"{path}: unsupported snapshot format version {fmt} "
            f"(this build reads {FORMAT_VERSION})")
    try:
        body = zlib.decompress(raw[_HEADER.size:])
    except zlib.error as exc:
        raise SnapshotCorruptionError(
            f"corrupt snapshot body: {exc}", path=path,
            offset=_HEADER.size) from None
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise SnapshotCorruptionError(
            "snapshot CRC mismatch (body does not match header checksum)",
            path=path, offset=_HEADER.size)
    try:
        graph = _decode(body)
    except SnapshotCorruptionError as exc:
        if exc.path is not None:
            raise
        # Re-raise with the file attached; offsets from the reader are
        # into the uncompressed body.
        raise SnapshotCorruptionError(
            exc.base_message, path=path, offset=exc.offset) from None
    except DatasetError:
        raise
    except (ValueError, KeyError, IndexError, OverflowError,
            TypeError) as exc:
        # Backstop: no decoder slip may surface as an untyped error.
        raise SnapshotCorruptionError(
            f"corrupt snapshot: {type(exc).__name__}: {exc}",
            path=path) from exc
    clear_token_memo()
    return graph


def load_any(path):
    """Load *path* as an RKGS2 store, an RKGS snapshot, or line-JSON.

    CLI entry points accept any of the three formats; the magic bytes
    make sniffing unambiguous (``RKGS2`` vs ``RKGS`` + version byte
    0x01 vs line-JSON starting with ``{``).  RKGS2 stores open
    zero-copy via :meth:`KnowledgeGraph.open_mmap`.
    """
    try:
        with open(path, "rb") as handle:
            prefix = handle.read(5)
    except FileNotFoundError:
        raise DatasetError(f"graph file not found: {path}") from None
    if prefix == b"RKGS2":
        from repro.graph.knowledge_graph import KnowledgeGraph

        return KnowledgeGraph.open_mmap(path)
    if prefix.startswith(MAGIC):
        return load_snapshot(path)
    from repro.graph.io import load_graph

    return load_graph(path)
