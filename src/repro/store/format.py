"""``RKGS2``: the mmap-able columnar store, the one binary format written.

A *serialized* graph (line-JSON, or the import-only ``RKGS`` v1 of
:mod:`repro.dynamic.snapshot`) is deserialized node by node on load, so
cold-start is O(graph) and every process pays for its own copy.
``RKGS2`` instead lays the graph and its :mod:`repro.index` kernels out
as flat, page-aligned, CRC-guarded columns that are read *in place*
through one ``mmap``::

    offset 0      fixed 64-byte header
                  magic b"RKGS2\\0", format version, page size,
                  section count, directory offset/size/CRC, header CRC
    offset 4096   sections, each page-aligned, CRC-32 guarded
    tail          section directory (fixed 48-byte entries)

Sections (``<name> [typecode]``; ``.blob``/``.offs`` pairs are UTF-8
string tables -- string *i* is ``blob[offs[i]:offs[i+1]]``)::

    meta                varint-encoded scalars + relation refcounts +
                        journal tail (the hardened codec of
                        :mod:`repro.dynamic.snapshot`)
    vocab.blob/offs     interned token spellings, dense-id order
    idf           [d]   per-token IDF (computed at write time)
    post.data     [I]   concatenated posting lists (ascending node ids)
    post.offs     [Q]   posting list i = data[offs[i]:offs[i+1]]
    node.alive    [B]   1 per live node slot, 0 per tombstone
    name/kw/nattr       per-slot name, keywords-JSON, attrs-JSON tables
    ntype         [I]   per-slot index into type.blob (NO_ID = untyped)
    type.blob/offs      type-index keys, insertion order
    tmem.data     [I]   concatenated type-index member lists
    tmem.offs     [Q]   members of type i = data[offs[i]:offs[i+1]]
    edge.alive    [B]   per edge slot
    edge.src/dst  [I]   endpoints per edge slot
    edge.rel      [I]   index into rel.blob (NO_ID = tombstone/unlabeled)
    eattr.blob/offs     per-slot edge attrs-JSON
    rel.blob/offs       relation label pool (CSR + edge table share it)
    csr.indptr    [I]   CSR row pointers (num_node_slots + 1)
    csr.indices   [I]   neighbor node ids, ``graph.neighbors(v)`` order
    csr.rels      [I]   relation-label ids
    csr.dirs      [B]   1 = edge leaves v (dir filtering reproduces the
                        out/in neighbor lists)
    csr.eids      [I]   edge ids (the live adjacency stores
                        ``(neighbor, edge_id)`` tuples)
    feat.<name>         the 14 :class:`~repro.index.features.NodeFeatures`
                        columns
    pool.blob/offs      features string pool (types, initials)

Integrity: the header and directory are verified *eagerly* on open
(O(1), keeps cold-open in the milliseconds); every section carries a
CRC-32 verified on first access (and all at once via
:meth:`StoreReader.verify`).  Every failure is a typed
:class:`~repro.errors.SnapshotCorruptionError` carrying the section
name and byte offset -- the corruption suite fuzzes truncations and
byte flips over the whole file to hold that line.

Atomic replace: :func:`write_store` never opens its target.  It writes a
temporary file beside it, fsyncs, and renames it over the target, so a
process that has the old file mapped keeps reading the old inode (saving
a store over its own backing file is the normal ``apply-delta`` /
``compact`` round trip), and a writer killed half way leaves the old
file intact.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from array import array
from typing import Dict, List, Optional, Tuple

from repro.dynamic.snapshot import _Reader, _Writer
from repro.errors import DatasetError, SnapshotCorruptionError
from repro.index.features import FEATURE_COLUMNS, NodeFeatures
from repro.index.postings import PostingIndex
from repro.index.vocab import Vocabulary

#: Distinguishes RKGS2 from RKGS v1: both start ``RKGS``, but v1's next
#: byte is the format version (0x01), never ASCII ``"2"``.
MAGIC2 = b"RKGS2\x00"
#: The format written.  Format 2 also carried semantic-tier columns and
#: four banding counts in ``meta``; format 3 dropped them (the tier
#: embeds in memory on its first probe).  The reader accepts both.
STORE_VERSION = 3
READ_VERSIONS = (2, 3)
PAGE_SIZE = 4096

#: ``0xFFFFFFFF`` -- "no entry" in u32 id columns (untyped node,
#: tombstoned edge relation).
NO_ID = 0xFFFFFFFF

# magic, format version, page size, section count, directory offset,
# directory nbytes, directory CRC, reserved; the final u32 is the CRC-32
# of the preceding 60 bytes.
_HEADER_BASE = struct.Struct("<6sHIIQQI24x")
_HEADER_CRC = struct.Struct("<I")
HEADER_SIZE = _HEADER_BASE.size + _HEADER_CRC.size  # 64

# name (UTF-8, NUL padded), offset, nbytes, payload CRC-32, typecode
# (ord of the array typecode, 0 = raw bytes).
_ENTRY = struct.Struct("<24sQQII")

_CODES = frozenset(b"BIQdf")

#: The ``meta`` section's section-size counts, in encoding order.
_COUNTS = ("vocab", "post", "types", "tmem", "rels", "csr", "pool")


def _align(offset: int) -> int:
    return (offset + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE


def _crc(payload) -> int:
    return zlib.crc32(payload) & 0xFFFFFFFF


def _attrs_json(mapping: dict) -> str:
    """Canonical attrs encoding -- matches the RKGS v1 snapshot codec."""
    if not mapping:
        return ""
    return json.dumps(mapping, sort_keys=True, separators=(",", ":"))


class _Blob:
    """Builder for a ``.blob``/``.offs`` string-table section pair."""

    __slots__ = ("blob", "offs")

    def __init__(self) -> None:
        self.blob = bytearray()
        self.offs = array("Q", [0])

    def add(self, value: str) -> None:
        self.blob += value.encode("utf-8")
        self.offs.append(len(self.blob))

    def sections(self, prefix: str) -> List[Tuple[str, int, bytes]]:
        return [(f"{prefix}.blob", 0, bytes(self.blob)),
                (f"{prefix}.offs", ord("Q"), self.offs.tobytes())]


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def _encode_meta(graph, counts: Dict[str, int]) -> bytes:
    writer = _Writer()
    writer.string(graph.name)
    writer.u8(1 if graph.directed else 0)
    writer.varint(graph.version)
    writer.varint(graph.num_node_slots)
    writer.varint(graph.num_edge_slots)
    writer.varint(graph._removed_nodes)
    writer.varint(graph._removed_edges)
    writer.varint(graph.max_degree)
    for key in _COUNTS:
        writer.varint(counts[key])
    writer.varint(len(graph._relations))
    for relation in sorted(graph._relations):
        writer.string(relation)
        writer.varint(graph._relations[relation])
    writer.journal(graph.journal)
    return writer.getvalue()


def _build_sections(graph) -> List[Tuple[str, int, bytes]]:
    """All section payloads as ``(name, typecode-ord, payload)`` rows."""
    from repro.similarity.descriptors import CorpusContext

    slots = graph.num_node_slots
    eslots = graph.num_edge_slots

    # Index kernels, rebuilt from the live graph: vocabulary ids follow
    # sorted token spellings (so the bytes do not depend on the hash
    # seed), postings come out sorted, feature
    # rows mirror Descriptor derivations.  IDF is resolved at write time
    # so attached readers never need to write it.
    vocab = Vocabulary()
    postings = PostingIndex.build(graph, vocab)
    features = NodeFeatures.build(graph, vocab)
    vocab.refresh_idf(CorpusContext.from_graph(graph))

    post_offs = array("Q", [0])
    for arr in postings.postings:
        post_offs.append(post_offs[-1] + len(arr))
    post_data = b"".join(arr.tobytes() for arr in postings.postings)

    vocab_blob = _Blob()
    for token in vocab.strings:
        vocab_blob.add(token)

    # CSR adjacency: row order equals the live adjacency order and the
    # direction flag recovers the out/in lists.  A mapped graph reads its
    # ``(neighbor, edge_id)`` rows off indices + eids, and its
    # relation-grouped rows (``grouped_relations``) off indices + rels +
    # dirs, without materializing an edge.
    rel_ids: Dict[str, int] = {}
    rel_blob = _Blob()

    def rel_id(label: str) -> int:
        rid = rel_ids.get(label)
        if rid is None:
            rid = len(rel_ids)
            rel_ids[label] = rid
            rel_blob.add(label)
        return rid

    indptr = array("I", bytes(4 * (slots + 1)))
    indices = array("I")
    csr_rels = array("I")
    csr_dirs = array("B")
    csr_eids = array("I")
    edges = graph._edges
    adj = graph._adj
    for v in range(slots):
        for nbr, eid in adj[v]:
            record = edges[eid]
            indices.append(nbr)
            csr_eids.append(eid)
            csr_rels.append(rel_id(record[2].relation))
            csr_dirs.append(1 if record[0] == v else 0)
        indptr[v + 1] = len(indices)

    # Node table.  The full type-index key list (insertion order,
    # including keys whose members all died -- ``types()`` order depends
    # on it) doubles as the node-type pool.
    type_keys = list(graph._type_index.keys())
    type_pos = {t: i for i, t in enumerate(type_keys)}
    node_alive = bytearray(slots)
    names = _Blob()
    kws = _Blob()
    nattrs = _Blob()
    ntype = array("I")
    nodes = graph._nodes
    for i in range(slots):
        data = nodes[i]
        if data is None:
            names.add("")
            kws.add("")
            nattrs.add("")
            ntype.append(NO_ID)
            continue
        node_alive[i] = 1
        names.add(data.name)
        kws.add(json.dumps(list(data.keywords), separators=(",", ":"))
                if data.keywords else "")
        nattrs.add(_attrs_json(data.attrs))
        if data.type:
            pos = type_pos.get(data.type)
            if pos is None:  # pragma: no cover - index covers live types
                pos = len(type_keys)
                type_pos[data.type] = pos
                type_keys.append(data.type)
            ntype.append(pos)
        else:
            ntype.append(NO_ID)

    type_blob = _Blob()
    tmem_data = array("I")
    tmem_offs = array("Q", [0])
    for t in type_keys:
        type_blob.add(t)
        tmem_data.extend(graph._type_index.get(t, ()))
        tmem_offs.append(len(tmem_data))

    # Edge table.
    edge_alive = bytearray(eslots)
    edge_src = array("I", bytes(4 * eslots))
    edge_dst = array("I", bytes(4 * eslots))
    edge_rel = array("I")
    eattrs = _Blob()
    for eid in range(eslots):
        record = edges[eid]
        if record is None:
            edge_rel.append(NO_ID)
            eattrs.add("")
            continue
        src, dst, edata = record
        edge_alive[eid] = 1
        edge_src[eid] = src
        edge_dst[eid] = dst
        edge_rel.append(rel_id(edata.relation))
        eattrs.add(_attrs_json(edata.attrs))

    pool_blob = _Blob()
    for value in features.pool_strings:
        pool_blob.add(value)

    counts = {
        "vocab": len(vocab), "post": post_offs[-1],
        "types": len(type_keys), "tmem": len(tmem_data),
        "rels": len(rel_ids), "csr": len(indices),
        "pool": len(features.pool_strings),
    }

    sections: List[Tuple[str, int, bytes]] = [
        ("meta", 0, _encode_meta(graph, counts)),
    ]
    sections += vocab_blob.sections("vocab")
    sections.append(("idf", ord("d"), vocab.idf.tobytes()))
    sections.append(("post.data", ord("I"), post_data))
    sections.append(("post.offs", ord("Q"), post_offs.tobytes()))
    sections.append(("node.alive", ord("B"), bytes(node_alive)))
    sections += names.sections("name")
    sections += kws.sections("kw")
    sections += nattrs.sections("nattr")
    sections.append(("ntype", ord("I"), ntype.tobytes()))
    sections += type_blob.sections("type")
    sections.append(("tmem.data", ord("I"), tmem_data.tobytes()))
    sections.append(("tmem.offs", ord("Q"), tmem_offs.tobytes()))
    sections.append(("edge.alive", ord("B"), bytes(edge_alive)))
    sections.append(("edge.src", ord("I"), edge_src.tobytes()))
    sections.append(("edge.dst", ord("I"), edge_dst.tobytes()))
    sections.append(("edge.rel", ord("I"), edge_rel.tobytes()))
    sections += eattrs.sections("eattr")
    sections += rel_blob.sections("rel")
    sections.append(("csr.indptr", ord("I"), indptr.tobytes()))
    sections.append(("csr.indices", ord("I"), indices.tobytes()))
    sections.append(("csr.rels", ord("I"), csr_rels.tobytes()))
    sections.append(("csr.dirs", ord("B"), csr_dirs.tobytes()))
    sections.append(("csr.eids", ord("I"), csr_eids.tobytes()))
    for attr, code in FEATURE_COLUMNS:
        sections.append(
            (f"feat.{attr}", ord(code), getattr(features, attr).tobytes())
        )
    sections += pool_blob.sections("pool")
    return sections


def write_store(graph, path) -> int:
    """Write *graph* (any :class:`KnowledgeGraph`, including an
    mmap-backed one with a mutation overlay) to *path* as ``RKGS2``.

    Compaction folds any copy-on-write overlay back into the frozen
    base: the writer walks the graph through its public structures, so
    overlay mutations are simply part of what gets laid out.  *path* is
    replaced atomically (see the module docstring) and may be the file
    *graph* itself is mapped from.  Returns the file size in bytes.

    Raises:
        DatasetError: when *path* cannot be written (missing or
            read-only directory, full disk); no temporary is left.
    """
    graph._resolve_max_degree()
    sections = _build_sections(graph)
    entries = []
    offset = PAGE_SIZE
    for name, code, payload in sections:
        offset = _align(offset)
        entries.append((name, offset, len(payload), _crc(payload), code))
        offset += len(payload)
    dir_off = _align(offset)
    dir_bytes = b"".join(
        _ENTRY.pack(name.encode("utf-8"), off, nbytes, crc, code)
        for name, off, nbytes, crc, code in entries
    )
    base = _HEADER_BASE.pack(
        MAGIC2, STORE_VERSION, PAGE_SIZE, len(entries),
        dir_off, len(dir_bytes), _crc(dir_bytes),
    )
    header = base + _HEADER_CRC.pack(_crc(base))
    target = os.fspath(path)
    temporary = f"{target}.tmp-{os.getpid()}-{os.urandom(4).hex()}"
    try:
        with open(temporary, "xb") as handle:
            handle.write(header)
            for (name, off, _nbytes, _c, _t), (_n, _code, payload) in zip(
                entries, sections
            ):
                handle.seek(off)
                handle.write(payload)
            handle.seek(dir_off)
            handle.write(dir_bytes)
            handle.flush()
            os.fsync(handle.fileno())
            total = handle.tell()
        os.replace(temporary, target)
    except BaseException as exc:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise DatasetError(
                f"cannot write graph store {target}: "
                f"{exc.strerror or exc}") from exc
        raise
    return total


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
class StoreMeta:
    """Decoded ``meta`` section (scalars, relation refcounts, journal)."""

    __slots__ = (
        "name", "directed", "version", "node_slots", "edge_slots",
        "removed_nodes", "removed_edges", "max_degree", "counts",
        "relations", "journal_limit", "journal_latest", "journal_entries",
    )


def _decode_meta(payload: bytes, fmt: int) -> StoreMeta:
    reader = _Reader(payload)
    meta = StoreMeta()
    meta.name = reader.string()
    meta.directed = bool(reader.u8())
    meta.version = reader.varint()
    meta.node_slots = reader.varint()
    meta.edge_slots = reader.varint()
    meta.removed_nodes = reader.varint()
    meta.removed_edges = reader.varint()
    meta.max_degree = reader.varint()
    meta.counts = {key: reader.varint() for key in _COUNTS}
    if fmt == 2:
        for _ in range(4):  # the dropped semantic-tier banding counts
            reader.varint()
    meta.relations = {}
    for _ in range(reader.count()):
        relation = reader.string()
        meta.relations[relation] = reader.varint()
    meta.journal_limit, meta.journal_latest, meta.journal_entries = \
        reader.journal(meta.node_slots)
    if not reader.exhausted:
        raise SnapshotCorruptionError(
            "corrupt store: trailing bytes after meta",
            offset=reader.offset)
    if meta.journal_latest != meta.version:
        raise SnapshotCorruptionError(
            f"corrupt store: journal latest {meta.journal_latest} "
            f"!= graph version {meta.version}", offset=reader.offset)
    if meta.removed_nodes > meta.node_slots \
            or meta.removed_edges > meta.edge_slots:
        raise SnapshotCorruptionError(
            "corrupt store: removal count exceeds slot count",
            offset=reader.offset)
    return meta


class StringTable:
    """Lazy string accessor over a ``.blob``/``.offs`` section pair."""

    __slots__ = ("_reader", "_prefix", "_blob", "_offs", "_cache")

    def __init__(self, reader: "StoreReader", prefix: str,
                 count: Optional[int] = None) -> None:
        self._reader = reader
        self._prefix = prefix
        self._blob = reader.section(f"{prefix}.blob")
        self._offs = reader.section(f"{prefix}.offs")
        if count is not None and len(self._offs) != count + 1:
            reader.corrupt(
                f"expected {count + 1} offsets, found {len(self._offs)}",
                section=f"{prefix}.offs")
        self._cache: Dict[int, str] = {}

    def __len__(self) -> int:
        return len(self._offs) - 1

    def __getitem__(self, i: int) -> str:
        hit = self._cache.get(i)
        if hit is not None:
            return hit
        if not 0 <= i < len(self._offs) - 1:
            raise IndexError(i)
        start, end = self._offs[i], self._offs[i + 1]
        if not 0 <= start <= end <= len(self._blob):
            self._reader.corrupt(
                f"string {i} offsets [{start}, {end}) out of range",
                section=f"{self._prefix}.offs")
        try:
            value = bytes(self._blob[start:end]).decode("utf-8")
        except UnicodeDecodeError as exc:
            self._reader.corrupt(f"invalid UTF-8 in string {i}: {exc}",
                                 section=f"{self._prefix}.blob")
        self._cache[i] = value
        return value

    def materialize(self) -> List[str]:
        return [self[i] for i in range(len(self))]


class StoreReader:
    """One open ``RKGS2`` file: mmap + validated section directory.

    The header, directory and ``meta`` section are verified eagerly
    (cheap); data-section CRCs verify lazily on first
    :meth:`section` access, or all at once via :meth:`verify`.
    """

    def __init__(self, path, *, verify: bool = False) -> None:
        self.path = str(path)
        try:
            self._file = open(path, "rb")
        except FileNotFoundError:
            raise DatasetError(f"graph file not found: {path}") from None
        try:
            size = os.fstat(self._file.fileno()).st_size
            if size < HEADER_SIZE:
                self.corrupt(f"truncated header ({size} byte(s))",
                             section="header", offset=size)
            self._mmap = mmap.mmap(self._file.fileno(), 0,
                                   access=mmap.ACCESS_READ)
        except (DatasetError, OSError, ValueError):
            self._file.close()
            if isinstance(getattr(self, "_mmap", None), mmap.mmap):
                self._mmap.close()
            raise
        self._size = size
        self._base = memoryview(self._mmap).toreadonly()
        self._views: Dict[str, memoryview] = {}
        self._closed = False
        try:
            self._parse(verify)
        except BaseException:
            self.close()
            raise

    # -- setup ----------------------------------------------------------
    def _parse(self, verify: bool) -> None:
        raw = self._base
        header = bytes(raw[:HEADER_SIZE])
        if not header.startswith(MAGIC2):
            raise DatasetError(f"{self.path}: not an RKGS2 store (bad magic)")
        if _crc(header[:_HEADER_BASE.size]) != _HEADER_CRC.unpack_from(
                header, _HEADER_BASE.size)[0]:
            self.corrupt("header CRC mismatch", section="header", offset=0)
        (_magic, fmt, page, nsections, dir_off, dir_nbytes,
         dir_crc) = _HEADER_BASE.unpack_from(header, 0)
        if fmt not in READ_VERSIONS:
            raise DatasetError(
                f"{self.path}: unsupported store format version {fmt} "
                f"(this build reads {' and '.join(map(str, READ_VERSIONS))})")
        if page != PAGE_SIZE:
            self.corrupt(f"unsupported page size {page}",
                         section="header", offset=0)
        if not (HEADER_SIZE <= dir_off and dir_off + dir_nbytes <= self._size):
            self.corrupt(
                f"directory [{dir_off}, {dir_off + dir_nbytes}) outside "
                f"file of {self._size} byte(s)",
                section="directory", offset=dir_off)
        if dir_nbytes != nsections * _ENTRY.size:
            self.corrupt(
                f"directory size {dir_nbytes} != {nsections} "
                f"x {_ENTRY.size}-byte entries",
                section="directory", offset=dir_off)
        dir_bytes = bytes(raw[dir_off:dir_off + dir_nbytes])
        if _crc(dir_bytes) != dir_crc:
            self.corrupt("directory CRC mismatch", section="directory",
                         offset=dir_off)
        self._entries: Dict[str, Tuple[int, int, int, int]] = {}
        for pos in range(nsections):
            raw_name, off, nbytes, crc, code = _ENTRY.unpack_from(
                dir_bytes, pos * _ENTRY.size)
            try:
                name = raw_name.rstrip(b"\x00").decode("utf-8")
            except UnicodeDecodeError:
                self.corrupt(f"undecodable section name in entry {pos}",
                             section="directory", offset=dir_off)
            if not name or name in self._entries:
                self.corrupt(f"duplicate or empty section name {name!r}",
                             section="directory", offset=dir_off)
            if code and code not in _CODES:
                self.corrupt(f"unknown typecode {code}", section=name,
                             offset=dir_off)
            if not (HEADER_SIZE <= off and off + nbytes <= self._size):
                self.corrupt(
                    f"section [{off}, {off + nbytes}) outside file of "
                    f"{self._size} byte(s)", section=name, offset=off)
            self._entries[name] = (off, nbytes, crc, code)
        self.meta = self._decode_meta_section(fmt)
        self._check_layout()
        if verify:
            self.verify()

    def _decode_meta_section(self, fmt: int) -> StoreMeta:
        off = self._entries.get("meta", (0,))[0]
        payload = bytes(self.section("meta"))
        try:
            return _decode_meta(payload, fmt)
        except SnapshotCorruptionError as exc:
            if exc.path is not None:
                raise
            raise SnapshotCorruptionError(
                exc.base_message, path=self.path, section="meta",
                offset=off + (exc.offset or 0)) from None
        except (ValueError, KeyError, IndexError, OverflowError,
                TypeError) as exc:
            raise SnapshotCorruptionError(
                f"corrupt store meta: {type(exc).__name__}: {exc}",
                path=self.path, section="meta", offset=off) from exc

    def _check_layout(self) -> None:
        """Cross-check every fixed-size section against the meta counts.

        Pure arithmetic on directory entries -- no payload is touched,
        so open stays O(sections)."""
        meta = self.meta
        slots, eslots = meta.node_slots, meta.edge_slots
        counts = meta.counts
        expected = {
            "vocab.offs": 8 * (counts["vocab"] + 1),
            "idf": 8 * counts["vocab"],
            "post.data": 4 * counts["post"],
            "post.offs": 8 * (counts["vocab"] + 1),
            "node.alive": slots,
            "name.offs": 8 * (slots + 1),
            "kw.offs": 8 * (slots + 1),
            "nattr.offs": 8 * (slots + 1),
            "ntype": 4 * slots,
            "type.offs": 8 * (counts["types"] + 1),
            "tmem.data": 4 * counts["tmem"],
            "tmem.offs": 8 * (counts["types"] + 1),
            "edge.alive": eslots,
            "edge.src": 4 * eslots,
            "edge.dst": 4 * eslots,
            "edge.rel": 4 * eslots,
            "eattr.offs": 8 * (eslots + 1),
            "rel.offs": 8 * (counts["rels"] + 1),
            "csr.indptr": 4 * (slots + 1),
            "csr.indices": 4 * counts["csr"],
            "csr.rels": 4 * counts["csr"],
            "csr.dirs": counts["csr"],
            "csr.eids": 4 * counts["csr"],
            "pool.offs": 8 * (counts["pool"] + 1),
        }
        for attr, code in FEATURE_COLUMNS:
            expected[f"feat.{attr}"] = (4 if code == "I" else 1) * slots
        for name, nbytes in expected.items():
            entry = self._entries.get(name)
            if entry is None:
                self.corrupt(f"missing section {name!r}", section=name,
                             offset=self._size)
            elif entry[1] != nbytes:
                self.corrupt(
                    f"expected {nbytes} byte(s), directory says {entry[1]}",
                    section=name, offset=entry[0])

    # -- access ---------------------------------------------------------
    def corrupt(self, message: str, section: Optional[str] = None,
                offset: Optional[int] = None):
        raise SnapshotCorruptionError(
            f"corrupt store: {message}", path=self.path, section=section,
            offset=offset)

    def section(self, name: str) -> memoryview:
        """CRC-verified (on first touch) read-only view of a section."""
        view = self._views.get(name)
        if view is not None:
            return view
        entry = self._entries.get(name)
        if entry is None:
            self.corrupt(f"missing section {name!r}", section=name,
                         offset=self._size)
        off, nbytes, crc, code = entry
        view = self._base[off:off + nbytes]
        if _crc(view) != crc:
            self.corrupt("section CRC mismatch", section=name, offset=off)
        if code:
            view = view.cast(chr(code))
        self._views[name] = view
        return view

    def strings(self, prefix: str, count: Optional[int] = None) -> StringTable:
        return StringTable(self, prefix, count)

    def json_at(self, section: str, i: int, raw: str, want: type):
        """Decode per-slot JSON payloads with typed failure."""
        try:
            decoded = json.loads(raw)
        except json.JSONDecodeError as exc:
            self.corrupt(f"invalid JSON in slot {i}: {exc}",
                         section=f"{section}.blob")
        if not isinstance(decoded, want):
            self.corrupt(
                f"slot {i} must decode to {want.__name__}, "
                f"got {type(decoded).__name__}", section=f"{section}.blob")
        return decoded

    def verify(self) -> None:
        """Force a CRC check of every section (corruption audits)."""
        for name in self._entries:
            self.section(name)

    @property
    def nbytes(self) -> int:
        return self._size

    @property
    def entries(self) -> Dict[str, Tuple[int, int, int, int]]:
        """Section directory: name -> (offset, nbytes, crc, typecode)."""
        return dict(self._entries)

    def close(self) -> None:
        """Best-effort release of views and the mapping (idempotent).

        Exported views (attached indexes, lazy containers) keep the
        mapping alive until they are dropped; a ``BufferError`` here
        means such a view is still live and the OS mapping simply stays
        until process exit -- never an error for the caller.
        """
        if self._closed:
            return
        self._closed = True
        self._views.clear()
        try:
            self._base.release()
        except (AttributeError, BufferError):  # pragma: no cover
            pass
        try:
            self._mmap.close()
        except (BufferError, ValueError):  # still-exported views
            pass
        try:
            self._file.close()
        except OSError:  # pragma: no cover - defensive
            pass

    def __repr__(self) -> str:
        return (f"StoreReader({self.path!r}, sections="
                f"{len(getattr(self, '_entries', ()))}, "
                f"nbytes={getattr(self, '_size', 0)})")
