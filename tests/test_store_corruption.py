"""RKGS2 store decode hardening: corruption always surfaces typed.

Mirror of ``test_snapshot_corruption.py`` for the mmap store.  The
contract: whatever bytes :class:`repro.store.StoreReader` (and hence
``KnowledgeGraph.open_mmap``) is fed, the only exceptions that escape
are :class:`DatasetError` (not a store / unsupported version) and its
subclass :class:`SnapshotCorruptionError` (was a store, is now broken),
the latter carrying the failing *section name* and byte offset.  A bare
``struct.error``, ``IndexError`` or ``UnicodeDecodeError`` escaping --
or a corrupt store silently serving wrong data past a ``verify()`` --
is a bug, found here by systematic truncation and byte-flip fuzzing.
"""

from __future__ import annotations

import random
import struct
import zlib

import pytest

from repro.errors import DatasetError, SnapshotCorruptionError
from repro.graph import KnowledgeGraph
from repro.store import MAGIC2, StoreReader, open_graph, write_store
from repro.store.format import _ENTRY, _HEADER_BASE, HEADER_SIZE

from tests.conftest import RKGS1_FIXTURE, build_movie_graph


@pytest.fixture(scope="module")
def store_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "graph.rkgs2"
    write_store(build_movie_graph(), path)
    return path.read_bytes()


def _open(tmp_path, blob: bytes, verify: bool = True):
    bad = tmp_path / "bad.rkgs2"
    bad.write_bytes(blob)
    return StoreReader(bad, verify=verify)


def _directory(blob: bytes):
    """(dir_off, dir_nbytes, entries) parsed straight off the blob."""
    (_magic, _fmt, _page, nsections, dir_off, dir_nbytes,
     _crc) = _HEADER_BASE.unpack_from(blob, 0)
    entries = {}
    for pos in range(nsections):
        raw_name, off, nbytes, crc, code = _ENTRY.unpack_from(
            blob, dir_off + pos * _ENTRY.size)
        entries[raw_name.rstrip(b"\x00").decode()] = (off, nbytes, crc, code)
    return dir_off, dir_nbytes, entries


def _reseal_header(blob: bytearray) -> None:
    """Recompute the header CRC after editing header fields."""
    crc = zlib.crc32(bytes(blob[:_HEADER_BASE.size])) & 0xFFFFFFFF
    struct.pack_into("<I", blob, _HEADER_BASE.size, crc)


class TestHeader:
    def test_truncated_header(self, tmp_path, store_bytes):
        for cut in (0, 1, 5, HEADER_SIZE - 1):
            with pytest.raises(SnapshotCorruptionError) as info:
                _open(tmp_path, store_bytes[:cut])
            assert info.value.section == "header"
            assert info.value.offset == cut

    def test_bad_magic_is_dataset_error(self, tmp_path, store_bytes):
        blob = b"XXXXXX" + store_bytes[6:]
        with pytest.raises(DatasetError, match="magic"):
            _open(tmp_path, blob)

    def test_rkgs1_snapshot_refused_with_hint(self, tmp_path):
        with pytest.raises(DatasetError, match="magic"):
            StoreReader(RKGS1_FIXTURE)
        # ...and the reverse direction names the right entry point.
        store = tmp_path / "new.rkgs2"
        write_store(build_movie_graph(), store)
        from repro.dynamic.snapshot import load_snapshot

        with pytest.raises(DatasetError, match="open_mmap"):
            load_snapshot(store)

    def test_header_byte_flip_caught_by_crc(self, tmp_path, store_bytes):
        for pos in range(len(MAGIC2), _HEADER_BASE.size):
            corrupt = bytearray(store_bytes)
            corrupt[pos] ^= 0xFF
            with pytest.raises(SnapshotCorruptionError) as info:
                _open(tmp_path, bytes(corrupt))
            assert info.value.section == "header"

    def test_future_format_version_is_dataset_error(self, tmp_path,
                                                    store_bytes):
        corrupt = bytearray(store_bytes)
        struct.pack_into("<H", corrupt, 6, 99)
        _reseal_header(corrupt)
        with pytest.raises(DatasetError, match="version 99"):
            _open(tmp_path, bytes(corrupt))

    def test_directory_out_of_bounds(self, tmp_path, store_bytes):
        corrupt = bytearray(store_bytes)
        struct.pack_into("<Q", corrupt, 16, len(store_bytes) + 4096)
        _reseal_header(corrupt)
        with pytest.raises(SnapshotCorruptionError) as info:
            _open(tmp_path, bytes(corrupt))
        assert info.value.section == "directory"

    def test_error_message_names_file_and_section(self, tmp_path,
                                                  store_bytes):
        with pytest.raises(SnapshotCorruptionError) as info:
            _open(tmp_path, store_bytes[:10])
        text = str(info.value)
        assert "bad.rkgs2" in text and "header" in text
        assert info.value.path is not None


class TestDirectory:
    def test_directory_byte_flips_caught(self, tmp_path, store_bytes):
        dir_off, dir_nbytes, _ = _directory(store_bytes)
        step = max(1, dir_nbytes // 40)
        for pos in range(0, dir_nbytes, step):
            corrupt = bytearray(store_bytes)
            corrupt[dir_off + pos] ^= 0xFF
            with pytest.raises(SnapshotCorruptionError) as info:
                _open(tmp_path, bytes(corrupt))
            assert info.value.section == "directory"

    def test_section_bounds_beyond_file(self, tmp_path, store_bytes):
        # Rewrite one entry to point past EOF and reseal the directory
        # CRC, so the per-entry bounds check (not the CRC) must fire.
        dir_off, dir_nbytes, entries = _directory(store_bytes)
        corrupt = bytearray(store_bytes)
        name = sorted(entries)[0]
        pos = dir_off + sorted(entries).index(name) * 0  # recompute below
        for i in range(len(entries)):
            raw_name = bytes(
                corrupt[dir_off + i * _ENTRY.size:
                        dir_off + i * _ENTRY.size + 24]).rstrip(b"\x00")
            if raw_name.decode() == name:
                pos = dir_off + i * _ENTRY.size
                break
        struct.pack_into("<Q", corrupt, pos + 24, len(store_bytes) * 2)
        dir_crc = zlib.crc32(
            bytes(corrupt[dir_off:dir_off + dir_nbytes])) & 0xFFFFFFFF
        struct.pack_into("<I", corrupt, 32, dir_crc)
        _reseal_header(corrupt)
        with pytest.raises(SnapshotCorruptionError) as info:
            _open(tmp_path, bytes(corrupt))
        assert info.value.section == name
        assert "outside file" in str(info.value)


class TestSectionPayloads:
    def test_every_section_flip_caught_by_verify(self, tmp_path,
                                                 store_bytes):
        """One byte flip in the middle of every section payload: eager
        ``verify=True`` must catch each one, naming the section."""
        _off, _n, entries = _directory(store_bytes)
        for name, (off, nbytes, _crc, _code) in sorted(entries.items()):
            if nbytes == 0:
                continue
            corrupt = bytearray(store_bytes)
            corrupt[off + nbytes // 2] ^= 0xFF
            with pytest.raises(SnapshotCorruptionError) as info:
                _open(tmp_path, bytes(corrupt), verify=True)
            assert info.value.section == name, name
            assert info.value.offset == off

    def test_meta_flip_caught_without_verify(self, tmp_path, store_bytes):
        # meta is decoded eagerly, so even lazy opens must notice.
        _off, _n, entries = _directory(store_bytes)
        off, nbytes, _crc, _code = entries["meta"]
        corrupt = bytearray(store_bytes)
        corrupt[off + nbytes - 1] ^= 0xFF
        with pytest.raises(SnapshotCorruptionError) as info:
            _open(tmp_path, bytes(corrupt), verify=False)
        assert info.value.section == "meta"

    def test_graph_section_flip_caught_at_open(self, tmp_path, store_bytes):
        """Sections the graph view reaches (``name.blob`` among them)
        are CRC-checked when their view is first grabbed -- at open."""
        _off, _n, entries = _directory(store_bytes)
        off, _nbytes, _crc, _code = entries["name.blob"]
        corrupt = bytearray(store_bytes)
        corrupt[off] ^= 0xFF
        bad = tmp_path / "lazy.rkgs2"
        bad.write_bytes(bytes(corrupt))
        with pytest.raises(SnapshotCorruptionError) as info:
            KnowledgeGraph.open_mmap(bad)
        assert info.value.section == "name.blob"

    def test_index_section_flip_surfaces_lazily_at_attach(self, tmp_path,
                                                          store_bytes):
        """Index-only sections (``idf``, ``feat.*``) are untouched by a
        lazy open; a flip there dies typed on attach, never silently."""
        from repro.store import attach_mmap_index

        _off, _n, entries = _directory(store_bytes)
        off, nbytes, _crc, _code = entries["idf"]
        corrupt = bytearray(store_bytes)
        corrupt[off + nbytes // 2] ^= 0xFF
        bad = tmp_path / "lazyidf.rkgs2"
        bad.write_bytes(bytes(corrupt))
        graph = KnowledgeGraph.open_mmap(bad)  # opens clean
        graph.node(0)  # graph path unaffected
        with pytest.raises(SnapshotCorruptionError) as info:
            attach_mmap_index(graph, graph, mode="on")
        assert info.value.section == "idf"
        graph.close()

    def test_truncation_sweep_is_always_typed(self, tmp_path, store_bytes):
        step = max(1, len(store_bytes) // 80)
        for cut in range(0, len(store_bytes), step):
            try:
                reader = _open(tmp_path, store_bytes[:cut], verify=True)
            except (SnapshotCorruptionError, DatasetError):
                continue
            reader.close()

    def test_byte_flip_fuzz_never_escapes_untyped(self, tmp_path,
                                                  store_bytes):
        """300 random flips anywhere in the file: every verified open
        either succeeds with a usable graph or raises typed."""
        rng = random.Random(20260809)
        for _trial in range(300):
            corrupt = bytearray(store_bytes)
            for _ in range(rng.randint(1, 4)):
                corrupt[rng.randrange(len(corrupt))] ^= 1 << rng.randrange(8)
            bad = tmp_path / "fuzz.rkgs2"
            bad.write_bytes(bytes(corrupt))
            try:
                graph = KnowledgeGraph.open_mmap(bad, verify=True)
            except (SnapshotCorruptionError, DatasetError):
                continue
            # Flips that land in alignment padding change nothing; the
            # graph must be fully intact and usable.
            assert graph.num_nodes == 10
            graph.node(0)
            graph.close()

    def test_clean_store_verifies_and_round_trips(self, tmp_path,
                                                  store_bytes):
        reader = _open(tmp_path, store_bytes, verify=True)
        reader.verify()
        reader.close()
        bad = tmp_path / "bad.rkgs2"
        graph = KnowledgeGraph.open_mmap(bad)
        again = tmp_path / "again.rkgs2"
        write_store(graph, again)
        assert open_graph(again).num_nodes == graph.num_nodes
