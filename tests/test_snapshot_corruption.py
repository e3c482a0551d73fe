"""RKGS v1 import hardening: corruption always surfaces typed.

The bytes come from ``tests/data/movies_v1.kgs`` -- the mutated movie
graph (tombstones, a relabelled edge, a journal) as the last build with
a v1 writer saved it; the importer is all that is left of the format.
The contract under test: whatever bytes :func:`load_snapshot` is fed,
the only exceptions that escape are :class:`DatasetError` (not a
snapshot at all / unsupported version / missing file) and its subclass
:class:`SnapshotCorruptionError` (was a snapshot, is now broken), the
latter carrying the failing byte offset.  A bare ``struct.error``,
``zlib.error``, ``IndexError`` or ``UnicodeDecodeError`` escaping the
decoder is a bug, found here by systematic truncation and byte-flip
fuzzing.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.dynamic.snapshot import _HEADER, MAGIC, load_any, load_snapshot
from repro.errors import DatasetError, SnapshotCorruptionError
from repro.graph import KnowledgeGraph

from .conftest import RKGS1_FIXTURE


@pytest.fixture(scope="module")
def snapshot_bytes():
    return RKGS1_FIXTURE.read_bytes()


def _load(tmp_path, blob: bytes):
    bad = tmp_path / "bad.kgs"
    bad.write_bytes(blob)
    return load_snapshot(bad)


def _repack(raw: bytes, body: bytes) -> bytes:
    """Rebuild a snapshot around a (possibly corrupt) body with a
    *valid* CRC, so decode-level checks are actually reached."""
    header = _HEADER.pack(MAGIC, raw[4], zlib.crc32(body) & 0xFFFFFFFF)
    return header + zlib.compress(body, 6)


class TestEnvelope:
    def test_truncated_header(self, tmp_path, snapshot_bytes):
        with pytest.raises(SnapshotCorruptionError) as info:
            _load(tmp_path, snapshot_bytes[:6])
        assert info.value.offset == 6

    def test_garbage_after_magic(self, tmp_path, snapshot_bytes):
        blob = snapshot_bytes[:_HEADER.size] + b"\x00\x01\x02not zlib"
        with pytest.raises(SnapshotCorruptionError) as info:
            _load(tmp_path, blob)
        assert info.value.offset == _HEADER.size

    def test_crc_mismatch(self, tmp_path, snapshot_bytes):
        raw = bytearray(snapshot_bytes)
        body = zlib.decompress(bytes(raw[_HEADER.size:]))
        flipped = bytearray(body)
        flipped[-1] ^= 0xFF
        blob = raw[:_HEADER.size] + zlib.compress(bytes(flipped), 6)
        with pytest.raises(SnapshotCorruptionError, match="CRC"):
            _load(tmp_path, bytes(blob))

    def test_error_message_names_the_file(self, tmp_path, snapshot_bytes):
        with pytest.raises(SnapshotCorruptionError) as info:
            _load(tmp_path, snapshot_bytes[:6])
        assert "bad.kgs" in str(info.value)
        assert info.value.path is not None


class TestBodyCorruption:
    def test_truncated_body_with_valid_crc(self, tmp_path, snapshot_bytes):
        """Truncation the CRC cannot catch (CRC recomputed over the
        truncated body) must still die typed, with an offset."""
        body = zlib.decompress(snapshot_bytes[_HEADER.size:])
        for cut in (0, 1, len(body) // 4, len(body) // 2, len(body) - 1):
            with pytest.raises(SnapshotCorruptionError) as info:
                _load(tmp_path, _repack(snapshot_bytes, body[:cut]))
            assert info.value.offset is not None
            assert 0 <= info.value.offset <= cut

    def test_trailing_garbage_rejected(self, tmp_path, snapshot_bytes):
        body = zlib.decompress(snapshot_bytes[_HEADER.size:])
        with pytest.raises(SnapshotCorruptionError, match="trailing"):
            _load(tmp_path, _repack(snapshot_bytes, body + b"\x00\x00"))

    def test_implausible_count_rejected_without_allocation(
        self, tmp_path, snapshot_bytes
    ):
        # A count varint claiming more entries than there are bytes
        # left must fail fast, not loop until an underflow.
        body = zlib.decompress(snapshot_bytes[_HEADER.size:])
        corrupt = bytearray(body)
        # The body starts with the node-count varint; replace it with
        # a huge (5-byte) varint value.
        huge = b"\xff\xff\xff\xff\x0f"
        corrupt = huge + bytes(corrupt[1:])
        with pytest.raises(SnapshotCorruptionError, match="implausible"):
            _load(tmp_path, _repack(snapshot_bytes, bytes(corrupt)))

    def test_truncation_sweep_is_always_typed(self, tmp_path,
                                              snapshot_bytes):
        body = zlib.decompress(snapshot_bytes[_HEADER.size:])
        step = max(1, len(body) // 60)
        for cut in range(0, len(body), step):
            try:
                _load(tmp_path, _repack(snapshot_bytes, body[:cut]))
            except SnapshotCorruptionError:
                pass  # the only acceptable failure

    def test_byte_flip_fuzz_never_escapes_untyped(self, tmp_path,
                                                  snapshot_bytes):
        """200 random single/multi-byte flips in the decoded body:
        every load either succeeds or raises the typed error."""
        body = zlib.decompress(snapshot_bytes[_HEADER.size:])
        rng = random.Random(20260809)
        for trial in range(200):
            corrupt = bytearray(body)
            for _ in range(rng.randint(1, 4)):
                corrupt[rng.randrange(len(corrupt))] = rng.randrange(256)
            try:
                graph = _load(tmp_path, _repack(snapshot_bytes,
                                                bytes(corrupt)))
            except (SnapshotCorruptionError, DatasetError):
                continue
            # A flip that survives validation must yield a usable graph.
            assert graph.num_nodes >= 0

    def test_compressed_byte_flip_fuzz(self, tmp_path, snapshot_bytes):
        """Flips in the raw file (header + compressed stream)."""
        rng = random.Random(4242)
        for trial in range(100):
            corrupt = bytearray(snapshot_bytes)
            corrupt[rng.randrange(4, len(corrupt))] ^= 1 << rng.randrange(8)
            try:
                _load(tmp_path, bytes(corrupt))
            except (SnapshotCorruptionError, DatasetError):
                continue

    def test_loaded_graph_round_trips_after_clean_load(self, tmp_path):
        graph = load_any(RKGS1_FIXTURE)
        assert graph.has_tombstones and len(graph.journal) == graph.version
        again = tmp_path / "again.rkgs2"
        graph.save(again)
        loaded = KnowledgeGraph.load(again)
        assert list(loaded.nodes()) == list(graph.nodes())
        assert list(loaded.edges()) == list(graph.edges())
        assert [loaded.node(v) for v in loaded.nodes()] == \
            [graph.node(v) for v in graph.nodes()]
        assert [loaded.neighbors(v) for v in loaded.nodes()] == \
            [graph.neighbors(v) for v in graph.nodes()]
        assert loaded.version == graph.version
        assert loaded.delta_since(0).count == graph.delta_since(0).count
