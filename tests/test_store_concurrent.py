"""Concurrent readers on one RKGS2 store file.

The isolation contract of the zero-copy store: any number of processes
may map the same file read-only while the owner mutates its private
copy-on-write overlay -- readers keep serving the frozen base version,
bit-for-bit, including after a reader is killed mid-flight and after
the owner compacts its overlay back *onto the same path* (the file is
replaced, never rewritten under a mapping).
"""

from __future__ import annotations

import multiprocessing as mp
import os

import pytest

from repro.core.framework import Star
from repro.query import star_query
from repro.similarity import ScoringFunction
from repro.store import (
    StoreReader,
    attach_mmap_index,
    open_graph,
    write_store,
)

from tests.conftest import build_movie_graph

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="store concurrency tests need fork"
)


def _query():
    return star_query("Brad", [("acted_in", "?")], pivot_type="actor")


def _reader_main(path, conn, barrier):
    """Open the store fresh, wait for the owner to mutate, search."""
    try:
        graph = open_graph(path)
        barrier.wait(timeout=30)  # owner mutates its overlay meanwhile
        scorer = ScoringFunction(graph)
        scorer.graph_index = attach_mmap_index(graph, graph, mode="on")
        matches = Star(graph, scorer=scorer, use_index="on").search(
            _query(), 5)
        conn.send((graph.version, graph.num_nodes,
                   [(m.key(), round(m.score, 9)) for m in matches]))
    except BaseException as exc:  # pragma: no cover - surfaced by assert
        conn.send(("error", repr(exc), None))
    finally:
        conn.close()


class _Gate:
    """Stands in for :func:`_reader_main`'s barrier where the order
    matters: tells the test the reader has mapped the file, then holds
    the reader until the test lets it search."""

    def __init__(self, ctx):
        self.mapped = ctx.Event()
        self.search = ctx.Event()

    def wait(self, timeout):
        self.mapped.set()
        if not self.search.wait(timeout):
            raise TimeoutError("the test never released the reader")


class TestFrozenBaseIsolation:
    def test_readers_see_frozen_base_during_owner_mutations(self, tmp_path):
        ctx = mp.get_context("fork")
        graph = build_movie_graph()
        path = tmp_path / "shared.rkgs2"
        write_store(graph, path)
        base_version = graph.version
        expected = [
            (m.key(), round(m.score, 9))
            for m in Star(graph, use_index="on").search(_query(), 5)
        ]
        owner = open_graph(path)
        barrier = ctx.Barrier(4)
        pipes, workers = [], []
        for _ in range(3):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_reader_main,
                               args=(str(path), send, barrier))
            proc.start()
            send.close()
            pipes.append(recv)
            workers.append(proc)
        # Mutate the owner's overlay while the readers are attached.
        nid = owner.add_node("Fury", "film", ["war"])
        owner.add_edge(0, nid, "acted_in")
        owner.remove_node(9)
        barrier.wait(timeout=30)
        results = [recv.recv() for recv in pipes]
        for proc in workers:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        for version, num_nodes, matches in results:
            assert version == base_version
            assert num_nodes == graph.num_nodes
            assert matches == expected
        # The owner's overlay kept its private view.
        assert owner.version > base_version
        assert owner.node(nid).name == "Fury"
        owner.close()

    @pytest.mark.parametrize("owner_dies", [False, True])
    def test_compaction_onto_a_mapped_file_replaces_it(self, tmp_path,
                                                       owner_dies):
        """The owner shrinks the graph through its overlay and writes it
        back over the file a reader has mapped.  The reader keeps its
        old mapping and ranking; a fresh open sees the compacted graph.
        With *owner_dies* the writer is killed between finishing its
        temporary and the rename: the original file is untouched."""
        ctx = mp.get_context("fork")
        graph = build_movie_graph()
        path = tmp_path / "shared.rkgs2"
        write_store(graph, path)
        original = path.read_bytes()
        expected = [
            (m.key(), round(m.score, 9))
            for m in Star(graph, use_index="on").search(_query(), 5)
        ]
        gate = _Gate(ctx)
        recv, send = ctx.Pipe(duplex=False)
        reader = ctx.Process(target=_reader_main,
                             args=(str(path), send, gate))
        reader.start()
        send.close()

        def owner_main():
            if owner_dies:
                os.replace = lambda src, dst: os._exit(9)
            owner = open_graph(path)
            for node_id in range(3, owner.num_node_slots):
                owner.remove_node(node_id)
            write_store(owner, path)
            os._exit(0)

        assert gate.mapped.wait(timeout=30)
        owner = ctx.Process(target=owner_main)
        owner.start()
        owner.join(timeout=30)
        assert owner.exitcode == (9 if owner_dies else 0)
        gate.search.set()
        version, num_nodes, matches = recv.recv()
        reader.join(timeout=30)
        assert reader.exitcode == 0
        assert (version, num_nodes) == (graph.version, graph.num_nodes)
        assert matches == expected

        StoreReader(path, verify=True).close()
        fresh = open_graph(path)
        leftovers = [p.name for p in tmp_path.iterdir() if ".tmp" in p.name]
        if owner_dies:
            assert path.read_bytes() == original
            assert fresh.num_nodes == graph.num_nodes
            assert len(leftovers) == 1  # what a kill cannot clean up
        else:
            assert fresh.num_nodes == 3 and fresh.version > graph.version
            assert list(fresh.nodes()) == [0, 1, 2]
            assert leftovers == []
        fresh.close()

    def test_sharded_engine_over_store_skips_shm(self, tmp_path):
        """Shard workers inherit the parent's mmap-attached index through
        the fork and answer exactly as an in-memory index does."""
        from repro.shard import ShardedEngine

        graph = build_movie_graph()
        path = tmp_path / "shard.rkgs2"
        write_store(graph, path)
        mgraph = open_graph(path)
        single = [(m.key(), round(m.score, 9))
                  for m in Star(graph, use_index="on").search(_query(), 5)]
        scorer = ScoringFunction(mgraph)
        scorer.graph_index = attach_mmap_index(mgraph, mgraph, mode="on")
        engine = ShardedEngine(mgraph, scorer=scorer, shards=2,
                               use_index="on")
        try:
            got = [(m.key(), round(m.score, 9))
                   for m in engine.search(_query(), 5)]
        finally:
            engine.close()
        assert got == single
        mgraph.close()


def _dying_reader_main(path, barrier):
    graph = open_graph(path)
    scorer = ScoringFunction(graph)
    scorer.graph_index = attach_mmap_index(graph, graph, mode="on")
    barrier.wait(timeout=30)
    os._exit(13)  # die without detach/close/atexit


class TestForcedWorkerDeath:
    def test_dead_reader_leaves_no_debris(self, tmp_path):
        """A reader killed mid-attach must not corrupt the store or
        disturb other readers."""
        ctx = mp.get_context("fork")
        graph = build_movie_graph()
        path = tmp_path / "doomed.rkgs2"
        write_store(graph, path)
        original = path.read_bytes()
        barrier = ctx.Barrier(2)
        proc = ctx.Process(target=_dying_reader_main,
                           args=(str(path), barrier))
        proc.start()
        barrier.wait(timeout=30)
        proc.join(timeout=30)
        assert proc.exitcode == 13
        assert path.read_bytes() == original  # file untouched
        # Survivors open and search normally.
        survivor = open_graph(path)
        matches = Star(survivor, use_index="on").search(_query(), 3)
        assert matches
        survivor.close()

    def test_owner_death_does_not_block_new_readers(self, tmp_path):
        ctx = mp.get_context("fork")
        graph = build_movie_graph()
        path = tmp_path / "owner.rkgs2"
        write_store(graph, path)

        def owner_main(p, barrier):
            g = open_graph(p)
            g.add_node("Doomed Mutation", "film")
            barrier.wait(timeout=30)
            os._exit(7)  # overlay dies with the process

        barrier = ctx.Barrier(2)
        proc = ctx.Process(target=owner_main, args=(str(path), barrier))
        proc.start()
        barrier.wait(timeout=30)
        proc.join(timeout=30)
        assert proc.exitcode == 7
        fresh = open_graph(path)
        assert fresh.version == graph.version
        assert fresh.num_nodes == graph.num_nodes  # mutation never landed
        fresh.close()
