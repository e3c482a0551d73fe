"""Concurrent readers on one RKGS2 store file.

The isolation contract of the zero-copy store: any number of processes
may map the same file read-only while the owner mutates its private
copy-on-write overlay -- readers keep serving the frozen base version,
bit-for-bit, including after a reader is killed mid-flight.
"""

from __future__ import annotations

import multiprocessing as mp
import os

import pytest

from repro.core.framework import Star
from repro.query import star_query
from repro.similarity import ScoringFunction
from repro.store import attach_mmap_index, open_graph, write_store

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
