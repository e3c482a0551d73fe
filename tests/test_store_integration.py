"""Integration hooks of the zero-copy store into serve, batch and CLI.

Covers the thin glue the differential/concurrent suites reach only
through subprocesses: ``EngineContext`` attaching ``mmap_store`` for
serve workers, ``search_many(..., mmap_store=...)`` for batch pools,
``load_any`` format sniffing, and the ``repro compact`` CLI path with
the store attach it implies -- all against in-memory ground truth.
"""

from __future__ import annotations

import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.framework import Star
from repro.dynamic import load_any
from repro.errors import DatasetError
from repro.graph import KnowledgeGraph, dbpedia_like, save_graph
from repro.perf import search_many
from repro.query import parse_query
from repro.runtime import FaultSpec
from repro.serve.supervisor import EngineContext, execute_payload
from repro.similarity import ScoringConfig
from repro.store import (MmapGraphIndex, StaleStoreError, StoreReader,
                         open_graph, write_store)

from tests.conftest import (RKGS1_FIXTURE, RKGS2_V2_FIXTURE,
                            build_movie_graph, build_mutated_movie_graph)
from tests.test_store_corruption import _reseal_header

QUERY = "(?m:director) -[collaborated_with]- (Brad:actor)"


def _ranking(matches):
    return [(m.key(), round(m.score, 9)) for m in matches]


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("integration") / "movies.rkgs2"
    write_store(build_movie_graph(), path)
    return path


class TestServeContext:
    def test_engine_context_attaches_store(self, store_path, monkeypatch):
        graph = open_graph(store_path)
        ctx = EngineContext(graph, engine_opts={
            "mmap_store": str(store_path), "use_index": "on"})
        assert type(ctx.engine) is Star
        assert isinstance(ctx.scorer.graph_index, MmapGraphIndex)

        # A chaos request runs on a fresh engine over the shared scorer:
        # the attached index is reused, never re-attached.
        def reattached(*args, **kwargs):
            raise AssertionError("the store was attached a second time")

        monkeypatch.setattr("repro.store.attach.attach_mmap_index", reattached)
        delay = FaultSpec("scorer.node_score", mode="delay").as_dict()
        chaos = ctx.engine_for([delay])
        assert type(chaos) is Star and chaos is not ctx.engine
        assert chaos.scorer.graph_index is ctx.scorer.graph_index
        chaotic = execute_payload(
            ctx, {"query": QUERY, "k": 2, "fault_specs": [delay]})
        result = execute_payload(ctx, {"query": QUERY, "k": 2})
        assert chaotic["ok"] is True
        assert chaotic["matches"] == result["matches"]
        assert result["ok"] is True
        baseline = execute_payload(
            EngineContext(build_movie_graph()), {"query": QUERY, "k": 2})
        assert result["matches"] == baseline["matches"]

    def test_use_index_off_skips_attach(self, store_path):
        graph = open_graph(store_path)
        ctx = EngineContext(graph, engine_opts={
            "mmap_store": str(store_path), "use_index": "off"})
        assert ctx.scorer.graph_index is None


class TestBatchPool:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_search_many_attaches_store(self, store_path, backend):
        graph = open_graph(store_path)
        queries = [parse_query(QUERY, name="q0")]
        got = search_many(graph, queries, 3, workers=2, backend=backend,
                          use_index="on", mmap_store=str(store_path))
        want = search_many(build_movie_graph(), queries, 3, workers=2,
                           backend=backend, use_index="on")
        assert [[(m.key(), round(m.score, 9)) for m in o.matches]
                for o in got.outcomes] == \
               [[(m.key(), round(m.score, 9)) for m in o.matches]
                for o in want.outcomes]


class TestFormatSniffing:
    def test_load_any_opens_stores(self, store_path):
        graph = load_any(store_path)
        assert graph.store_path == str(store_path)
        assert graph.num_nodes == build_movie_graph().num_nodes

    def test_snapshot_loader_rejects_store_with_hint(self, store_path):
        from repro.dynamic.snapshot import load_snapshot

        with pytest.raises(DatasetError, match="open_mmap"):
            load_snapshot(store_path)

    def test_open_mmap_rejects_snapshot_and_jsonl(self, tmp_path):
        json_path = tmp_path / "graph.kg"
        save_graph(build_movie_graph(), json_path)
        for path in (RKGS1_FIXTURE, json_path):
            with pytest.raises(DatasetError, match="not an RKGS2 store"):
                KnowledgeGraph.open_mmap(path)

    def test_unwritable_target_is_a_dataset_error(self, tmp_path, store_path):
        """A missing directory, or a path under a plain file, is a typed
        error naming the target -- through the writer and ``save``
        alike -- and leaves no temporary behind."""
        (tmp_path / "plain-file").write_text("not a directory")
        for target in (tmp_path / "no" / "such" / "dir" / "out.rkgs2",
                       tmp_path / "plain-file" / "out.rkgs2"):
            for write in (lambda: write_store(build_movie_graph(), target),
                          lambda: build_movie_graph().save(target),
                          lambda: open_graph(store_path).save(target)):
                with pytest.raises(DatasetError, match="cannot write") as info:
                    write()
                assert str(target) in str(info.value)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain-file"]


class TestCli:
    def test_compact_and_mmap_search_match_snapshot_search(self, tmp_path,
                                                           capsys):
        from repro.cli import main

        store = tmp_path / "graph.rkgs2"
        assert main(["compact", str(RKGS1_FIXTURE), str(store),
                     "--verify"]) == 0
        capsys.readouterr()
        assert main(["search", str(RKGS1_FIXTURE), QUERY, "-k", "3"]) == 0
        plain = capsys.readouterr().out.splitlines()[1:]
        assert main(["search", str(store), QUERY, "-k", "3"]) == 0
        mapped = capsys.readouterr().out.splitlines()[1:]
        assert mapped == plain
        assert any(line.startswith("#1") for line in plain)

    def test_store_is_attached_exactly_when_the_file_is_one(
            self, tmp_path, store_path, capsys, monkeypatch):
        """What ``--mmap`` used to select is read off the file: an RKGS2
        path attaches its index columns, any other format builds."""
        from repro import cli

        engines = []

        def recording(*args, **kwargs):
            engines.append(Star(*args, **kwargs))
            return engines[-1]

        monkeypatch.setattr(cli, "Star", recording)
        json_path = tmp_path / "graph.kg"
        save_graph(build_movie_graph(), json_path)
        for path, attached in ((RKGS1_FIXTURE, False), (json_path, False),
                               (store_path, True)):
            assert cli.main(["search", str(path), QUERY, "-k", "1",
                             "--use-index", "on"]) == 0
            assert "#1" in capsys.readouterr().out
            engine = engines.pop()
            assert (engine.options.mmap_store is not None) == attached
            assert isinstance(engine.scorer.graph_index,
                              MmapGraphIndex) == attached

    @pytest.mark.parametrize("command", ["compact", "snapshot", "apply-delta"])
    def test_unwritable_output_exits_2_without_traceback(
            self, tmp_path, store_path, capsys, command):
        from repro.cli import main

        ops = tmp_path / "ops.jsonl"
        ops.write_text('["add_node", "X", "film"]\n')
        target = tmp_path / "no" / "such" / "dir" / "out.rkgs2"
        argv = [command, str(store_path)]
        argv += [str(ops)] if command == "apply-delta" else []
        assert main(argv + [str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and str(target) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ops.jsonl"]
        StoreReader(store_path, verify=True).close()  # the input is intact

    def test_missing_ops_file_exits_2_without_traceback(
            self, tmp_path, store_path, capsys):
        from repro.cli import main

        ops = tmp_path / "no-such.jsonl"
        target = tmp_path / "out.rkgs2"
        assert main(["apply-delta", str(store_path), str(ops),
                     str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and str(ops) in err
        assert not target.exists()


    def test_store_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        """Vocabulary ids follow token spelling, not the iteration order
        of per-node token sets: two processes under different hash seeds
        write the same line-JSON graph to the same bytes."""
        json_path = tmp_path / "graph.kg"
        save_graph(build_movie_graph(), json_path)
        src = str(Path(__file__).resolve().parents[1] / "src")
        blobs = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}.rkgs2"
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-m", "repro", "compact", str(json_path),
                 str(out)], env=env, check=True, capture_output=True)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestAttachContracts:
    def test_refresh_pins_version(self, store_path):
        graph = open_graph(store_path)
        from repro.store import attach_mmap_index

        index = attach_mmap_index(graph, graph, mode="on")
        assert index.refresh() is False  # same version: no-op
        graph.add_node("Drift", "film")
        with pytest.raises(RuntimeError, match="compact"):
            index.refresh()
        index.detach()
        assert index._reader is None

    def test_constructor_blocked(self):
        with pytest.raises(TypeError, match="attach_mmap_index"):
            MmapGraphIndex()

    def test_attach_rejects_other_graph(self, store_path):
        from repro.store import attach_mmap_index

        other = build_movie_graph()
        other.add_node("Extra", "film")  # version drift vs the store
        with pytest.raises(ValueError) as caught:
            attach_mmap_index(str(store_path), other)
        # Not the store's own graph: a stale store is a caller's error,
        # and the engine does not quietly build its index instead.
        assert not isinstance(caught.value, StaleStoreError)
        with pytest.raises(ValueError, match="compacted at") as caught:
            Star(other, mmap_store=str(store_path), use_index="on")
        assert not isinstance(caught.value, StaleStoreError)

    def test_engine_past_the_store_builds_its_index(self, store_path):
        """Overlay writes move the graph past its store's columns: the
        engine builds its index from the graph, as without a store."""
        from repro.store import attach_mmap_index

        graph = open_graph(store_path)
        assert isinstance(Star(graph, mmap_store=graph, use_index="on")
                          .scorer.graph_index, MmapGraphIndex)
        graph.update_node_attrs(0, year=1999)
        with pytest.raises(StaleStoreError, match="compacted at"):
            attach_mmap_index(graph, graph, mode="on")
        reference = build_movie_graph()
        reference.update_node_attrs(0, year=1999)
        expected = _ranking(Star(reference, use_index="on").search(
            parse_query(QUERY, name="q"), 3))
        for source in (graph, str(store_path)):
            engine = Star(graph, mmap_store=source, use_index="on")
            index = engine.scorer.graph_index
            assert type(index) is not MmapGraphIndex and index.graph is graph
            assert _ranking(engine.search(
                parse_query(QUERY, name="q"), 3)) == expected
        # Without a cutoff ``auto`` builds none, as without a store.
        assert Star(graph, mmap_store=graph).scorer.graph_index is None
        graph.close()

    def test_graph_constructor_blocked(self):
        from repro.store.lazygraph import MmapKnowledgeGraph

        with pytest.raises(TypeError, match="open_mmap"):
            MmapKnowledgeGraph()

    def test_attach_by_path_matches_in_memory(self, store_path):
        from repro.store import attach_mmap_index

        graph = open_graph(store_path)
        index = attach_mmap_index(store_path, graph, mode="on")
        assert isinstance(index, MmapGraphIndex)
        scorer_engine = Star(graph, use_index="on")
        scorer_engine.scorer.graph_index = index
        matches = scorer_engine.search(
            parse_query(QUERY, name="q"), 3)
        baseline = Star(build_movie_graph(), use_index="on").search(
            parse_query(QUERY, name="q"), 3)
        assert _ranking(matches) == _ranking(baseline)


class TestFormat2:
    """Stores written before format 3 keep loading: the reader skips
    their four semantic-tier meta counts and ignores their ``ann.*``
    sections."""

    def test_fixture_ranks_like_the_in_memory_graph(self):
        graph = load_any(RKGS2_V2_FIXTURE)
        assert graph.store_path == str(RKGS2_V2_FIXTURE)
        assert any(name.startswith("ann.")
                   for name in graph._store.entries)
        query = parse_query(QUERY, name="q")
        want = _ranking(Star(build_mutated_movie_graph()).search(query, 3))
        assert want
        assert _ranking(Star(graph).search(query, 3)) == want
        engine = Star(graph, mmap_store=graph, use_index="on")
        assert isinstance(engine.scorer.graph_index, MmapGraphIndex)
        assert _ranking(engine.search(query, 3)) == want

    def test_compact_rewrites_it_as_format_3(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "movies.rkgs2"
        assert main(["compact", str(RKGS2_V2_FIXTURE), str(out),
                     "--verify"]) == 0
        assert struct.unpack_from("<H", out.read_bytes(), 6) == (3,)
        reader = StoreReader(out, verify=True)
        try:
            assert not [name for name in reader.entries
                        if name.startswith("ann.")]
        finally:
            reader.close()
        direct = _write(build_mutated_movie_graph(), tmp_path / "d.rkgs2")
        assert out.read_bytes() == direct.read_bytes()

    @pytest.mark.parametrize("fmt", [1, 4])
    def test_other_versions_are_refused(self, tmp_path, fmt):
        for source in (RKGS2_V2_FIXTURE,
                       _write(build_movie_graph(), tmp_path / "v3.rkgs2")):
            blob = bytearray(Path(source).read_bytes())
            struct.pack_into("<H", blob, 6, fmt)
            _reseal_header(blob)
            bad = tmp_path / f"v{fmt}.rkgs2"
            bad.write_bytes(bytes(blob))
            with pytest.raises(DatasetError, match="this build reads"):
                StoreReader(bad)


def _write(graph, path):
    write_store(graph, path)
    return path


class TestMutatedStore:
    def test_out_of_vocabulary_search_after_a_mutation(self, tmp_path):
        """A store-backed graph mutated after open answers an
        out-of-vocabulary pivot like the in-memory graph: the tier
        embeds what it serves, overlay included, in memory."""
        config = ScoringConfig(node_threshold=0.1)
        path = _write(dbpedia_like(0.15, 7), tmp_path / "g.rkgs2")
        mapped = KnowledgeGraph.open_mmap(path)
        engine = Star(mapped, config=config, mmap_store=mapped)
        memory = dbpedia_like(0.15, 7)
        for graph in (mapped, memory):
            graph.add_node("Late Arrival", "person")
        engine.scorer.refresh()
        # No token of the glued, clipped name is in the vocabulary.
        name = memory.node(0).name
        query = parse_query(
            f"({name.replace(' ', '').lower()[:-1]}) -[?]- (?x)", name="q")
        want = _ranking(Star(memory, config=config).search(query, 3))
        assert want
        assert _ranking(engine.search(query, 3)) == want
        assert engine.scorer.semantic_tier.built
