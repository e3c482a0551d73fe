"""Integration hooks of the zero-copy store into serve, batch and CLI.

Covers the thin glue the differential/concurrent suites reach only
through subprocesses: ``EngineContext`` attaching ``mmap_store`` for
serve workers, ``search_many(..., mmap_store=...)`` for batch pools,
``load_any`` format sniffing, and the ``repro compact`` CLI path with
the store attach it implies -- all against in-memory ground truth.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.framework import Star
from repro.dynamic import load_any
from repro.errors import DatasetError
from repro.graph import KnowledgeGraph, save_graph
from repro.perf import build_engine, search_many
from repro.query import parse_query
from repro.runtime import FaultSpec
from repro.serve.supervisor import EngineContext, execute_payload
from repro.shard import ShardedEngine
from repro.store import MmapGraphIndex, StoreReader, open_graph, write_store

from tests.conftest import RKGS1_FIXTURE, build_movie_graph

QUERY = "(?m:director) -[collaborated_with]- (Brad:actor)"


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("integration") / "movies.rkgs2"
    write_store(build_movie_graph(), path)
    return path


class TestServeContext:
    def test_engine_context_attaches_store(self, store_path, monkeypatch):
        graph = open_graph(store_path)
        ctx = EngineContext(graph, engine_opts={
            "mmap_store": str(store_path), "use_index": "on", "shards": 2})
        assert isinstance(ctx.engine, ShardedEngine)
        assert isinstance(ctx.scorer.graph_index, MmapGraphIndex)

        # A chaos request runs on a plain single-process engine over the
        # shared scorer: the attached index is reused, never re-attached.
        def reattached(*args, **kwargs):
            raise AssertionError("the store was attached a second time")

        monkeypatch.setattr("repro.store.attach.attach_mmap_index", reattached)
        delay = FaultSpec("scorer.node_score", mode="delay").as_dict()
        chaos = ctx.engine_for([delay])
        assert type(chaos) is Star
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
            engines.append(build_engine(*args, **kwargs))
            return engines[-1]

        monkeypatch.setattr(cli, "build_engine", recording)
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
        with pytest.raises(ValueError):
            attach_mmap_index(str(store_path), other)

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
        assert ([(m.key(), round(m.score, 9)) for m in matches]
                == [(m.key(), round(m.score, 9)) for m in baseline])
