"""One options dict, one engine builder, four front doors.

``build_engine`` is the only place an options dict becomes a ``Star``
or a ``ShardedEngine`` (and the only place a store's index/ANN columns
get attached).  The same dict must therefore rank identically whether
it arrives through ``build_engine`` itself, a serve ``EngineContext``,
``search_many`` or ``repro search`` -- over an in-memory and an
mmap-opened graph, single-process and sharded.
"""

from __future__ import annotations

import re

import pytest

from repro.cli import main
from repro.core.framework import Star
from repro.graph import save_graph
from repro.perf import build_engine, search_many
from repro.query import parse_query
from repro.serve import EngineContext, execute_payload
from repro.shard import ShardedEngine
from repro.store import MmapGraphIndex, MmapSemanticTier, open_graph, \
    write_store

from tests.conftest import build_movie_graph

QUERY = "(Brad:actor) -[acted_in]- (?f:film)"
K = 3


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("build_engine")
    graph = build_movie_graph()
    save_graph(graph, str(root / "movies.kg"))
    write_store(graph, root / "movies.rkgs2")
    return {"memory": str(root / "movies.kg"),
            "mmap": str(root / "movies.rkgs2")}


def _ranking(matches):
    return [(sorted((str(q), v) for q, v in m.assignment.items()),
             round(m.score, 9)) for m in matches]


def _cli_ranking(capsys, argv):
    assert main(argv) == 0
    rows = re.findall(r"^#\d+\s+score=(\S+)\s+(.*)$",
                      capsys.readouterr().out, flags=re.M)
    assert rows
    return rows


@pytest.mark.parametrize("shards", [None, 2])
@pytest.mark.parametrize("storage", ["memory", "mmap"])
def test_same_options_rank_identically_through_every_door(
        paths, capsys, storage, shards):
    mmap = storage == "mmap"
    graph = open_graph(paths["mmap"]) if mmap else build_movie_graph()
    opts = {"use_index": "on"}
    cli = ["search", paths[storage], QUERY, "-k", str(K),
           "--use-index", "on"]
    if mmap:
        opts["mmap_store"] = paths["mmap"]
        cli.append("--mmap")
    if shards is not None:
        opts.update(shards=shards, partition="pivot-type")
        cli += ["--shards", str(shards), "--partition", "pivot-type"]
    query = parse_query(QUERY, name="q")

    engine = build_engine(graph, opts)
    try:
        assert isinstance(engine, ShardedEngine if shards else Star)
        assert isinstance(engine.scorer.graph_index, MmapGraphIndex) == mmap
        assert isinstance(engine.scorer.semantic_tier,
                          MmapSemanticTier) == mmap
        direct = engine.search(query, K)
    finally:
        if shards is not None:
            engine.close()
    expected = _ranking(direct)
    assert expected

    served = execute_payload(EngineContext(graph, engine_opts=opts),
                             {"query": QUERY, "k": K})
    assert served["ok"] is True
    assert [(sorted(m["assignment"].items()), round(m["score"], 9))
            for m in served["matches"]] == expected

    batch = search_many(graph, [query], K, **opts)
    assert _ranking(batch.matches[0]) == expected

    assert _cli_ranking(capsys, cli) == [
        (f"{m.score:.3f}",
         "  ".join(f"{q}={graph.describe(v)}"
                   for q, v in sorted(m.assignment.items())))
        for m in direct
    ]

    # ... and every cell agrees with the plain in-memory engine's scores.
    baseline = Star(build_movie_graph()).search(query, K)
    assert [score for _a, score in expected] \
        == [round(m.score, 9) for m in baseline]


def test_options_dict_is_not_consumed(paths):
    graph = open_graph(paths["mmap"])
    opts = {"mmap_store": paths["mmap"], "shards": 2,
            "shard_backend": "serial", "d": 1}
    before = dict(opts)
    build_engine(graph, opts).close()
    assert opts == before


def test_a_scorer_that_already_holds_an_index_keeps_it(paths):
    from repro.index import attach_index
    from repro.similarity import ScoringFunction

    graph = open_graph(paths["mmap"])
    scorer = ScoringFunction(graph)
    built = attach_index(scorer, mode="on")
    engine = build_engine(graph, {"mmap_store": paths["mmap"],
                                  "use_index": "on"}, scorer=scorer)
    assert engine.scorer.graph_index is built
