"""One options dict, one engine constructor, four front doors.

``Star`` is the only place an options dict becomes an engine (and the
only place a store's index columns get attached; the semantic tier is
always the in-memory one, built on its first out-of-vocabulary probe).
The same dict must therefore rank identically whether it arrives
through ``Star`` itself, a serve ``EngineContext``, ``search_many`` or
``repro search`` -- over an in-memory and an mmap-opened graph.  No
door shards: ``ShardedEngine`` is built by name, and its parity with
``Star`` is ``test_matrix``'s engine axis.
"""

from __future__ import annotations

import re

import pytest

from repro import obs
from repro.ann import SemanticTier
from repro.cli import main
from repro.core.framework import Star
from repro.graph import save_graph
from repro.index import GraphIndex
from repro.perf import search_many
from repro.query import parse_query
from repro.runtime import FaultSpec
from repro.serve import EngineContext, execute_payload
from repro.similarity import ScoringFunction
from repro.store import MmapGraphIndex, open_graph, write_store

from tests.conftest import build_movie_graph
from tests.oracle import oracle_matches, rounded_scores

QUERY = "(Brad:actor) -[acted_in]- (?f:film)"
#: a three-edge path: no node touches every edge, so it is rank-joined
GENERAL = ("(Brad:actor) -[acted_in]- (?f:film); (?f) -[film_won]- "
           "(?a:award); (?a) -[won]- (?d:director)")
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


def _span_names(tracer):
    return {span.name for span, _depth, _path in tracer.iter_spans()}


#: (query, options, the same options as CLI flags, spans the run must
#: emit, spans it must not) by name.  The pinned procedures must reach
#: ``starjoin``'s star streams (general query) -- not be replaced by
#: ``auto`` there.
CASES = {
    "index-on": (QUERY, {"use_index": "on"}, ["--use-index", "on"],
                 set(), set()),
    "general-stark-d2": (
        GENERAL, {"d": 2, "algorithm": "stark"},
        ["-d", "2", "--algorithm", "stark"],
        {"starjoin.join", "stark.pivot_search"},
        {"stard.propagate", "stard.pivot_eval"}),
    "star-stard-d2": (
        QUERY, {"d": 2, "algorithm": "stard"},
        ["-d", "2", "--algorithm", "stard"],
        {"stard.propagate", "stard.pivot_eval"}, {"stark.pivot_search"}),
    "star-stark-d2": (
        QUERY, {"d": 2, "algorithm": "stark"},
        ["-d", "2", "--algorithm", "stark"],
        {"stark.pivot_search"}, {"stard.propagate", "stard.pivot_eval"}),
}


@pytest.mark.parametrize("storage", ["memory", "mmap"])
def test_same_options_rank_identically_through_every_door(
        paths, capsys, storage):
    # The options axis is a loop, not a parameter: the storage cells
    # keep their test ids.
    for case in CASES:
        _check_every_door(paths, capsys, storage, *CASES[case])


def _check_every_door(paths, capsys, storage,
                      text, options, flags, must, must_not):
    mmap = storage == "mmap"
    graph = open_graph(paths["mmap"]) if mmap else build_movie_graph()
    opts = dict(options)
    cli = ["search", paths[storage], text, "-k", str(K)] + flags
    if mmap:
        # The CLI works this out from the file it is given.
        opts["mmap_store"] = paths["mmap"]
    query = parse_query(text.replace(";", "\n"), name="q")

    def check_spans(tracer):
        names = _span_names(tracer)
        assert must <= names, (options, sorted(names))
        assert not must_not & names, (options, sorted(must_not & names))

    engine = Star(graph, options=opts)
    assert isinstance(engine.scorer.graph_index, MmapGraphIndex) == mmap
    tier = engine.scorer.semantic_tier
    assert type(tier) is SemanticTier
    with obs.capture() as tracer:
        direct = engine.search(query, K)
    # Every label resolves through the token shortlist: nothing
    # under-fills, so nothing embeds the graph.
    assert not tier.built
    check_spans(tracer)
    expected = _ranking(direct)
    assert expected

    with obs.capture() as tracer:
        served = execute_payload(EngineContext(graph, engine_opts=opts),
                                 {"query": text, "k": K})
    check_spans(tracer)
    assert served["ok"] is True
    assert [(sorted(m["assignment"].items()), round(m["score"], 9))
            for m in served["matches"]] == expected

    with obs.capture() as tracer:
        batch = search_many(graph, [query], K, **opts)
    check_spans(tracer)
    assert _ranking(batch.matches[0]) == expected

    with obs.capture() as tracer:
        rows = _cli_ranking(capsys, cli)
    check_spans(tracer)
    assert rows == [
        (f"{m.score:.3f}",
         "  ".join(f"{q}={graph.describe(v)}"
                   for q, v in sorted(m.assignment.items())))
        for m in direct
    ]

    # ... and every cell agrees with the exhaustive oracle's scores.
    want = oracle_matches(ScoringFunction(build_movie_graph()), query,
                          d=opts.get("d", 1))[:K]
    assert [score for _a, score in expected] == rounded_scores(want)


def test_options_dict_is_not_consumed(paths):
    graph = open_graph(paths["mmap"])
    opts = {"mmap_store": paths["mmap"], "use_index": "on", "d": 1}
    before = dict(opts)
    Star(graph, options=opts)
    assert opts == before


def test_a_scorer_that_already_holds_an_index_keeps_it(paths):
    from repro.index import attach_index
    from repro.similarity import ScoringFunction

    graph = open_graph(paths["mmap"])
    scorer = ScoringFunction(graph)
    built = attach_index(scorer, mode="on")
    engine = Star(graph, scorer=scorer, mmap_store=paths["mmap"],
                  use_index="on")
    assert engine.scorer.graph_index is built


@pytest.mark.parametrize("use_index", ["auto", "on"])
def test_star_attaches_the_store_s_index_columns(paths, use_index):
    """Keyword options reach the same attach as an options dict: the
    store's columns, not an index built afresh or none at all."""
    graph = open_graph(paths["mmap"])
    engine = Star(graph, mmap_store=paths["mmap"], use_index=use_index)
    assert isinstance(engine.scorer.graph_index, MmapGraphIndex)
    assert engine.scorer.graph_index.mode == use_index


def test_no_store_index_when_the_index_is_off(paths):
    graph = open_graph(paths["mmap"])
    engine = Star(graph, mmap_store=paths["mmap"], use_index="off")
    assert engine.scorer.graph_index is None
    built = Star(graph, use_index="on").scorer.graph_index
    assert type(built) is GraphIndex


def test_chaos_engine_reuses_the_shared_store_index(paths):
    graph = open_graph(paths["mmap"])
    ctx = EngineContext(graph, engine_opts={"mmap_store": paths["mmap"]})
    shared = ctx.scorer.graph_index
    assert isinstance(shared, MmapGraphIndex)
    chaos = ctx.engine_for(
        [FaultSpec("scorer.node_score", at_call=10**6).as_dict()])
    assert chaos is not ctx.engine
    assert chaos.scorer.graph_index is shared
