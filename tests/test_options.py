"""``SearchOptions``: one declaration, one validation, every front door.

The record is the only place an engine knob is named, defaulted and
checked, so each rule must raise the same typed error, with the same
message, whichever door the value came through.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.framework import Star
from repro.core.options import FIELD_NAMES, SearchOptions
from repro.core.starjoin import StarJoin
from repro.errors import DecompositionError, SearchError
from repro.perf import search_many
from repro.serve import EngineContext
from repro.shard import ShardedEngine
from repro.similarity import ScoringFunction

#: Every option in declaration order, with its default: the search
#: knobs, then the one that routes construction.
SEED_DEFAULTS = {
    "d": 1, "alpha": 0.5, "decomposition_method": "simdec", "lam": 1.0,
    "injective": True, "candidate_limit": None, "directed": False,
    "use_index": "auto", "use_semantic": "auto", "algorithm": "auto",
    "mmap_store": None,
}

#: Every way a caller can hand options in, as ``door(graph, **knobs)``.
DOORS = {
    "SearchOptions": lambda graph, **knobs: SearchOptions(**knobs),
    "coerce": lambda graph, **knobs: SearchOptions.coerce(knobs),
    "Star": lambda graph, **knobs: Star(graph, **knobs),
    "ShardedEngine": lambda graph, **knobs: ShardedEngine(graph, **knobs),
    "search_many": lambda graph, **knobs: search_many(graph, [], 1, **knobs),
    # An options dict (what serve and batch hand ``Star``); the key is
    # the name of the builder that took dicts before ``Star`` did, so
    # these cells keep their ids.
    "build_engine": lambda graph, **knobs: Star(graph, options=knobs),
    "EngineContext":
        lambda graph, **knobs: EngineContext(graph, engine_opts=knobs),
    "StarJoin":
        lambda graph, **knobs: StarJoin(ScoringFunction(graph), **knobs),
}

#: (invalid knobs, error type, the message's stable part).
RULES = [
    ({"d": 0}, SearchError, "search bound d must be >= 1, got 0"),
    ({"directed": True, "d": 2}, SearchError,
     "directed matching is defined for d == 1 only"),
    ({"alpha": 1.5}, SearchError, "alpha=1.5 must be in [0, 1]"),
    ({"alpha": -0.1}, SearchError, "alpha=-0.1 must be in [0, 1]"),
    ({"decomposition_method": "simdek"}, DecompositionError,
     "unknown decomposition method 'simdek'; choose from"),
    ({"algorithm": "fastest"}, SearchError,
     "algorithm must be one of ('auto', 'stark', 'stard'), "
     "got 'fastest'"),
    ({"algorithm": "hybrid"}, SearchError,
     "algorithm must be one of ('auto', 'stark', 'stard'), "
     "got 'hybrid'"),
    ({"use_index": "yes"}, SearchError,
     "use_index must be auto, on or off, got 'yes'"),
    ({"use_semantic": "yes"}, SearchError,
     "use_semantic must be auto, on or off, got 'yes'"),
    ({"directed": True, "algorithm": "stard"}, SearchError,
     "directed matching requires algorithm auto or stark, got 'stard'"),
    ({"directed": True, "algorithm": "hybrid"}, SearchError,
     "algorithm must be one of ('auto', 'stark', 'stard'), got 'hybrid'"),
    ({"candidate_limit": -1}, SearchError,
     "candidate_limit must be >= 1, got -1"),
    # Sharding is no option: ShardedEngine takes it by name.
    ({"shards": 0}, SearchError,
     "unknown search option 'shards'; valid options: d, alpha,"),
    ({"shard_backend": "threads"}, SearchError,
     "unknown search option 'shard_backend'; valid options: d, alpha,"),
    ({"usee_index": "on"}, SearchError,
     "unknown search option 'usee_index'; valid options: d, alpha,"),
    # The learned planner's two options are gone, not ignored.
    ({"plan": "sometimes"}, SearchError,
     "unknown search option 'plan'; valid options: d, alpha,"),
    ({"plan_model": "model.json"}, SearchError,
     "unknown search option 'plan_model'; valid options: d, alpha,"),
    # Shards own hash slices of the pivots; there is no strategy to pick.
    ({"partition": "hash"}, SearchError,
     "unknown search option 'partition'; valid options: d, alpha,"),
]


#: doors x rules; a misspelt keyword to the dataclass itself is Python's
#: own TypeError, ``coerce`` is the door that names the key, and
#: ``shards`` is a ShardedEngine argument (its own rules are below).
MATRIX = [
    pytest.param(
        door, knobs, error, message,
        id=door + "-" + ",".join(f"{k}={v}" for k, v in knobs.items()))
    for door in sorted(DOORS) for knobs, error, message in RULES
    if not (door == "SearchOptions" and set(knobs) - set(FIELD_NAMES))
    and not (door == "ShardedEngine" and "shards" in knobs)
]


class TestOneValidation:
    @pytest.mark.parametrize("door, knobs, error, message", MATRIX)
    def test_same_error_through_every_door(self, movie_graph, door, knobs,
                                           error, message):
        with pytest.raises(error) as raised:
            DOORS[door](movie_graph, **knobs)
        assert type(raised.value) is error
        assert message in str(raised.value)
        # Not just the same wording: the very message the record raises.
        with pytest.raises(error) as reference:
            SearchOptions.coerce(knobs)
        assert str(raised.value) == str(reference.value)

    def test_cli_flag_takes_the_record_s_algorithms(self, movie_graph,
                                                     tmp_path, capsys):
        """``--algorithm`` offers exactly ``ALGORITHMS``: a retired
        procedure exits 2 naming the three, like every other door."""
        from repro.cli import main
        from repro.graph.io import save_graph

        path = str(tmp_path / "movies.kg")
        save_graph(movie_graph, path)
        with pytest.raises(SystemExit) as raised:
            main(["search", path, "(Brad) -[acted_in]- (?f)",
                  "--algorithm", "hybrid"])
        assert raised.value.code == 2
        assert "'auto', 'stark', 'stard')" in capsys.readouterr().err

    def test_unknown_option_lists_the_valid_names(self):
        with pytest.raises(SearchError) as raised:
            SearchOptions.coerce({"usee_index": "on", "dd": 2})
        text = str(raised.value)
        assert "'dd'" in text and "'usee_index'" in text
        assert all(name in text for name in FIELD_NAMES)

    def test_options_and_keywords_do_not_mix(self, movie_graph):
        record = SearchOptions(d=2)
        for door in ("Star", "ShardedEngine", "search_many", "StarJoin"):
            with pytest.raises(SearchError, match="not both"):
                DOORS[door](movie_graph, options=record, alpha=0.3)


class TestTheRecord:
    def test_fields_and_defaults_are_the_seed_s(self, movie_graph):
        fields = dataclasses.fields(SearchOptions)
        assert len(fields) == 11
        assert {f.name: f.default for f in fields} == SEED_DEFAULTS
        assert FIELD_NAMES == tuple(SEED_DEFAULTS)
        assert Star(movie_graph).options == SearchOptions()

    def test_frozen_and_hashable(self):
        record = SearchOptions(d=2, algorithm="stard")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.d = 3
        twin = SearchOptions(algorithm="stard", d=2)
        assert record == twin and hash(record) == hash(twin)
        assert {record: "engine"}[twin] == "engine"
        assert record != dataclasses.replace(record, d=1)
        with pytest.raises(SearchError, match="search bound d"):
            dataclasses.replace(record, d=0)  # a replace re-validates

    def test_a_record_a_dict_and_keywords_build_the_same_engine(
            self, movie_graph):
        record = SearchOptions(d=2, alpha=0.3, use_index="off")
        knobs = {"d": 2, "alpha": 0.3, "use_index": "off"}
        assert SearchOptions.coerce(record) is record
        assert Star(movie_graph, options=record).options is record
        assert Star(movie_graph, **knobs).options == record
        assert Star(movie_graph, options=knobs).options == record
        assert EngineContext(movie_graph, engine_opts=record) \
            .engine.options is record
        join = StarJoin(ScoringFunction(movie_graph), options=record)
        assert join.options is record

    def test_sharded_engine_takes_its_routing_by_name(self, movie_graph):
        record = SearchOptions(d=2)
        with ShardedEngine(movie_graph, options=record,
                           backend="serial") as engine:
            assert engine.num_shards == 2  # the constructor's default
            assert engine.backend == "serial"
            assert engine.options is record
            assert engine.engine.options is record
        with ShardedEngine(movie_graph, shards=3, backend="serial",
                           d=2) as engine:
            assert engine.num_shards == 3
            # every worker reads the whole graph, whatever d is
            assert engine.partition.replication_factor == 3.0

    @pytest.mark.parametrize("kwargs, message", [
        ({"shards": 0}, "shards must be >= 1, got 0"),
        ({"backend": "threads"}, "unknown shard backend 'threads'; "
                                 "expected one of ('auto', 'fork', 'serial')"),
    ], ids=["shards=0", "backend=threads"])
    def test_sharded_engine_validates_its_routing(self, movie_graph,
                                                  kwargs, message):
        with pytest.raises(SearchError) as raised:
            ShardedEngine(movie_graph, **kwargs)
        assert str(raised.value) == message

