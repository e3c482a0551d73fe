"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import main
from repro.graph import load_graph


@pytest.fixture()
def saved_graph(tmp_path, movie_graph):
    from repro.graph import save_graph

    path = tmp_path / "movies.kg"
    save_graph(movie_graph, path)
    return str(path)


class TestGenerate:
    def test_generate_and_reload(self, tmp_path, capsys):
        out = str(tmp_path / "g.kg")
        code = main(["generate", "yago2", out, "--scale", "0.1"])
        assert code == 0
        assert os.path.exists(out)
        graph = load_graph(out)
        assert graph.num_nodes > 0
        assert "wrote" in capsys.readouterr().out


class TestStats:
    def test_stats_output(self, saved_graph, capsys):
        assert main(["stats", saved_graph]) == 0
        out = capsys.readouterr().out
        assert "num_nodes" in out and "avg_degree" in out

    def test_missing_file(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path / "nope.kg")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSearch:
    def test_star_search(self, saved_graph, capsys):
        code = main([
            "search", saved_graph,
            "(?m:director) -[collaborated_with]- (Brad:actor)"
            "; (?m) -[won]- (?:award)",
            "-k", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "match(es)" in out
        assert "Richard Linklater" in out

    def test_d_bounded_search(self, saved_graph, capsys):
        code = main([
            "search", saved_graph,
            "(Richard:director) -[?]- (Academy Award:award)",
            "-k", "1", "-d", "2",
        ])
        assert code == 0
        assert "score=" in capsys.readouterr().out

    def test_bad_query_reports_error(self, saved_graph, capsys):
        code = main(["search", saved_graph, "not a query"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestDemo:
    def test_demo_runs(self, capsys):
        code = main(["demo", "--scale", "0.3"])
        out = capsys.readouterr().out
        assert "generated" in out
        assert code in (0, 1)  # 1 = no matches at tiny scale, still valid


class TestWorkloadCommand:
    def test_star_workload_file(self, saved_graph, tmp_path, capsys):
        out = str(tmp_path / "w.txt")
        assert main(["workload", saved_graph, out, "--count", "4"]) == 0
        from repro.query import load_workload

        queries = load_workload(out)
        assert len(queries) == 4
        assert all(q.is_star() for q in queries)

    def test_complex_shape(self, saved_graph, tmp_path):
        out = str(tmp_path / "w.txt")
        code = main([
            "workload", saved_graph, out, "--count", "1", "--shape", "3,3",
        ])
        # The tiny movie graph may or may not host a triangle; either a
        # valid file or a clean error is acceptable.
        assert code in (0, 2)

    def test_bad_shape_argument(self, saved_graph, tmp_path, capsys):
        out = str(tmp_path / "w.txt")
        assert main(["workload", saved_graph, out, "--shape", "nope"]) == 2
        assert "error:" in capsys.readouterr().err


class TestLearnCommand:
    def test_learn_and_reuse(self, tmp_path, capsys):
        graph_path = str(tmp_path / "g.kg")
        config_path = str(tmp_path / "c.json")
        assert main(["generate", "yago2", graph_path, "--scale", "0.15"]) == 0
        assert main(["learn", graph_path, config_path, "--pairs", "80"]) == 0
        assert "holdout accuracy" in capsys.readouterr().out
        code = main([
            "search", graph_path, "(Brad:actor) -[?]- (?)",
            "-k", "2", "--config", config_path,
        ])
        assert code == 0

    def test_learn_missing_graph(self, tmp_path, capsys):
        code = main([
            "learn", str(tmp_path / "nope.kg"), str(tmp_path / "c.json"),
        ])
        assert code == 2


class TestBatchCommand:
    @pytest.fixture()
    def saved_workload(self, tmp_path, saved_graph):
        path = str(tmp_path / "queries.jsonl")
        assert main(["workload", saved_graph, path, "--count", "4"]) == 0
        return path

    def test_batch_serial(self, saved_graph, saved_workload, capsys):
        code = main(["batch", saved_graph, saved_workload, "-k", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 quer(ies) via serial x1" in out
        assert "query 3:" in out

    def test_batch_workers_cache_show(self, saved_graph, saved_workload,
                                      capsys):
        code = main([
            "batch", saved_graph, saved_workload, "-k", "2",
            "--workers", "2", "--backend", "thread", "--cache",
            "--show", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "thread x2" in out
        assert "cache:" in out
        assert "score=" in out

    def test_batch_budgeted(self, saved_graph, saved_workload, capsys):
        code = main([
            "batch", saved_graph, saved_workload, "-k", "2",
            "--budget-nodes", "2", "--anytime",
        ])
        assert code == 0
        assert "budget-exceeded" in capsys.readouterr().out

    def test_batch_missing_workload(self, saved_graph, tmp_path):
        code = main(["batch", saved_graph, str(tmp_path / "nope.jsonl")])
        assert code == 2


class TestTraceCommand:
    QUERY = (
        "(?m:director) -[collaborated_with]- (Brad:actor)"
        "; (?m) -[won]- (?:award)"
    )

    def test_trace_prints_span_tree(self, saved_graph, capsys):
        code = main(["trace", saved_graph, self.QUERY, "-k", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stark.search" in out
        assert "  stark.pivot_search" in out  # nested (indented) child
        assert "wall" in out and "cpu" in out and "ms" in out
        assert "histogram" in out
        assert "stark:" in out  # unified EngineStats summary line

    def test_trace_d2_uses_stard_spans(self, saved_graph, capsys):
        code = main(["trace", saved_graph, self.QUERY, "-k", "2", "-d", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stard.search" in out
        assert "stard.propagate" in out
        # the propagated messages, and the rows read (each charges the
        # last round's messages pulled at it)
        assert "messages=" in out and "rows_read=" in out

    def test_trace_jsonl_and_metrics_out(self, saved_graph, tmp_path,
                                         capsys):
        import json

        jsonl = str(tmp_path / "trace.jsonl")
        metrics = str(tmp_path / "metrics.json")
        code = main([
            "trace", saved_graph, self.QUERY, "-k", "2",
            "--jsonl", jsonl, "--metrics-out", metrics,
        ])
        assert code == 0
        lines = open(jsonl).read().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert first["name"] == "stark.search" and first["depth"] == 0
        doc = json.load(open(metrics))
        assert doc["command"] == "trace"
        assert set(doc["engine_stats"]) == set(
            __import__("repro").STAT_KEYS
        )
        assert "span.stark.search.ms" in doc["metrics"]["histograms"]

    def test_trace_no_timing_jsonl_deterministic(self, saved_graph,
                                                 tmp_path, capsys):
        paths = [str(tmp_path / f"t{i}.jsonl") for i in range(2)]
        for path in paths:
            assert main([
                "trace", saved_graph, self.QUERY, "-k", "2",
                "--jsonl", path, "--no-timing",
            ]) == 0
        a, b = (open(p, "rb").read() for p in paths)
        assert a == b and a

    def test_trace_disables_observability_after(self, saved_graph, capsys):
        from repro import obs

        assert main(["trace", saved_graph, self.QUERY]) == 0
        assert not obs.is_enabled()


class TestMetricsOutFlag:
    def test_search_metrics_out(self, saved_graph, tmp_path, capsys):
        import json

        path = str(tmp_path / "m.json")
        code = main([
            "search", saved_graph,
            "(?m:director) -[collaborated_with]- (Brad:actor)",
            "-k", "2", "--metrics-out", path,
        ])
        assert code == 0
        doc = json.load(open(path))
        assert doc["command"] == "search"
        assert doc["spans"][0]["name"] == "stark.search"
        assert doc["elapsed_ms"] > 0

    def test_batch_metrics_out(self, saved_graph, tmp_path, capsys):
        import json

        workload = str(tmp_path / "w.jsonl")
        assert main(["workload", saved_graph, workload, "--count", "3"]) == 0
        path = str(tmp_path / "m.json")
        code = main([
            "batch", saved_graph, workload, "-k", "2", "--cache",
            "--metrics-out", path,
        ])
        assert code == 0
        doc = json.load(open(path))
        assert doc["command"] == "batch" and doc["queries"] == 3
        assert doc["metrics"]["counters"]["cache.misses"] == \
            doc["cache"]["misses"]

    def test_search_metrics_no_timing_deterministic(self, saved_graph,
                                                     tmp_path, capsys):
        paths = [str(tmp_path / name) for name in ("a.json", "b.json")]
        for path in paths:
            assert main([
                "search", saved_graph, "(?m:director) -[?]- (Brad:actor)",
                "-k", "3", "--metrics-out", path, "--no-timing",
            ]) == 0
        capsys.readouterr()
        blobs = [open(p, "rb").read() for p in paths]
        assert blobs[0] == blobs[1]
        doc = json.loads(blobs[0])
        assert "elapsed_ms" not in doc
        assert "histograms" not in doc["metrics"]
        assert "plan" not in doc

    def test_batch_metrics_no_timing(self, saved_graph, tmp_path, capsys):
        workload = str(tmp_path / "queries.jsonl")
        assert main(["workload", saved_graph, workload, "--count", "3"]) == 0
        metrics = str(tmp_path / "metrics.json")
        assert main([
            "batch", saved_graph, workload, "-k", "2",
            "--metrics-out", metrics, "--no-timing",
        ]) == 0
        assert "3 quer(ies)" in capsys.readouterr().out
        doc = json.loads(open(metrics).read())
        assert "wall_s" not in doc
        assert "histograms" not in doc["metrics"]


class TestDirectedFlag:
    def test_search_directed(self, saved_graph, capsys):
        code = main([
            "search", saved_graph,
            "(Brad:actor) -[acted_in]-> (?:film)", "-k", "2", "--directed",
        ])
        assert code == 0
        assert "match(es)" in capsys.readouterr().out


class TestKeywordSearch:
    def test_keywords_end_to_end(self, saved_graph, capsys):
        code = main([
            "search", saved_graph, "--keywords", "director globe", "-k", "2",
            "-d", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "'director': pivot" in out
        assert "match(es)" in out and "score=" in out

    def test_keywords_ambiguous_type_reported(self, saved_graph, capsys):
        code = main([
            "search", saved_graph, "--keywords", "actor venice", "-k", "1",
        ])
        assert code == 0
        assert "also readable as token" in capsys.readouterr().out

    def test_keywords_no_match_is_error(self, saved_graph, capsys):
        code = main(["search", saved_graph, "--keywords", "xyzzy plugh"])
        assert code == 2
        assert "no keyword matches" in capsys.readouterr().err

    def test_query_and_keywords_both_rejected(self, saved_graph, capsys):
        code = main([
            "search", saved_graph, "(?:film) -[?]- (Brad:actor)",
            "--keywords", "film",
        ])
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_neither_query_nor_keywords_rejected(self, saved_graph, capsys):
        assert main(["search", saved_graph]) == 2
        assert "give a query" in capsys.readouterr().err


class TestEngineOptionGroup:
    """``search``, ``trace``, ``batch`` and ``serve`` carry one engine
    flag group, generated from the ``SearchOptions`` record."""

    COMMANDS = ("search", "trace", "batch", "serve")

    def test_every_engine_command_has_the_generated_flags(self):
        import dataclasses

        from repro import cli
        from repro.core.options import SearchOptions

        fields = {f.name for f in dataclasses.fields(SearchOptions)}
        assert set(cli._ENGINE_FLAGS) <= fields
        expected = set(cli._ENGINE_FLAGS.values())
        assert {"-d", "--algorithm", "--use-index"} <= expected
        assert "--shards" not in expected
        commands = cli._build_parser()._subparsers._group_actions[0].choices
        for name in self.COMMANDS:
            on_command = {option
                          for action in commands[name]._actions
                          for option in action.option_strings}
            assert on_command & expected == expected, (
                name, sorted(expected - on_command))
            # ... and each flag lands on the field it is generated from.
            dests = {action.dest for action in commands[name]._actions
                     if expected & set(action.option_strings)}
            assert dests == set(cli._ENGINE_FLAGS), name

    def test_serve_flags_reach_the_worker_engine(self, saved_graph,
                                                 movie_graph):
        from repro import cli
        from repro.serve import EngineContext

        args = cli._build_parser().parse_args(
            ["serve", saved_graph, "-d", "2", "--algorithm", "stard",
             "--use-index", "off"])
        ctx = EngineContext(movie_graph, engine_opts=cli.options_from(args))
        assert ctx.engine.options.d == 2
        assert ctx.engine.options.algorithm == "stard"
        assert ctx.scorer.graph_index is None

    def test_use_index_help_says_when_auto_engages(self, capsys):
        with pytest.raises(SystemExit):
            main(["search", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "which no CLI command sets" in text
        assert "planner" not in text

    @pytest.mark.parametrize("argv", [
        ["search", "{graph}", "(?m) -[?]- (Brad)", "--plan", "auto"],
        ["search", "{graph}", "(?m) -[?]- (Brad)", "--plan-model", "m.json"],
        ["search", "{graph}", "(?m) -[?]- (Brad)", "--experience-out", "e"],
        ["batch", "{graph}", "w.jsonl", "--plan", "learned"],
        ["plan-fit", "exp.jsonl", "model.json"],
        # sharding is no engine option: ShardedEngine is built by name
        ["search", "{graph}", "(?m) -[?]- (Brad)", "--shards", "2"],
        ["trace", "{graph}", "(?m) -[?]- (Brad)", "--shards", "2"],
        ["batch", "{graph}", "w.jsonl", "--shards", "2"],
    ], ids=["plan", "plan-model", "experience-out", "batch-plan", "plan-fit",
            "search-shards", "trace-shards", "batch-shards"])
    def test_planner_flags_and_plan_fit_are_gone(self, saved_graph, capsys,
                                                 argv):
        with pytest.raises(SystemExit) as raised:
            main([arg.format(graph=saved_graph) for arg in argv])
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "invalid choice" in err

    def test_partition_flag_is_gone(self, saved_graph, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["search", saved_graph, "(?m) -[?]- (Brad)",
                  "--partition", "hash"])
        assert raised.value.code == 2
        assert "unrecognized arguments: --partition" in capsys.readouterr().err
