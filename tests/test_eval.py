"""Tests for the evaluation harness (datasets, timing, reporting)."""

import os

import pytest

from repro.errors import DatasetError, SearchError
from repro.eval import (
    benchmark_graph,
    benchmark_scorer,
    format_ms,
    make_matcher,
    run_general_workload,
    run_star_workload,
    time_algorithm,
)
from repro.eval.report import render_table
from repro.query import complex_workload, star_workload


class TestDatasets:
    def test_cached_instances(self):
        a = benchmark_graph("yago2", scale=0.2)
        b = benchmark_graph("yago2", scale=0.2)
        assert a is b

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError):
            benchmark_graph("wikidata")

    def test_scorer_cached_per_graph(self):
        g = benchmark_graph("yago2", scale=0.2)
        assert benchmark_scorer(g) is benchmark_scorer(g)
        assert benchmark_scorer(g).config.fast


class TestHarness:
    @pytest.fixture(scope="class")
    def setup(self):
        graph = benchmark_graph("yago2", scale=0.2)
        scorer = benchmark_scorer(graph)
        workload = star_workload(graph, 3, seed=91)
        return graph, scorer, workload

    def test_make_matcher_all_algorithms(self, setup):
        _graph, scorer, workload = setup
        for name in ("stark", "stard", "graphta", "bp"):
            run = make_matcher(name, scorer, d=1)
            matches = run(workload[0], 3)
            assert isinstance(matches, list)

    def test_unknown_algorithm(self, setup):
        _graph, scorer, _w = setup
        with pytest.raises(SearchError):
            make_matcher("quantum", scorer)

    def test_all_matchers_agree_through_harness(self, setup):
        _graph, scorer, workload = setup
        results = {}
        for name in ("stark", "stard", "graphta"):
            run = make_matcher(name, scorer, d=2)
            results[name] = [
                [round(m.score, 8) for m in run(q, 4)] for q in workload
            ]
        assert results["stark"] == results["stard"]
        assert results["stark"] == results["graphta"]

    def test_time_algorithm_metrics(self, setup):
        _graph, scorer, workload = setup
        result = time_algorithm("stark", scorer, workload, k=3)
        assert len(result.runtimes) == len(workload)
        assert result.avg_ms > 0
        assert result.p50_ms > 0
        assert result.matches_found >= 0

    def test_run_star_workload(self, setup):
        _graph, scorer, workload = setup
        results = run_star_workload(scorer, workload, ("stark",), k=3)
        assert set(results) == {"stark"}

    def test_run_general_workload(self):
        graph = benchmark_graph("yago2", scale=0.3)
        scorer = benchmark_scorer(graph)
        workload = complex_workload(graph, 2, shape=(4, 4), seed=92)
        result = run_general_workload(scorer, workload, k=3)
        assert len(result.runtimes) == 2
        assert len(result.depths) == 2
        assert result.avg_depth >= 0
        assert result.depth_std >= 0


class TestReport:
    def test_format_ms(self):
        assert format_ms(5.0) == "5.0ms"
        assert format_ms(50.0) == "50ms"
        assert format_ms(5000.0) == "5.00s"
        assert format_ms(0.005, is_seconds=True) == "5.0ms"

    def test_render_table_alignment(self):
        text = render_table("T", ["a", "long_header"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert lines[0] == "== T =="
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows equally wide

    def test_save_report(self, tmp_path, monkeypatch):
        import repro.eval.report as report

        monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
        path = report.save_report("unit", "hello")
        assert os.path.exists(path)
        report.save_report("unit", "world")
        content = open(path).read()
        assert "hello" in content and "world" in content
