"""Checks of the benchmark itself; run as ``python -m pytest bench_e2e -q``.

Everything runs in ``--smoke`` mode (small graph, short phases): these
tests check what the benchmark emits and verifies, never how fast.
"""

from __future__ import annotations

import copy
import gc
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
NAMES = [w["name"] for w in SPEC["workloads"]]
#: counters that must repeat exactly between two runs of one commit
EXACT = ("similarity.node_score_calls", "stark.lattice_pops",
         "stard.messages_propagated", "starjoin.joins_attempted",
         "cache.hits")


def _run(workload: str, trace: int, out: str, seed: int = 2016) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", str(trace), "--smoke",
         "--out", out],
        env=dict(os.environ, PYTHONHASHSEED="0"), capture_output=True,
        text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    last_line = json.loads(done.stdout.strip().splitlines()[-1])
    with open(out) as handle:
        record = json.load(handle)
    assert record["result"] == last_line
    record["stdout"] = done.stdout
    return record


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Every workload once untraced and twice traced."""
    tmp = tmp_path_factory.mktemp("bench_e2e")
    runs = {}
    for name in NAMES:
        runs[name, 0] = _run(name, 0, str(tmp / f"{name}.0.json"))
        runs[name, 1] = _run(name, 1, str(tmp / f"{name}.1.json"))
        runs[name, 2] = _run(name, 1, str(tmp / f"{name}.2.json"))
    return runs


def test_spec_matches_the_code():
    assert NAMES == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.UNITS
    assert SPEC["paths"] == ["bench_e2e"]
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


def test_inputs_depend_on_the_seed_and_on_nothing_else():
    graph = workloads.build_graph(smoke=True)
    for name in NAMES:
        first = workloads.make(name, graph, 1, True, "unused")
        again = workloads.make(name, graph, 1, True, "unused")
        assert first.input_digest() == again.input_digest(), name
        # (a smoke block has five positions: two seeds may start it at
        # the same one, three in a row do not)
        others = {workloads.make(name, graph, seed, True,
                                 "unused").input_digest()
                  for seed in (2, 3, 4)}
        assert others != {first.input_digest()}, name
        assert first.ops[0] >= 0 and 0 in first.ops, name


def test_every_metric_is_emitted_with_its_unit(smoke_runs):
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name in NAMES:
        for trace, want in ((0, end_to_end), (1, layers.UNITS)):
            result = smoke_runs[name, trace]["result"]
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            got = {key: metric["unit"]
                   for key, metric in result["metrics"].items()}
            assert got == want, (name, trace)
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            # the ninth end-to-end metric: printed by name with its unit,
            # kept in the record, absent from the result line (it is 0)
            record = smoke_runs[name, trace]
            assert record["detail"]["failed_ratio"] == 0.0
            assert any(line.split() == [name, "failed_ratio", "0", "ratio"]
                       for line in record["stdout"].splitlines())
        for metric in smoke_runs[name, 0]["result"]["metrics"].values():
            assert metric["value"] > 0


def test_exact_workloads_answer_exactly(smoke_runs):
    for name in NAMES:
        recall = smoke_runs[name, 0]["result"]["metrics"]["recall_at_k"]
        if name == "oov_semantic":
            assert 0.0 < recall["value"] <= 1.0
        else:
            assert recall["value"] == 1.0, name


def test_same_queries_same_answers_across_stacks(smoke_runs):
    def digest(name):
        return smoke_runs[name, 0]["detail"]["digest"]

    assert digest("sharded_cold") == digest("star_cold")
    assert digest("serve_stack") == digest("star_warm")


def test_counters_repeat_exactly(smoke_runs):
    for name in NAMES:
        first = smoke_runs[name, 1]["result"]["metrics"]
        second = smoke_runs[name, 2]["result"]["metrics"]
        for counter in EXACT:
            assert first[counter]["value"] == second[counter]["value"], \
                (name, counter)
    metrics = {name: smoke_runs[name, 1]["result"]["metrics"]
               for name in NAMES}
    assert metrics["star_cold"]["similarity.node_score_calls"]["value"] > 0
    assert metrics["star_warm"]["cache.hits"]["value"] > 0
    assert metrics["star_warm"]["stark.lattice_pops"]["value"] > 0
    assert metrics["star_d2"]["stard.messages_propagated"]["value"] > 0
    assert metrics["general_join"]["starjoin.joins_attempted"]["value"] > 0
    assert metrics["oov_semantic"]["ann.probed"]["value"] > 0
    assert metrics["mixed_update"]["dynamic.mutations"]["value"] > 0
    assert metrics["mixed_update"]["index.postings_scanned"]["value"] > 0
    assert metrics["sharded_cold"]["shard.chunks"]["value"] > 0
    assert metrics["serve_stack"]["store.bytes"]["value"] > 0


def test_layers_are_attributed_as_designed(smoke_runs):
    for name in NAMES:
        detail = smoke_runs[name, 1]["detail"]
        metrics = smoke_runs[name, 1]["result"]["metrics"]
        assert metrics["obs.unattributed_ratio"]["value"] <= 0.10, name
        assert abs(sum(detail["layer_share"].values())
                   + metrics["obs.unattributed_ratio"]["value"] - 1.0) < 1e-6
        if name != "oov_semantic":
            assert metrics["ann.augment_ms"]["value"] == 0.0, name
        if name != "mixed_update":
            assert metrics["index.candidates_ms"]["value"] == 0.0, name
    share = smoke_runs["star_cold", 1]["detail"]["layer_share"]
    assert share["similarity"] + share["candidates"] >= 0.8
    share = smoke_runs["star_warm", 1]["detail"]["layer_share"]
    assert share["stark"] >= 0.6


def test_a_wrong_answer_fails_the_command(monkeypatch, capsys):
    honest = workloads.StarWarm.run

    def off_by_a_little(self, op, thread=0):
        vector = honest(self, op, thread)
        if op == 0 and vector:
            vector[-1] = round(vector[-1] + 1e-6, workloads.ROUND)
        return vector

    monkeypatch.setattr(workloads.StarWarm, "run", off_by_a_little)
    code = run.main(["--workload", "star_warm", "--smoke", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["recall_at_k"]["value"] < 1.0


def test_an_op_that_always_raises_is_counted_not_a_crash(monkeypatch, capsys):
    honest = workloads.StarWarm.run

    def shed(self, op, thread=0):
        if op == 1 and not gc.isenabled():  # in every measured pass
            raise RuntimeError("serve answered shed")
        return honest(self, op, thread)

    monkeypatch.setattr(workloads.StarWarm, "run", shed)
    code = run.main(["--workload", "star_warm", "--smoke", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] >= 2  # run + verify
    assert result["metrics"]["latency_p90_ms"]["value"] > 0


def test_the_suite_believes_only_the_record_its_child_wrote(
        monkeypatch, tmp_path, smoke_runs):
    out = tmp_path / "star_warm.0.json"
    stale = {key: value for key, value in smoke_runs["star_warm", 0].items()
             if key != "stdout"}
    crashed = subprocess.CompletedProcess([], 1, stdout="")
    monkeypatch.setattr(run.subprocess, "run", lambda *a, **kw: crashed)
    out.write_text(json.dumps(stale))
    with pytest.raises(SystemExit, match="no result"):
        run._child("star_warm", 2016, 0.3, 0, True, str(out))

    def another_seed(*args, **kwargs):
        out.write_text(json.dumps(stale))
        return subprocess.CompletedProcess(
            [], 0, stdout=json.dumps(stale["result"]) + "\n")

    monkeypatch.setattr(run.subprocess, "run", another_seed)
    with pytest.raises(SystemExit, match="not its own"):
        run._child("star_warm", 9999, 0.3, 0, True, str(out))
    assert run._child("star_warm", 2016, 0.3, 0, True, str(out)) == stale


def test_a_layer_lost_from_sight_fails_the_traced_run(monkeypatch, capsys):
    class Moved:  # the method went to a base class, say
        pass

    monkeypatch.setattr(
        tracing, "_entry_points",
        lambda: [("span", "stark.search", Moved, "search")])
    with pytest.raises(LookupError, match="stark.search"):
        tracing.Tracing().install()
    monkeypatch.undo()

    # a counter renamed under the benchmark reads 0 where it must move
    monkeypatch.setitem(layers.MUST_MOVE, "star_warm", ("ann.probed",))
    code = run.main(["--workload", "star_warm", "--smoke", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["failed"] == 1


def test_compare_verdicts(smoke_runs):
    document = {"schema": run.SCHEMA,
                "runs": [smoke_runs[name, t] for name in NAMES
                         for t in (0, 1)]}
    lines, failed = compare.compare(document, document, SPEC)
    assert not failed
    assert all("regressed" not in line for line in lines)

    slower = copy.deepcopy(document)
    for record in slower["runs"]:
        if record["workload"] == "star_d2" and record["trace"] == 0:
            record["result"]["metrics"]["latency_p50_ms"]["value"] *= 2.0
    lines, failed = compare.compare(document, slower, SPEC)
    assert failed
    assert [line for line in lines if "regressed" in line
            and "star_d2" in line and "latency_p50_ms" in line]

    changed = copy.deepcopy(document)
    changed["runs"][0]["detail"]["digest"] = "0" * 16
    lines, failed = compare.compare(document, changed, SPEC)
    assert failed and any("DIGEST CHANGED" in line for line in lines)

    for lacking in (document, slower):
        partial = dict(lacking, runs=[r for r in lacking["runs"]
                                      if r["workload"] != "star_cold"])
        for pair in ((document, partial), (partial, document)):
            lines, failed = compare.compare(*pair, SPEC)
            assert failed and any("MISSING" in line for line in lines)

    worse = copy.deepcopy(document)
    for record in worse["runs"]:
        if record["workload"] == "oov_semantic" and record["trace"] == 0:
            record["result"]["metrics"]["recall_at_k"]["value"] -= 0.01
            record["detail"]["failed_ratio"] = 0.001
    lines, failed = compare.compare(document, worse, SPEC)
    assert failed
    assert any("RECALL FELL" in line for line in lines)
    assert any("failed_ratio" in line and "ROSE" in line for line in lines)
    assert not compare.compare(worse, document, SPEC)[1]

    moved = copy.deepcopy(document)
    for record in moved["runs"]:
        if record["workload"] == "star_warm" and record["trace"] == 1:
            record["result"]["metrics"]["cache.hits"]["value"] += 1
    lines, failed = compare.compare(document, moved, SPEC)
    assert not failed
    assert any("cache.hits moved" in line for line in lines)


def test_percentile_interpolates_between_ranks():
    values = [float(v) for v in range(1, 11)]
    assert harness.percentile(values, 0.5) == 5.5
    assert abs(harness.percentile(values, 0.9) - 9.1) < 1e-9
    assert harness.percentile([5.0], 0.9) == 5.0
