"""Per-layer metrics of the traced run.

A layer is a module of the program (``similarity``, ``candidates``,
``cache``, ``index``, ``ann``, ``stark``, ``stard``, ``starjoin``,
``query``, ``dynamic``, ``shard``, ``store``, ``serve``, ``graph``) plus
``obs`` for the tracing itself.  Every metric is emitted by every
workload; a layer the workload bypasses reports zeros, which is the
prediction the README's table states.

* ``*_ms`` metrics are mean milliseconds per traced operation.  Unless a
  name says otherwise they are *self* times: the layer's spans minus the
  part covered by spans of other layers nested in them.  Build and boot
  times (``index.build_ms``, ``store.open_ms`` ...) are those of the
  run's one build.
* counts are totals over the first traced pass of the workload's block,
  a fixed list of operations, so that they repeat exactly from run to run;
* ratios are computed from those counts.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Tuple

import tracing
from harness import Phase, Speedometer, run_phase, timed
from workloads import K, Workload

#: per-search counters of ``engine.last_stats`` summed over counted ops
_ENGINE_KEYS = ("pivots_considered", "pivots_evaluated", "lattice_pops",
                "nodes_traversed", "messages_propagated",
                "joins_attempted", "join_depth")
_SHARD_KEYS = ("chunks", "bound_terminated")

#: name -> unit of every per-layer metric, in report order
UNITS: Dict[str, str] = {}


def _declare(unit: str, *names: str) -> None:
    for name in names:
        UNITS[name] = unit


_declare("ms", "similarity.node_score_ms")
_declare("count", "similarity.node_score_calls",
         "similarity.edge_score_calls")
_declare("us", "similarity.us_per_score")
_declare("ms", "candidates.ms")
_declare("count", "candidates.calls", "candidates.admissible")
_declare("ratio", "candidates.scored_per_admitted")
_declare("ratio", "cache.hit_ratio")
_declare("count", "cache.hits", "cache.misses", "cache.invalidations",
         "cache.survivals")
_declare("ratio", "cache.survival_ratio")
_declare("bytes", "cache.bytes")
_declare("ms", "index.build_ms", "index.refresh_ms", "index.candidates_ms")
_declare("count", "index.postings_scanned", "index.pruned",
         "index.evaluated")
_declare("ratio", "index.pruned_ratio")
_declare("ms", "ann.build_ms", "ann.augment_ms")
_declare("count", "ann.probed", "ann.reranked", "ann.skipped")
_declare("ms", "stark.search_ms", "stark.leaf_fetch_ms",
         "stark.pivot_search_ms")
_declare("count", "stark.pivots_considered", "stark.pivots_evaluated",
         "stark.lattice_pops")
_declare("ms", "stard.search_ms", "stard.propagate_ms",
         "stard.pivot_eval_ms")
_declare("count", "stard.messages_propagated", "stard.nodes_traversed")
_declare("ratio", "stard.evaluated_ratio")
_declare("ms", "query.decompose_ms", "starjoin.join_ms")
_declare("count", "starjoin.joins_attempted", "starjoin.join_depth")
_declare("ratio", "starjoin.useful_join_ratio")
_declare("ms", "query.parse_ms")
_declare("ms", "dynamic.apply_ms", "dynamic.refresh_ms")
_declare("count", "dynamic.mutations")
_declare("ms", "shard.partition_ms", "shard.search_ms")
_declare("count", "shard.chunks", "shard.matches_pulled",
         "shard.bound_terminated")
_declare("ratio", "shard.pull_waste_ratio", "shard.replication_factor")
_declare("ms", "store.write_ms")
_declare("bytes", "store.bytes")
_declare("ms", "store.open_ms", "store.attach_ms", "store.first_query_ms")
_declare("ms", "serve.boot_ms", "serve.overhead_ms", "serve.engine_ms")
_declare("count", "serve.shed", "serve.degraded", "serve.retries",
         "serve.hedges", "serve.worker_restarts")
_declare("ms", "graph.generate_ms", "graph.bfs_ms")
_declare("ratio", "obs.trace_overhead_ratio", "obs.unattributed_ratio")

#: Per workload, the metrics of the layers it exists to exercise: the
#: "moves" column of the README's table.  They must read above zero; a
#: zero means the benchmark lost sight of the layer (an entry point, span
#: or counter was renamed under it) and fails the traced run, where a
#: bypassed layer's zero is the prediction.
MUST_MOVE: Dict[str, Tuple[str, ...]] = {
    "star_cold": ("similarity.node_score_ms", "similarity.node_score_calls",
                  "candidates.ms", "candidates.admissible",
                  "stark.search_ms"),
    "star_warm": ("cache.hits", "stark.search_ms", "stark.lattice_pops",
                  "stark.leaf_fetch_ms", "stark.pivot_search_ms",
                  "stark.pivots_evaluated"),
    "star_d2": ("stard.search_ms", "stard.propagate_ms",
                "stard.pivot_eval_ms", "stard.messages_propagated",
                "stard.nodes_traversed", "graph.bfs_ms"),
    "general_join": ("query.decompose_ms", "starjoin.join_ms",
                     "starjoin.joins_attempted", "starjoin.join_depth"),
    "oov_semantic": ("ann.build_ms", "ann.augment_ms", "ann.probed",
                     "ann.reranked"),
    "mixed_update": ("index.build_ms", "index.refresh_ms",
                     "index.candidates_ms", "index.postings_scanned",
                     "index.evaluated", "dynamic.apply_ms",
                     "dynamic.refresh_ms", "dynamic.mutations",
                     "cache.hits", "cache.invalidations", "cache.bytes"),
    "sharded_cold": ("shard.partition_ms", "shard.search_ms", "shard.chunks",
                     "shard.matches_pulled", "shard.replication_factor"),
    "serve_stack": ("store.write_ms", "store.bytes", "store.open_ms",
                    "store.attach_ms", "store.first_query_ms",
                    "serve.boot_ms", "serve.engine_ms",
                    "query.parse_ms"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Probe:
    """Collects what the spans do not carry: counters and build times."""

    def __init__(self, tr: tracing.Tracing) -> None:
        self.tr = tr
        self.values: Dict[str, float] = {name: 0.0 for name in UNITS}
        self.engine_counts = dict.fromkeys(_ENGINE_KEYS, 0)
        self.shard_counts = dict.fromkeys(_SHARD_KEYS + ("pulled",), 0)
        self.stard_considered = 0
        self.stard_evaluated = 0
        self.counted_queries = 0
        #: mean latency a ``serve_stack`` client saw over HTTP
        self.client_ms: Optional[float] = None
        self._driven: Optional[Workload] = None
        self._base: Dict[str, float] = {}
        self._counted: Dict[str, float] = {}

    # -- set-up ------------------------------------------------------------
    def after_setup(self, wl: Workload, driven: Workload, stages: dict,
                    seconds: float, meter: Speedometer) -> None:
        tr, values = self.tr, self.values
        values["graph.generate_ms"] = stages["graph_as_read_s"] * 1000.0
        for metric, span in (("index.build_ms", "index.build"),
                             ("ann.build_ms", "ann.build"),
                             ("shard.partition_ms", "shard.partition"),
                             ("store.open_ms", "store.open"),
                             ("store.attach_ms", "store.attach"),
                             ("store.write_ms", "store.write")):
            values[metric] = tr.total_ms(span)
        values["store.bytes"] = float(getattr(wl, "store_bytes", 0))
        if driven is not wl and hasattr(driven, "first_query_ms"):
            values["store.first_query_ms"] = driven.first_query_ms
        if driven is not wl and hasattr(wl, "request"):
            self._http_phase(wl, seconds / 2.0, meter)
        partition = getattr(driven.engine, "partition", None)
        if partition is not None:
            values["shard.replication_factor"] = \
                partition.replication_factor

    def _http_phase(self, stack: Workload, seconds: float,
                    meter: Speedometer) -> None:
        """``serve_stack`` over HTTP, untraced: what only a client sees."""
        values = self.values
        boot_s = timed(stack.build)[0]
        # the build opens the mapped graph first; that is store.open_ms
        values["serve.boot_ms"] = boot_s * 1000.0 - values["store.open_ms"]
        try:
            stack.warm()
            phase = run_phase(stack, {}, seconds, meter)
            statz = stack.clients[0].statz()
        finally:
            stack.close()
        counters = statz["metrics"]["counters"]
        self.client_ms = statistics.fmean(phase.block_ms(stack))
        values["serve.shed"] = float(counters.get("serve_shed_total", 0))
        values["serve.degraded"] = \
            float(counters.get("serve_degraded_total", 0))
        values["serve.retries"] = \
            float(counters.get("serve_retries_total", 0))
        values["serve.hedges"] = float(counters.get("serve_hedges_total", 0))
        values["serve.worker_restarts"] = \
            float(statz["pool"]["replacements"])

    # -- the counted pass ----------------------------------------------------
    def _snapshot(self, driven: Workload) -> Dict[str, float]:
        tr = self.tr
        snap: Dict[str, float] = {
            "node_calls": tr.calls("similarity.node_score"),
            "candidates.calls": tr.calls("candidates.node_candidates"),
            "candidates.admissible": (
                tr.attr_sums["candidates.score.admissible"]
                + tr.attr_sums["candidates.indexed.admissible"]),
        }
        for name in ("index.postings_scanned", "index.pruned",
                     "index.evaluated", "ann.probed", "ann.reranked",
                     "ann.skipped", "dynamic.mutations"):
            snap[name] = tr.counter(name)
        # a sharded engine has no scorer of its own (its workers do), and
        # only some workloads attach a cache: those read 0
        scorer = driven.scorer()
        cache = scorer.candidate_cache if scorer is not None else None
        snap["similarity.node_score_calls"] = \
            scorer.node_score_calls if scorer is not None else 0
        snap["similarity.edge_score_calls"] = \
            scorer.edge_score_calls if scorer is not None else 0
        for key in ("hits", "misses", "invalidations", "survivals"):
            snap[f"cache.{key}"] = \
                getattr(cache.stats, key) if cache is not None else 0
        if cache is not None:
            self.values["cache.bytes"] = float(cache.stats.bytes)
        return snap

    def begin(self, driven: Workload) -> None:
        self._driven = driven
        self._base = self._snapshot(driven)

    def after_op(self, op: int) -> None:
        """Sum the per-search counters (called for counted ops only)."""
        if op < 0:
            return
        self.counted_queries += 1
        stats = self._driven.last_stats()
        if stats:
            for key in _ENGINE_KEYS:
                self.engine_counts[key] += stats[key]
            if self._driven.d > 1:
                self.stard_considered += stats["pivots_considered"]
                self.stard_evaluated += stats["pivots_evaluated"]
        shard = getattr(self._driven.engine, "last_shard_stats", None)
        if shard:
            for key in _SHARD_KEYS:
                self.shard_counts[key] += shard[key]
            self.shard_counts["pulled"] += sum(shard["matches_pulled"])

    def counted(self, driven: Workload) -> None:
        now = self._snapshot(driven)
        self._counted = {key: value - self._base[key]
                         for key, value in now.items()}

    # -- read-out ------------------------------------------------------------
    def metrics(self, driven: Workload, reference: Phase, head: Phase,
                tail: Phase) -> Tuple[Dict[str, Tuple[float, str]],
                                      Dict[str, float], List[str]]:
        """``(metrics, layer shares, complaints)``: one complaint per
        ``MUST_MOVE`` metric that read zero."""
        tr, values, counted = self.tr, self.values, self._counted
        engine = self.engine_counts
        ops = head.ops + tail.ops

        def per_op(span: str, which=tr.self_ms) -> float:
            return which(span) / ops

        values["similarity.node_score_ms"] = (
            per_op("similarity.node_score")
            + per_op("similarity.relation_score"))
        values["similarity.us_per_score"] = 1000.0 * _ratio(
            tr.total_ms("similarity.node_score"),
            tr.calls("similarity.node_score"))
        values["candidates.ms"] = per_op("candidates.node_candidates")
        values["candidates.scored_per_admitted"] = _ratio(
            counted["node_calls"], counted["candidates.admissible"])
        for name in ("similarity.node_score_calls",
                     "similarity.edge_score_calls", "candidates.calls",
                     "candidates.admissible", "cache.hits", "cache.misses",
                     "cache.invalidations", "cache.survivals",
                     "index.postings_scanned", "index.pruned",
                     "index.evaluated", "ann.probed", "ann.reranked",
                     "ann.skipped", "dynamic.mutations"):
            values[name] = float(counted[name])
        values["cache.hit_ratio"] = _ratio(
            values["cache.hits"], values["cache.hits"] + values["cache.misses"])
        values["cache.survival_ratio"] = _ratio(
            values["cache.survivals"],
            values["cache.survivals"] + values["cache.invalidations"])
        values["index.refresh_ms"] = per_op("index.refresh")
        values["index.candidates_ms"] = per_op("index.candidates")
        values["index.pruned_ratio"] = _ratio(
            values["index.pruned"],
            values["index.pruned"] + values["index.evaluated"])
        values["ann.augment_ms"] = per_op("ann.augment")

        values["stark.search_ms"] = per_op("stark.search")
        values["stark.leaf_fetch_ms"] = \
            per_op("stark.leaf_fetch", tr.program_span_ms)
        values["stark.pivot_search_ms"] = \
            per_op("stark.pivot_search", tr.program_span_ms)
        stard = driven.d > 1
        for key in ("pivots_considered", "pivots_evaluated", "lattice_pops"):
            values[f"stark.{key}"] = float(0 if stard else engine[key])
        values["stard.search_ms"] = per_op("stard.search")
        values["stard.propagate_ms"] = per_op("stard.propagate", tr.total_ms)
        values["stard.pivot_eval_ms"] = \
            per_op("stard.pivot_eval", tr.program_span_ms)
        values["stard.messages_propagated"] = \
            float(engine["messages_propagated"])
        values["stard.nodes_traversed"] = float(engine["nodes_traversed"])
        values["stard.evaluated_ratio"] = _ratio(
            self.stard_evaluated, self.stard_considered)

        values["query.decompose_ms"] = per_op("query.decompose")
        values["query.parse_ms"] = per_op("query.parse")
        values["starjoin.join_ms"] = per_op("starjoin.join")
        values["starjoin.joins_attempted"] = float(engine["joins_attempted"])
        values["starjoin.join_depth"] = float(engine["join_depth"])
        values["starjoin.useful_join_ratio"] = _ratio(
            K * self.counted_queries, engine["joins_attempted"])

        values["dynamic.apply_ms"] = per_op("dynamic.apply")
        values["dynamic.refresh_ms"] = per_op("dynamic.refresh")
        values["shard.search_ms"] = per_op("shard.search")
        values["shard.chunks"] = float(self.shard_counts["chunks"])
        values["shard.bound_terminated"] = \
            float(self.shard_counts["bound_terminated"])
        values["shard.matches_pulled"] = float(self.shard_counts["pulled"])
        values["shard.pull_waste_ratio"] = _ratio(
            self.shard_counts["pulled"], K * self.counted_queries)
        values["graph.bfs_ms"] = per_op("graph.bfs")

        traced_ms = tr.total_ms(tracing.OP_SPAN)
        values["obs.unattributed_ratio"] = _ratio(
            tr.self_ms(tracing.OP_SPAN), traced_ms)
        values["obs.trace_overhead_ratio"] = _ratio(
            sum(head.block_ms(driven)), sum(reference.block_ms(driven))) - 1.0
        if self.client_ms is not None:
            # client latency minus the same texts answered in-process
            engine_ms = statistics.fmean(reference.block_ms(driven))
            values["serve.engine_ms"] = engine_ms
            values["serve.overhead_ms"] = self.client_ms - engine_ms
        shares = {layer: _ratio(ms, traced_ms)
                  for layer, ms in sorted(tr.layer_self_ms().items())}
        unmoved = [f"{name} reads 0 on {driven.name}, which exists to move it"
                   for name in MUST_MOVE[driven.name] if not values[name] > 0]
        return ({name: (values[name], unit) for name, unit in UNITS.items()},
                shares, unmoved)
