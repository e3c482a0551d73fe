"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` -- create a synthetic knowledge graph and save it.
* ``stats``    -- print the Table-I style summary of a saved graph.
* ``search``   -- run a top-k query (edge-pattern language, or keyword
  synthesis via ``--keywords``) over a graph.
* ``trace``    -- run a query with observability on and print the nested
  span tree (per-phase wall/CPU times) plus the metric registry.
* ``batch``    -- run a saved workload, optionally parallel (``--workers``)
  and with the cross-query candidate cache (``--cache``).
* ``workload`` -- generate a star/complex query workload file.
* ``learn``    -- train scoring weights on a graph, save the config.
* ``demo``     -- generate a graph, run a sample query, print matches.
* ``compact``  -- write a graph as an mmap-able ``RKGS2`` store (ids,
  tombstones, version, delta-journal tail, index columns): opening one
  is zero-copy, every process maps the same file through one OS page
  cache, and engines attach its index instead of building it.
  ``snapshot`` is an alias.
* ``apply-delta`` -- replay a JSONL mutation stream onto a graph and
  save the result as a store (its own input file included).
* ``serve``  -- run the async query service (admission control, priority
  classes, degrade-before-shed, supervised workers) over a saved graph.
* ``client`` -- query a running service (one search, or health/stats).

Every command that reads a graph goes through
:func:`repro.dynamic.load_any`, which tells an ``RKGS2`` store, an old
``RKGS`` v1 snapshot and line-JSON apart by the file's first bytes.
``search``, ``trace``, ``batch`` and ``serve`` share one engine flag
group, generated from :class:`repro.core.options.SearchOptions`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import typing
from contextlib import nullcontext
from typing import List, Optional

from repro import obs
from repro.core.framework import Star
from repro.core.options import SearchOptions
from repro.dynamic.snapshot import load_any
from repro.errors import ReproError
from repro.graph import (
    dbpedia_like,
    freebase_like,
    save_graph,
    summarize,
    yago2_like,
)
from repro.query.parser import parse_query
from repro.runtime import Budget
from repro.runtime.workers import POOL_BACKENDS
from repro.similarity import ScoringConfig

_GENERATORS = {
    "dbpedia": dbpedia_like,
    "yago2": yago2_like,
    "freebase": freebase_like,
}


#: The :class:`SearchOptions` fields that have a flag, and its spelling;
#: type, default, choices and help text come from the record.
_ENGINE_FLAGS = {
    "d": "-d", "alpha": "--alpha", "decomposition_method": "--method",
    "directed": "--directed", "use_index": "--use-index",
    "use_semantic": "--semantic", "algorithm": "--algorithm",
}


def _engine_command(sub, name: str, summary: str) -> argparse.ArgumentParser:
    """A subcommand that builds an engine over a saved graph: the graph
    argument, how it is opened and scored, and the engine flag group,
    generated from the :class:`SearchOptions` fields it sets."""
    parser = sub.add_parser(name, help=summary)
    parser.add_argument("graph", help="path to a saved graph; an RKGS2 "
                                      "store (see 'compact') is opened "
                                      "zero-copy and its index columns "
                                      "are attached instead of built")
    parser.add_argument("--fast", action="store_true",
                        help="use the fast scoring-measure subset")
    parser.add_argument("--config", default=None,
                        help="path to a saved scoring config (JSON)")
    group = parser.add_argument_group("engine options")
    hints = typing.get_type_hints(SearchOptions)
    for spec in dataclasses.fields(SearchOptions):
        if spec.name not in _ENGINE_FLAGS:
            continue
        hint = hints[spec.name]  # T, or Optional[T]
        kind = next(t for t in typing.get_args(hint) or (hint,)
                    if t is not type(None))
        typed = ({"action": "store_true"} if kind is bool else
                 {"type": kind, "default": spec.default,
                  "choices": spec.metadata["choices"]})
        group.add_argument(_ENGINE_FLAGS[spec.name], dest=spec.name,
                           help=spec.metadata["doc"], **typed)
    return parser


def options_from(args: argparse.Namespace, mmap_store=None) -> SearchOptions:
    """The record an engine command's flags spell out; *mmap_store* is
    the store-backed graph the command loaded, or its path for worker
    pools (None for a graph that was deserialized)."""
    return SearchOptions(
        mmap_store=mmap_store,
        **{name: getattr(args, name) for name in _ENGINE_FLAGS})


def _add_budget_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--timeout-ms", type=float, default=None,
                        help="per-query wall-clock deadline")
    parser.add_argument("--budget-nodes", type=int, default=None,
                        help="per-query cap on candidate nodes visited")
    parser.add_argument("--anytime", action="store_true",
                        help="on budget trip, return flagged best-so-far "
                             "results instead of failing")


def _budget_spec(args: argparse.Namespace) -> Optional[dict]:
    """:class:`repro.runtime.Budget` kwargs, or None without a limit."""
    if args.timeout_ms is None and args.budget_nodes is None:
        return None
    return {"deadline_ms": args.timeout_ms, "max_nodes": args.budget_nodes,
            "anytime": args.anytime}


def _add_metrics_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="run with observability on and write the "
                             "metric/span snapshot as JSON to PATH")
    parser.add_argument("--no-timing", action="store_true",
                        help="omit wall-clock fields (elapsed, span "
                             "timings, timing histograms) from what is "
                             "written: byte-deterministic output for a "
                             "fixed graph and query or workload")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="STAR: fast top-k search in knowledge graphs "
                    "(ICDE 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic graph")
    gen.add_argument("dataset", choices=sorted(_GENERATORS))
    gen.add_argument("output", help="output path (.kg line-JSON)")
    gen.add_argument("--scale", type=float, default=0.5)
    gen.add_argument("--seed", type=int, default=7)

    stats = sub.add_parser("stats", help="summarize a saved graph")
    stats.add_argument("graph", help="path to a saved graph")

    search = _engine_command(sub, "search", "run a top-k query")
    search.add_argument(
        "query", nargs="?", default=None,
        help="query in the edge-pattern language, e.g. "
             "'(?m:director) -[?]- (Brad:actor)'; use ';' or newlines "
             "between edges (omit with --keywords)",
    )
    search.add_argument("--keywords", default=None, metavar="WORDS",
                        help="synthesize a star query from keywords "
                             "instead of parsing an edge pattern; quote "
                             "multi-word phrases inside WORDS")
    search.add_argument("-k", type=int, default=5)
    search.add_argument("--explain", action="store_true",
                        help="print a per-measure breakdown of the top match")
    _add_budget_options(search)
    _add_metrics_options(search)

    trace = _engine_command(
        sub, "trace", "run a query traced; print the nested span tree")
    trace.add_argument(
        "query",
        help="query in the edge-pattern language (see 'search')",
    )
    trace.add_argument("-k", type=int, default=5)
    trace.add_argument("--jsonl", default=None, metavar="PATH",
                       help="write the span stream as JSONL to PATH "
                            "(honours --no-timing)")
    _add_metrics_options(trace)

    batch = _engine_command(
        sub, "batch", "run a saved workload (parallel / cached)")
    batch.add_argument("workload", help="workload file (see 'workload')")
    batch.add_argument("-k", type=int, default=5)
    batch.add_argument("--workers", type=int, default=1,
                       help="parallel query execution (fork-based pool)")
    batch.add_argument("--backend", default="auto",
                       choices=POOL_BACKENDS + ("serial",),
                       help="parallel backend (default: auto)")
    batch.add_argument("--cache", action="store_true",
                       help="enable the cross-query candidate cache")
    batch.add_argument("--show", type=int, default=0, metavar="N",
                       help="print the top-N matches of each query")
    _add_budget_options(batch)
    _add_metrics_options(batch)

    workload = sub.add_parser("workload", help="generate a query workload")
    workload.add_argument("graph", help="path to a saved graph")
    workload.add_argument("output", help="workload file to write")
    workload.add_argument("--count", type=int, default=20)
    workload.add_argument("--seed", type=int, default=23)
    workload.add_argument(
        "--shape", default=None,
        help="complex queries of shape N,E (default: star templates)",
    )

    learn = sub.add_parser("learn", help="train scoring weights")
    learn.add_argument("graph", help="path to a saved graph")
    learn.add_argument("output", help="scoring-config JSON to write")
    learn.add_argument("--pairs", type=int, default=400)
    learn.add_argument("--seed", type=int, default=17)

    demo = sub.add_parser("demo", help="end-to-end demonstration")
    demo.add_argument("--scale", type=float, default=0.3)

    apply_delta = sub.add_parser(
        "apply-delta",
        help="replay a JSONL mutation stream onto a graph and save the "
             "result as an RKGS2 store",
    )
    apply_delta.add_argument("graph", help="path to a saved graph")
    apply_delta.add_argument("delta", help="JSONL operation file "
                                           "(see repro.dynamic.ops)")
    apply_delta.add_argument("output", help="RKGS2 store file to write "
                                            "(may be the input graph)")

    compact = sub.add_parser(
        "compact", aliases=["snapshot"],
        help="write a graph as an mmap-able RKGS2 store (columnar, "
             "page-aligned, CRC-guarded; preserves ids, tombstones, "
             "version and the delta journal)",
    )
    compact.add_argument("graph", help="path to a saved graph (line-JSON, "
                                       "RKGS v1 snapshot, or an RKGS2 "
                                       "store)")
    compact.add_argument("output", help="RKGS2 store file to write "
                                        "(may be the input graph)")
    compact.add_argument("--verify", action="store_true",
                         help="re-open the written store and CRC-check "
                              "every section")

    serve = _engine_command(
        sub, "serve", "run the async query service over a saved graph")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8571)
    serve.add_argument("--workers", type=int, default=2,
                       help="pool size (= serving concurrency)")
    serve.add_argument("--backend", default="auto",
                       choices=POOL_BACKENDS,
                       help="worker pool backend (default: auto)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="admitted-but-waiting requests at which "
                            "pressure reads 1.0")
    serve.add_argument("--tenant-rate", type=float, default=None,
                       help="per-tenant sustained requests/s "
                            "(default: unlimited)")
    serve.add_argument("--tenant-slots", type=int, default=None,
                       help="per-tenant outstanding-request cap "
                            "(default: unlimited)")
    serve.add_argument("--breaker-threshold", type=int, default=5,
                       help="consecutive faults that open a tenant's "
                            "circuit breaker")
    serve.add_argument("--breaker-cooldown", type=float, default=1.0,
                       metavar="SECONDS",
                       help="open-breaker cooldown before half-open probes")

    client = sub.add_parser(
        "client", help="query a running service"
    )
    client.add_argument("query", nargs="?", default=None,
                        help="query in the edge-pattern language "
                             "(omit with --healthz/--statz)")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=8571)
    client.add_argument("-k", type=int, default=5)
    client.add_argument("--tenant", default="default")
    client.add_argument("--priority", default="silver",
                        help="SLO class (gold / silver / bronze)")
    client.add_argument("--mode", default="anytime",
                        choices=("anytime", "exact"))
    client.add_argument("--timeout-ms", type=float, default=None,
                        help="per-request deadline override")
    client.add_argument("--healthz", action="store_true",
                        help="print the service health document and exit")
    client.add_argument("--statz", action="store_true",
                        help="print the service stats document and exit")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = _GENERATORS[args.dataset](scale=args.scale, seed=args.seed)
    save_graph(graph, args.output)
    stats = summarize(graph)
    print(f"wrote {args.output}: |V|={stats.num_nodes} |E|={stats.num_edges} "
          f"types={stats.num_types} relations={stats.num_relations}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = summarize(load_any(args.graph))
    for field in ("name", "num_nodes", "num_edges", "num_types",
                  "num_relations", "max_degree"):
        print(f"{field:14s} {getattr(stats, field)}")
    print(f"{'avg_degree':14s} {stats.avg_degree:.2f}")
    print(f"{'est_size_mb':14s} {stats.est_size_mb:.1f}")
    return 0


def _scoring_config(args: argparse.Namespace) -> ScoringConfig:
    """The scoring config a search/trace/batch invocation asked for."""
    if args.config:
        from repro.similarity.config_io import load_config

        config = load_config(args.config)
        if args.fast:
            config = config.with_fast()
        return config
    return ScoringConfig(fast=args.fast)


def _write_metrics(args: argparse.Namespace, doc: dict, **timing) -> None:
    """Write *doc* to ``--metrics-out``.  Under ``--no-timing`` the
    *timing* fields and the registry's ``span.*.ms`` histograms are left
    out: counters and gauges are deterministic for a fixed graph and
    workload, wall-clock values are not."""
    if not args.no_timing:
        doc.update(timing)
    elif doc["metrics"] is not None:
        doc["metrics"] = {key: value for key, value in doc["metrics"].items()
                          if key != "histograms"}
    with open(args.metrics_out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True, indent=2)
        handle.write("\n")
    print(f"wrote {args.metrics_out}")


def _print_matches(graph, matches, indent: str = "") -> None:
    for rank, match in enumerate(matches, start=1):
        assigned = "  ".join(
            f"{qid}={graph.describe(v)}"
            for qid, v in sorted(match.assignment.items())
        )
        print(f"{indent}#{rank}  score={match.score:.3f}  {assigned}")


def _run_query(args: argparse.Namespace, graph, query, budget=None,
               traced: bool = True):
    """Build the engine the flags describe and search *query* on it once,
    under a tracer when *traced*; ``(engine, matches, seconds, tracer)``."""
    # A store-backed graph shares its own mapping with the engine.
    engine = Star(
        graph, config=_scoring_config(args),
        options=options_from(
            args, graph if hasattr(graph, "store_path") else None))
    with (obs.capture() if traced else nullcontext()) as tracer:
        start = time.perf_counter()
        matches = engine.search(query, args.k, budget=budget)
        elapsed = time.perf_counter() - start
    return engine, matches, elapsed, tracer


def _cmd_search(args: argparse.Namespace) -> int:
    if (args.query is None) == (args.keywords is None):
        print("error: give a query in the edge-pattern language, or "
              "--keywords (not both)", file=sys.stderr)
        return 2
    graph = load_any(args.graph)
    if args.keywords is not None:
        from repro.query.keywords import synthesize_query

        interp = synthesize_query(graph, args.keywords)
        query = interp.query
        print(interp.describe())
    else:
        query = parse_query(args.query.replace(";", "\n"), name="cli")
    spec = _budget_spec(args)
    engine, matches, elapsed, tracer = _run_query(
        args, graph, query, Budget(**spec) if spec else None,
        traced=bool(args.metrics_out))
    if args.metrics_out:
        _write_metrics(args, {
            "command": "search",
            "engine_stats": engine.last_stats,
            "metrics": tracer.registry.as_dict(),
            "spans": tracer.to_dicts(include_timing=not args.no_timing),
        }, elapsed_ms=round(elapsed * 1000.0, 3))
    report = engine.last_report
    if report is not None and report.degraded:
        print(f"warning: incomplete results ({report.summary()})",
              file=sys.stderr)
    print(f"{len(matches)} match(es) in {elapsed * 1000:.1f} ms")
    _print_matches(graph, matches)
    if args.explain and matches:
        from repro.similarity.explain import explain_match

        print()
        print(explain_match(engine.scorer, query, matches[0]))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    graph = load_any(args.graph)
    query = parse_query(args.query.replace(";", "\n"), name="cli")
    engine, matches, elapsed, tracer = _run_query(args, graph, query)
    print(f"{len(matches)} match(es) in {elapsed * 1000:.1f} ms")
    print()
    print(tracer.format_tree())
    print()
    for line in tracer.registry.summary_lines():
        print(line)
    stats = engine.last_engine_stats
    if stats is not None:
        print()
        print(stats.summary())
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as handle:
            handle.write(tracer.export_jsonl(include_timing=not args.no_timing))
        print(f"wrote {args.jsonl}")
    if args.metrics_out:
        _write_metrics(args, {
            "command": "trace",
            "engine_stats": engine.last_stats,
            "metrics": tracer.registry.as_dict(),
            "spans": tracer.to_dicts(include_timing=not args.no_timing),
        }, elapsed_ms=round(elapsed * 1000.0, 3))
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.perf import search_many
    from repro.query import load_workload

    graph = load_any(args.graph)
    queries = load_workload(args.workload)
    observed = obs.capture() if args.metrics_out else nullcontext()
    with observed:
        result = search_many(
            graph, queries, args.k, workers=args.workers,
            config=_scoring_config(args), cache=args.cache,
            budget_spec=_budget_spec(args), backend=args.backend,
            options=options_from(args, getattr(graph, "store_path", None)),
        )
    if args.metrics_out:
        _write_metrics(args, {
            "command": "batch",
            "backend": result.backend,
            "workers": result.workers,
            "queries": len(result.outcomes),
            "engine_stats": result.stats,
            "metrics": result.metrics,
            "cache": (result.cache_stats.as_dict()
                      if result.cache_stats is not None else None),
        }, wall_s=round(result.wall_s, 6))
    print(result.summary())
    if result.degraded:
        print(f"warning: {result.degraded} quer(ies) returned incomplete "
              "results (budget trips)", file=sys.stderr)
    for outcome in result.outcomes:
        flag = ""
        if outcome.report is not None and outcome.report.degraded:
            flag = "  [degraded]"
        print(f"query {outcome.index}: {len(outcome.matches)} match(es) "
              f"in {outcome.elapsed_s * 1000:.1f} ms{flag}")
        _print_matches(graph, outcome.matches[: args.show], "  ")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    graph = dbpedia_like(scale=args.scale)
    print(f"generated {graph}")
    query = parse_query(
        "(?m:director) -[collaborated_with]- (Brad:actor)\n"
        "(?m) -[won]- (?:award)",
        name="demo",
    )
    engine = Star(graph, d=2)
    matches = engine.search(query, 3)
    if not matches:
        print("no matches; try a larger --scale")
        return 1
    _print_matches(graph, matches)
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.query import complex_workload, save_workload, star_workload

    graph = load_any(args.graph)
    if args.shape:
        try:
            n, e = (int(part) for part in args.shape.split(","))
        except ValueError:
            print(f"error: --shape expects N,E, got {args.shape!r}",
                  file=sys.stderr)
            return 2
        queries = complex_workload(graph, args.count, shape=(n, e),
                                   seed=args.seed)
    else:
        queries = star_workload(graph, args.count, seed=args.seed)
    save_workload(queries, args.output)
    print(f"wrote {args.output}: {len(queries)} queries")
    return 0


def _cmd_learn(args: argparse.Namespace) -> int:
    from repro.similarity import evaluate_weights, learn_weights
    from repro.similarity.config_io import save_config

    graph = load_any(args.graph)
    weights = learn_weights(graph, num_pairs=args.pairs, seed=args.seed)
    accuracy = evaluate_weights(graph, weights, num_pairs=max(100, args.pairs // 2))
    save_config(ScoringConfig(node_weights=weights), args.output)
    print(f"wrote {args.output}: holdout accuracy {accuracy:.2%}")
    return 0


def _cmd_apply_delta(args: argparse.Namespace) -> int:
    from repro.dynamic import apply_operations, load_operations

    graph = load_any(args.graph)
    before = graph.version
    records = load_operations(args.delta)
    applied = apply_operations(graph, records)
    graph.save(args.output)
    print(f"applied {applied} operation(s) "
          f"(version {before} -> {graph.version})")
    print(f"wrote {args.output}: |V|={graph.num_nodes} "
          f"|E|={graph.num_edges} journal={len(graph.journal)} entr(ies)")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.store import StoreReader, write_store

    graph = load_any(args.graph)
    nbytes = write_store(graph, args.output)
    print(f"wrote {args.output}: {nbytes} bytes |V|={graph.num_nodes} "
          f"|E|={graph.num_edges} version={graph.version}")
    if args.verify:
        reader = StoreReader(args.output, verify=True)
        sections = len(reader.entries)
        reader.close()
        print(f"verified {sections} section(s)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeApp
    from repro.serve.server import serve_forever

    graph = load_any(args.graph)
    app = ServeApp(
        graph,
        config=_scoring_config(args),
        engine_opts=options_from(args, getattr(graph, "store_path", None)),
        workers=args.workers,
        backend=args.backend,
        max_queue_depth=args.queue_depth,
        tenant_rate=args.tenant_rate,
        tenant_slots=args.tenant_slots,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
    )

    def _announce(bound) -> None:
        print(f"serving {args.graph} on http://{bound[0]}:{bound[1]} "
              f"({args.workers} worker(s), backend {app.pool.backend})")

    try:
        asyncio.run(serve_forever(app, host=args.host, port=args.port,
                                  ready=_announce))
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.serve import QueryRequest, ServeClient

    with ServeClient(args.host, args.port) as client:
        if args.healthz:
            print(json.dumps(client.healthz(), sort_keys=True, indent=2))
            return 0
        if args.statz:
            print(json.dumps(client.statz(), sort_keys=True, indent=2))
            return 0
        if not args.query:
            print("error: give a query, or --healthz / --statz",
                  file=sys.stderr)
            return 2
        request = QueryRequest(
            query=args.query.replace(";", "\n"),
            k=args.k,
            tenant=args.tenant,
            priority=args.priority,
            mode=args.mode,
            timeout_ms=args.timeout_ms,
        )
        response = client.search(request)
    print(json.dumps(response.as_dict(), sort_keys=True, indent=2))
    return 0 if response.answered else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "stats": _cmd_stats,
        "search": _cmd_search,
        "trace": _cmd_trace,
        "batch": _cmd_batch,
        "workload": _cmd_workload,
        "learn": _cmd_learn,
        "demo": _cmd_demo,
        "apply-delta": _cmd_apply_delta,
        "compact": _cmd_compact,
        "snapshot": _cmd_compact,
        "serve": _cmd_serve,
        "client": _cmd_client,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
