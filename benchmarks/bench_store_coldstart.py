"""Cold-start benchmark: line-JSON load vs RKGS2 zero-copy open.

Measures, in freshly forked children (so imports, allocator state and
page cache warm-up never leak between variants):

* **open** -- time to ``load_graph`` (line-JSON, the deserializing
  loader left now that nothing writes ``RKGS`` v1) /
  ``KnowledgeGraph.open_mmap`` returning a usable graph;
* **first query** -- one stark search on the cold graph;
* **RSS delta** -- resident-set growth attributable to the graph, read
  from ``/proc/self/statm`` (0 where procfs is unavailable);
* **parity** -- a hash over the top-k (assignment, score) pairs, which
  must be identical across variants.

The ``--smoke`` gate (wired into the smoke-gates CI job) enforces the
store's acceptance criterion: the mmap open must be at least
``MIN_SPEEDUP`` (5x) faster than the deserializing load at full result
parity.

Usage::

    python benchmarks/bench_store_coldstart.py            # full, saves JSON
    python benchmarks/bench_store_coldstart.py --smoke    # CI gate
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing as mp
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.eval import print_table
from repro.graph import KnowledgeGraph, dbpedia_like, load_graph, save_graph
from repro.query import parse_query

RESULTS = Path(__file__).parent / "results" / "store_coldstart.json"

QUERY = "(?m:person) -[?]- (?f:film)"
K = 10
MIN_SPEEDUP = 5.0
SCALE = 1.0
SMOKE_SCALE = 0.5
REPEATS = 5


def _rss_kb() -> int:
    try:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * (os.sysconf("SC_PAGE_SIZE")
                                                    // 1024)
    except (OSError, ValueError, IndexError):
        return 0


def _child_main(variant: str, path: str, conn) -> None:
    """One cold open + first query, timed inside a fresh process."""
    try:
        from repro.core import Star

        query = parse_query(QUERY, name="coldstart")
        rss_before = _rss_kb()
        t0 = time.perf_counter()
        if variant == "json":
            graph = load_graph(path)
        else:
            graph = KnowledgeGraph.open_mmap(path)
        t_open = time.perf_counter() - t0
        t1 = time.perf_counter()
        matches = Star(graph, use_index="off").search(query, K)
        t_query = time.perf_counter() - t1
        digest = hashlib.sha256(repr(
            [(m.key(), round(m.score, 9)) for m in matches]
        ).encode()).hexdigest()[:16]
        conn.send({
            "open_ms": t_open * 1000.0,
            "first_query_ms": t_query * 1000.0,
            "rss_delta_kb": max(0, _rss_kb() - rss_before),
            "hash": digest,
        })
    except BaseException as exc:  # pragma: no cover - surfaced by parent
        conn.send({"error": repr(exc)})
    finally:
        conn.close()


def _measure(variant: str, path: str, repeats: int) -> dict:
    """Best-of-N cold runs of one variant, each in its own child."""
    ctx = mp.get_context("spawn" if not hasattr(os, "fork") else "fork")
    samples = []
    for _ in range(repeats):
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_child_main, args=(variant, path, send))
        proc.start()
        send.close()
        sample = recv.recv()
        proc.join(timeout=120)
        if "error" in sample:
            raise RuntimeError(f"{variant} child failed: {sample['error']}")
        samples.append(sample)
    hashes = {s["hash"] for s in samples}
    if len(hashes) != 1:
        raise RuntimeError(f"{variant} results unstable across runs")
    return {
        "open_ms": round(min(s["open_ms"] for s in samples), 3),
        "first_query_ms": round(min(s["first_query_ms"] for s in samples), 3),
        "rss_delta_kb": min(s["rss_delta_kb"] for s in samples),
        "hash": samples[0]["hash"],
        "runs": repeats,
    }


def run_coldstart(scale: float, repeats: int) -> dict:
    from repro.store import write_store

    graph = dbpedia_like(scale=scale)
    with tempfile.TemporaryDirectory(prefix="repro-coldstart-") as tmp:
        line_json = os.path.join(tmp, "graph.kg")
        store = os.path.join(tmp, "graph.rkgs2")
        save_graph(graph, line_json)
        write_store(graph, store)
        results = {
            "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges,
                      "scale": scale},
            "files": {"json_bytes": os.path.getsize(line_json),
                      "store_bytes": os.path.getsize(store)},
            "json": _measure("json", line_json, repeats),
            "mmap": _measure("mmap", store, repeats),
        }
    results["open_speedup"] = round(
        results["json"]["open_ms"] / max(results["mmap"]["open_ms"],
                                         1e-9), 2)
    results["parity"] = results["json"]["hash"] == results["mmap"]["hash"]
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced load; exit non-zero on gate failure")
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)
    scale = args.scale or (SMOKE_SCALE if args.smoke else SCALE)
    repeats = args.repeats or (3 if args.smoke else REPEATS)

    results = run_coldstart(scale, repeats)
    rows = []
    for variant in ("json", "mmap"):
        r = results[variant]
        rows.append([
            variant,
            f"{r['open_ms']:.1f} ms",
            f"{r['first_query_ms']:.1f} ms",
            f"{r['open_ms'] + r['first_query_ms']:.1f} ms",
            f"{r['rss_delta_kb'] / 1024:.1f} MB",
            r["hash"],
        ])
    print_table(
        f"Cold start, dbpedia scale {scale} "
        f"(|V|={results['graph']['nodes']}, best of {repeats} forked runs)",
        ["variant", "open", "first query", "total", "rss delta", "hash"],
        rows,
        save_as=None,
    )
    print(f"open speedup: {results['open_speedup']}x "
          f"(gate >= {MIN_SPEEDUP}x), parity: {results['parity']}")

    failures = []
    if not results["parity"]:
        failures.append("mmap top-k diverges from line-JSON top-k")
    if results["open_speedup"] < MIN_SPEEDUP:
        failures.append(
            f"mmap open speedup {results['open_speedup']}x < {MIN_SPEEDUP}x")
    results["passed"] = not failures
    results["failures"] = failures
    if not args.smoke:
        RESULTS.write_text(json.dumps(results, indent=2, sort_keys=True)
                           + "\n")
        print(f"wrote {RESULTS}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("store coldstart smoke OK" if args.smoke
          else "store coldstart benchmark OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
