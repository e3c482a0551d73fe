"""Harness-side spans around the program's public entry points.

Nothing under ``src/`` changes: every layer is timed from outside, by
rebinding its public functions (in every loaded ``repro.*`` module that
imported them by name) and its public methods (on the class) to timing
wrappers, for the traced run only.  The program's own ``repro.obs`` spans
(``stark.*``, ``stard.*``, ``ann.probe`` ...) are captured alongside by a
tracer that also remembers each span's start time.

Two kinds of wrapper:

* **span** -- one record per call (name, start, end, parent id, op id);
* **hot** -- for functions called thousands of times per query
  (``node_score``, cache ``get``): time and calls are accumulated and
  written as one aggregated record per op, so that tracing a 20 us
  function does not cost more than the function.

A layer's *self time* is its span minus the part covered by child spans
(hot time counts as a child).  Self times of one op therefore add up to
the op's wall exactly; what is left on the op's own root span is the
unattributed part.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from repro import obs
from repro.obs.tracer import Span, Tracer

_now = time.perf_counter

#: name of the root span that the harness opens around every operation
OP_SPAN = "op"


class Recorder:
    """In-memory span store with per-name self-time totals."""

    def __init__(self) -> None:
        self.enabled = False
        self.op_id = -1
        self.in_op = False
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._next_id = 0
        self._hot_in_op: Dict[str, List[float]] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def push(self, name: str) -> list:
        stack = self._stack()
        frame = [name, _now(), 0.0, self.new_id(),
                 stack[-1][3] if stack else 0]
        stack.append(frame)
        return frame

    def pop(self, frame: list) -> float:
        end = _now()
        stack = self._stack()
        stack.pop()
        name, start, child_s, span_id, parent_id = frame
        wall = end - start
        if stack:
            stack[-1][2] += wall
        if self.in_op:  # work between operations (a rebuild) is nobody's
            self.self_s[name] += wall - child_s
        self.total_s[name] += wall
        self.calls[name] += 1
        self.spans.append((span_id, parent_id, self.op_id, name, start, end))
        return wall

    def add_hot(self, name: str, seconds: float) -> None:
        stack = self._stack()
        if stack:
            stack[-1][2] += seconds
        if self.in_op:
            self.self_s[name] += seconds
        self.total_s[name] += seconds
        self.calls[name] += 1
        acc = self._hot_in_op.get(name)
        if acc is None:
            self._hot_in_op[name] = [seconds, 1]
        else:
            acc[0] += seconds
            acc[1] += 1

    # -- one operation -------------------------------------------------
    def begin_op(self, op_id: int) -> list:
        self.op_id = op_id
        self.in_op = True
        self._hot_in_op = {}
        return self.push(OP_SPAN)

    def end_op(self, frame: list) -> float:
        wall = self.pop(frame)
        self.in_op = False
        span_id, start = frame[3], frame[1]
        for name, (seconds, calls) in self._hot_in_op.items():
            # aggregated record: placed at the op's start, as long as the
            # calls took together
            self.spans.append((self.new_id(), span_id, self.op_id,
                               f"{name}*{calls}", start, start + seconds))
        return wall

    def reset_totals(self) -> None:
        """Forget the totals (set-up spans stay in the span list)."""
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()

    def write_jsonl(self, path) -> int:
        with open(path, "w") as handle:
            for span_id, parent, op, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op, "name": name,
                    "start": start, "end": end,
                }) + "\n")
        return len(self.spans)


def _span_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        frame = rec.push(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.pop(frame)
    return wrapped


def _hot_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.add_hot(name, _now() - start)
    return wrapped


class _TimedSpan(Span):
    """A program span that also keeps its absolute start time."""

    __slots__ = ("start",)

    def __enter__(self):
        self.start = _now()
        return super().__enter__()


class _TimedTracer(Tracer):
    def span(self, name: str, **attrs: object) -> Span:
        return _TimedSpan(self, name, attrs or None)


def _entry_points() -> List[Tuple[str, str, object, str]]:
    """``(kind, span name, owner, attribute)`` for every wrapped entry.

    Owner is a class (method patched on the class) or a function (every
    ``repro.*`` module global bound to it is rebound).
    """
    from repro.ann.semantic import SemanticTier
    from repro.core.candidates import node_candidates
    from repro.core.messages import propagate
    from repro.core.stard import StarDSearch
    from repro.core.stark import StarKSearch
    from repro.core.starjoin import StarJoin
    from repro.dynamic.ops import apply_operations
    from repro.graph.traversal import bounded_bfs_layers
    from repro.index.graph_index import GraphIndex, attach_index
    from repro.perf.cache import CandidateCache
    from repro.query.decomposition import decompose
    from repro.query.parser import parse_query
    from repro.shard.executor import ShardedEngine
    from repro.shard.partition import partition_graph
    from repro.similarity.scoring import ScoringFunction
    from repro.store.attach import MmapGraphIndex, attach_mmap_index
    from repro.store.format import write_store
    from repro.store.lazygraph import open_graph

    return [
        ("hot", "similarity.node_score", ScoringFunction, "node_score"),
        ("hot", "similarity.relation_score", ScoringFunction,
         "relation_score"),
        ("hot", "cache.get", CandidateCache, "get"),
        ("hot", "cache.put", CandidateCache, "put"),
        ("span", "candidates.node_candidates", node_candidates, ""),
        ("span", "index.build", attach_index, ""),
        ("span", "index.refresh", GraphIndex, "refresh"),
        ("span", "index.refresh", MmapGraphIndex, "refresh"),
        ("span", "index.candidates", GraphIndex, "candidates"),
        ("span", "ann.build", SemanticTier, "ensure_built"),
        ("span", "ann.augment", SemanticTier, "augment"),
        ("span", "stark.search", StarKSearch, "search"),
        ("span", "stard.search", StarDSearch, "search"),
        ("span", "stard.propagate", propagate, ""),
        ("span", "graph.bfs", bounded_bfs_layers, ""),
        ("span", "starjoin.join", StarJoin, "join"),
        ("span", "query.decompose", decompose, ""),
        ("span", "query.parse", parse_query, ""),
        ("span", "dynamic.apply", apply_operations, ""),
        ("span", "dynamic.refresh", ScoringFunction, "refresh"),
        ("span", "shard.partition", partition_graph, ""),
        ("span", "shard.search", ShardedEngine, "search"),
        ("span", "store.write", write_store, ""),
        ("span", "store.open", open_graph, ""),
        ("span", "store.attach", attach_mmap_index, ""),
    ]


class Tracing:
    """Installs the wrappers and the program tracer; undoes both."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self.tracer = _TimedTracer()
        self._undo: List[Tuple[object, str, object]] = []
        self._program_spans: List[Tuple[int, int, int, str, float, float]] = []
        #: sums of the integer attributes the program annotates its
        #: spans with, keyed ``"<span name>.<attr>"``
        self.attr_sums: Dict[str, int] = defaultdict(int)

    def install(self, extra_modules: tuple = ()) -> "Tracing":
        """Rebind every entry point, in the program's modules and in
        *extra_modules* (the harness's own by-name imports).

        A method that is not where this file says is an error (a renamed
        function already fails to import): a layer that silently went
        untimed would report a believable 0.
        """
        rec = self.recorder
        modules = [module for name, module in sys.modules.items()
                   if module is not None and name.startswith("repro")]
        modules.extend(extra_modules)
        for kind, name, owner, attr in _entry_points():
            make = _hot_wrapper if kind == "hot" else _span_wrapper
            if attr:
                if attr not in vars(owner):
                    self.uninstall()
                    raise LookupError(f"{name}: {owner.__name__} defines "
                                      f"no {attr!r} to wrap")
                original = vars(owner)[attr]
                self._undo.append((owner, attr, original))
                setattr(owner, attr, make(rec, name, original))
                continue
            wrapper = make(rec, name, owner)
            for module in modules:
                for global_name, value in list(vars(module).items()):
                    if value is owner:
                        self._undo.append((module, global_name, owner))
                        setattr(module, global_name, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- switching -----------------------------------------------------
    def start(self) -> None:
        obs.enable(self.tracer)
        self.recorder.enabled = True

    def stop(self) -> None:
        self.recorder.enabled = False
        obs.disable()

    def end_setup(self) -> None:
        """Keep the set-up spans, forget their totals: what follows is
        attributed to operations only."""
        self.stop()
        self._drain_program_spans(0)
        self.tracer.registry.reset()
        self.recorder.reset_totals()

    # -- per-op bookkeeping --------------------------------------------
    def begin_op(self, op_id: int) -> list:
        return self.recorder.begin_op(op_id)

    def end_op(self, frame: list) -> float:
        wall = self.recorder.end_op(frame)
        self._drain_program_spans(frame[3])
        return wall

    def _drain_program_spans(self, op_span_id: int) -> None:
        """Move the program's finished span trees into the span list."""
        rec = self.recorder
        roots = self.tracer.roots
        if not roots:
            return
        stack = [(root, op_span_id) for root in roots]
        while stack:
            span, parent = stack.pop()
            span_id = rec.new_id()
            start = getattr(span, "start", 0.0)
            self._program_spans.append(
                (span_id, parent, rec.op_id, span.name, start,
                 start + span.wall_ms / 1000.0))
            for key, value in span.attrs.items():
                if type(value) is int:
                    self.attr_sums[f"{span.name}.{key}"] += value
            for child in span.children:
                stack.append((child, span_id))
        roots.clear()

    # -- read-out ------------------------------------------------------
    def self_ms(self, name: str) -> float:
        return self.recorder.self_s.get(name, 0.0) * 1000.0

    def total_ms(self, name: str) -> float:
        return self.recorder.total_s.get(name, 0.0) * 1000.0

    def calls(self, name: str) -> int:
        return self.recorder.calls.get(name, 0)

    def program_span_ms(self, name: str) -> float:
        """Inclusive wall of a program (``repro.obs``) span, summed."""
        hist = self.tracer.registry.histograms.get(f"span.{name}.ms")
        return hist.total if hist is not None else 0.0

    def counter(self, name: str) -> int:
        metric = self.tracer.registry.counters.get(name)
        return metric.value if metric is not None else 0

    def layer_self_ms(self) -> Dict[str, float]:
        """Self time per layer (the part of a span name before the dot)."""
        layers: Dict[str, float] = defaultdict(float)
        for name, seconds in self.recorder.self_s.items():
            if name != OP_SPAN:
                layers[name.split(".", 1)[0]] += seconds * 1000.0
        return dict(layers)

    def write_jsonl(self, path) -> int:
        self.recorder.spans.extend(self._program_spans)
        self._program_spans = []
        return self.recorder.write_jsonl(path)
