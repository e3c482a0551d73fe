"""``repro.dynamic``: live-graph updates, delta journaling, loading.

The production serving workload ROADMAP targets is a *continuously
maintained* knowledge graph: edges arrive and disappear while templated
query traffic keeps hitting the warm cross-query caches built by the
perf layer.  This package is the update path that keeps search exact
without discarding state a mutation cannot have affected:

* :class:`DeltaJournal` / :class:`Delta` -- a bounded per-version log of
  what each mutation touched (node ids, tokens, types, relations,
  global-stat drift); ``KnowledgeGraph`` appends to it from every
  mutation method (:mod:`repro.dynamic.journal`).
* fine-grained invalidation -- ``repro.perf.CandidateCache`` diffs a
  cached entry's dependency footprint against the journal and keeps
  every entry the delta provably missed; ``ScoringFunction.refresh()``
  does the same for descriptor/score memos.
* persistence -- :meth:`KnowledgeGraph.save` writes the ``RKGS2`` store
  (:mod:`repro.store`), which preserves ids, tombstones, the journal
  tail and the index columns, so a serving process restarts warm;
  :func:`load_any` loads a store, a line-JSON file or -- through the
  import-only :func:`load_snapshot` -- an old ``RKGS`` v1 snapshot by
  the file's magic (:mod:`repro.dynamic.snapshot`).
* mutation streams -- :func:`apply_operations` replays a JSONL delta
  file onto a graph (:mod:`repro.dynamic.ops`); surfaced as
  ``repro apply-delta``, which may write onto its own input store.

Correctness contract (anchored by ``tests/test_matrix.py``):
after any mutation sequence, search results are byte-identical to a
graph rebuilt from scratch by replaying the same sequence.
"""

from __future__ import annotations

from repro.dynamic.journal import Delta, DeltaJournal, DeltaSummary

__all__ = [
    "Delta",
    "DeltaJournal",
    "DeltaSummary",
    "apply_operation",
    "apply_operations",
    "load_any",
    "load_operations",
    "load_snapshot",
    "save_operations",
]

# Snapshot/ops are imported lazily (PEP 562): ``repro.graph`` imports
# the journal while its own module body is still executing, and the
# snapshot codec imports ``repro.graph`` back -- eager imports here
# would close that cycle.
_LAZY = {
    "load_snapshot": "repro.dynamic.snapshot",
    "load_any": "repro.dynamic.snapshot",
    "apply_operation": "repro.dynamic.ops",
    "apply_operations": "repro.dynamic.ops",
    "load_operations": "repro.dynamic.ops",
    "save_operations": "repro.dynamic.ops",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.dynamic' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
