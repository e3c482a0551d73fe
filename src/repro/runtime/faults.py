"""Deterministic fault injection for the search substrates.

Every search algorithm in this repository bottoms out in two substrates:
the scoring function (``F_N`` / ``F_E`` computations) and graph adjacency
access.  This module wraps both behind *fault points* so tests can prove
the engines degrade gracefully instead of hanging or crashing:

* :class:`FaultSpec` -- one planned fault: a site (see
  :data:`FAULT_SITES`), the 0-based call index at which it fires, and a
  mode:

  - ``"raise"``   -- raise :class:`~repro.errors.InjectedFaultError`;
  - ``"delay"``   -- sleep ``delay_ms`` (models a slow dependency; pair
    with a :class:`~repro.runtime.Budget` deadline);
  - ``"corrupt"`` -- corrupt the returned value, which the fault point's
    built-in validation then detects and converts to
    :class:`~repro.errors.DataCorruptionError` (corrupt-then-detect);
  - ``"crash"``   -- kill the *process* with ``os._exit`` (models an OOM
    kill / segfault of a pool worker).  Only meaningful inside a
    sacrificial worker process: the supervised pools in
    :mod:`repro.serve.supervisor` and :mod:`repro.perf.parallel` detect
    the death and recover; firing it in the main process kills the run.

* :class:`FaultInjector` -- counts calls per site and fires matching
  specs; :meth:`FaultInjector.from_seed` derives a deterministic plan
  from a seed.
* :func:`faulty` -- wraps a :class:`ScoringFunction` into a
  :class:`FaultyScorer` whose ``.graph`` is a :class:`FaultyGraph`, so
  any engine constructed over it exercises the fault points on both
  substrates without code changes.

Engine contract: without an anytime budget, injected faults propagate as
the structured :class:`~repro.errors.ReproError` subclasses above (never
raw ``KeyError`` / ``RuntimeError``); under an anytime budget, engines
catch :data:`SUBSTRATE_ERRORS` at their checkpoints, record the fault on
the budget, and keep returning best-so-far results.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import (
    DataCorruptionError,
    GraphError,
    InjectedFaultError,
    ScoringError,
    SearchError,
)

#: Fault points the harness knows how to wrap.
FAULT_SITES = (
    "scorer.node_score",
    "scorer.relation_score",
    "graph.neighbors",
    "graph.out_neighbors",
    "graph.in_neighbors",
)

FAULT_MODES = ("raise", "delay", "corrupt", "crash")

#: Exit code a ``"crash"`` fault kills its process with (distinguishable
#: from a clean exit in supervisor crash accounting and tests).
CRASH_EXIT_CODE = 70

#: Exceptions an engine may recover from at a checkpoint when running
#: under an anytime budget.  Budget trips are deliberately *not* here.
SUBSTRATE_ERRORS = (
    GraphError,
    ScoringError,
    InjectedFaultError,
    DataCorruptionError,
)


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault at a named site.

    Args:
        site: one of :data:`FAULT_SITES`.
        at_call: 0-based index of the call at which the fault fires.
        mode: one of :data:`FAULT_MODES`.
        delay_ms: sleep duration for ``"delay"`` mode.
        repeat: fire on *every* call with index >= ``at_call`` (e.g. a
            persistently slow or dead dependency) instead of just once.
    """

    site: str
    at_call: int = 0
    mode: str = "raise"
    delay_ms: float = 0.0
    repeat: bool = False

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise SearchError(
                f"unknown fault site {self.site!r}; choose from {FAULT_SITES}"
            )
        if self.mode not in FAULT_MODES:
            raise SearchError(
                f"unknown fault mode {self.mode!r}; choose from {FAULT_MODES}"
            )
        if self.at_call < 0:
            raise SearchError(f"at_call must be >= 0, got {self.at_call}")
        if self.delay_ms < 0:
            raise SearchError(f"delay_ms must be >= 0, got {self.delay_ms}")

    def as_dict(self) -> dict:
        """JSON-safe form (wire transport to serve/pool workers)."""
        return {
            "site": self.site, "at_call": self.at_call, "mode": self.mode,
            "delay_ms": self.delay_ms, "repeat": self.repeat,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        """Inverse of :meth:`as_dict`; validates via ``__post_init__``."""
        try:
            return cls(
                site=data["site"],
                at_call=int(data.get("at_call", 0)),
                mode=data.get("mode", "raise"),
                delay_ms=float(data.get("delay_ms", 0.0)),
                repeat=bool(data.get("repeat", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SearchError(f"malformed fault spec {data!r}: {exc}") from None


class FaultInjector:
    """Counts substrate calls per site and fires matching fault specs."""

    def __init__(self, specs: Sequence[FaultSpec]) -> None:
        self.specs = list(specs)
        self.calls = {site: 0 for site in FAULT_SITES}
        self.fired: List[Tuple[str, int, str]] = []

    @classmethod
    def from_seed(
        cls,
        seed: int,
        n_faults: int = 3,
        sites: Sequence[str] = FAULT_SITES,
        modes: Sequence[str] = ("raise",),
        window: int = 50,
    ) -> "FaultInjector":
        """Deterministic random fault plan: *n_faults* specs whose sites,
        modes and call indices (< *window*) are drawn from *seed*."""
        rng = random.Random(seed)
        specs = [
            FaultSpec(
                site=rng.choice(list(sites)),
                at_call=rng.randrange(window),
                mode=rng.choice(list(modes)),
                delay_ms=1.0,
            )
            for _ in range(n_faults)
        ]
        return cls(specs)

    # ------------------------------------------------------------------
    def enter(self, site: str) -> bool:
        """Register one call to *site*; fire any due spec.

        Returns True when a ``"corrupt"`` spec fired (the caller corrupts
        its result before validation); raises for ``"raise"`` specs;
        sleeps for ``"delay"`` specs.
        """
        index = self.calls[site]
        self.calls[site] = index + 1
        corrupt = False
        for spec in self.specs:
            if spec.site != site:
                continue
            if index != spec.at_call and not (spec.repeat and index > spec.at_call):
                continue
            self.fired.append((site, index, spec.mode))
            if spec.mode == "raise":
                raise InjectedFaultError(
                    f"injected fault at {site} call #{index}"
                )
            if spec.mode == "delay":
                time.sleep(spec.delay_ms / 1000.0)
            elif spec.mode == "crash":
                import os

                os._exit(CRASH_EXIT_CODE)
            else:  # corrupt
                corrupt = True
        return corrupt


def validate_score(value: float, site: str) -> float:
    """The *detect* half of corrupt-then-detect: scores must be finite
    and in [0, 1].

    Raises:
        DataCorruptionError: for NaN / infinite / out-of-range values.
    """
    if not math.isfinite(value) or not (0.0 <= value <= 1.0):
        raise DataCorruptionError(
            f"corrupted score {value!r} detected at {site}"
        )
    return value


class FaultyGraph:
    """Adjacency proxy routing neighbor access through fault points.

    ``"corrupt"`` mode splices an out-of-graph ``(node, edge)`` pair into
    the adjacency list; the proxy's validation detects it and raises
    :class:`~repro.errors.DataCorruptionError` (simulating a checksum
    mismatch on a storage page).  All other attributes delegate to the
    wrapped graph.
    """

    def __init__(self, graph, injector: FaultInjector) -> None:
        self._graph = graph
        self._injector = injector

    def _adjacency(self, site: str, entries):
        if self._injector.enter(site):
            entries = list(entries) + [(-1, -1)]
        self._validate(site, (node_id for node_id, _eid in entries))
        return entries

    def _validate(self, site: str, node_ids) -> None:
        for node_id in node_ids:
            if node_id not in self._graph:
                raise DataCorruptionError(
                    f"corrupted adjacency entry {node_id} detected at {site}"
                )

    def neighbors(self, node_id: int):
        return self._adjacency(
            "graph.neighbors", self._graph.neighbors(node_id)
        )

    def out_neighbors(self, node_id: int):
        return self._adjacency(
            "graph.out_neighbors", self._graph.out_neighbors(node_id)
        )

    def in_neighbors(self, node_id: int):
        return self._adjacency(
            "graph.in_neighbors", self._graph.in_neighbors(node_id)
        )

    def columns(self):
        # The id columns are the undirected lists read in bulk: one read
        # passes their fault point once, and a corrupted one is caught.
        if self._injector.enter("graph.neighbors"):
            raise DataCorruptionError(
                "corrupted adjacency columns detected at graph.neighbors")
        return self._graph.columns()

    def grouped_relations(self, node_id: int, orientation: int = 0):
        # A grouped row is a read of the list it groups: it passes that
        # list's fault point first.
        (self.neighbors, self.out_neighbors,
         self.in_neighbors)[orientation](node_id)
        return self._graph.grouped_relations(node_id, orientation)

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._graph

    def __len__(self) -> int:
        return len(self._graph)

    def __getattr__(self, name: str):
        return getattr(self._graph, name)


class FaultyScorer:
    """Scoring proxy with fault points around ``F_N`` / ``F_E``.

    Exposes a :class:`FaultyGraph` as ``.graph`` so engines built over
    this scorer exercise the adjacency fault points too.  All other
    attributes delegate to the wrapped scorer.
    """

    def __init__(self, scorer, injector: FaultInjector) -> None:
        self._scorer = scorer
        self._injector = injector
        self.graph = FaultyGraph(scorer.graph, injector)

    def node_score(self, query, node_id: int) -> float:
        corrupt = self._injector.enter("scorer.node_score")
        score = self._scorer.node_score(query, node_id)
        if corrupt:
            score = float("nan")
        return validate_score(score, "scorer.node_score")

    def relation_score(self, query, relation: str) -> float:
        corrupt = self._injector.enter("scorer.relation_score")
        score = self._scorer.relation_score(query, relation)
        if corrupt:
            score = float("nan")
        return validate_score(score, "scorer.relation_score")

    def __getattr__(self, name: str):
        return getattr(self._scorer, name)


def faulty(
    scorer,
    specs: Optional[Sequence[FaultSpec]] = None,
    seed: Optional[int] = None,
    **seed_kwargs,
) -> FaultyScorer:
    """Wrap *scorer* (and its graph) with fault points.

    Pass either an explicit *specs* list or a *seed* for a deterministic
    random plan (extra keyword arguments go to
    :meth:`FaultInjector.from_seed`).
    """
    if specs is not None and seed is not None:
        raise SearchError("pass either specs or seed, not both")
    if specs is None and seed is None:
        raise SearchError("pass a specs list or a seed")
    injector = (
        FaultInjector(specs) if specs is not None
        else FaultInjector.from_seed(seed, **seed_kwargs)
    )
    return FaultyScorer(scorer, injector)


def chaos_scorer(scorer, fault_specs: Sequence[dict],
                 cache=None) -> FaultyScorer:
    """*scorer* wrapped with the faults *fault_specs* plan (their
    :meth:`FaultSpec.as_dict` forms) for one chaos engine.

    The proxy reads *cache* (None: no candidate cache) instead of the
    cache *scorer* holds: a hit on a cache that outlives the proxy would
    answer from earlier, clean scans and skip the scoring the faults
    target.
    """
    proxy = faulty(scorer, specs=[FaultSpec.from_dict(s)
                                  for s in fault_specs])
    proxy.candidate_cache = cache
    return proxy
