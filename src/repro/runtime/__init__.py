"""Search-runtime robustness layer: budgets, anytime reports, faults.

* :class:`Budget` / :class:`SearchReport` -- the deadline/budget-bounded
  anytime-search contract every engine checkpoints against.
* :mod:`repro.runtime.faults` -- deterministic fault injection wrapping
  the scoring and graph-adjacency substrates.
* :mod:`repro.runtime.slo` -- serving SLO classes and the monotone
  (class, degrade level) -> budget derivation behind degrade-before-shed.
* :mod:`repro.runtime.workers` -- the one worker runtime
  (``ForkWorker``, ``TaskPool``, ``ThreadPool`` and their chooser
  ``pool_for``) under serve, batch and shard; imported by name, not
  re-exported here.
"""

from repro.runtime.budget import (
    REASON_DEADLINE,
    REASON_FAULT,
    REASON_JOIN_STEPS,
    REASON_MESSAGES,
    REASON_NODES,
    Budget,
    SearchReport,
)
from repro.runtime.faults import (
    CRASH_EXIT_CODE,
    FAULT_MODES,
    FAULT_SITES,
    SUBSTRATE_ERRORS,
    FaultInjector,
    FaultSpec,
    FaultyGraph,
    FaultyScorer,
    faulty,
    validate_score,
)
from repro.runtime.slo import (
    DEGRADE_FACTOR,
    MAX_DEGRADE_LEVEL,
    MODES,
    SLO_CLASSES,
    SLOClass,
    derive_budget_spec,
    resolve_slo,
)

__all__ = [
    "Budget",
    "CRASH_EXIT_CODE",
    "DEGRADE_FACTOR",
    "FAULT_MODES",
    "FAULT_SITES",
    "FaultInjector",
    "FaultSpec",
    "FaultyGraph",
    "FaultyScorer",
    "MAX_DEGRADE_LEVEL",
    "MODES",
    "REASON_DEADLINE",
    "REASON_FAULT",
    "REASON_JOIN_STEPS",
    "REASON_MESSAGES",
    "REASON_NODES",
    "SLOClass",
    "SLO_CLASSES",
    "SUBSTRATE_ERRORS",
    "SearchReport",
    "derive_budget_spec",
    "faulty",
    "resolve_slo",
    "validate_score",
]
