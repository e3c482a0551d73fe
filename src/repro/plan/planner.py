"""The self-tuning query planner.

:class:`QueryPlanner` sits in front of ``Star.search``: it extracts the
query's features, enumerates the admissible **arms** (knob combinations)
for the query's class, and picks the arm with the lowest predicted cost
under a safe-fallback guardrail:

* options the caller pinned on ``engine.options`` (an ``alpha`` or
  ``decomposition_method`` that is not ``None``, an ``algorithm`` or
  ``use_index`` that is not ``auto``) are never overridden -- the menu
  collapses to the pinned value;
* while the model is **cold** for any relevant arm (< ``min_samples``
  observations), ``learned`` mode runs the static default plan, and
  ``auto`` mode deterministically explores the least-sampled arm;
* even with a warm model, a non-default arm is chosen only when its
  predicted cost undercuts the static plan's by at least ``margin``
  (5% by default) -- within-noise predictions fall back to static;
* budgeted and prebuilt-decomposition searches always run static:
  budgets tie observable behavior (anytime best-so-far answers, charge
  order) to the specific procedure, so switching procedures there could
  change results.

Every arm is result-preserving (see the package docstring): a planned
search returns the same top-k scores as the static engine, rank by rank
-- only the representative of an *exact* score tie may differ between
procedures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.plan.experience import ExperienceRecord, ExperienceStore
from repro.plan.features import (
    CLASS_GENERAL,
    CLASS_STAR_D1,
    QueryFeatures,
    extract_features,
)
from repro.plan.model import COST_WEIGHTS, CostModel, cost_units

#: Decomposition methods the planner may try for general queries.  A
#: deliberate subset of ``repro.query.decomposition.METHODS``: the two
#:  sampling methods (simdec/simtop) have near-identical cost profiles,
#: so only simdec represents them in the menu.
PLAN_METHODS = ("simdec", "simsize", "maxdeg")

#: Alpha-scheme splits the planner may try.  Joined scores are
#: alpha-independent (the weights partition each shared node's
#: contribution), so alpha only shifts work between streams.
PLAN_ALPHAS = (0.2, 0.5)


def _fmt_alpha(alpha: float) -> str:
    return f"{alpha:g}"


def default_static_arm(class_key: str) -> str:
    """The static default plan's arm id for a default-knob engine.

    Used by consumers that need a model prediction without an engine in
    hand (e.g. the batch layer's learned dispatch ordering).
    """
    if class_key == CLASS_GENERAL:
        return "method=simdec|alpha=0.5|idx=auto"
    alg = "stark" if class_key == CLASS_STAR_D1 else "stard"
    return f"alg={alg}|idx=auto"


@dataclass
class PlanDecision:
    """One query's chosen plan, with full provenance for tracing.

    ``source`` is ``static`` (default plan: pinned, cold, budgeted, or
    guardrail fallback), ``explore`` (auto-mode round-robin over cold
    arms) or ``learned`` (model pick that cleared the guardrail).
    """

    class_key: str
    arm: str
    source: str
    overrides: Dict[str, object] = field(default_factory=dict)
    features: Optional[QueryFeatures] = None
    predicted: Optional[float] = None
    static_arm: str = ""
    static_predicted: Optional[float] = None
    reason: str = ""

    def as_dict(self) -> Dict[str, object]:
        """Deterministic summary for metrics artifacts and ``explain``."""
        doc: Dict[str, object] = {
            "arm": self.arm,
            "class": self.class_key,
            "source": self.source,
            "static_arm": self.static_arm,
        }
        if self.reason:
            doc["reason"] = self.reason
        if self.predicted is not None:
            doc["predicted_log_cost"] = round(self.predicted, 9)
        if self.static_predicted is not None:
            doc["static_predicted_log_cost"] = round(self.static_predicted, 9)
        return doc


class QueryPlanner:
    """Per-query knob selection with online learning.

    Args:
        mode: ``auto`` explores cold arms (deterministically, least
            sampled first) and exploits once warm; ``learned`` never
            explores -- static until the model warms up (or arrives
            pre-fitted via *model*).
        model: a (possibly pre-fitted) :class:`CostModel`; a fresh cold
            one is built when omitted.
        store: optional :class:`ExperienceStore` receiving every
            observed (features, arm, cost) sample.
        margin: minimum predicted relative cost reduction before a
            non-default arm is chosen (the guardrail).
    """

    def __init__(
        self,
        mode: str = "auto",
        model: Optional[CostModel] = None,
        store: Optional[ExperienceStore] = None,
        margin: float = 0.05,
    ) -> None:
        if mode not in ("auto", "learned"):
            raise ValueError(f"planner mode must be auto or learned, got {mode!r}")
        if not (0.0 <= margin < 1.0):
            raise ValueError(f"margin must be in [0, 1), got {margin}")
        self.mode = mode
        self.model = model if model is not None else CostModel()
        self.store = store
        self.margin = margin
        #: ln(1 - margin): the guardrail threshold in log-cost space.
        self._log_margin = math.log(1.0 - margin) if margin > 0.0 else 0.0
        #: Decisions taken, by source -- cheap planner introspection.
        self.decisions: Dict[str, int] = {"static": 0, "explore": 0, "learned": 0}

    # ------------------------------------------------------------------
    @classmethod
    def for_engine(
        cls,
        mode: str = "auto",
        model_path: Optional[str] = None,
        experience_path: Optional[str] = None,
    ) -> "QueryPlanner":
        """Build the planner ``Star(plan=...)`` asks for.

        *model_path* loads a fitted :class:`CostModel` persisted by
        ``CostModel.save`` (e.g. next to a graph snapshot);
        *experience_path* opens a JSONL experience sink.
        """
        model = CostModel.load(model_path) if model_path else None
        store = ExperienceStore(experience_path) if experience_path else None
        return cls(mode=mode, model=model, store=store)

    # ------------------------------------------------------------------
    def _index_choices(self, engine) -> List[str]:
        """``auto`` = leave the engine's routing alone (the static
        default); ``on`` = force index routing for this query."""
        index = getattr(engine.scorer, "graph_index", None)
        if index is None or engine.options.use_index != "auto":
            return ["auto"]
        return ["auto", "on"]

    def _star_menu(self, engine) -> Tuple[List[str], str]:
        options = engine.options
        static_alg = options.algorithm
        if static_alg == "auto":
            static_alg = "stark" if options.d == 1 else "stard"
        if options.directed or options.algorithm != "auto":
            # Directed matching is stark-only; an explicit algorithm is a
            # pinned caller choice.  Either way: no switching.
            algs = [static_alg]
        elif options.d == 1:
            algs = ["stark", "hybrid"]
        else:
            algs = ["stark", "stard", "hybrid"]
        arms = [
            f"alg={alg}|idx={idx}"
            for alg in algs
            for idx in self._index_choices(engine)
        ]
        return arms, f"alg={static_alg}|idx=auto"

    def _general_menu(self, engine) -> Tuple[List[str], str]:
        # ``None`` = free to tune; a value collapses that menu axis.
        options = engine.options
        static = options.resolved()
        methods, alphas = [static.decomposition_method], [static.alpha]
        if options.decomposition_method is None:
            methods = sorted({*PLAN_METHODS, *methods})
        if options.alpha is None:
            alphas = sorted({*PLAN_ALPHAS, *alphas})
        arms = [
            f"method={m}|alpha={_fmt_alpha(a)}|idx={idx}"
            for m in methods
            for a in alphas
            for idx in self._index_choices(engine)
        ]
        static_arm = (
            f"method={static.decomposition_method}"
            f"|alpha={_fmt_alpha(static.alpha)}|idx=auto"
        )
        return arms, static_arm

    def _overrides_for(self, engine, arm: str) -> Dict[str, object]:
        static = engine.options.resolved()
        overrides: Dict[str, object] = {}
        for part in arm.split("|"):
            key, _, value = part.partition("=")
            if key == "alg":
                overrides["algorithm"] = value
            elif key == "idx":
                if value != "auto":
                    overrides["index_mode"] = value
            elif key == "method":
                if value != static.decomposition_method:
                    overrides["decomposition_method"] = value
            elif key == "alpha":
                alpha = float(value)
                if alpha != static.alpha:
                    overrides["alpha"] = alpha
        return overrides

    # ------------------------------------------------------------------
    def plan(
        self,
        engine,
        query,
        k: int,
        budget=None,
        prebuilt_decomposition: bool = False,
    ) -> PlanDecision:
        """Choose the plan for one search call (see module docstring)."""
        if budget is not None or prebuilt_decomposition:
            reason = "budget" if budget is not None else "prebuilt-decomposition"
            self.decisions["static"] += 1
            return PlanDecision(
                class_key="", arm="", source="static", reason=reason
            )
        features = extract_features(
            engine.scorer, query, k, d=engine.options.d, budget=budget
        )
        class_key = features.class_key
        if class_key == CLASS_GENERAL:
            arms, static_arm = self._general_menu(engine)
        else:
            arms, static_arm = self._star_menu(engine)
        if static_arm not in arms:
            arms = [static_arm] + arms

        chosen = static_arm
        source = "static"
        reason = ""
        predicted: Optional[float] = None
        static_predicted: Optional[float] = None
        if len(arms) == 1:
            reason = "all-knobs-pinned"
        else:
            model = self.model
            cold = [a for a in arms if model.samples(class_key, a) < model.min_samples]
            if cold and self.mode == "auto":
                # Deterministic exploration: least-sampled arm first,
                # lexicographic tie-break -- reproducible run to run.
                chosen = min(cold, key=lambda a: (model.samples(class_key, a), a))
                source = "explore"
            elif cold:
                reason = "model-cold"
            else:
                vector = features.vector
                scored = [
                    (model.predict(class_key, a, vector), a) for a in arms
                ]
                static_predicted = next(
                    p for p, a in scored if a == static_arm
                )
                usable = [(p, a) for p, a in scored if p is not None]
                if static_predicted is None or not usable:
                    reason = "model-singular"
                else:
                    best_pred, best_arm = min(usable)
                    if (
                        best_arm != static_arm
                        and best_pred <= static_predicted + self._log_margin
                    ):
                        chosen = best_arm
                        source = "learned"
                        predicted = best_pred
                    else:
                        predicted = static_predicted
                        reason = "within-margin" if best_arm != static_arm else ""

        overrides = (
            {} if chosen == static_arm and source == "static"
            else self._overrides_for(engine, chosen)
        )
        self.decisions[source] += 1
        return PlanDecision(
            class_key=class_key,
            arm=chosen,
            source=source,
            overrides=overrides,
            features=features,
            predicted=predicted,
            static_arm=static_arm,
            static_predicted=static_predicted,
            reason=reason,
        )

    # ------------------------------------------------------------------
    def observe(
        self,
        decision: PlanDecision,
        engine_stats,
        node_score_calls: int = 0,
        edge_score_calls: int = 0,
        postings_scanned: int = 0,
    ) -> None:
        """Feed one completed search back into the model and the store.

        Costs are deterministic counter units: the engine's unified
        stats plus the scorer-call and posting-scan deltas the framework
        measured around the search (posting scans make index-routing
        overhead visible to the model -- the routed search itself runs
        the same scoring).  Budgeted / prebuilt decisions carry no
        features and are skipped -- their static plan was forced, not
        chosen.
        """
        if decision.features is None:
            return
        counters: Dict[str, int] = {
            "node_score_calls": int(node_score_calls),
            "edge_score_calls": int(edge_score_calls),
        }
        if postings_scanned:
            counters["postings_scanned"] = int(postings_scanned)
        if engine_stats is not None:
            for key in COST_WEIGHTS:
                if key in counters:
                    continue
                value = getattr(engine_stats, key, 0)
                if value:
                    counters[key] = int(value)
        cost = cost_units(counters)
        self.model.observe(
            decision.class_key, decision.arm, decision.features.vector, cost
        )
        if self.store is not None:
            self.store.append(
                ExperienceRecord(
                    class_key=decision.class_key,
                    features=decision.features.as_dict(),
                    arm=decision.arm,
                    cost=cost,
                    counters=dict(sorted(counters.items())),
                )
            )

    # ------------------------------------------------------------------
    def save_model(self, path: str) -> None:
        """Persist the current model (``CostModel.save``)."""
        self.model.save(path)

    def __repr__(self) -> str:
        return (
            f"QueryPlanner(mode={self.mode!r}, margin={self.margin}, "
            f"decisions={self.decisions})"
        )
