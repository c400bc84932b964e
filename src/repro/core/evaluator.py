"""Scheme evaluators — the bridge between search and compression execution.

Two backends share one interface (the :class:`~repro.core.interface.Evaluator`
protocol):

* :class:`TrainingEvaluator` — everything real: a model is pre-trained on a
  (tiny) dataset, strategies execute with gradient training, accuracy is
  measured on a held-out split.  Used by tests and the runnable examples.
* :class:`SurrogateEvaluator` — paper scale: strategies perform *real
  structural surgery* on the real full-size numpy model (so parameters and
  FLOPs are measured), gradient phases are skipped, and accuracy evolves via
  the calibrated :class:`~repro.sim.accuracy.AccuracyModel`.

Both cache results by scheme identifier and keep an LRU of compressed model
snapshots so progressive search can extend an evaluated scheme without
re-running its prefix.  With ``config.snapshot_dir`` set, a disk-backed
:class:`~repro.core.stores.ModelSnapshotStore` acts as a second tier
below the in-memory LRU: trained prefix states survive across worker
processes, pool recycles and whole runs, and every prefix reached during a
replay is snapshotted so siblings resume instead of replaying.  Resuming is
bit-identical to replaying (per-step seeds derive from stable sub-scheme
digests), so the store changes wall-clock only — never results or charged
costs.  Every evaluation also charges a *simulated GPU-hour*
cost — the common currency that gives all AutoML baselines equal budgets
(§4.1 "control the running time of each algorithm to be the same").

Cost accounting is *canonical*: every result carries the full per-step cost
vector of its scheme (independent of which prefix happened to be resumed
from the model LRU), and the charged cost is the increment over the longest
prefix already present in ``results``.  This makes charged costs a pure
function of the evaluation history — the property the batched
:class:`~repro.core.engine.EvaluationEngine` relies on to merge parallel
worker results bit-identically to a serial run.
"""

from __future__ import annotations

import copy
import hashlib
import json
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.costmodel import Budget, SchemeCostModel, profile_model
from ..analysis.diagnostics import Report
from ..analysis.linter import SchemeRejected, lint_scheme
from ..compression import ExecutionContext, StepReport
from ..data.tasks import CompressionTask
from ..nn import Module, Trainer, evaluate_accuracy
from ..obs import NULL_TRACER
from ..sim.accuracy import AccuracyModel
from ..space.scheme import CompressionScheme
from .config import EvaluatorConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .stores import ModelSnapshotStore

#: simulated GPU-hours per (epoch x GFLOP x full-dataset) of training
EPOCH_COST_HOURS = 0.01
#: fixed simulated cost of evaluating any scheme (accuracy measurement etc.)
EVAL_OVERHEAD_HOURS = 0.05


def stable_hash(text: str) -> int:
    """Process-stable 32-bit digest of ``text`` (replaces builtin ``hash``).

    Builtin ``hash(str)`` is salted per process via ``PYTHONHASHSEED``, so
    seeding step RNGs with it made results differ between runs and between
    the engine's worker processes.  CRC32 is cheap, deterministic everywhere
    and plenty for seed derivation.
    """
    return zlib.crc32(text.encode("utf-8"))


@dataclass
class EvaluationResult:
    """Measured outcome of executing a compression scheme on the task model."""

    scheme: CompressionScheme
    params: int
    flops: int
    accuracy: float  # fraction in [0, 1]
    base_params: int
    base_flops: int
    base_accuracy: float
    cost: float  # simulated GPU-hours charged for this evaluation
    step_reports: List[StepReport] = field(default_factory=list)
    #: canonical per-step simulated cost of the *whole* scheme (one entry per
    #: strategy, independent of prefix reuse) — the basis of deterministic
    #: incremental charging and of the persistent cache
    step_costs: List[float] = field(default_factory=list)
    #: measured median wall-clock per inference batch (ms); 0.0 when latency
    #: measurement is disabled (``config.latency_batch`` unset)
    latency_ms: float = 0.0
    #: largest single-kernel scratch (bytes) while running the latency probe
    #: on the compressed model (0 when latency measurement is disabled) — the
    #: *measured* scratch footprint cross-checked against the cost model's
    #: act_mem prediction
    workspace_bytes_peak: int = 0

    @property
    def pr(self) -> float:
        """Parameter reduction rate (paper's PR)."""
        return (self.base_params - self.params) / max(self.base_params, 1)

    @property
    def fr(self) -> float:
        """FLOPs reduction rate (paper's FR)."""
        return (self.base_flops - self.flops) / max(self.base_flops, 1)

    @property
    def ar(self) -> float:
        """Accuracy increase rate (paper's AR, usually negative)."""
        return (self.accuracy - self.base_accuracy) / max(self.base_accuracy, 1e-9)

    def meets_target(self, gamma: float) -> bool:
        return self.pr >= gamma

    @property
    def objectives(self) -> np.ndarray:
        """(AR, PR) — both maximised in Definition 1."""
        return np.array([self.ar, self.pr])

    def __str__(self) -> str:
        return (
            f"PR {100 * self.pr:.2f}% | FR {100 * self.fr:.2f}% | "
            f"acc {100 * self.accuracy:.2f}% (AR {100 * self.ar:+.2f}%) | "
            f"{self.scheme.identifier}"
        )


@dataclass
class ModelSnapshot:
    """Everything needed to resume evaluation from a trained prefix model."""

    identifier: str
    model: Module
    accuracy: float                       # backend-native accuracy carry
    step_reports: List[StepReport] = field(default_factory=list)
    step_costs: List[float] = field(default_factory=list)


class SchemeEvaluator:
    """Shared caching / cost-accounting base for both backends."""

    #: backend whose config defaults apply; the bare base class shares the
    #: training backend's (cache 16)
    _BACKEND = "training"
    # Set by each backend's constructor; the replay loop reads them.
    _base_model: Module
    _input_shape: Tuple[int, int, int]
    base_params: int
    base_flops: int
    base_accuracy: float

    def __init__(
        self,
        task: CompressionTask,
        config: Optional[EvaluatorConfig] = None,
    ):
        config = (config or EvaluatorConfig()).resolved(self._BACKEND)
        if task is not None and config.task is None:
            config = replace(config, task=task)
        self.config = config
        self.task = task
        self.seed = config.seed
        self.results: Dict[str, EvaluationResult] = {}
        self.total_cost = 0.0
        self.evaluation_count = 0
        self.lint_schemes = config.lint_schemes
        self.rejected_count = 0
        self.rejected: Dict[str, Report] = {}
        #: static budget-feasibility ceilings (None disables the S### rules)
        self.budget: Optional[Budget] = config.budget
        #: schemes rejected by an S### rule inside lint (subset of rejected)
        self.budget_rejects = 0
        #: schemes filtered by is_feasible() before reaching evaluation
        self.budget_filtered = 0
        #: prediction-drift accounting: |predicted - measured| / measured sums
        self.predicted_evals = 0
        self.drift_params_pct_sum = 0.0
        self.drift_flops_pct_sum = 0.0
        #: act-mem drift: measured workspace peak vs predicted activation
        #: bytes (only accumulated when the latency probe measures a peak)
        self.act_mem_evals = 0
        self.drift_act_mem_pct_sum = 0.0
        #: largest workspace footprint any evaluated scheme reached
        self.workspace_bytes_peak = 0
        #: evaluations whose predicted weight_bits != executed effective bits
        self.weight_bits_mismatches = 0
        #: evaluations whose *measured* latency exceeded budget.max_latency_ms
        self.latency_violations = 0
        self._cost_model: Optional[SchemeCostModel] = None
        self._cost_model_ready = False
        self._model_cache: "OrderedDict[str, ModelSnapshot]" = OrderedDict()
        self._model_cache_size = config.model_cache_size
        self._fingerprint: Optional[str] = None
        #: observability hook (see repro.obs); the shared no-op NULL_TRACER
        #: unless a tracer is attached
        self.tracer = NULL_TRACER
        #: strategy steps actually executed (replay work; resumed steps skip)
        self.steps_executed = 0
        #: disk snapshot-store accounting (zero when no store is configured)
        self.snapshot_hits = 0
        self.snapshot_misses = 0
        self.snapshot_steps_saved = 0
        #: hits on snapshots written by another process/job/run (cross-job dedup)
        self.snapshot_foreign_hits = 0
        self._snapshot_store: Optional[ModelSnapshotStore] = None
        self._snapshot_store_ready = False

    # -- model snapshot tiers ----------------------------------------------
    @property
    def snapshot_store(self) -> Optional[ModelSnapshotStore]:
        """The disk tier, built lazily (the fingerprint needs base profiling)."""
        if not self._snapshot_store_ready:
            self._snapshot_store_ready = True
            if self.config.snapshot_dir is not None:
                from .stores import ModelSnapshotStore

                budget = self.config.snapshot_budget_mb
                self._snapshot_store = ModelSnapshotStore(
                    self.config.snapshot_dir,
                    self.fingerprint(),
                    budget_bytes=None if budget is None else int(budget * 1024 * 1024),
                )
        return self._snapshot_store

    def set_snapshot_dir(self, snapshot_dir, budget_mb: Optional[float] = None) -> None:
        """(Re)configure the disk snapshot tier after construction.

        Updates ``config`` too, so engine workers rebuilt from it share the
        same store directory.
        """
        self.config = replace(
            self.config,
            snapshot_dir=None if snapshot_dir is None else str(snapshot_dir),
            snapshot_budget_mb=budget_mb,
        )
        self._snapshot_store = None
        self._snapshot_store_ready = False

    def _cache_model(
        self,
        key: str,
        model: Module,
        accuracy: float,
        step_reports: Sequence[StepReport] = (),
        step_costs: Sequence[float] = (),
        persist: bool = True,
    ) -> None:
        snapshot = ModelSnapshot(
            identifier=key,
            model=model,
            accuracy=accuracy,
            step_reports=list(step_reports),
            step_costs=list(step_costs),
        )
        self._model_cache[key] = snapshot
        self._model_cache.move_to_end(key)
        while len(self._model_cache) > self._model_cache_size:
            self._model_cache.popitem(last=False)
        store = self.snapshot_store
        if persist and store is not None:
            with self.tracer.span("snapshot.save", prefix=key):
                written = store.put(snapshot)
            self.tracer.metrics.counter("snapshot.bytes_written").inc(written)

    def _longest_cached_prefix(
        self, scheme: CompressionScheme
    ) -> Tuple[int, Optional[ModelSnapshot]]:
        """Longest resumable proper prefix: in-memory LRU first, disk second.

        A disk hit is adopted into the memory LRU (without re-persisting), so
        sibling evaluations in the same process pay the unpickle once.
        """
        store = self.snapshot_store
        for length in range(scheme.length - 1, 0, -1):
            identifier = scheme.prefix(length).identifier
            snapshot = self._model_cache.get(identifier)
            if snapshot is not None:
                self._model_cache.move_to_end(identifier)
                return length, snapshot
            if store is not None and identifier in store:
                tracer = self.tracer
                with tracer.span("snapshot.load", prefix=identifier, steps=length):
                    snapshot = store.get(identifier)
                if snapshot is not None:
                    self.snapshot_hits += 1
                    self.snapshot_steps_saved += length
                    if identifier not in store.written_ids:
                        self.snapshot_foreign_hits += 1
                    tracer.event("snapshot_hit", prefix=identifier, steps=length)
                    tracer.metrics.counter("snapshot.hits").inc()
                    tracer.metrics.counter("snapshot.steps_saved").inc(length)
                    self._cache_model(
                        identifier,
                        snapshot.model,
                        snapshot.accuracy,
                        snapshot.step_reports,
                        snapshot.step_costs,
                        persist=False,
                    )
                    return length, snapshot
        if store is not None and scheme.length > 1:
            self.snapshot_misses += 1
            self.tracer.metrics.counter("snapshot.misses").inc()
        return 0, None

    def _measure_latency(self, model: Module) -> Tuple[float, int]:
        """``(median ms per inference batch, workspace bytes peak)``.

        Both zero when latency measurement is disabled.  The scratch meter
        is reset before the probe, so the peak is the largest single-kernel
        scratch of *this* model at the probe batch size.
        """
        batch = self.config.latency_batch
        if not batch:
            return 0.0, 0
        from ..nn.bench import measure_latency
        from ..nn.workspace import reset_workspace_peak, workspace_stats

        input_shape = getattr(self, "_input_shape", (3, 32, 32))
        reset_workspace_peak()
        with self.tracer.span("latency.measure", batch=batch):
            ms = measure_latency(model, input_shape, batch=batch, seed=self.seed)
        return ms, int(workspace_stats()["bytes_peak"])

    def _longest_paid_prefix(self, scheme: CompressionScheme) -> int:
        """Longest proper prefix whose evaluation is already in ``results``."""
        for length in range(scheme.length - 1, 0, -1):
            if scheme.prefix(length).identifier in self.results:
                return length
        return 0

    def _charge(self, scheme: CompressionScheme, step_costs: Sequence[float]) -> float:
        """Canonical charged cost: overhead + steps beyond the paid prefix."""
        cost = EVAL_OVERHEAD_HOURS
        for step_cost in step_costs[self._longest_paid_prefix(scheme):]:
            cost += step_cost
        return cost

    # -- static cost model -------------------------------------------------
    @property
    def cost_model(self) -> Optional[SchemeCostModel]:
        """Lazy :class:`SchemeCostModel` over the backend's base model.

        ``None`` when the base model cannot be traced (custom test modules);
        budget checks then degrade to no-ops rather than failing evaluation.
        """
        if not self._cost_model_ready:
            self._cost_model_ready = True
            base_model = getattr(self, "_base_model", None)
            input_shape = getattr(self, "_input_shape", (3, 32, 32))
            if base_model is not None:
                try:
                    self._cost_model = SchemeCostModel(base_model, input_shape)
                except Exception:
                    self._cost_model = None
        return self._cost_model

    def set_budget(self, budget: Optional[Budget]) -> None:
        """(Re)configure the static feasibility budget after construction.

        Updates ``config`` too, so engine workers rebuilt from it enforce the
        same ceilings.
        """
        if budget is not None and budget.is_null:
            budget = None
        self.budget = budget
        self.config = replace(self.config, budget=budget)

    def is_feasible(self, scheme: CompressionScheme) -> bool:
        """Statically decide whether ``scheme`` can meet the budget.

        Free for the search budget: no surgery, no simulated GPU-hours.
        Schemes are feasible by definition when no budget or no cost model is
        available.  Infeasible calls are counted (``budget_filtered``) so
        runs can report how much of the space the budget eliminated.
        """
        budget = self.budget
        if budget is None or scheme.is_empty:
            return True
        cost_model = self.cost_model
        if cost_model is None:
            return True
        if cost_model.feasible(scheme, budget):
            return True
        self.budget_filtered += 1
        self.tracer.event("budget_filter", scheme=scheme.identifier)
        self.tracer.metrics.counter("budget_filtered").inc()
        return False

    # -- public API ----------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable digest of model/dataset/seed/config identity.

        Includes the measured base profile (params/FLOPs/accuracy), so two
        evaluators only share a fingerprint when their models really are the
        same — even if they were built from opaque factory callables.
        """
        if self._fingerprint is None:
            payload = dict(self.config.fingerprint_payload())
            payload["class"] = type(self).__name__
            payload["base_params"] = int(getattr(self, "base_params", 0))
            payload["base_flops"] = int(getattr(self, "base_flops", 0))
            payload["base_accuracy"] = repr(getattr(self, "base_accuracy", 0.0))
            blob = json.dumps(payload, sort_keys=True, default=repr)
            self._fingerprint = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        return self._fingerprint

    def lint(self, scheme: CompressionScheme) -> Report:
        """Lint ``scheme``; record and raise :class:`SchemeRejected` on errors.

        Rejection happens *before* any simulated GPU-hours are charged — a
        doomed scheme costs the search nothing but the lint itself.  With a
        budget configured, the ``S###`` feasibility rules run here too, so a
        statically-infeasible scheme is rejected exactly like a lint error.
        """
        report = lint_scheme(
            scheme,
            budget=self.budget,
            cost_model=self.cost_model if self.budget is not None else None,
        )
        if report.has_errors:
            identifier = scheme.identifier
            rules = sorted({d.rule for d in report.errors})
            self.rejected_count += 1
            self.rejected[identifier] = report
            tracer = self.tracer
            tracer.event("lint_reject", scheme=identifier, rules=rules)
            tracer.metrics.counter("lint_rejects").inc()
            if any(rule.startswith("S") for rule in rules):
                self.budget_rejects += 1
                tracer.event("budget_reject", scheme=identifier)
                tracer.metrics.counter("budget_rejects").inc()
            raise SchemeRejected(scheme, report)
        return report

    def evaluate(self, scheme: CompressionScheme) -> EvaluationResult:
        """Evaluate (with caching) one compression scheme.

        Raises :class:`~repro.analysis.linter.SchemeRejected` when linting is
        enabled and the scheme has an error-severity finding.
        """
        identifier = scheme.identifier
        result = self.results.get(identifier)
        if result is not None:
            self.tracer.event("cache_hit", scheme=identifier, source="memory")
            self.tracer.metrics.counter("cache_hits.memory").inc()
            return result
        if self.lint_schemes and not scheme.is_empty:
            self.lint(scheme)
        return self._evaluate_recorded(scheme)

    def evaluate_many(
        self, schemes: Sequence[CompressionScheme]
    ) -> List[EvaluationResult]:
        """Lint then evaluate a batch of schemes.

        The contract (shared with the parallel engine): deduplicate by
        identifier, lint every *new* scheme up front — the first error aborts
        the batch before any simulated hours are charged — then evaluate in
        input order.  The returned list aligns with the input; duplicates map
        to the same result object.
        """
        schemes = list(schemes)
        identifiers = [scheme.identifier for scheme in schemes]
        unique: Dict[str, CompressionScheme] = {}
        for identifier, scheme in zip(identifiers, schemes):
            unique.setdefault(identifier, scheme)
        results = self.results
        fresh: List[CompressionScheme] = []
        for identifier, scheme in unique.items():
            if identifier in results:
                self.tracer.event("cache_hit", scheme=identifier, source="memory")
                self.tracer.metrics.counter("cache_hits.memory").inc()
            else:
                fresh.append(scheme)
        if self.lint_schemes:
            for scheme in fresh:
                if not scheme.is_empty:
                    self.lint(scheme)
        for scheme in fresh:
            self._evaluate_recorded(scheme)
        return [results[identifier] for identifier in identifiers]

    def _record_prediction(self, result: EvaluationResult, span) -> None:
        """Fold predicted-vs-measured drift into the running accounting."""
        cost_model = self.cost_model
        if cost_model is None or result.scheme.is_empty:
            return
        prediction = cost_model.predict(result.scheme)
        self.predicted_evals += 1
        params_pct = 100.0 * abs(prediction.params - result.params) / max(result.params, 1)
        flops_pct = 100.0 * abs(prediction.flops - result.flops) / max(result.flops, 1)
        self.drift_params_pct_sum += params_pct
        self.drift_flops_pct_sum += flops_pct
        # Quantization drift: predicted weight width must match the bits the
        # executed steps report (C7 HP17, C8 8/16) — by construction they
        # share one source of truth, so any mismatch is a real bug.
        executed_bits = 32.0
        for report in result.step_reports:
            bits = report.details.get("effective_bits")
            if bits is not None:
                executed_bits = float(bits)
        if float(prediction.weight_bits) != executed_bits:
            self.weight_bits_mismatches += 1
        # Act-mem drift: the latency probe measures the real scratch
        # footprint (largest single-kernel scratch, batch latency_batch);
        # the cost model predicts per-sample peak activation bytes.  The gap
        # exposes what the static model cannot see — im2col amplification.
        act_mem_pct = None
        if result.workspace_bytes_peak > 0 and self.config.latency_batch:
            predicted_act = prediction.act_mem * self.config.latency_batch
            act_mem_pct = (
                100.0
                * abs(predicted_act - result.workspace_bytes_peak)
                / max(result.workspace_bytes_peak, 1)
            )
            self.act_mem_evals += 1
            self.drift_act_mem_pct_sum += act_mem_pct
        span.set(
            predicted_params=prediction.params,
            predicted_flops=prediction.flops,
            drift_params_pct=round(params_pct, 3),
            drift_flops_pct=round(flops_pct, 3),
        )
        if act_mem_pct is not None:
            span.set(
                predicted_act_mem=prediction.act_mem,
                drift_act_mem_pct=round(act_mem_pct, 3),
            )

    def prediction_drift(self) -> Dict[str, float]:
        """Mean absolute predicted-vs-measured drift over fresh evaluations."""
        count = max(self.predicted_evals, 1)
        return {
            "predicted_evals": float(self.predicted_evals),
            "drift_params_pct": self.drift_params_pct_sum / count,
            "drift_flops_pct": self.drift_flops_pct_sum / count,
            "weight_bits_mismatches": float(self.weight_bits_mismatches),
            "act_mem_evals": float(self.act_mem_evals),
            "drift_act_mem_pct": (
                self.drift_act_mem_pct_sum / max(self.act_mem_evals, 1)
            ),
            "workspace_bytes_peak": float(self.workspace_bytes_peak),
        }

    def _evaluate_recorded(self, scheme: CompressionScheme) -> EvaluationResult:
        """Run ``_evaluate`` and fold the result into the bookkeeping."""
        with self.tracer.span("evaluate", scheme=scheme.identifier, steps=scheme.length) as span:
            result = self._evaluate(scheme)
            self._annotate(result, span)
        self._record(result)
        return result

    def _annotate(self, result: EvaluationResult, span) -> None:
        """Attach a fresh result to its ``evaluate`` span.

        One charged evaluation == one ``evaluate`` span carrying its exact
        cost float (the journal-sum == total_cost invariant); the cost
        model's prediction drift goes on the same span.  The prediction runs
        only when the run is traced or a budget is set; untraced runs
        without a budget do not pay for the cost model.
        """
        span.add_cost(result.cost)
        span.set(params=result.params, pr=result.pr, accuracy=result.accuracy)
        if self.tracer.enabled or self.budget is not None:
            self._record_prediction(result, span)
        if result.workspace_bytes_peak:
            span.set(workspace_bytes_peak=result.workspace_bytes_peak)

    def _record(self, result: EvaluationResult) -> None:
        """Fold a fresh, charged result into results, costs and drift stats.

        The serial path and the engine's parallel merge both end here, so
        drift, workspace and measured-latency accounting agree between
        them.
        """
        identifier = result.scheme.identifier
        tracer = self.tracer
        tracer.metrics.counter("evaluations.fresh").inc()
        if result.workspace_bytes_peak > self.workspace_bytes_peak:
            self.workspace_bytes_peak = result.workspace_bytes_peak
            tracer.metrics.gauge("nn.workspace_bytes_peak").set(
                float(result.workspace_bytes_peak)
            )
        budget = self.budget
        if (
            budget is not None
            and budget.max_latency_ms is not None
            and result.latency_ms > 0.0
            and result.latency_ms > budget.max_latency_ms
        ):
            # The measured (not proxy) side of the S004 constraint: the scheme
            # was already paid for, so it is counted and reported, not rejected.
            self.latency_violations += 1
            tracer.event(
                "latency_violation",
                scheme=identifier,
                latency_ms=round(result.latency_ms, 3),
                max_latency_ms=budget.max_latency_ms,
            )
            tracer.metrics.counter("latency_violations").inc()
        self.results[identifier] = result
        self.total_cost += result.cost
        self.evaluation_count += 1

    def pareto_results(self, gamma: Optional[float] = None) -> List[EvaluationResult]:
        """Non-dominated evaluated schemes (optionally filtered to PR >= gamma)."""
        from .pareto import pareto_mask

        candidates = [
            r
            for r in self.results.values()
            if not r.scheme.is_empty and (gamma is None or r.meets_target(gamma))
        ]
        if not candidates:
            return []
        points = np.stack([r.objectives for r in candidates])
        mask = pareto_mask(points)
        return [r for r, keep in zip(candidates, mask) if keep]

    # -- the prefix-replay loop -------------------------------------------
    def _evaluate(self, scheme: CompressionScheme) -> EvaluationResult:
        """Execute ``scheme``, resuming from its longest cached prefix.

        The one replay loop both backends share.  They differ only in two
        hooks: :meth:`_apply_step` runs one strategy (its execution context,
        step cost and carried accuracy), and :meth:`_initial_accuracy` /
        :meth:`_final_accuracy` are the accuracy source at either end.
        """
        prefix_len, snapshot = self._longest_cached_prefix(scheme)
        if snapshot is not None:
            model = copy.deepcopy(snapshot.model)
            carried = snapshot.accuracy
            reports = list(snapshot.step_reports)
            step_costs = list(snapshot.step_costs)
        else:
            model = copy.deepcopy(self._base_model)
            carried = self._initial_accuracy()
            reports, step_costs = [], []

        snapshotting = self.snapshot_store is not None
        for position in range(prefix_len, scheme.length):
            report, step_cost, carried = self._apply_step(model, scheme, position, carried)
            self.steps_executed += 1
            reports.append(report)
            step_costs.append(step_cost)
            if snapshotting and position + 1 < scheme.length:
                # Snapshot the intermediate prefix so siblings (this process
                # or any worker sharing the store) resume instead of replay.
                self._cache_model(
                    scheme.prefix(position + 1).identifier,
                    copy.deepcopy(model),
                    carried,
                    reports,
                    step_costs,
                )

        profile = profile_model(model, self._input_shape)
        accuracy, carried = self._final_accuracy(model, carried)
        if not scheme.is_empty:
            self._cache_model(scheme.identifier, model, carried, reports, step_costs)
        latency_ms, ws_peak = self._measure_latency(model)
        return EvaluationResult(
            scheme=scheme,
            params=profile.params,
            flops=profile.flops,
            accuracy=accuracy,
            base_params=self.base_params,
            base_flops=self.base_flops,
            base_accuracy=self.base_accuracy,
            cost=self._charge(scheme, step_costs),
            step_reports=reports,
            step_costs=step_costs,
            latency_ms=latency_ms,
            workspace_bytes_peak=ws_peak,
        )

    def _apply_step(
        self, model: Module, scheme: CompressionScheme, position: int, accuracy: float
    ) -> Tuple[StepReport, float, float]:  # pragma: no cover
        """Run strategy ``position`` on ``model``: ``(report, cost, carried accuracy)``."""
        raise NotImplementedError

    def _initial_accuracy(self) -> float:  # pragma: no cover
        """Carried accuracy of the uncompressed base model."""
        raise NotImplementedError

    def _final_accuracy(
        self, model: Module, carried: float
    ) -> Tuple[float, float]:  # pragma: no cover
        """``(result accuracy fraction, accuracy the scheme's snapshot carries)``."""
        raise NotImplementedError


def _step_cost(report: StepReport, flops_g: float, data_fraction: float) -> float:
    epochs = report.fine_tune_epochs + report.train_epochs
    return epochs * flops_g * data_fraction * EPOCH_COST_HOURS + EVAL_OVERHEAD_HOURS


class TrainingEvaluator(SchemeEvaluator):
    """Fully real backend: tiny models, real gradients, measured accuracy."""

    _BACKEND = "training"

    def __init__(
        self,
        model_factory: Callable[[], Module],
        train_data,
        val_data,
        config: Optional[EvaluatorConfig] = None,
        trainer: Optional[Trainer] = None,
        task: Optional[CompressionTask] = None,
    ):
        config = replace(
            (config or EvaluatorConfig()).resolved(self._BACKEND),
            train_data=train_data,
            val_data=val_data,
        )
        if isinstance(model_factory, str):
            from ..models import create_model

            name, classes = model_factory, train_data.num_classes
            config = replace(config, model_name=name)
            model_factory = lambda: create_model(name, num_classes=classes)
        self.model_factory = model_factory
        self.train_data = train_data
        self.val_data = val_data
        self.pretrain_epochs = config.pretrain_epochs
        self.trainer = trainer or Trainer(
            lr=config.trainer_lr, batch_size=config.trainer_batch_size, seed=config.seed
        )
        self._input_shape = (train_data.channels, train_data.image_size, train_data.image_size)

        base_model = model_factory()
        self.trainer.fit(base_model, train_data, config.pretrain_epochs)
        self._base_model = base_model
        base_profile = profile_model(base_model, self._input_shape)
        self.base_params = base_profile.params
        self.base_flops = base_profile.flops
        self.base_accuracy = evaluate_accuracy(base_model, val_data)

        if task is None:
            from ..data.tasks import task_from_dataset

            task = task_from_dataset(train_data, base_model, "custom", self.base_accuracy)
        super().__init__(task, config=replace(config, task=task))

    def _apply_step(
        self, model: Module, scheme: CompressionScheme, position: int, accuracy: float
    ) -> Tuple[StepReport, float, float]:
        strategy = scheme.strategies[position]
        ctx = ExecutionContext(
            original_params=self.base_params,
            pretrain_epochs=self.pretrain_epochs,
            dataset=self.train_data,
            val_dataset=self.val_data,
            trainer=self.trainer,
            train_enabled=True,
            seed=self.seed + stable_hash(scheme.prefix(position + 1).identifier) % 10_000,
        )
        report = strategy.method.apply(model, strategy.hp, ctx)
        profile = profile_model(model, self._input_shape)
        return report, _step_cost(report, profile.flops / 1e9, 1.0), accuracy

    # Accuracy is re-measured from the model on every evaluation, so nothing
    # is carried between steps (intermediate snapshots hold 0.0).
    def _initial_accuracy(self) -> float:
        return 0.0

    def _final_accuracy(self, model: Module, carried: float) -> Tuple[float, float]:
        accuracy = evaluate_accuracy(model, self.val_data)
        return accuracy, accuracy


class SurrogateEvaluator(SchemeEvaluator):
    """Paper-scale backend: real surgery + calibrated accuracy surrogate."""

    _BACKEND = "surrogate"

    def __init__(
        self,
        model_factory: Callable[[], Module],
        model_name: str,
        dataset_name: str,
        task: CompressionTask,
        config: Optional[EvaluatorConfig] = None,
    ):
        config = (config or EvaluatorConfig()).resolved(self._BACKEND)
        config = replace(
            config,
            model_name=config.model_name or model_name,
            dataset_name=dataset_name,
            task=task,
        )
        super().__init__(task, config=config)
        self.model_factory = model_factory
        self.model_name = model_name
        self.dataset_name = dataset_name
        self.pretrain_epochs = config.pretrain_epochs
        self.data_fraction = config.data_fraction
        self.accuracy_model = AccuracyModel(model_name, dataset_name, seed=config.seed)

        self._base_model = model_factory()
        self._input_shape = (task.channels, task.image_size, task.image_size)
        base_profile = profile_model(self._base_model, self._input_shape)
        self.base_params = base_profile.params
        self.base_flops = base_profile.flops
        self.base_accuracy = self.accuracy_model.baseline / 100.0

    def _apply_step(
        self, model: Module, scheme: CompressionScheme, position: int, accuracy: float
    ) -> Tuple[StepReport, float, float]:
        strategy = scheme.strategies[position]
        sub_scheme = scheme.prefix(position + 1)
        ctx = ExecutionContext(
            original_params=self.base_params,
            pretrain_epochs=self.pretrain_epochs,
            train_enabled=False,
            seed=self.seed + stable_hash(sub_scheme.identifier) % 100_000,
        )
        # Every method's report counts the parameters before and after it.
        report = strategy.method.apply(model, strategy.hp, ctx)
        pr_before = (self.base_params - report.params_before) / self.base_params
        pr_after = (self.base_params - report.params_after) / self.base_params
        ft_norm = float(strategy.hp.get("HP1", strategy.hp.get("HP9", 0.0)))
        step_rng = np.random.default_rng(
            (self.seed * 1_000_003 + stable_hash(sub_scheme.identifier)) % (2 ** 63)
        )
        accuracy, _ = self.accuracy_model.step(
            accuracy,
            pr_before,
            pr_after,
            strategy.method_label,
            strategy.hp,
            ft_norm,
            previous_methods=tuple(
                step.method_label for step in scheme.strategies[:position]
            ),
            rng=step_rng,
        )
        # Cost proxy: training FLOPs scale roughly with the remaining
        # parameter fraction.  It stays a proxy, not the graph count,
        # because charged step costs are pinned in the surrogate goldens.
        flops_g = (self.base_flops / 1e9) * (report.params_after / self.base_params)
        return report, _step_cost(report, flops_g, self.data_fraction), accuracy

    # The surrogate carries accuracy in percent, snapshots included.
    def _initial_accuracy(self) -> float:
        return self.accuracy_model.baseline

    def _final_accuracy(self, model: Module, carried: float) -> Tuple[float, float]:
        return carried / 100.0, carried
