"""Shared search-strategy infrastructure: results, trajectories, base class.

Every search algorithm (AutoMC's progressive search and the RL / EA / Random
baselines) consumes an :class:`~repro.core.interface.Evaluator` (a bare
backend or a batched :class:`~repro.core.engine.EvaluationEngine`) and a
:class:`~repro.space.strategy.StrategySpace`, runs until its simulated
GPU-hour budget is exhausted, and produces a :class:`SearchResult` with the
Pareto-optimal schemes and a trajectory for the Figure 4/5 plots.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from typing import List, Optional

import numpy as np

from ..analysis.linter import QUANTIZING_METHODS
from ..obs import NULL_TRACER
from ..space.scheme import CompressionScheme
from ..space.strategy import StrategySpace
from .evaluator import EvaluationResult
from .interface import Evaluator
from .pareto import hypervolume_2d


@dataclass
class TrajectoryPoint:
    """One snapshot of search progress (for Figures 4 and 5)."""

    cost: float                 # simulated GPU-hours spent so far
    evaluations: int            # schemes evaluated so far
    best_accuracy: float        # best accuracy among schemes with PR >= gamma
    best_ar: float              # its AR
    hypervolume: float          # HV of the (AR, PR) front vs (-1, 0)
    front_size: int


@dataclass
class SearchResult:
    """Outcome of one search run."""

    algorithm: str
    pareto: List[EvaluationResult]          # Pareto schemes with PR >= gamma
    front: List[EvaluationResult]           # unconstrained Pareto front
    trajectory: List[TrajectoryPoint]
    total_cost: float
    evaluations: int
    gamma: float
    all_results: List[EvaluationResult] = field(default_factory=list)
    #: populated by harnesses running behind an EvaluationEngine
    #: (cache_hits / fresh_evaluations / workers)
    engine_stats: Optional[dict] = None
    #: wall-clock seconds from the first trajectory snapshot to finish()
    wall_seconds: float = 0.0
    #: metrics snapshot from the attached tracer (None when tracing is off)
    obs: Optional[dict] = None
    #: registry name of the solver that produced this result (repro.core.solver)
    solver: Optional[str] = None
    #: completed propose/observe rounds
    rounds: int = 0
    #: driver-gate accounting: proposals / budget-pruned / evaluated counts
    solver_stats: Optional[dict] = None

    @property
    def best(self) -> Optional[EvaluationResult]:
        """Pareto scheme with the highest accuracy (the paper's headline pick)."""
        if not self.pareto:
            return None
        return max(self.pareto, key=lambda r: r.accuracy)

    def summary(self) -> str:
        best = self.best
        head = f"{self.algorithm}: {self.evaluations} evals, {self.total_cost:.1f} sim-h"
        extras = []
        if self.solver is not None:
            extras.append(f"solver={self.solver}")
            extras.append(f"{self.rounds} rounds")
        stats = self.solver_stats or {}
        if stats.get("proposals_pruned"):
            extras.append(
                f"{stats['proposals_pruned']}/{stats['proposals_total']} "
                f"proposals budget-pruned"
            )
        engine = self.engine_stats or {}
        if engine.get("cache_hits"):
            extras.append(f"{engine['cache_hits']} cache hits")
        if engine.get("snapshot_hits"):
            extras.append(f"{engine['snapshot_hits']} snapshot hits")
        ws_peak = (self.obs or {}).get("gauges", {}).get("nn.workspace_bytes_peak")
        if ws_peak:
            extras.append(f"ws peak {ws_peak / 1024.0:.0f} KiB")
        if extras:
            head += " [" + ", ".join(extras) + "]"
        if best is None:
            return head + " — no scheme met the PR target"
        tail = head + f" | best: {best}"
        if best.latency_ms > 0.0:
            tail += f" @ {best.latency_ms:.2f} ms/batch"
        return tail


class SearchStrategy:
    """The search state a :class:`~repro.core.solver.Solver` drives: budget,
    static feasibility gate, trajectory recording and the final result."""

    name = "base"

    def __init__(
        self,
        evaluator: Evaluator,
        space: StrategySpace,
        gamma: float = 0.3,
        budget_hours: float = 24.0,
        max_length: int = 5,
        seed: int = 0,
        tracer=None,
    ):
        self.evaluator = evaluator
        self.space = space
        self.gamma = gamma
        self.budget_hours = budget_hours
        self.max_length = max_length
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.trajectory: List[TrajectoryPoint] = []
        # Observability: inherit the evaluator's tracer unless given one
        # explicitly, so obs.attach_tracer(evaluator, t) before construction
        # wires the whole search.
        self.tracer = (
            tracer if tracer is not None else getattr(evaluator, "tracer", NULL_TRACER)
        )
        self._run_started: Optional[float] = None
        # incremental record() bookkeeping: results consumed so far, the
        # running Pareto front and the running best feasible result
        self._consumed = 0
        self._front: List[EvaluationResult] = []
        self._best_feasible: Optional[EvaluationResult] = None
        #: candidates dropped by the static budget filter (zero cost charged)
        self.budget_pruned = 0
        # Solver-driver accounting (repro.core.solver): every non-empty
        # proposal is either pruned by the static budget gate at zero cost
        # or submitted for evaluation, so for every registered solver
        # proposals_total == proposals_pruned + evaluated_proposals.
        self.solver_name: Optional[str] = None
        self.rounds_completed = 0
        self.proposals_total = 0
        self.proposals_pruned = 0
        self.evaluated_proposals = 0

    # ------------------------------------------------------------------ #
    def budget_left(self) -> float:
        return self.budget_hours - self.evaluator.total_cost

    def feasible(self, scheme: CompressionScheme) -> bool:
        """Static budget-feasibility of ``scheme`` (free, pre-evaluation).

        Delegates to the evaluator's cost model when it has one; evaluators
        outside the core backends (e.g. test doubles) simply accept all
        schemes.  Infeasible candidates are counted in ``budget_pruned``.
        """
        check = getattr(self.evaluator, "is_feasible", None)
        if check is None or check(scheme):
            return True
        self.budget_pruned += 1
        return False

    def _absorb(self, result: EvaluationResult) -> None:
        """Fold one new result into the incremental front / best-feasible."""
        if result.scheme.is_empty:
            return
        if result.meets_target(self.gamma) and (
            self._best_feasible is None
            or result.accuracy > self._best_feasible.accuracy
        ):
            self._best_feasible = result
        point = result.objectives
        for kept in self._front:
            other = kept.objectives
            # strict domination, same semantics as pareto.pareto_mask:
            # equal objective vectors both survive
            if np.all(other >= point) and np.any(other > point):
                return
        self._front = [
            kept
            for kept in self._front
            if not (np.all(point >= kept.objectives) and np.any(point > kept.objectives))
        ]
        self._front.append(result)

    def record(self) -> TrajectoryPoint:
        """Append a trajectory snapshot from the evaluator's history.

        Incremental: only results added to the evaluator since the previous
        snapshot are scanned, and the Pareto front / hypervolume / best
        feasible scheme are maintained as running state — ``record()`` cost
        no longer grows with the full evaluation history.  (Dominated points
        contribute nothing to the hypervolume, so front-only HV equals
        full-history HV.)
        """
        if self._run_started is None:
            self._run_started = time.perf_counter()
        new = list(islice(self.evaluator.results.values(), self._consumed, None))
        self._consumed += len(new)
        for result in new:
            self._absorb(result)
        if self._best_feasible is not None:
            best_accuracy = self._best_feasible.accuracy
            best_ar = self._best_feasible.ar
        else:
            best_accuracy, best_ar = 0.0, -1.0
        if self._front:
            points = np.stack([r.objectives for r in self._front])
            hv = hypervolume_2d(points, (-1.0, 0.0))
        else:
            hv = 0.0
        point = TrajectoryPoint(
            cost=self.evaluator.total_cost,
            evaluations=self.evaluator.evaluation_count,
            best_accuracy=best_accuracy,
            best_ar=best_ar,
            hypervolume=hv,
            front_size=len(self._front),
        )
        self.trajectory.append(point)
        tracer = self.tracer
        tracer.event(
            "search.trajectory",
            cost=point.cost,
            evaluations=point.evaluations,
            best_accuracy=point.best_accuracy,
            best_ar=point.best_ar,
            hypervolume=point.hypervolume,
            front_size=point.front_size,
        )
        metrics = tracer.metrics
        metrics.gauge("search.front_size").set(point.front_size)
        metrics.gauge("search.hypervolume").set(point.hypervolume)
        metrics.gauge("search.best_accuracy").set(point.best_accuracy)
        metrics.gauge("search.total_cost").set(point.cost)
        metrics.gauge("search.evaluations").set(point.evaluations)
        return point

    def finish(self) -> SearchResult:
        tracer = self.tracer
        return SearchResult(
            algorithm=self.name,
            pareto=self.evaluator.pareto_results(self.gamma),
            front=self.evaluator.pareto_results(None),
            trajectory=self.trajectory,
            total_cost=self.evaluator.total_cost,
            evaluations=self.evaluator.evaluation_count,
            gamma=self.gamma,
            all_results=[
                r for r in self.evaluator.results.values() if not r.scheme.is_empty
            ],
            wall_seconds=(
                time.perf_counter() - self._run_started if self._run_started else 0.0
            ),
            obs=tracer.metrics.snapshot() if tracer.enabled else None,
            solver=self.solver_name,
            rounds=self.rounds_completed,
            solver_stats=(
                {
                    "proposals_total": self.proposals_total,
                    "proposals_pruned": self.proposals_pruned,
                    "evaluated_proposals": self.evaluated_proposals,
                    "budget_pruned": self.budget_pruned,
                }
                if self.solver_name is not None
                else None
            ),
        )

    # ------------------------------------------------------------------ #
    def random_scheme(self, max_pr: float = 0.9) -> CompressionScheme:
        """A random scheme of length 1..max_length within the nominal budget.

        Draws that would overshoot the budget or quantize a second time (the
        linter's L009) are skipped, up to 20 tries per step.
        """
        length = int(self.rng.integers(1, self.max_length + 1))
        scheme = CompressionScheme()
        quantized = False
        for _ in range(length):
            for _ in range(20):
                strategy = self.space[int(self.rng.integers(0, len(self.space)))]
                quantizing = strategy.method_label in QUANTIZING_METHODS
                if quantized and quantizing:
                    continue
                if scheme.total_param_step + strategy.param_step <= max_pr:
                    scheme = scheme.extend(strategy)
                    quantized = quantized or quantizing
                    break
        return scheme
