"""Shared plumbing for the Table/Figure reproduction harnesses.

Each experiment gets a fresh :class:`SurrogateEvaluator` per algorithm so
simulated budgets are independent (the paper "controls the running time of
each AutoML algorithm to be the same").  ``ExperimentConfig`` concentrates
the knobs benchmarks use to trade fidelity for runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.costmodel import Budget
from ..core.api import AutoMC
from ..core.config import EvaluatorConfig
from ..core.evaluator import EvaluationResult, SurrogateEvaluator
from ..core.progressive import ProgressiveConfig
from ..core.search import SearchResult
from ..obs import RunJournal, Tracer
from ..data.tasks import EXP1, EXP2, CompressionTask, transfer_task
from ..knowledge.embedding import EmbeddingConfig
from ..models import create_model
from ..space.strategy import StrategySpace


@dataclass
class ExperimentConfig:
    """Runtime/fidelity knobs shared by all experiment harnesses."""

    budget_hours: float = 30.0        # simulated GPU-hours per algorithm
    grid_evals_per_method: int = 48   # human-baseline grid-search cap
    embedding_rounds: int = 2
    transr_epochs_per_round: int = 2
    nn_exp_epochs_per_round: int = 15
    sample_size: int = 8
    evals_per_round: int = 8
    candidate_subsample: int = 4230   # score the full strategy space
    seed: int = 0
    workers: int = 0                  # evaluation worker processes (0 = serial)
    cache_dir: Optional[str] = None   # persistent cross-run result cache
    snapshot_dir: Optional[str] = None  # shared prefix-model snapshot store
    snapshot_budget_mb: Optional[float] = None  # store size cap (default 256)
    journal: Optional[str] = None     # JSONL run-journal path (repro.obs)
    # Static budget constraints (repro.analysis.costmodel) — candidates the
    # abstract interpreter proves over budget are rejected before any
    # evaluation cost is charged.
    max_params: Optional[int] = None      # S001: post-scheme parameter cap
    max_flops: Optional[int] = None       # S002: post-scheme FLOPs cap
    max_act_mem: Optional[int] = None     # S003: peak activation bytes cap
    max_latency_ms: Optional[float] = None  # S004: latency-proxy cap
    max_weight_mem: Optional[int] = None  # S005: weight storage bytes cap
    # Measured latency: batch size for the wall-clock inference timing
    # attached to each result (None disables the extra column).
    latency_batch: Optional[int] = None

    def budget(self) -> Optional[Budget]:
        """The static :class:`Budget`, or ``None`` when no cap is set."""
        budget = Budget(
            max_params=self.max_params,
            max_flops=self.max_flops,
            max_act_mem=self.max_act_mem,
            max_latency_ms=self.max_latency_ms,
            max_weight_mem=self.max_weight_mem,
        )
        return None if budget.is_null else budget

    def embedding_config(self) -> EmbeddingConfig:
        return EmbeddingConfig(
            rounds=self.embedding_rounds,
            transr_epochs_per_round=self.transr_epochs_per_round,
            nn_exp_epochs_per_round=self.nn_exp_epochs_per_round,
            seed=self.seed,
        )

    def progressive_config(self) -> ProgressiveConfig:
        return ProgressiveConfig(
            sample_size=self.sample_size,
            evals_per_round=self.evals_per_round,
            candidate_subsample=self.candidate_subsample,
        )


#: the two experiments of §4.1
EXPERIMENTS: Dict[str, Tuple[str, str, CompressionTask]] = {
    "Exp1": ("resnet56", "cifar10", EXP1),
    "Exp2": ("vgg16", "cifar100", EXP2),
}

#: transfer targets of §4.4 (source experiment -> sibling models)
TRANSFER_MODELS: Dict[str, List[str]] = {
    "Exp1": ["resnet20", "resnet56", "resnet164"],
    "Exp2": ["vgg13", "vgg16", "vgg19"],
}


def make_evaluator(
    model_name: str,
    dataset_name: str,
    task: CompressionTask,
    seed: int = 0,
    latency_batch: Optional[int] = None,
) -> SurrogateEvaluator:
    """A fresh paper-scale evaluator for one (model, dataset) task."""
    return SurrogateEvaluator(
        lambda: create_model(model_name, num_classes=task.num_classes),
        model_name,
        dataset_name,
        task,
        config=EvaluatorConfig(seed=seed, latency_batch=latency_batch),
    )


def transfer_evaluator(exp_name: str, model_name: str, seed: int = 0) -> SurrogateEvaluator:
    """Evaluator for a §4.4 transfer target model on the source dataset."""
    source_model, dataset_name, source_task = EXPERIMENTS[exp_name]
    task = transfer_task(source_task, model_name, 0.0, 0.0, source_task.model_accuracy)
    return make_evaluator(model_name, dataset_name, task, seed=seed)


def run_algorithm(
    name: str,
    exp_name: str,
    config: ExperimentConfig,
    space: Optional[StrategySpace] = None,
    embedding_config: Optional[EmbeddingConfig] = None,
    solver_kwargs: Optional[dict] = None,
) -> SearchResult:
    """Run one solver on Exp1/Exp2 under the shared budget, through :class:`AutoMC`.

    ``name`` is a solver registry name (``progressive``, ``random``,
    ``evolution``, ``grid``, ``rl``, ``sa``, ``regevo``, ``amc``).
    ``space``, ``embedding_config`` (default ``config.embedding_config()``)
    and ``solver_kwargs`` pass through to :class:`AutoMC`; the §4.5
    ablation variants of :mod:`repro.experiments.figure5` are built from them.

    With ``config.workers`` / ``config.cache_dir`` set, the evaluator is
    wrapped in an :class:`~repro.core.engine.EvaluationEngine` — candidate
    batches fan out across worker processes and/or persist to the cross-run
    disk cache.  With ``config.journal`` set, the whole run streams
    spans/events to a JSONL journal (summarise with ``repro trace
    summarize``, which groups multiple journals by their solver name).
    """
    model_name, dataset_name, task = EXPERIMENTS[exp_name]
    evaluator = make_evaluator(
        model_name, dataset_name, task,
        seed=config.seed, latency_batch=config.latency_batch,
    )
    budget = config.budget()
    if budget is not None:
        evaluator.set_budget(budget)
    tracer = None
    if config.journal is not None:
        tracer = Tracer(
            journal=RunJournal(
                config.journal,
                run={"solver": name, "experiment": exp_name, "seed": config.seed},
            )
        )
    result = AutoMC(
        evaluator,
        space=space,
        gamma=0.3,
        budget_hours=config.budget_hours,
        max_length=5,
        embedding_config=embedding_config or config.embedding_config(),
        progressive_config=config.progressive_config(),
        solver=name,
        solver_kwargs=solver_kwargs,
        seed=config.seed,
        parallelism=config.workers,
        cache_dir=config.cache_dir,
        snapshot_dir=config.snapshot_dir,
        snapshot_budget_mb=config.snapshot_budget_mb,
        trace=tracer,
    ).search()
    stats = result.engine_stats or {}
    if config.latency_batch is not None:
        stats["latency_violations"] = evaluator.latency_violations
    if budget is not None:
        # Static-analysis accounting: candidates pruned at generation
        # time, schemes the engine filtered or S-rejected, plus the
        # cost model's drift against measured (params, flops).
        stats["budget_pruned"] = result.solver_stats["budget_pruned"]
        stats["budget_filtered"] = evaluator.budget_filtered
        stats["budget_rejects"] = evaluator.budget_rejects
        stats.update(evaluator.prediction_drift())
    result.engine_stats = stats or None
    return result


def pick_block(
    results: List[EvaluationResult], low: float, high: float,
    fallback: bool = True,
) -> Optional[EvaluationResult]:
    """Best-accuracy Pareto scheme whose PR falls in [low, high).

    The paper reports AutoML rows even when the algorithm's Pareto picks
    land far from the nominal block (RL sits at PR 77 in the "~40" block of
    Table 2); with ``fallback`` the best feasible scheme with PR >= low is
    reported when the strict range is empty.
    """
    in_range = [r for r in results if low <= r.pr < high]
    if in_range:
        return max(in_range, key=lambda r: r.accuracy)
    if fallback:
        feasible = [r for r in results if r.pr >= low]
        if feasible:
            return max(feasible, key=lambda r: r.accuracy)
    return None


def format_row(
    label: str, result: Optional[EvaluationResult], base_acc: float
) -> str:
    """One Table 2-style row: Params/PR, FLOPs/FR, Acc/Inc."""
    if result is None:
        return f"{label:<12s}  (no scheme in range)"
    inc = 100 * result.accuracy - 100 * base_acc
    return (
        f"{label:<12s} {result.params / 1e6:5.2f}M /{100 * result.pr:6.2f}%   "
        f"{result.flops / 1e9:5.3f}G /{100 * result.fr:6.2f}%   "
        f"{100 * result.accuracy:5.2f} /{inc:+6.2f}"
    )
