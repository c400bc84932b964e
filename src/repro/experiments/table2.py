"""Table 2 reproduction — compression results on Exp1 and Exp2.

For each experiment, two PR blocks (≈40 and ≈70):

* six human methods, grid-searched at the exact target (0.4 / 0.7);
* four AutoML algorithms (AutoMC / Evolution / RL / Random) run once under
  the shared budget; the ≈40 row picks each algorithm's best-accuracy Pareto
  scheme with PR in [0.30, 0.55), the ≈70 row the best with PR in
  [0.55, 0.90).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..baselines.grid import run_all_human_methods
from ..core.evaluator import EvaluationResult
from ..core.search import SearchResult
from ..core.solver import get_solver
from .common import (
    EXPERIMENTS,
    ExperimentConfig,
    format_row,
    make_evaluator,
    pick_block,
    run_algorithm,
)

HUMAN_METHODS = ("C1", "C2", "C3", "C4", "C5", "C6")
HUMAN_NAMES = {"C1": "LMA", "C2": "LeGR", "C3": "NS", "C4": "SFP", "C5": "HOS", "C6": "LFB"}
#: the four AutoML solvers, by registry name
AUTOML_SOLVERS = ("evolution", "progressive", "rl", "random")
#: their row labels: the registered ``SearchResult.algorithm`` names
AUTOML_ALGORITHMS = tuple(get_solver(name).label for name in AUTOML_SOLVERS)
BLOCKS = {"~40": (0.30, 0.55, 0.4), "~70": (0.55, 0.90, 0.7)}


@dataclass
class Table2Row:
    block: str
    experiment: str
    algorithm: str
    result: Optional[EvaluationResult]


@dataclass
class Table2Result:
    rows: List[Table2Row] = field(default_factory=list)
    search_results: Dict[str, Dict[str, SearchResult]] = field(default_factory=dict)
    base: Dict[str, EvaluationResult] = field(default_factory=dict)

    def lookup(self, experiment: str, block: str, algorithm: str) -> Optional[EvaluationResult]:
        for row in self.rows:
            if (row.experiment, row.block, row.algorithm) == (experiment, block, algorithm):
                return row.result
        return None

    def format(self) -> str:
        lines = ["Table 2 — compression results (reproduction)"]
        for exp_name in EXPERIMENTS:
            model, dataset, _ = EXPERIMENTS[exp_name]
            base = self.base[exp_name]
            lines.append("")
            lines.append(f"== {exp_name}: {model} on {dataset} ==")
            lines.append(
                f"{'PR(%)':<6s}{'Algorithm':<13s}{'Params(M)/PR(%)':<20s}"
                f"{'FLOPs(G)/FR(%)':<20s}{'Acc./Inc.(%)'}"
            )
            lines.append("      " + format_row("baseline", base, base.base_accuracy))
            for block in BLOCKS:
                for row in self.rows:
                    if row.experiment == exp_name and row.block == block:
                        lines.append(
                            f"{block:<6s}"
                            + format_row(row.algorithm, row.result, base.accuracy)
                        )
        return "\n".join(lines)


def run_table2(config: Optional[ExperimentConfig] = None) -> Table2Result:
    """Regenerate Table 2 (both experiments, both PR blocks)."""
    config = config or ExperimentConfig()
    table = Table2Result()

    for exp_name, (model_name, dataset_name, task) in EXPERIMENTS.items():
        base_eval = make_evaluator(model_name, dataset_name, task, seed=config.seed)
        from ..space.scheme import CompressionScheme

        table.base[exp_name] = base_eval.evaluate(CompressionScheme())

        # Human methods, grid-searched at each exact target.
        for block, (_, __, target) in BLOCKS.items():
            outcomes = run_all_human_methods(
                base_eval,
                target,
                method_labels=HUMAN_METHODS,
                max_evaluations_per_method=config.grid_evals_per_method,
            )
            for outcome in outcomes:
                table.rows.append(
                    Table2Row(
                        block=block,
                        experiment=exp_name,
                        algorithm=HUMAN_NAMES[outcome.method_label],
                        result=outcome.best,
                    )
                )

        # AutoML algorithms, one budgeted run each; both blocks read from
        # the same run's Pareto front.
        table.search_results[exp_name] = {}
        for solver in AUTOML_SOLVERS:
            search = run_algorithm(solver, exp_name, config)
            table.search_results[exp_name][search.algorithm] = search
            for block, (low, high, _) in BLOCKS.items():
                table.rows.append(
                    Table2Row(
                        block=block,
                        experiment=exp_name,
                        algorithm=search.algorithm,
                        result=pick_block(search.all_results, low, high),
                    )
                )
    return table
