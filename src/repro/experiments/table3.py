"""Table 3 reproduction — the §4.4 transfer study.

Schemes searched on ResNet-56/CIFAR-10 are re-applied, unchanged, to
ResNet-20 and ResNet-164; schemes from VGG-16/CIFAR-100 go to VGG-13 and
VGG-19.  Human methods are grid-searched directly on every target model at
the 40% target.  Each cell reports PR / FR / Acc, like the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..baselines.grid import run_all_human_methods
from ..core.evaluator import EvaluationResult
from ..space.scheme import CompressionScheme
from .common import (
    EXPERIMENTS,
    TRANSFER_MODELS,
    ExperimentConfig,
    pick_block,
    run_algorithm,
    transfer_evaluator,
)
from .table2 import (
    AUTOML_ALGORITHMS,
    AUTOML_SOLVERS,
    HUMAN_METHODS,
    HUMAN_NAMES,
    Table2Result,
)


@dataclass
class Table3Cell:
    algorithm: str
    model: str
    experiment: str
    result: Optional[EvaluationResult]

    def format(self) -> str:
        if self.result is None:
            return "      --       "
        r = self.result
        return f"{100*r.pr:5.2f}/{100*r.fr:5.2f}/{100*r.accuracy:5.2f}"


@dataclass
class Table3Result:
    cells: List[Table3Cell] = field(default_factory=list)

    def lookup(self, algorithm: str, model: str) -> Optional[EvaluationResult]:
        for cell in self.cells:
            if (cell.algorithm, cell.model) == (algorithm, model):
                return cell.result
        return None

    def format(self) -> str:
        models = TRANSFER_MODELS["Exp1"] + TRANSFER_MODELS["Exp2"]
        algorithms = [HUMAN_NAMES[m] for m in HUMAN_METHODS] + list(AUTOML_ALGORITHMS)
        lines = [
            "Table 3 — transfer study, target PR 40% (PR% / FR% / Acc%)",
            f"{'Algorithm':<12s}" + "".join(f"{m:>20s}" for m in models),
        ]
        for algorithm in algorithms:
            row = f"{algorithm:<12s}"
            for model in models:
                found = next(
                    (c for c in self.cells if c.algorithm == algorithm and c.model == model),
                    None,
                )
                row += f"{found.format() if found else '--':>20s}"
            lines.append(row)
        return "\n".join(lines)


def run_table3(
    config: Optional[ExperimentConfig] = None,
    table2: Optional[Table2Result] = None,
) -> Table3Result:
    """Regenerate Table 3, reusing Table 2's search runs when provided."""
    config = config or ExperimentConfig()
    table = Table3Result()

    for exp_name in EXPERIMENTS:
        # Headline scheme per AutoML algorithm on the source model.
        schemes: Dict[str, Optional[CompressionScheme]] = {}
        for solver, algorithm in zip(AUTOML_SOLVERS, AUTOML_ALGORITHMS):
            if table2 is not None and algorithm in table2.search_results.get(exp_name, {}):
                search = table2.search_results[exp_name][algorithm]
            else:
                search = run_algorithm(solver, exp_name, config)
            chosen = pick_block(search.all_results, 0.30, 0.55) or pick_block(
                search.all_results, 0.30, 0.95
            )
            schemes[algorithm] = chosen.scheme if chosen else None

        for model_name in TRANSFER_MODELS[exp_name]:
            evaluator = transfer_evaluator(exp_name, model_name, seed=config.seed)
            # Human methods: grid-searched directly on the target model.
            for outcome in run_all_human_methods(
                evaluator,
                0.4,
                method_labels=HUMAN_METHODS,
                max_evaluations_per_method=config.grid_evals_per_method,
            ):
                table.cells.append(
                    Table3Cell(
                        algorithm=HUMAN_NAMES[outcome.method_label],
                        model=model_name,
                        experiment=exp_name,
                        result=outcome.best,
                    )
                )
            # AutoML schemes: transferred verbatim.
            for algorithm, scheme in schemes.items():
                result = evaluator.evaluate(scheme) if scheme is not None else None
                table.cells.append(
                    Table3Cell(
                        algorithm=algorithm,
                        model=model_name,
                        experiment=exp_name,
                        result=result,
                    )
                )
    return table
