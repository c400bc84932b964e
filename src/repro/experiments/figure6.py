"""Figure 6 reproduction — the compression schemes AutoMC found.

The paper's Figure 6 lists the best scheme per experiment as a strategy
sequence with settings.  This harness runs (or reuses) the AutoMC searches
and pretty-prints each experiment's Pareto-best scheme step by step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.evaluator import EvaluationResult
from ..core.search import SearchResult
from .common import EXPERIMENTS, ExperimentConfig, run_algorithm


@dataclass
class Figure6Scheme:
    experiment: str
    result: EvaluationResult

    def format(self) -> str:
        r = self.result
        lines = [
            f"{self.experiment}: PR {100 * r.pr:.2f}%  FR {100 * r.fr:.2f}%  "
            f"Acc {100 * r.accuracy:.2f}%"
        ]
        for i, strategy in enumerate(r.scheme.strategies, 1):
            hp = ", ".join(f"{k}={v}" for k, v in strategy.hp_items)
            lines.append(f"  step {i}: {strategy.method.name:<5s} ({hp})")
        return "\n".join(lines)


@dataclass
class Figure6Result:
    schemes: List[Figure6Scheme] = field(default_factory=list)
    searches: Dict[str, SearchResult] = field(default_factory=dict)

    def format(self) -> str:
        out = ["Figure 6 — best compression schemes searched by AutoMC", ""]
        for scheme in self.schemes:
            out.append(scheme.format())
            out.append("")
        return "\n".join(out)


def run_figure6(
    config: Optional[ExperimentConfig] = None,
    searches: Optional[Dict[str, SearchResult]] = None,
) -> Figure6Result:
    """Regenerate Figure 6 (AutoMC's best schemes on Exp1 and Exp2)."""
    config = config or ExperimentConfig()
    figure = Figure6Result()
    for exp_name in EXPERIMENTS:
        if searches is not None and exp_name in searches:
            search = searches[exp_name]
        else:
            search = run_algorithm("progressive", exp_name, config)
        figure.searches[exp_name] = search
        best = search.best
        if best is not None:
            figure.schemes.append(Figure6Scheme(experiment=exp_name, result=best))
    return figure
