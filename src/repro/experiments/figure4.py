"""Figure 4 reproduction — Pareto-front trajectories of the AutoML algorithms.

For Exp1 and Exp2, every algorithm runs under the same simulated budget; the
harness emits (a) the best-feasible-accuracy trajectory over simulated time
and (b) the final Pareto front points (PR%, Acc%) — the two panels of the
paper's figure, as data series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.search import SearchResult
from .common import EXPERIMENTS, ExperimentConfig, run_algorithm
from .plotting import ascii_scatter
from .table2 import AUTOML_ALGORITHMS, AUTOML_SOLVERS


@dataclass
class Figure4Series:
    experiment: str
    algorithm: str
    trajectory: List[Tuple[float, float, float]]  # (cost, best_acc%, hypervolume)
    front: List[Tuple[float, float]]  # (PR%, Acc%) of final Pareto points


@dataclass
class Figure4Result:
    series: List[Figure4Series] = field(default_factory=list)
    searches: Dict[str, Dict[str, SearchResult]] = field(default_factory=dict)

    def of(self, experiment: str, algorithm: str) -> Optional[Figure4Series]:
        for s in self.series:
            if (s.experiment, s.algorithm) == (experiment, algorithm):
                return s
        return None

    def format(self) -> str:
        lines = ["Figure 4 — Pareto-optimal results over search time"]
        for exp_name in EXPERIMENTS:
            lines.append("")
            lines.append(f"== {exp_name} ==")
            lines.append("best feasible accuracy (%) at budget fractions 25/50/75/100:")
            for s in self.series:
                if s.experiment != exp_name or not s.trajectory:
                    continue
                total = s.trajectory[-1][0] or 1.0
                samples = []
                for frac in (0.25, 0.5, 0.75, 1.0):
                    point = max(
                        (p for p in s.trajectory if p[0] <= frac * total + 1e-9),
                        key=lambda p: p[0],
                        default=s.trajectory[0],
                    )
                    samples.append(f"{100 * point[1]:6.2f}")
                lines.append(f"  {s.algorithm:<10s}" + " ".join(samples))
            lines.append("final Pareto fronts (PR%, Acc%):")
            for s in self.series:
                if s.experiment != exp_name:
                    continue
                pts = ", ".join(f"({pr:.1f}, {acc:.2f})" for pr, acc in sorted(s.front))
                lines.append(f"  {s.algorithm:<10s}{pts}")
            front_series = {
                s.algorithm: s.front for s in self.series if s.experiment == exp_name
            }
            lines.append("")
            lines.append(ascii_scatter(front_series, x_label="PR (%)", y_label="Acc (%)"))
        return "\n".join(lines)


def run_figure4(config: Optional[ExperimentConfig] = None,
                searches: Optional[Dict[str, Dict[str, SearchResult]]] = None) -> Figure4Result:
    """Regenerate Figure 4's data, optionally reusing Table 2 search runs."""
    config = config or ExperimentConfig()
    figure = Figure4Result()
    for exp_name in EXPERIMENTS:
        figure.searches[exp_name] = {}
        for solver, algorithm in zip(AUTOML_SOLVERS, AUTOML_ALGORITHMS):
            if searches is not None and algorithm in searches.get(exp_name, {}):
                search = searches[exp_name][algorithm]
            else:
                search = run_algorithm(solver, exp_name, config)
            figure.searches[exp_name][algorithm] = search
            figure.series.append(
                Figure4Series(
                    experiment=exp_name,
                    algorithm=algorithm,
                    trajectory=[
                        (p.cost, p.best_accuracy, p.hypervolume) for p in search.trajectory
                    ],
                    front=[
                        (100 * r.pr, 100 * r.accuracy) for r in search.front
                    ],
                )
            )
    return figure
