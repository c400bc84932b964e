"""Figure 5 reproduction — ablation study (§4.5).

Runs AutoMC and its four variants on Exp1 and Exp2 under the shared budget
and reports each variant's trajectory and final Pareto front.  Each variant
is an :class:`~repro.core.api.AutoMC` configuration that differs from the
full algorithm in one component:

========================  ====================================================
AutoMC                    the full algorithm
AutoMC-KG                 no knowledge-graph embedding (random init + NN_exp)
AutoMC-NNexp              no experience: neither NN_exp nor the F_mo warm start
AutoMC-MultipleSource     search space restricted to LeGR (C2) strategies
AutoMC-ProgressiveSearch  RL controller instead of the progressive strategy
========================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..core.search import SearchResult
from ..space.strategy import StrategySpace
from .common import EXPERIMENTS, ExperimentConfig, run_algorithm
from .plotting import ascii_scatter

#: variant -> how it differs from the full algorithm: the solver, the methods
#: of its space, ``EmbeddingConfig`` overrides and solver options.  ``AutoMC``
#: only sets the F_mo warm start's experience when it is not given, so
#: ``experience=None`` switches the warm start off.
VARIANT_TABLE: Dict[str, dict] = {
    "AutoMC": {},
    "AutoMC-KG": {"embedding": {"use_kg": False}},
    "AutoMC-NNexp": {
        "embedding": {"use_experience": False},
        "solver_kwargs": {"experience": None},
    },
    "AutoMC-MultipleSource": {"methods": ["C2"]},
    "AutoMC-ProgressiveSearch": {"solver": "rl"},
}

VARIANTS = tuple(VARIANT_TABLE)


def run_variant(variant: str, exp_name: str, config: ExperimentConfig) -> SearchResult:
    """One §4.5 variant's search on Exp1/Exp2, through :func:`run_algorithm`."""
    if variant not in VARIANT_TABLE:
        raise KeyError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    row = VARIANT_TABLE[variant]
    methods = row.get("methods")
    return run_algorithm(
        row.get("solver", "progressive"),
        exp_name,
        config,
        space=StrategySpace(method_labels=methods) if methods else None,
        embedding_config=replace(config.embedding_config(), **row.get("embedding", {})),
        solver_kwargs=row.get("solver_kwargs"),
    )


@dataclass
class Figure5Series:
    experiment: str
    variant: str
    best_accuracy: float       # best feasible accuracy at the end (fraction)
    hypervolume: float
    front: List[Tuple[float, float]]  # (PR%, Acc%)


@dataclass
class Figure5Result:
    series: List[Figure5Series] = field(default_factory=list)
    searches: Dict[str, Dict[str, SearchResult]] = field(default_factory=dict)

    def of(self, experiment: str, variant: str) -> Optional[Figure5Series]:
        for s in self.series:
            if (s.experiment, s.variant) == (experiment, variant):
                return s
        return None

    def format(self) -> str:
        lines = ["Figure 5 — ablation study Pareto results"]
        for exp_name in EXPERIMENTS:
            lines.append("")
            lines.append(f"== {exp_name} ==")
            lines.append(f"{'variant':<26s}{'best acc(%)':>12s}{'hypervolume':>13s}{'front':>7s}")
            for s in self.series:
                if s.experiment != exp_name:
                    continue
                lines.append(
                    f"{s.variant:<26s}{100 * s.best_accuracy:>12.2f}"
                    f"{s.hypervolume:>13.4f}{len(s.front):>7d}"
                )
            front_series = {
                s.variant: s.front for s in self.series if s.experiment == exp_name
            }
            lines.append("")
            lines.append(ascii_scatter(front_series, x_label="PR (%)", y_label="Acc (%)"))
        return "\n".join(lines)


def run_figure5(config: Optional[ExperimentConfig] = None) -> Figure5Result:
    """Regenerate Figure 5's data (5 variants x 2 experiments)."""
    config = config or ExperimentConfig()
    figure = Figure5Result()
    for exp_name in EXPERIMENTS:
        figure.searches[exp_name] = {}
        for variant in VARIANTS:
            search = run_variant(variant, exp_name, config)
            figure.searches[exp_name][variant] = search
            last = search.trajectory[-1] if search.trajectory else None
            figure.series.append(
                Figure5Series(
                    experiment=exp_name,
                    variant=variant,
                    best_accuracy=last.best_accuracy if last else 0.0,
                    hypervolume=last.hypervolume if last else 0.0,
                    front=[(100 * r.pr, 100 * r.accuracy) for r in search.front],
                )
            )
    return figure
