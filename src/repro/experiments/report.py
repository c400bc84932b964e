"""One-shot reproduction runner: every table and figure from one set of runs.

``run_full_report`` shares the expensive searches across the harnesses
(Table 2's search runs feed Table 3, Figure 4 and Figure 6) and writes all
text and JSON artifacts into a directory.  This powers
``python -m repro report``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.search import SearchResult
from .common import EXPERIMENTS, ExperimentConfig
from .export import table2_to_dict, table3_to_dict, write_json
from .figure4 import Figure4Result, run_figure4
from .figure5 import Figure5Result, run_figure5
from .figure6 import Figure6Result, run_figure6
from .paper_reference import compare_table2, format_comparison
from .table2 import Table2Result, run_table2
from .table3 import Table3Result, run_table3


@dataclass
class FullReport:
    """All regenerated artifacts from one reproduction run."""

    table2: Table2Result
    table3: Table3Result
    figure4: Figure4Result
    figure6: Figure6Result
    figure5: Optional[Figure5Result] = None
    artifacts: Dict[str, str] = field(default_factory=dict)

    def summary(self) -> str:
        lines = ["Full reproduction report"]
        for name, path in sorted(self.artifacts.items()):
            lines.append(f"  {name:<22s} -> {path}")
        return "\n".join(lines)


def format_attribution(search_results: Dict[str, Dict[str, SearchResult]]) -> str:
    """Timing / cost attribution across the shared search runs.

    One row per (experiment, algorithm): wall-clock seconds, evaluation
    count, simulated GPU-hours, and — when the run went through an
    :class:`~repro.core.engine.EvaluationEngine` — the cache-hit split.
    Runs with a static budget also report the candidates the cost model
    pruned for free and its predicted-vs-measured drift.
    """
    lines = [
        "Search attribution (wall-clock vs simulated cost)",
        "",
        f"{'experiment':<8s} {'algorithm':<10s} {'wall[s]':>9s} {'evals':>7s} "
        f"{'sim[h]':>8s} {'sec/eval':>9s} {'pruned':>7s} {'dP%':>6s} {'dF%':>6s} "
        f"{'dA%':>6s}  engine",
        "-" * 79,
    ]
    any_budget = False
    for exp_name in sorted(search_results):
        for algo in sorted(search_results[exp_name]):
            result = search_results[exp_name][algo]
            per_eval = result.wall_seconds / max(result.evaluations, 1)
            stats = result.engine_stats or {}
            if "workers" in stats:
                engine = (
                    f"{stats.get('workers', 0)}w "
                    f"{stats.get('cache_hits', 0)} cached / "
                    f"{stats.get('fresh_evaluations', 0)} fresh"
                )
            else:
                engine = "-"
            if "budget_pruned" in stats:
                any_budget = True
                # budget_filtered counts the same is_feasible refusals as
                # budget_pruned, so it is not added again
                pruned = str(stats.get("budget_pruned", 0) + stats.get("budget_rejects", 0))
                drift_p = f"{stats.get('drift_params_pct', 0.0):.2f}"
                drift_f = f"{stats.get('drift_flops_pct', 0.0):.2f}"
                drift_a = (
                    f"{stats.get('drift_act_mem_pct', 0.0):.2f}"
                    if stats.get("act_mem_evals")
                    else "-"
                )
            else:
                pruned, drift_p, drift_f, drift_a = "-", "-", "-", "-"
            lines.append(
                f"{exp_name:<8s} {algo:<10s} {result.wall_seconds:>9.2f} "
                f"{result.evaluations:>7d} {result.total_cost:>8.2f} "
                f"{per_eval:>9.4f} {pruned:>7s} {drift_p:>6s} {drift_f:>6s} "
                f"{drift_a:>6s}  {engine}"
            )
    lines.append("")
    lines.append(
        "sec/eval = wall-clock per evaluated scheme; sim[h] is the simulated "
        "GPU-hour budget actually charged (Evaluator.total_cost)."
    )
    if any_budget:
        lines.append(
            "pruned = candidates eliminated by the static cost model at zero "
            "cost; dP%/dF% = mean absolute predicted-vs-measured drift of the "
            "cost model on evaluated schemes (params / FLOPs); dA% = drift of "
            "the predicted activation memory vs the measured kernel-workspace "
            "peak during the latency probe."
        )
    return "\n".join(lines)


def run_full_report(
    config: Optional[ExperimentConfig] = None,
    output_dir: str = "reports",
    include_ablations: bool = False,
) -> FullReport:
    """Regenerate Tables 2-3 and Figures 4/6 (plus 5 when requested).

    Search runs are shared: the four algorithms run once per experiment and
    every downstream harness reads those results.  Ablations (Figure 5) are
    opt-in because they add ten more searches.
    """
    config = config or ExperimentConfig()
    os.makedirs(output_dir, exist_ok=True)

    table2 = run_table2(config)
    table3 = run_table3(config, table2=table2)
    figure4 = run_figure4(config, searches=table2.search_results)
    figure6 = run_figure6(
        config,
        searches={exp: table2.search_results[exp]["AutoMC"] for exp in EXPERIMENTS},
    )
    figure5 = run_figure5(config) if include_ablations else None

    report = FullReport(
        table2=table2, table3=table3, figure4=figure4, figure6=figure6,
        figure5=figure5,
    )

    def emit(name: str, text: str) -> None:
        path = os.path.join(output_dir, name)
        with open(path, "w") as handle:
            handle.write(text + "\n")
        report.artifacts[name] = path

    emit("table2.txt", table2.format())
    emit("table2_vs_paper.txt", format_comparison(compare_table2(table2)))
    emit("table3.txt", table3.format())
    emit("figure4.txt", figure4.format())
    emit("figure6.txt", figure6.format())
    emit("attribution.txt", format_attribution(table2.search_results))
    if figure5 is not None:
        emit("figure5.txt", figure5.format())

    write_json(table2_to_dict(table2), os.path.join(output_dir, "table2.json"))
    report.artifacts["table2.json"] = os.path.join(output_dir, "table2.json")
    write_json(table3_to_dict(table3), os.path.join(output_dir, "table3.json"))
    report.artifacts["table3.json"] = os.path.join(output_dir, "table3.json")
    return report
