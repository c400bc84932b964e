"""Design-choice ablations beyond the paper's §4.5 (DESIGN.md inventory).

The paper ablates its *components* (knowledge graph, experience, space,
search strategy); these benches ablate our *implementation decisions* on
Exp1 with a shared reduced budget:

* ``no-warmstart``   — F_mo starts cold instead of pre-trained on experience;
* ``no-stratified``  — H_sub sampling is pure Pareto/crowding (no PR strata);
* ``no-feasible``    — ParetoO selection drops the feasible-band bias.

Expectation (soft, noise-tolerant): the full configuration is at least as
good as each ablated one on best feasible accuracy, and the feasible-band
variants keep the ~40 block populated.
"""

from dataclasses import replace

import pytest

from repro.experiments.common import pick_block, run_algorithm

from .conftest import write_report

_BUDGET = 15.0  # half the main-bench budget: 4 extra searches


@pytest.fixture(scope="module")
def design_runs(config):
    reduced = replace(config, budget_hours=_BUDGET)
    progressive = reduced.progressive_config()
    # Solver options: AutoMC fills in ``config`` and ``experience`` only
    # where these leave them out.
    variants = {
        "full": None,
        "no-warmstart": {"experience": None},
        "no-stratified": {"config": replace(progressive, stratified_sampling=False)},
        "no-feasible": {"config": replace(progressive, feasible_bias=False)},
    }
    return {
        name: run_algorithm("progressive", "Exp1", reduced, solver_kwargs=solver_kwargs)
        for name, solver_kwargs in variants.items()
    }


def _best_feasible(run):
    best = run.best
    return best.accuracy if best else 0.0


def test_design_ablation_report(benchmark, design_runs):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = ["Design ablations (Exp1, reduced budget) — best feasible accuracy"]
    for name, run in design_runs.items():
        b40 = pick_block(run.all_results, 0.30, 0.55, fallback=False)
        lines.append(
            f"  {name:<14s} best {100 * _best_feasible(run):6.2f}%  "
            f"~40-block {'populated' if b40 else 'EMPTY':<10s} "
            f"({run.evaluations} evals)"
        )
    write_report("design_ablations.txt", "\n".join(lines))


def test_full_config_not_dominated(benchmark, design_runs):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    full = _best_feasible(design_runs["full"])
    losses = sum(
        1
        for name, run in design_runs.items()
        if name != "full" and _best_feasible(run) > full + 0.004
    )
    assert losses <= 1, "full configuration beaten by >1 ablations"


def test_feasible_bias_populates_target_band(benchmark, design_runs):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    full40 = pick_block(design_runs["full"].all_results, 0.30, 0.55, fallback=False)
    assert full40 is not None, "full config left the ~40 band empty"
