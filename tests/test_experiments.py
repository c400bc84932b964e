"""Smoke tests for the Table/Figure harnesses (tiny budgets).

These verify structure and plumbing — the real shape checks run in
``benchmarks/`` with larger budgets.
"""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    run_figure4,
    run_figure5,
    run_figure6,
    run_table2,
    run_table3,
)
from repro.experiments.common import run_algorithm
from repro.experiments.figure5 import VARIANTS
from repro.experiments.table2 import AUTOML_ALGORITHMS, HUMAN_NAMES
from repro.knowledge.embedding import EmbeddingConfig

TINY = ExperimentConfig(
    budget_hours=0.6,
    grid_evals_per_method=2,
    embedding_rounds=1,
    transr_epochs_per_round=1,
    nn_exp_epochs_per_round=3,
    sample_size=2,
    evals_per_round=2,
    candidate_subsample=48,
    seed=0,
)


@pytest.fixture(scope="module")
def table2():
    return run_table2(TINY)


@pytest.fixture(scope="module")
def figure5():
    return run_figure5(TINY)


def _outcome(search) -> dict:
    """What a search evaluated, charged and found, exactly."""
    return {
        "evaluated": [r.scheme.identifier for r in search.all_results],
        "total_cost": search.total_cost,
        "evaluations": search.evaluations,
        "front": [(r.scheme.identifier, r.params, r.flops, r.accuracy) for r in search.front],
        "trajectory": [
            (p.cost, p.evaluations, p.best_accuracy, p.hypervolume) for p in search.trajectory
        ],
    }


class TestTable2:
    def test_all_rows_present(self, table2):
        algorithms = set(HUMAN_NAMES.values()) | set(AUTOML_ALGORITHMS)
        for exp in EXPERIMENTS:
            for block in ("~40", "~70"):
                present = {
                    row.algorithm
                    for row in table2.rows
                    if row.experiment == exp and row.block == block
                }
                assert present == algorithms

    def test_human_rows_near_targets(self, table2):
        for row in table2.rows:
            if row.algorithm in HUMAN_NAMES.values() and row.result is not None:
                target = 0.4 if row.block == "~40" else 0.7
                if row.algorithm == "LFB":
                    # LFB's factorisation savings saturate below deep targets
                    # (the paper's own Table 2 has LFB at PR 57.4 in the ~70
                    # block on VGG-16).
                    assert row.result.pr >= target - 0.25
                else:
                    assert row.result.pr == pytest.approx(target, abs=0.12)

    def test_format_is_printable(self, table2):
        text = table2.format()
        assert "Exp1" in text and "Exp2" in text and "baseline" in text

    def test_baselines_match_calibration(self, table2):
        assert table2.base["Exp1"].accuracy == pytest.approx(0.9104, abs=1e-6)
        assert table2.base["Exp2"].accuracy == pytest.approx(0.7003, abs=1e-6)


class TestTable3:
    def test_structure(self, table2):
        table3 = run_table3(TINY, table2=table2)
        models = {c.model for c in table3.cells}
        assert models == {"resnet20", "resnet56", "resnet164", "vgg13", "vgg16", "vgg19"}
        text = table3.format()
        assert "Table 3" in text

    def test_human_cells_on_every_model(self, table2):
        table3 = run_table3(TINY, table2=table2)
        for model in ("resnet20", "vgg19"):
            cells = [c for c in table3.cells if c.model == model and c.result]
            assert len(cells) >= 6  # six human methods at least


class TestFigures:
    def test_figure4_series(self, table2):
        fig = run_figure4(TINY, searches=table2.search_results)
        assert len(fig.series) == len(EXPERIMENTS) * len(AUTOML_ALGORITHMS)
        for series in fig.series:
            assert series.trajectory
        assert "Figure 4" in fig.format()

    def test_figure6_schemes(self, table2):
        fig = run_figure6(TINY, searches={
            exp: table2.search_results[exp]["AutoMC"] for exp in EXPERIMENTS
        })
        text = fig.format()
        assert "Figure 6" in text
        for scheme in fig.schemes:
            assert scheme.result.scheme.length >= 1

    def test_figure5_variants_smoke(self, figure5):
        for exp in EXPERIMENTS:
            for variant in VARIANTS:
                assert figure5.of(exp, variant) is not None
                search = figure5.searches[exp][variant]
                assert search.evaluations >= 1
                # The series carries the variant; the search, its solver's label.
                expected = "RL" if variant == "AutoMC-ProgressiveSearch" else "AutoMC"
                assert search.algorithm == expected
        assert "AutoMC-MultipleSource" in figure5.format()

    @pytest.mark.parametrize("exp", list(EXPERIMENTS))
    def test_figure5_automc_is_the_run_algorithm_search(self, figure5, exp):
        """Figure 5's full AutoMC is the search Table 2 runs, bit for bit,
        at embedding epochs other than the EmbeddingConfig defaults."""
        defaults = EmbeddingConfig()
        assert (TINY.transr_epochs_per_round, TINY.nn_exp_epochs_per_round) != (
            defaults.transr_epochs_per_round, defaults.nn_exp_epochs_per_round
        )
        direct = run_algorithm("progressive", exp, TINY)
        assert _outcome(figure5.searches[exp]["AutoMC"]) == _outcome(direct)
