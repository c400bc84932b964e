"""Tests for the human-baseline grid-search runner."""

import pytest

from repro.baselines.grid import run_all_human_methods, run_human_method
from repro.core.config import EvaluatorConfig
from repro.core.evaluator import SurrogateEvaluator
from repro.data.tasks import EXP1, transfer_task
from repro.models import resnet20


@pytest.fixture(scope="module")
def evaluator():
    task = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)
    return SurrogateEvaluator(
        lambda: resnet20(num_classes=10), "resnet20", "cifar10", task,
        config=EvaluatorConfig(seed=0),
    )


class TestRunHumanMethod:
    def test_hits_exact_target_outside_grid(self, evaluator):
        """Human baselines may use HP2 = 0.4 even though the search grid
        tops out at 0.44 in other values."""
        outcome = run_human_method(evaluator, "C3", 0.4, max_evaluations=4)
        assert outcome.best.pr == pytest.approx(0.4, abs=0.06)
        assert outcome.best.scheme.length == 1

    def test_grid_cap_respected(self, evaluator):
        outcome = run_human_method(evaluator, "C5", 0.4, max_evaluations=5)
        assert outcome.evaluations <= 5

    def test_best_is_best_of_evaluated(self, evaluator):
        outcome = run_human_method(evaluator, "C2", 0.4, max_evaluations=6)
        same_method = [
            r for r in evaluator.results.values()
            if r.scheme.length == 1
            and r.scheme.strategies[0].method_label == "C2"
            and abs(r.scheme.strategies[0].param_step - 0.4) < 1e-9
        ]
        assert outcome.best.accuracy == max(r.accuracy for r in same_method)

    def test_fine_tune_pinned_generous(self, evaluator):
        outcome = run_human_method(evaluator, "C2", 0.4, max_evaluations=2)
        assert outcome.best.scheme.strategies[0].hp["HP1"] == 0.5

    def test_sfp_uses_hp9(self, evaluator):
        outcome = run_human_method(evaluator, "C4", 0.4, max_evaluations=3)
        hp = outcome.best.scheme.strategies[0].hp
        assert hp["HP9"] == 0.5
        assert "HP1" not in hp


class TestRunAll:
    def test_covers_all_methods(self, evaluator):
        outcomes = run_all_human_methods(evaluator, 0.4, max_evaluations_per_method=2)
        assert [o.method_label for o in outcomes] == ["C1", "C2", "C3", "C4", "C5", "C6"]
        for outcome in outcomes:
            assert outcome.target_pr == 0.4
