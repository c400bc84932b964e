"""Tests for the shared SearchStrategy infrastructure."""

import pytest

from repro.core.config import EvaluatorConfig
from repro.core.evaluator import SurrogateEvaluator
from repro.core.search import SearchStrategy
from repro.core.solver import make_solver
from repro.data.tasks import EXP1, transfer_task
from repro.models import resnet20
from repro.space import START, StrategySpace


def _solver(budget=0.5, seed=0, space=None):
    task = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)
    evaluator = SurrogateEvaluator(
        lambda: resnet20(num_classes=10), "resnet20", "cifar10", task,
        config=EvaluatorConfig(seed=0),
    )
    return make_solver(
        "random", evaluator, space or StrategySpace(method_labels=["C3", "C4"]),
        gamma=0.2, budget_hours=budget, seed=seed,
    )


def _searcher(**kwargs) -> SearchStrategy:
    """The shared search state behind a random solver."""
    return _solver(**kwargs).strategy


class TestRandomScheme:
    def test_length_bounds(self):
        searcher = _searcher()
        for _ in range(30):
            scheme = searcher.random_scheme()
            assert 0 <= scheme.length <= searcher.max_length

    def test_nominal_pr_capped(self):
        searcher = _searcher()
        for _ in range(30):
            assert searcher.random_scheme(max_pr=0.5).total_param_step <= 0.5 + 1e-9


class TestRecord:
    def test_empty_history_point(self):
        searcher = _searcher()
        point = searcher.record()
        assert point.best_accuracy == 0.0
        assert point.hypervolume == 0.0
        assert point.front_size == 0

    def test_point_after_evaluations(self):
        searcher = _searcher()
        strategy = next(s for s in searcher.space if s.param_step >= 0.2)
        searcher.evaluator.evaluate(START.extend(strategy))
        point = searcher.record()
        assert point.evaluations == 1
        assert point.front_size == 1
        assert point.best_accuracy > 0  # PR >= gamma, so feasible

    def test_infeasible_only_history(self):
        searcher = _searcher()
        strategy = min(searcher.space, key=lambda s: s.param_step)  # 0.04
        searcher.evaluator.evaluate(START.extend(strategy))
        point = searcher.record()
        assert point.best_accuracy == 0.0  # nothing meets gamma yet
        assert point.hypervolume > 0  # but the front exists

    def test_budget_left(self):
        searcher = _searcher(budget=1.0)
        assert searcher.budget_left() == pytest.approx(1.0)
        searcher.evaluator.evaluate(START.extend(searcher.space[0]))
        assert searcher.budget_left() < 1.0


class TestFinish:
    def test_finish_collects_everything(self):
        searcher = _solver(budget=0.4)
        result = searcher.run()
        assert result.all_results
        assert all(not r.scheme.is_empty for r in result.all_results)
        assert result.total_cost == searcher.evaluator.total_cost
        feasible = [r for r in result.all_results if r.pr >= 0.2]
        if feasible:
            assert result.best is not None
        else:
            assert result.best is None
