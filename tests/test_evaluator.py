"""Tests for both evaluation backends."""

import numpy as np
import pytest

from repro.core.config import EvaluatorConfig
from repro.core.evaluator import (
    EVAL_OVERHEAD_HOURS,
    SurrogateEvaluator,
    TrainingEvaluator,
)
from repro.data.tasks import EXP1, transfer_task
from repro.models import resnet8, resnet20
from repro.space import START, StrategySpace


@pytest.fixture(scope="module")
def surrogate():
    task = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)
    return SurrogateEvaluator(
        lambda: resnet20(num_classes=10), "resnet20", "cifar10", task,
        config=EvaluatorConfig(seed=0),
    )


@pytest.fixture(scope="module")
def module_space():
    return StrategySpace()


class TestSurrogateEvaluator:
    def test_empty_scheme_is_baseline(self, surrogate):
        result = surrogate.evaluate(START)
        assert result.pr == 0.0
        assert result.fr == 0.0
        assert result.ar == 0.0
        assert result.accuracy == pytest.approx(surrogate.base_accuracy)

    def test_single_strategy_hits_hp2_budget(self, surrogate, module_space):
        strategy = module_space.of_method("C3")[10]
        result = surrogate.evaluate(START.extend(strategy))
        assert result.pr == pytest.approx(strategy.param_step, abs=0.05)
        assert result.params < result.base_params
        assert result.flops < result.base_flops

    def test_caching_returns_same_object(self, surrogate, module_space):
        scheme = START.extend(module_space.of_method("C4")[0])
        first = surrogate.evaluate(scheme)
        count = surrogate.evaluation_count
        second = surrogate.evaluate(scheme)
        assert first is second
        assert surrogate.evaluation_count == count

    def test_cost_accumulates(self, surrogate, module_space):
        before = surrogate.total_cost
        surrogate.evaluate(START.extend(module_space.of_method("C3")[3]))
        assert surrogate.total_cost > before

    def test_prefix_extension_consistent(self, surrogate, module_space):
        """seq then seq->s must reuse the cached prefix deterministically."""
        s1 = module_space.of_method("C3")[5]
        s2 = module_space.of_method("C4")[5]
        parent = surrogate.evaluate(START.extend(s1))
        child = surrogate.evaluate(START.extend(s1).extend(s2))
        assert child.pr > parent.pr
        assert child.params < parent.params

    def test_deterministic_across_instances(self, module_space):
        task = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)
        scheme = START.extend(module_space.of_method("C5")[7])
        results = []
        for _ in range(2):
            ev = SurrogateEvaluator(
                lambda: resnet20(num_classes=10), "resnet20", "cifar10", task,
                config=EvaluatorConfig(seed=3),
            )
            results.append(ev.evaluate(scheme))
        assert results[0].accuracy == results[1].accuracy
        assert results[0].params == results[1].params

    def test_objectives_vector(self, surrogate, module_space):
        result = surrogate.evaluate(START.extend(module_space.of_method("C3")[1]))
        np.testing.assert_allclose(result.objectives, [result.ar, result.pr])

    def test_meets_target(self, surrogate, module_space):
        strategy = next(s for s in module_space.of_method("C3") if s.param_step >= 0.36)
        result = surrogate.evaluate(START.extend(strategy))
        assert result.meets_target(0.3)
        assert not result.meets_target(0.9)

    def test_pareto_results_filter(self, surrogate):
        front = surrogate.pareto_results()
        assert front
        constrained = surrogate.pareto_results(gamma=0.3)
        assert all(r.pr >= 0.3 for r in constrained)

    def test_str_format(self, surrogate, module_space):
        text = str(surrogate.evaluate(START.extend(module_space.of_method("C3")[2])))
        assert "PR" in text and "acc" in text


class TestTrainingEvaluator:
    @pytest.fixture(scope="class")
    def trainer_eval(self, tiny_data):
        train, val = tiny_data
        return TrainingEvaluator(
            lambda: resnet8(num_classes=4),
            train,
            val,
            config=EvaluatorConfig(pretrain_epochs=3, seed=0),
        )

    def test_base_accuracy_above_chance(self, trainer_eval):
        assert trainer_eval.base_accuracy > 1.0 / 4

    def test_real_compression_scheme(self, trainer_eval, module_space):
        scheme = START.extend(module_space.of_method("C3")[0])
        result = trainer_eval.evaluate(scheme)
        assert result.params < result.base_params
        assert 0 <= result.accuracy <= 1
        assert result.cost > EVAL_OVERHEAD_HOURS

    def test_task_built_from_dataset(self, trainer_eval):
        assert trainer_eval.task.num_classes == 4
        assert trainer_eval.task.model_params > 0

    def test_two_step_scheme(self, trainer_eval, module_space):
        s1 = module_space.of_method("C3")[0]
        s2 = module_space.of_method("C4")[0]
        result = trainer_eval.evaluate(START.extend(s1).extend(s2))
        assert result.pr > 0.05
        assert len(result.step_reports) >= 1
