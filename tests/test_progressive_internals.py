"""White-box tests for Algorithm 2's bookkeeping and Eq. 4 projections."""

import numpy as np
import pytest

from repro.core.config import EvaluatorConfig
from repro.core.evaluator import SurrogateEvaluator
from repro.core.progressive import ProgressiveConfig
from repro.core.solver import make_solver
from repro.data.tasks import EXP1, transfer_task
from repro.knowledge.embedding import StrategyEmbeddings
from repro.knowledge.experience import default_experience
from repro.models import resnet20
from repro.space import StrategySpace


@pytest.fixture()
def searcher():
    space = StrategySpace(method_labels=["C3", "C4"])
    rng = np.random.default_rng(0)
    embeddings = StrategyEmbeddings(
        table=rng.normal(0, 0.1, size=(len(space), 16)), space=space
    )
    task = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)
    evaluator = SurrogateEvaluator(
        lambda: resnet20(num_classes=10), "resnet20", "cifar10", task,
        config=EvaluatorConfig(seed=0),
    )
    return make_solver(
        "progressive", evaluator, space, embeddings=embeddings,
        gamma=0.2, budget_hours=1.2,
        config=ProgressiveConfig(sample_size=3, evals_per_round=3,
                                 candidate_subsample=40),
        seed=0,
    )


class TestBookkeeping:
    def test_explored_candidates_marked(self, searcher):
        searcher.run()
        start_key = "START"
        mask = searcher._unexplored[start_key]
        assert not mask.all()  # something under START was explored
        assert mask.any()      # but far from everything

    def test_child_schemes_get_fresh_masks(self, searcher):
        searcher.run()
        children = [k for k in searcher._unexplored if k != "START"]
        assert children
        for key in children[:3]:
            assert searcher._unexplored[key].dtype == bool

    def test_max_length_schemes_not_tracked(self, searcher):
        searcher.strategy.max_length = 1
        searcher.run()
        for key in searcher._unexplored:
            assert key == "START"

    def test_no_duplicate_evaluations_of_same_extension(self, searcher):
        searcher.run()
        identifiers = list(searcher.evaluator.results)
        assert len(identifiers) == len(set(identifiers))


class TestStateFeatures:
    def test_state_of_start(self, searcher):
        start = searcher.evaluator.evaluate(
            __import__("repro.space", fromlist=["START"]).START
        )
        searcher._ensure_tracked(start)
        state = searcher._state_of(start)
        np.testing.assert_allclose(state, [1.0, 1.0, 0.0, 0.0])

    def test_state_reflects_compression(self, searcher):
        from repro.space import START

        strategy = searcher.space.of_method("C3")[5]
        result = searcher.evaluator.evaluate(START.extend(strategy))
        searcher._ensure_tracked(result)
        state = searcher._state_of(result)
        assert state[1] < 1.0  # params ratio dropped
        assert state[2] == pytest.approx(1 / 5)
        assert state[3] == pytest.approx(strategy.param_step)


class TestWarmStart:
    def test_experience_prefills_buffer(self):
        space = StrategySpace()
        rng = np.random.default_rng(0)
        embeddings = StrategyEmbeddings(
            table=rng.normal(0, 0.1, size=(len(space), 16)), space=space
        )
        task = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)
        evaluator = SurrogateEvaluator(
            lambda: resnet20(num_classes=10), "resnet20", "cifar10", task,
            config=EvaluatorConfig(seed=0),
        )
        searcher = make_solver(
            "progressive", evaluator, space, embeddings=embeddings,
            gamma=0.3, budget_hours=0.1,
            experience=default_experience(), seed=0,
        )
        assert len(searcher.fmo.buffer) >= 60
        assert searcher.fmo.loss_history  # warm-start training happened


class TestConfigToggles:
    @pytest.mark.parametrize("toggle", ["stratified_sampling", "feasible_bias"])
    def test_toggles_off_still_run(self, toggle):
        space = StrategySpace(method_labels=["C3"])
        rng = np.random.default_rng(0)
        embeddings = StrategyEmbeddings(
            table=rng.normal(0, 0.1, size=(len(space), 16)), space=space
        )
        task = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)
        evaluator = SurrogateEvaluator(
            lambda: resnet20(num_classes=10), "resnet20", "cifar10", task,
            config=EvaluatorConfig(seed=0),
        )
        config = ProgressiveConfig(
            sample_size=2, evals_per_round=2, candidate_subsample=20,
            **{toggle: False},
        )
        searcher = make_solver(
            "progressive", evaluator, space, embeddings=embeddings,
            gamma=0.2, budget_hours=0.6,
            config=config, seed=0,
        )
        result = searcher.run()
        assert result.evaluations >= 1
