"""White-box tests for the baseline searchers' operators."""

import numpy as np
import pytest

from repro.baselines.evolution import EvolutionSolver
from repro.baselines.rl import ControllerRNN
from repro.core.config import EvaluatorConfig
from repro.core.evaluator import SurrogateEvaluator
from repro.core.solver import make_solver
from repro.data.tasks import EXP1, transfer_task
from repro.models import resnet20
from repro.nn import Tensor
from repro.space import StrategySpace
from repro.space.hyperparams import HP_GRID, METHOD_HPS


def _evaluator(seed=0):
    task = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)
    return SurrogateEvaluator(
        lambda: resnet20(num_classes=10), "resnet20", "cifar10", task,
        config=EvaluatorConfig(seed=seed),
    )


@pytest.fixture()
def evolution():
    space = StrategySpace(method_labels=["C3", "C4"])
    return make_solver("evolution", _evaluator(), space, gamma=0.2, budget_hours=0.1, seed=0)


class TestEvolutionOperators:
    def test_mutation_stays_valid(self, evolution):
        scheme = evolution.strategy.random_scheme()
        for _ in range(30):
            scheme = evolution._mutate(scheme)
            assert 1 <= scheme.length <= evolution.max_length
            assert scheme.total_param_step <= 0.9 + 1e-9

    def test_mutation_changes_something_usually(self, evolution):
        scheme = evolution.strategy.random_scheme()
        changed = sum(
            evolution._mutate(scheme).identifier != scheme.identifier
            for _ in range(20)
        )
        assert changed >= 10

    def test_crossover_child_within_bounds(self, evolution):
        a = evolution.strategy.random_scheme()
        b = evolution.strategy.random_scheme()
        for _ in range(20):
            child = evolution._crossover(a, b)
            assert 1 <= child.length <= evolution.max_length
            assert child.total_param_step <= 0.9 + 1e-9

    def test_environmental_selection_prefers_nondominated(self, evolution):
        schemes = [evolution.strategy.random_scheme() for _ in range(6)]
        # Construct points where index 0 dominates everything.
        points = np.array([[0.1 * i, 0.1 * i] for i in range(6)])[::-1]
        survivors = evolution._environmental_selection(schemes, points)
        assert schemes[0] in survivors

    def test_beats_prefers_dominating_point(self):
        points = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert EvolutionSolver._beats(points, 0, 1)
        assert not EvolutionSolver._beats(points, 1, 0)


class TestControllerRNN:
    def test_heads_cover_all_hyperparameters(self):
        controller = ControllerRNN(["C1", "C2", "C3", "C4", "C5", "C6"])
        needed = {
            hp
            for label in METHOD_HPS
            if label not in ("C7", "C8")
            for hp in METHOD_HPS[label]
        }
        assert set(controller.hp_heads) == needed
        for hp, head in controller.hp_heads.items():
            assert head.out_features == len(HP_GRID[hp])

    def test_step_updates_hidden(self):
        controller = ControllerRNN(["C3", "C4"], hidden=8)
        hidden = Tensor(np.zeros((1, 8)))
        new_hidden = controller.step(0, hidden)
        assert new_hidden.shape == (1, 8)
        assert np.abs(new_hidden.data).sum() > 0

    def test_hp_heads_are_registered_parameters(self):
        controller = ControllerRNN(["C3"])
        names = [n for n, _ in controller.named_parameters()]
        assert any(n.startswith("hp_HP2") for n in names)


class TestRLSampling:
    def test_sampled_schemes_valid(self):
        space = StrategySpace()
        searcher = make_solver("rl", _evaluator(), space, gamma=0.3, budget_hours=0.1, seed=0)
        for _ in range(10):
            scheme, log_probs = searcher._sample_scheme()
            assert scheme.length <= searcher.max_length
            assert scheme.total_param_step <= 0.9 + 1e-9
            if scheme.length:
                assert log_probs
                # Every sampled strategy must exist in the space.
                for strategy in scheme:
                    assert space.by_identifier(strategy.identifier) is strategy

    def test_reward_penalises_missing_target(self):
        space = StrategySpace(method_labels=["C3"])
        searcher = make_solver("rl", _evaluator(), space, gamma=0.3, budget_hours=0.1, seed=0)

        class FakeResult:
            ar = 0.0

        good = FakeResult()
        good.pr = 0.35
        bad = FakeResult()
        bad.pr = 0.05
        assert searcher._reward(good) > searcher._reward(bad)
