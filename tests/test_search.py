"""Tests for progressive search, baselines and the AutoMC facade.

Searches run on the resnet20 surrogate with tiny budgets — enough to verify
mechanics (budget accounting, Pareto outputs, trajectories) quickly.
"""

import numpy as np
import pytest

from repro.core import AutoMC
from repro.core.config import EvaluatorConfig
from repro.core.evaluator import SurrogateEvaluator
from repro.core.progressive import ProgressiveConfig
from repro.core.solver import make_solver
from repro.data.tasks import EXP1, transfer_task
from repro.experiments import ExperimentConfig
from repro.experiments.figure5 import run_variant
from repro.knowledge.embedding import EmbeddingConfig, StrategyEmbeddings
from repro.models import resnet20
from repro.space import StrategySpace

from .test_ablation_builds import CONFIG, variant_solver

BUDGET = 1.5  # simulated hours -> a handful of evaluations


@pytest.fixture(scope="module")
def small_space():
    return StrategySpace(method_labels=["C3", "C4"])


@pytest.fixture(scope="module")
def embeddings(small_space):
    rng = np.random.default_rng(0)
    return StrategyEmbeddings(
        table=rng.normal(0, 0.1, size=(len(small_space), 16)), space=small_space
    )


def make_evaluator(seed=0):
    task = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)
    return SurrogateEvaluator(
        lambda: resnet20(num_classes=10), "resnet20", "cifar10", task,
        config=EvaluatorConfig(seed=seed),
    )


class TestProgressiveSearch:
    def test_run_produces_results_within_budget(self, small_space, embeddings):
        searcher = make_solver(
            "progressive", make_evaluator(), small_space, embeddings=embeddings,
            gamma=0.2, budget_hours=BUDGET,
            config=ProgressiveConfig(sample_size=3, evals_per_round=3,
                                     candidate_subsample=64),
        )
        result = searcher.run()
        assert result.evaluations > 1
        assert result.total_cost >= BUDGET  # stops only after budget spent
        assert result.trajectory
        assert result.front

    def test_pareto_respects_gamma(self, small_space, embeddings):
        searcher = make_solver(
            "progressive", make_evaluator(), small_space, embeddings=embeddings,
            gamma=0.2, budget_hours=BUDGET,
            config=ProgressiveConfig(sample_size=3, evals_per_round=3,
                                     candidate_subsample=64),
        )
        result = searcher.run()
        for r in result.pareto:
            assert r.pr >= 0.2

    def test_trajectory_costs_monotone(self, small_space, embeddings):
        searcher = make_solver(
            "progressive", make_evaluator(), small_space, embeddings=embeddings,
            gamma=0.2, budget_hours=BUDGET,
            config=ProgressiveConfig(sample_size=2, evals_per_round=2,
                                     candidate_subsample=64),
        )
        result = searcher.run()
        costs = [p.cost for p in result.trajectory]
        assert costs == sorted(costs)

    def test_fmo_gets_trained(self, small_space, embeddings):
        searcher = make_solver(
            "progressive", make_evaluator(), small_space, embeddings=embeddings,
            gamma=0.2, budget_hours=BUDGET,
            config=ProgressiveConfig(sample_size=2, evals_per_round=2,
                                     candidate_subsample=64),
        )
        searcher.run()
        assert searcher.fmo.buffer
        assert searcher.fmo.loss_history

    def test_schemes_grow_progressively(self, small_space, embeddings):
        searcher = make_solver(
            "progressive", make_evaluator(), small_space, embeddings=embeddings,
            gamma=0.2, budget_hours=2.5,
            config=ProgressiveConfig(sample_size=3, evals_per_round=3,
                                     candidate_subsample=64),
        )
        searcher.run()
        lengths = {r.scheme.length for r in searcher.evaluator.results.values()}
        assert max(lengths) >= 2  # extended beyond single strategies


class TestBaselines:
    @pytest.mark.parametrize(
        "name, label",
        [("random", "Random"), ("evolution", "Evolution"), ("rl", "RL")],
        ids=["RandomSearch", "EvolutionSearch", "RLSearch"],
    )
    def test_baseline_runs_and_respects_budget(self, name, label, small_space):
        searcher = make_solver(
            name, make_evaluator(), small_space, gamma=0.2, budget_hours=BUDGET, seed=1
        )
        result = searcher.run()
        assert result.evaluations >= 1
        assert result.algorithm == label
        assert result.trajectory

    def test_random_schemes_within_length(self, small_space):
        searcher = make_solver("random", make_evaluator(), small_space, gamma=0.2,
                               budget_hours=BUDGET, max_length=3, seed=2)
        searcher.run()
        assert all(
            r.scheme.length <= 3
            for r in searcher.evaluator.results.values()
        )

    def test_evolution_population_evolves(self, small_space):
        searcher = make_solver(
            "evolution", make_evaluator(), small_space, gamma=0.2, budget_hours=2.0,
            population_size=4, offspring_per_generation=3, seed=3,
        )
        result = searcher.run()
        assert result.evaluations > 4  # at least one generation beyond init

    def test_rl_controller_updates(self, small_space):
        searcher = make_solver("rl", make_evaluator(), small_space, gamma=0.2,
                               budget_hours=BUDGET, seed=4, batch_size=2)
        weights_before = searcher.controller.method_head.weight.data.copy()
        searcher.run()
        assert not np.allclose(weights_before, searcher.controller.method_head.weight.data)

    def test_summary_text(self, small_space):
        searcher = make_solver("random", make_evaluator(), small_space, gamma=0.2,
                               budget_hours=0.5, seed=5)
        result = searcher.run()
        assert "Random" in result.summary()


class TestAblationVariants:
    def test_all_variants_buildable(self):
        for variant, label in (
            ("AutoMC-MultipleSource", "AutoMC"),
            ("AutoMC-ProgressiveSearch", "RL"),
        ):
            result = run_variant(variant, "Exp1", CONFIG)
            assert result.algorithm == label
            assert result.evaluations >= 1

    def test_multiple_source_restricts_space(self):
        searcher = variant_solver("AutoMC-MultipleSource")
        assert set(s.method_label for s in searcher.space) == {"C2"}
        assert set(s.method_label for s in searcher.fmo.embeddings.space) == {"C2"}

    def test_unknown_variant_raises(self):
        with pytest.raises(KeyError):
            run_variant("AutoMC-Bogus", "Exp1", ExperimentConfig())


class TestFacade:
    def test_paper_scale_runs(self):
        automc = AutoMC.paper_scale(
            "resnet56", "cifar10", gamma=0.3, budget_hours=0.8,
            embedding_config=EmbeddingConfig(rounds=1, transr_epochs_per_round=1,
                                             nn_exp_epochs_per_round=3),
            progressive_config=ProgressiveConfig(sample_size=2, evals_per_round=2,
                                                 candidate_subsample=64),
        )
        result = automc.search()
        assert result.algorithm == "AutoMC"
        assert result.evaluations >= 1

    def test_unknown_paper_task_raises(self):
        with pytest.raises(KeyError):
            AutoMC.paper_scale("resnet18", "imagenet")

    def test_with_training_backend(self, tiny_data):
        from repro.models import resnet8

        train, val = tiny_data
        automc = AutoMC.with_training(
            lambda: resnet8(num_classes=4), train, val,
            gamma=0.1, budget_hours=0.4, pretrain_epochs=1,
            space=StrategySpace(method_labels=["C3"]),
            embedding_config=EmbeddingConfig(rounds=1, transr_epochs_per_round=1,
                                             nn_exp_epochs_per_round=2),
            progressive_config=ProgressiveConfig(sample_size=2, evals_per_round=2,
                                                 candidate_subsample=32),
        )
        result = automc.search()
        assert result.evaluations >= 1
