"""Failure-injection and edge-case robustness tests."""


import numpy as np
import pytest

from repro.compression import METHODS, ExecutionContext
from repro.compression.surgery import filter_l2_norms, prune_by_scores
from repro.core.config import EvaluatorConfig
from repro.core.evaluator import SurrogateEvaluator
from repro.data.tasks import EXP1, transfer_task
from repro.models import resnet8, resnet20, vgg8_tiny
from repro.nn import Tensor
from repro.space import START, StrategySpace

HP = {"HP1": 0.1, "HP2": 0.3, "HP4": 3, "HP5": 0.5, "HP6": 0.9, "HP7": 0.4,
      "HP8": "l2_weight", "HP9": 0.1, "HP10": 3, "HP11": "P1", "HP12": "l1norm",
      "HP13": 0.3, "HP14": 1, "HP15": 1.0, "HP16": "MSE"}


class TestRepeatedCompression:
    @pytest.mark.parametrize("label", ["C1", "C2", "C3", "C4"])
    def test_method_applied_until_floor(self, label):
        """Repeated application must saturate gracefully, never crash or
        produce an unusable model."""
        model = vgg8_tiny(num_classes=4)
        original = model.num_parameters()
        ctx = ExecutionContext(original_params=original, train_enabled=False)
        for _ in range(6):
            METHODS[label].apply(model, dict(HP), ctx)
        # Still a functional network with at least one channel per unit.
        out = model(Tensor(np.zeros((1, 3, 8, 8))))
        assert np.isfinite(out.data).all()
        for unit in model.pruning_units():
            assert unit.out_channels >= 1

    def test_budget_larger_than_prunable_mass(self):
        model = resnet8(num_classes=4)
        total = model.num_parameters()
        scores = {u.name: filter_l2_norms(u) for u in model.pruning_units()}
        removed = prune_by_scores(model, scores, param_budget=total * 2)
        assert 0 < removed < total
        out = model(Tensor(np.zeros((1, 3, 8, 8))))
        assert np.isfinite(out.data).all()

    def test_factorized_then_pruned(self):
        """HOS factorizes convs; a later NS step must still work around the
        factorized layers."""
        model = vgg8_tiny(num_classes=4)
        ctx = ExecutionContext(
            original_params=model.num_parameters(), train_enabled=False
        )
        METHODS["C5"].apply(model, dict(HP), ctx)
        before = model.num_parameters()
        METHODS["C3"].apply(model, {**HP, "HP2": 0.1}, ctx)
        assert model.num_parameters() < before
        out = model(Tensor(np.zeros((1, 3, 8, 8))))
        assert np.isfinite(out.data).all()

    def test_lfb_twice_no_double_factorization_blowup(self):
        model = vgg8_tiny(num_classes=4)
        ctx = ExecutionContext(
            original_params=model.num_parameters(), train_enabled=False
        )
        METHODS["C6"].apply(model, dict(HP), ctx)
        second = METHODS["C6"].apply(model, {**HP, "HP2": 0.1}, ctx)
        # The second pass may find little left to factorize, but must not
        # *grow* the model.
        assert second.params_after <= second.params_before
        out = model(Tensor(np.zeros((1, 3, 8, 8))))
        assert np.isfinite(out.data).all()


class TestEvaluatorEdgeCases:
    def _evaluator(self, cache_size=2, seed=0):
        task = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)
        return SurrogateEvaluator(
            lambda: resnet20(num_classes=10), "resnet20", "cifar10", task,
            config=EvaluatorConfig(seed=seed, model_cache_size=cache_size),
        )

    def test_cache_eviction_keeps_correctness(self):
        """With a 2-entry model LRU, evaluating many schemes still gives the
        same results as with a huge cache (prefixes are re-executed)."""
        space = StrategySpace(method_labels=["C3"])
        schemes = []
        scheme = START
        for s in space.of_method("C3")[:4]:
            scheme = scheme.extend(s)
            schemes.append(scheme)

        small = self._evaluator(cache_size=2)
        large = self._evaluator(cache_size=64)
        for scheme in schemes + schemes[::-1]:
            a = small.evaluate(scheme)
            b = large.evaluate(scheme)
            assert a.params == b.params
            assert a.accuracy == pytest.approx(b.accuracy, abs=1e-12)

    def test_deep_scheme_of_max_length(self):
        space = StrategySpace(method_labels=["C3", "C4"])
        scheme = START
        rng = np.random.default_rng(0)
        while scheme.length < 5:
            candidate = space[int(rng.integers(len(space)))]
            if scheme.total_param_step + candidate.param_step <= 0.85:
                scheme = scheme.extend(candidate)
        result = self._evaluator().evaluate(scheme)
        assert result.pr > 0
        assert len(result.step_reports) == 5

    def test_accuracy_never_below_floor(self):
        """Even absurdly aggressive schemes can't dip under random-guess."""
        space = StrategySpace(method_labels=["C1"])
        worst = max(space, key=lambda s: s.param_step)
        evaluator = self._evaluator()
        scheme = START.extend(worst).extend(worst)
        result = evaluator.evaluate(scheme)
        assert result.accuracy >= 0.10 - 1e-9  # 10 classes


class TestSearchDeterminism:
    def test_random_search_reproducible(self):
        from repro.core.solver import run_solver

        space = StrategySpace(method_labels=["C3", "C4"])

        def run(seed):
            task = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)
            ev = SurrogateEvaluator(
                lambda: resnet20(num_classes=10), "resnet20", "cifar10", task,
                config=EvaluatorConfig(seed=0),
            )
            return run_solver("random", ev, space, gamma=0.2, budget_hours=0.8, seed=seed)

        a = run(11)
        b = run(11)
        assert [r.scheme.identifier for r in a.all_results] == [
            r.scheme.identifier for r in b.all_results
        ]
        c = run(12)
        assert [r.scheme.identifier for r in a.all_results] != [
            r.scheme.identifier for r in c.all_results
        ]
