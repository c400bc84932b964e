"""Hypothesis property tests over the full evaluation pipeline.

These use the surrogate evaluator on ResNet-20 (cheap, ~0.1s per scheme)
and check invariants that must hold for *any* scheme in the space.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EvaluatorConfig
from repro.core.evaluator import SurrogateEvaluator
from repro.data.tasks import EXP1, transfer_task
from repro.models import resnet20
from repro.space import START, CompressionScheme, StrategySpace

_SPACE = StrategySpace(method_labels=["C3", "C4"])
_EVALUATOR = None


def _evaluator() -> SurrogateEvaluator:
    global _EVALUATOR
    if _EVALUATOR is None:
        task = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)
        _EVALUATOR = SurrogateEvaluator(
            lambda: resnet20(num_classes=10), "resnet20", "cifar10", task,
            config=EvaluatorConfig(seed=0, model_cache_size=64),
        )
    return _EVALUATOR


def _scheme_from_indices(indices) -> CompressionScheme:
    scheme = START
    for i in indices:
        strategy = _SPACE[i % len(_SPACE)]
        if scheme.total_param_step + strategy.param_step > 0.8:
            break
        scheme = scheme.extend(strategy)
    return scheme


@st.composite
def schemes(draw):
    indices = draw(st.lists(st.integers(0, len(_SPACE) - 1), min_size=1, max_size=3))
    return _scheme_from_indices(indices)


class TestEvaluationInvariants:
    @settings(max_examples=15, deadline=None)
    @given(schemes())
    def test_monotone_params_along_prefixes(self, scheme):
        """Each extension can only remove parameters."""
        evaluator = _evaluator()
        previous = evaluator.base_params
        for length in range(1, scheme.length + 1):
            result = evaluator.evaluate(scheme.prefix(length))
            assert result.params <= previous
            previous = result.params

    @settings(max_examples=15, deadline=None)
    @given(schemes())
    def test_pr_and_fr_in_unit_interval(self, scheme):
        result = _evaluator().evaluate(scheme)
        assert 0.0 <= result.pr <= 1.0
        assert -0.05 <= result.fr <= 1.0  # factorisation may add few FLOPs

    @settings(max_examples=15, deadline=None)
    @given(schemes())
    def test_accuracy_bounds(self, scheme):
        result = _evaluator().evaluate(scheme)
        model = _evaluator().accuracy_model
        assert model.floor / 100 - 1e-9 <= result.accuracy
        assert result.accuracy <= (model.baseline + model.headroom) / 100 + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(schemes())
    def test_ar_definition_consistent(self, scheme):
        """AR = (A(S[M]) - A(M)) / A(M) > -1 (paper §3.1)."""
        result = _evaluator().evaluate(scheme)
        assert result.ar > -1.0
        reconstructed = result.base_accuracy * (1 + result.ar)
        assert reconstructed == pytest.approx(result.accuracy, abs=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(schemes())
    def test_evaluation_idempotent(self, scheme):
        evaluator = _evaluator()
        first = evaluator.evaluate(scheme)
        second = evaluator.evaluate(scheme)
        assert first is second

    @settings(max_examples=10, deadline=None)
    @given(schemes())
    def test_pr_close_to_nominal_budget(self, scheme):
        """Measured PR tracks the sum of HP2 fractions (within surgery
        granularity and the per-unit caps)."""
        result = _evaluator().evaluate(scheme)
        nominal = scheme.total_param_step
        assert result.pr <= nominal + 0.08
        assert result.pr >= min(nominal, 0.8) * 0.5 - 0.02
