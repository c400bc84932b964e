"""C8 post-training quantization through the whole search stack.

Three layers:

* *golden accuracy pins* — the surrogate-evaluated accuracy of reference C8
  schemes (int8/fp16, alone and composed with pruning) on the Exp1 task is
  pinned to ``tests/goldens/quant_accuracy.json``; regenerate deliberately
  with ``pytest tests/test_quant_search.py --update-goldens``;
* *composed search* — a solver over ``StrategySpace(["C3", "C8"])`` finds and
  reports prune+quant schemes end to end, with the measured-latency column
  attached to every result;
* *effect-signature alignment* — the cost model's predicted ``weight_bits``
  matches the precision the evaluator actually executed (zero drift).
"""

import json
from pathlib import Path

import pytest

from repro.analysis.costmodel import Budget
from repro.core.config import EvaluatorConfig
from repro.core.evaluator import SurrogateEvaluator
from repro.core.solver import run_solver
from repro.data.tasks import EXP1, transfer_task
from repro.experiments.common import EXPERIMENTS, make_evaluator
from repro.models import resnet20
from repro.space import StrategySpace

GOLDEN_PATH = Path(__file__).parent / "goldens" / "quant_accuracy.json"

#: reference quantization schemes pinned on the Exp1 (ResNet-56) surrogate
REFERENCE_SCHEMES = [
    "C8[HP19=int8,HP20=2]",
    "C8[HP19=fp16,HP20=2]",
    "C3[HP1=0.1,HP2=0.2,HP6=0.7] -> C8[HP19=int8,HP20=4]",
]


@pytest.fixture(scope="module")
def quant_space():
    return StrategySpace(include_quantization=True)


def _surrogate(latency_batch=None, seed=0):
    task = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)
    return SurrogateEvaluator(
        lambda: resnet20(num_classes=10), "resnet20", "cifar10", task,
        config=EvaluatorConfig(seed=seed, latency_batch=latency_batch),
    )


# --------------------------------------------------------------------------- #
# Golden accuracy pins
# --------------------------------------------------------------------------- #
def _measure_reference(quant_space) -> dict:
    model_name, dataset_name, task = EXPERIMENTS["Exp1"]
    evaluator = make_evaluator(model_name, dataset_name, task, seed=0)
    measured = {}
    for text in REFERENCE_SCHEMES:
        scheme = quant_space.parse_scheme(text)
        result = evaluator.evaluate(scheme)
        measured[scheme.identifier] = {
            "accuracy": result.accuracy,
            "accuracy_delta": result.accuracy - task.model_accuracy,
            "effective_bits": result.step_reports[-1].details["effective_bits"],
            "params": int(result.params),
        }
    return measured


def test_quant_accuracy_matches_goldens(quant_space, update_goldens):
    measured = _measure_reference(quant_space)

    if update_goldens:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")
        pytest.skip("quant accuracy goldens regenerated; review the diff")

    assert GOLDEN_PATH.exists(), (
        f"missing {GOLDEN_PATH}; generate it with pytest --update-goldens"
    )
    goldens = json.loads(GOLDEN_PATH.read_text())
    assert set(measured) == set(goldens), "reference scheme set drifted"
    for identifier, golden in goldens.items():
        got = measured[identifier]
        assert got["params"] == golden["params"], f"params drift for {identifier}"
        assert got["effective_bits"] == golden["effective_bits"], identifier
        assert got["accuracy"] == pytest.approx(golden["accuracy"], rel=1e-9), (
            f"accuracy drift for {identifier}"
        )
        assert got["accuracy_delta"] == pytest.approx(
            golden["accuracy_delta"], rel=1e-9, abs=1e-12
        ), identifier


def test_goldens_pin_sensible_quantization_damage():
    """int8 hurts more than fp16; both cost well under a point of accuracy."""
    goldens = json.loads(GOLDEN_PATH.read_text())
    deltas = {
        identifier: entry["accuracy_delta"] for identifier, entry in goldens.items()
    }
    int8 = deltas["C8[HP19=int8,HP20=2]"]
    fp16 = deltas["C8[HP19=fp16,HP20=2]"]
    assert -0.01 < int8 < 0.0, f"int8-only delta {int8} out of the pinned band"
    # fp16 is storage-only: near-lossless, so its delta sits inside the
    # surrogate's noise floor and may land a hair above zero
    assert abs(fp16) < 1e-3 and fp16 > int8, f"fp16 delta {fp16} vs int8 {int8}"


# --------------------------------------------------------------------------- #
# Composed prune+quant search, end to end
# --------------------------------------------------------------------------- #
class TestComposedSearch:
    def test_random_search_composes_pruning_with_quantization(self):
        space = StrategySpace(method_labels=["C3", "C8"])
        evaluator = _surrogate(latency_batch=4)
        result = run_solver(
            "random", evaluator, space, gamma=0.2, budget_hours=1.0, seed=0
        )
        assert result.evaluations > 1
        quantized = [
            r for r in result.all_results
            if any(s.method_label == "C8" for s in r.scheme.strategies)
        ]
        assert quantized, "no prune+quant scheme was evaluated (seed drifted?)"
        # the measured-latency column is attached to every result...
        assert all(r.latency_ms > 0.0 for r in result.all_results)
        # ...and quantized schemes report the executed precision
        for r in quantized:
            report = next(
                rep for rep in r.step_reports if rep.method == "C8"
            )
            assert report.details["effective_bits"] in (8.0, 16.0)

    def test_summary_reports_measured_latency(self):
        evaluator = _surrogate(latency_batch=4)
        space = StrategySpace(method_labels=["C3", "C8"])
        result = run_solver(
            "random", evaluator, space, gamma=0.2, budget_hours=0.5, seed=1
        )
        if result.best is not None:
            assert "ms/batch" in result.summary()

    def test_random_search_never_quantizes_twice(self):
        """A second C8 draw is skipped, not submitted for an L009 rejection."""
        space = StrategySpace(method_labels=["C3", "C8"], include_quantization=True)
        evaluator = make_evaluator(*EXPERIMENTS["Exp1"], seed=1)
        result = run_solver(
            "random", evaluator, space, gamma=0.3, budget_hours=3.0, max_length=5, seed=1
        )
        assert evaluator.rejected_count == 0
        for r in result.all_results:
            labels = [s.method_label for s in r.scheme.strategies]
            assert labels.count("C8") <= 1, r.scheme.identifier


# --------------------------------------------------------------------------- #
# Effect-signature alignment: predicted bits == executed bits
# --------------------------------------------------------------------------- #
class TestWeightBitsDrift:
    def test_predicted_bits_match_executed(self, quant_space):
        evaluator = _surrogate()
        evaluator.set_budget(Budget(max_params=10**9))  # enables predictions
        for text in ("C8[HP19=int8,HP20=1]", "C8[HP19=fp16,HP20=2]"):
            evaluator.evaluate(quant_space.parse_scheme(text))
        drift = evaluator.prediction_drift()
        assert drift["weight_bits_mismatches"] == 0.0

    def test_float_schemes_do_not_drift_either(self, quant_space):
        evaluator = _surrogate()
        evaluator.set_budget(Budget(max_params=10**9))
        evaluator.evaluate(quant_space.parse_scheme("C3[HP1=0.1,HP2=0.2,HP6=0.7]"))
        assert evaluator.prediction_drift()["weight_bits_mismatches"] == 0.0

    def test_latency_violations_counted_not_rejected(self, quant_space):
        evaluator = _surrogate(latency_batch=2)
        # an impossible measured-latency budget: everything violates, nothing
        # is rejected (the cost is already paid when the wall-clock exists).
        # Linting is off so the S004 *proxy* check cannot reject first — the
        # point here is the measured side of the constraint.
        evaluator.set_budget(Budget(max_latency_ms=1e-9))
        evaluator.lint_schemes = False
        result = evaluator.evaluate(
            quant_space.parse_scheme("C8[HP19=int8,HP20=1]")
        )
        assert result.latency_ms > 0.0
        assert evaluator.latency_violations == 1
