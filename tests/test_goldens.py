"""Golden-regression tests for the surrogate evaluator's measured metrics.

Params/PR/FLOPs/FR, the surrogate accuracy, the charged cost and the
per-step cost vector for a fixed set of reference schemes on the two paper
models (ResNet-56/CIFAR-10, VGG-16/CIFAR-100) are pinned to
``tests/goldens/surrogate_metrics.json``.  The chains include a 2-step
scheme evaluated after its 1-step prefix, so the evaluator's prefix resume
and incremental charging are covered too.  Any refactor of the model
builders, compression surgery, accuracy surrogate or cost accounting that
shifts these numbers fails here first — loudly and with the exact delta.

To intentionally re-baseline after a behaviour-changing PR::

    pytest tests/test_goldens.py --update-goldens

then review the JSON diff before committing.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.common import EXPERIMENTS, make_evaluator
from repro.space import CompressionScheme, StrategySpace

GOLDEN_PATH = Path(__file__).parent / "goldens" / "surrogate_metrics.json"

#: reference schemes per experiment, as (method_label, strategy_index) chains —
#: indices into ``space.of_method(label)``, stable because the HP grids are.
REFERENCE_CHAINS = [
    [("C3", 4)],
    [("C3", 4), ("C3", 8)],
    [("C2", 2)],
    [("C5", 7), ("C1", 3)],
]


def _reference_schemes(space: StrategySpace):
    for chain in REFERENCE_CHAINS:
        scheme = CompressionScheme()
        for label, index in chain:
            scheme = scheme.extend(space.of_method(label)[index])
        yield scheme


def _measure(exp_name: str, space: StrategySpace) -> dict:
    model_name, dataset_name, task = EXPERIMENTS[exp_name]
    evaluator = make_evaluator(model_name, dataset_name, task, seed=0)
    measured = {}
    for scheme in _reference_schemes(space):
        result = evaluator.evaluate(scheme)
        measured[scheme.identifier] = {
            "params": int(result.params),
            "pr": result.pr,
            "flops": int(result.flops),
            "fr": result.fr,
            "accuracy": result.accuracy,
            "cost": result.cost,
            "step_costs": list(result.step_costs),
        }
    return measured


@pytest.mark.parametrize("exp_name", sorted(EXPERIMENTS))
def test_surrogate_metrics_match_goldens(exp_name, space, update_goldens):
    measured = _measure(exp_name, space)

    if update_goldens:
        goldens = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        goldens[exp_name] = measured
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"goldens for {exp_name} regenerated; review the diff")

    assert GOLDEN_PATH.exists(), (
        f"missing {GOLDEN_PATH}; generate it with pytest --update-goldens"
    )
    goldens = json.loads(GOLDEN_PATH.read_text())
    assert exp_name in goldens, f"no goldens for {exp_name}; run --update-goldens"
    expected = goldens[exp_name]

    assert set(measured) == set(expected), "reference scheme set drifted"
    for identifier, golden in expected.items():
        got = measured[identifier]
        # params/flops are exact integer structure counts; pr/fr derive from
        # them by division, so a tight relative tolerance guards against
        # platform float noise without hiding real drift.
        assert got["params"] == golden["params"], f"params drift for {identifier}"
        assert got["flops"] == golden["flops"], f"flops drift for {identifier}"
        assert got["pr"] == pytest.approx(golden["pr"], rel=1e-12), identifier
        assert got["fr"] == pytest.approx(golden["fr"], rel=1e-12), identifier
        assert got["accuracy"] == pytest.approx(golden["accuracy"], rel=1e-12), identifier
        assert got["cost"] == pytest.approx(golden["cost"], rel=1e-12), identifier
        assert got["step_costs"] == pytest.approx(golden["step_costs"], rel=1e-12), identifier


def test_goldens_file_is_well_formed():
    """The checked-in goldens cover both experiments and all chains."""
    goldens = json.loads(GOLDEN_PATH.read_text())
    assert set(goldens) == set(EXPERIMENTS)
    for exp_name, entries in goldens.items():
        assert len(entries) == len(REFERENCE_CHAINS)
        for identifier, metrics in entries.items():
            assert set(metrics) == {
                "params", "pr", "flops", "fr", "accuracy", "cost", "step_costs",
            }
            assert metrics["params"] > 0 and metrics["flops"] > 0
            assert 0.0 <= metrics["pr"] <= 1.0
            assert 0.0 <= metrics["accuracy"] <= 1.0
            assert len(metrics["step_costs"]) == identifier.count(" -> ") + 1
            assert metrics["cost"] > 0.0
