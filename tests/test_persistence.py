"""Tests for scheme parsing and JSON export."""

import json

import pytest

from repro.core.config import EvaluatorConfig
from repro.core.evaluator import SurrogateEvaluator
from repro.data.tasks import EXP1, transfer_task
from repro.experiments.export import (
    result_to_dict,
    write_json,
)
from repro.models import resnet20
from repro.space import START


class TestSchemeParsing:
    def test_strategy_roundtrip(self, space):
        for index in (0, 321, 3000):
            strategy = space[index]
            parsed = space.parse_strategy(strategy.identifier)
            assert parsed is strategy

    def test_scheme_roundtrip(self, space):
        scheme = START.extend(space[10]).extend(space[2000])
        parsed = space.parse_scheme(scheme.identifier)
        assert parsed.identifier == scheme.identifier

    def test_start_parses_to_empty(self, space):
        assert space.parse_scheme("START").is_empty
        assert space.parse_scheme("").is_empty

    def test_numeric_value_normalisation(self, space):
        parsed = space.parse_strategy("C3[HP1=0.50,HP2=0.2000,HP6=0.9]")
        assert parsed.hp == {"HP1": 0.5, "HP2": 0.2, "HP6": 0.9}

    def test_malformed_raises(self, space):
        with pytest.raises(ValueError):
            space.parse_strategy("C3 HP1=0.5")
        with pytest.raises(ValueError):
            space.parse_strategy("C3[HP99=1]")
        with pytest.raises(ValueError):
            space.parse_strategy("C3[HP1=0.123]")  # value off-grid


class TestJsonExport:
    def test_result_export_fields(self, space):
        task = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)
        evaluator = SurrogateEvaluator(
            lambda: resnet20(num_classes=10), "resnet20", "cifar10", task,
            config=EvaluatorConfig(seed=0),
        )
        result = evaluator.evaluate(START.extend(space.of_method("C3")[0]))
        payload = result_to_dict(result)
        assert set(payload) == {
            "scheme", "length", "params", "flops", "accuracy", "pr", "fr", "ar"
        }
        json.dumps(payload)  # serialisable

    def test_none_result(self):
        assert result_to_dict(None) is None

    def test_write_json(self, tmp_path):
        path = str(tmp_path / "out.json")
        write_json({"hello": [1, 2, 3]}, path)
        assert json.load(open(path)) == {"hello": [1, 2, 3]}
