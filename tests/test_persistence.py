"""Tests for scheme parsing, experience JSON persistence, and JSON export."""

import json

import pytest

from repro.core.config import EvaluatorConfig
from repro.core.evaluator import SurrogateEvaluator
from repro.data.tasks import EXP1, transfer_task
from repro.experiments.export import (
    result_to_dict,
    search_to_dict,
    write_json,
)
from repro.knowledge import (
    default_experience,
    load_experience,
    record_from_dict,
    record_to_dict,
    save_experience,
)
from repro.models import resnet20
from repro.space import START, StrategySpace


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


class TestExperiencePersistence:
    def test_roundtrip(self, tmp_path):
        """The whole shipped table, C8's pr = 0 records included, reloads
        equal to what was saved."""
        records = default_experience()
        assert any(r.pr == 0.0 for r in records)
        path = str(tmp_path / "experience.json")
        save_experience(records, path)
        assert load_experience(path) == records

    def test_record_validation(self):
        good = record_to_dict(default_experience()[0])
        record_from_dict(good)  # no raise
        bad = dict(good)
        bad["pr"] = 1.5
        with pytest.raises(ValueError, match="pr must be"):
            record_from_dict(bad)
        bad["pr"] = 1.0
        with pytest.raises(ValueError, match="pr must be"):
            record_from_dict(bad)
        bad["pr"] = -0.1
        with pytest.raises(ValueError, match="pr must be"):
            record_from_dict(bad)
        bad = dict(good)
        del bad["task"]
        with pytest.raises(ValueError, match="missing 'task'"):
            record_from_dict(bad)

    def test_non_list_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"method": "C1"}')
        with pytest.raises(ValueError, match="JSON list"):
            load_experience(str(path))

    def test_loaded_records_usable_for_matching(self, tmp_path, space):
        from repro.knowledge import nearest_strategy

        path = str(tmp_path / "experience.json")
        save_experience(default_experience()[:5], path)
        for record in load_experience(path):
            assert nearest_strategy(space, record) is not None


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

    def test_search_export(self, space):
        from repro.core.solver import run_solver

        task = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)
        evaluator = SurrogateEvaluator(
            lambda: resnet20(num_classes=10), "resnet20", "cifar10", task,
            config=EvaluatorConfig(seed=0),
        )
        search = run_solver(
            "random", evaluator, StrategySpace(method_labels=["C3"]),
            gamma=0.2, budget_hours=0.4, seed=0,
        )
        payload = search_to_dict(search)
        assert payload["algorithm"] == "Random"
        assert payload["evaluations"] == search.evaluations
        json.dumps(payload)

    def test_write_json(self, tmp_path):
        path = str(tmp_path / "out.json")
        write_json({"hello": [1, 2, 3]}, path)
        assert json.load(open(path)) == {"hello": [1, 2, 3]}
