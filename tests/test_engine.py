"""Tests for the batched evaluation engine, persistent cache and new API.

Covers the PR's acceptance criteria: serial-vs-parallel bit-identity on both
backends, warm-cache runs paying zero simulated hours for seen schemes,
fingerprint-mismatch cache misses, `EvaluatorConfig` construction,
and PYTHONHASHSEED-independence of evaluation results.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.linter import SchemeRejected
from repro.core import (
    EvaluationEngine,
    Evaluator,
    EvaluatorConfig,
    ResultCache,
    SurrogateEvaluator,
    TrainingEvaluator,
)
from repro.core.evaluator import stable_hash
from repro.data.datasets import tiny_dataset
from repro.data.tasks import EXP1, transfer_task
from repro.models import create_model, resnet20
from repro.space import CompressionScheme, StrategySpace

TASK = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)


def make_surrogate(seed=0):
    return SurrogateEvaluator(
        lambda: resnet20(num_classes=10),
        "resnet20",
        "cifar10",
        TASK,
        config=EvaluatorConfig(seed=seed),
    )


@pytest.fixture(scope="module")
def space():
    return StrategySpace()


@pytest.fixture(scope="module")
def schemes(space):
    """A small batch with a shared prefix, a duplicate, and singletons."""
    c3 = space.of_method("C3")
    c2 = space.of_method("C2")
    base = CompressionScheme((c3[4],))
    return [
        base,
        base.extend(c3[8]),
        CompressionScheme((c2[2],)),
        base,  # duplicate of schemes[0]
        CompressionScheme((c3[11],)),
    ]


def assert_results_identical(a, b):
    assert a.scheme.identifier == b.scheme.identifier
    assert a.accuracy == b.accuracy
    assert a.params == b.params
    assert a.flops == b.flops
    assert a.cost == b.cost
    assert a.step_costs == b.step_costs


class TestSerialParallelEquivalence:
    def test_surrogate_bit_identical(self, schemes):
        serial = EvaluationEngine(make_surrogate(), workers=0)
        with EvaluationEngine(make_surrogate(), workers=2) as parallel:
            for a, b in zip(serial.evaluate_many(schemes), parallel.evaluate_many(schemes)):
                assert_results_identical(a, b)
            assert serial.total_cost == parallel.total_cost
            assert serial.evaluation_count == parallel.evaluation_count
            front_a = {r.scheme.identifier for r in serial.pareto_results(None)}
            front_b = {r.scheme.identifier for r in parallel.pareto_results(None)}
            assert front_a == front_b

    def test_training_bit_identical(self, space):
        train = tiny_dataset(num_classes=4, num_samples=96, image_size=8, seed=1)
        val = tiny_dataset(num_classes=4, num_samples=48, image_size=8, seed=2)
        c3 = space.of_method("C3")
        batch = [
            CompressionScheme((c3[4],)),
            CompressionScheme((c3[4], c3[8])),
        ]

        def make():
            return TrainingEvaluator(
                "resnet8", train, val,
                config=EvaluatorConfig(pretrain_epochs=1.0, seed=5),
            )

        serial = EvaluationEngine(make(), workers=0)
        with EvaluationEngine(make(), workers=2) as parallel:
            for a, b in zip(serial.evaluate_many(batch), parallel.evaluate_many(batch)):
                assert_results_identical(a, b)
            assert serial.total_cost == parallel.total_cost

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_parallel_merge_keeps_drift_and_latency_books(self, schemes, traced):
        """The parallel merge does the serial path's post-evaluation
        bookkeeping: cost-model drift and measured-latency violations.

        The 2 ms cap sits between the static latency proxy (at most 1.1 ms
        here, so lint lets every scheme through) and the measured batch-2
        latency (so every evaluation violates it)."""
        from repro.analysis.costmodel import Budget
        from repro.obs import Tracer, attach_tracer

        def make(workers):
            evaluator = SurrogateEvaluator(
                lambda: resnet20(num_classes=10), "resnet20", "cifar10", TASK,
                config=EvaluatorConfig(seed=0, latency_batch=2),
            )
            evaluator.set_budget(Budget(max_params=10**9, max_latency_ms=2.0))
            engine = EvaluationEngine(evaluator, workers=workers)
            if traced:
                attach_tracer(engine, Tracer())
            return engine

        serial = make(0)
        with make(2) as parallel:
            for a, b in zip(serial.evaluate_many(schemes), parallel.evaluate_many(schemes)):
                assert_results_identical(a, b)
                assert min(a.latency_ms, b.latency_ms) > 2.0
        unique = len({s.identifier for s in schemes})
        assert serial.latency_violations == parallel.latency_violations == unique
        assert serial.prediction_drift() == parallel.prediction_drift()
        assert serial.prediction_drift()["predicted_evals"] == unique
        if traced:
            for engine in (serial, parallel):
                spans = [s for s in engine.tracer.spans if s.name == "evaluate"]
                assert sum(s.sim_cost for s in spans) == engine.total_cost
                assert all("drift_params_pct" in s.attrs for s in spans)

    def test_engine_matches_bare_evaluator(self, schemes):
        bare = make_surrogate()
        bare_results = bare.evaluate_many(schemes)
        engine = EvaluationEngine(make_surrogate(), workers=0)
        for a, b in zip(bare_results, engine.evaluate_many(schemes)):
            assert_results_identical(a, b)
        assert bare.total_cost == engine.total_cost

    def test_batch_charges_match_sequential_evaluate(self, schemes):
        one_by_one = make_surrogate()
        for scheme in schemes:
            one_by_one.evaluate(scheme)
        batched = make_surrogate()
        batched.evaluate_many(schemes)
        assert one_by_one.total_cost == batched.total_cost


class TestPersistentCache:
    def test_round_trip_pays_zero(self, tmp_path, schemes):
        first = EvaluationEngine(make_surrogate(), workers=0, cache_dir=tmp_path)
        r1 = first.evaluate_many(schemes)
        assert first.cache_hits == 0
        assert first.total_cost > 0

        second = EvaluationEngine(make_surrogate(), workers=0, cache_dir=tmp_path)
        r2 = second.evaluate_many(schemes)
        assert second.fresh_evaluations == 0
        assert second.total_cost == 0.0
        assert second.evaluation_count == 0
        assert second.cache_hits == len({s.identifier for s in schemes})
        for a, b in zip(r1, r2):
            assert a.accuracy == b.accuracy
            assert a.params == b.params
            assert a.flops == b.flops
            assert a.step_costs == b.step_costs

    def test_foreign_hits_distinguish_other_writers(self, tmp_path, schemes):
        writer = EvaluationEngine(make_surrogate(), workers=0, cache_dir=tmp_path)
        writer.evaluate_many(schemes[:2])
        assert writer.cache_foreign_hits == 0

        # every hit in a fresh engine was written by someone else
        reader = EvaluationEngine(make_surrogate(), workers=0, cache_dir=tmp_path)
        reader.evaluate_many(schemes[:2])
        unique = len({s.identifier for s in schemes[:2]})
        assert reader.cache_hits == unique
        assert reader.cache_foreign_hits == unique

    def test_latency_column_round_trips_through_cache(self, tmp_path, schemes):
        def make():
            return SurrogateEvaluator(
                lambda: resnet20(num_classes=10), "resnet20", "cifar10", TASK,
                config=EvaluatorConfig(seed=0, latency_batch=2),
            )

        first = EvaluationEngine(make(), workers=0, cache_dir=tmp_path)
        [r1] = first.evaluate_many(schemes[:1])
        assert r1.latency_ms > 0.0
        # a hit replays the recorded wall-clock instead of re-measuring
        second = EvaluationEngine(make(), workers=0, cache_dir=tmp_path)
        [r2] = second.evaluate_many(schemes[:1])
        assert second.cache_hits == 1
        assert r2.latency_ms == r1.latency_ms

    def test_fingerprint_mismatch_misses(self, tmp_path, schemes):
        EvaluationEngine(make_surrogate(seed=0), workers=0, cache_dir=tmp_path).evaluate_many(
            schemes[:1]
        )
        other = EvaluationEngine(make_surrogate(seed=1), workers=0, cache_dir=tmp_path)
        other.evaluate_many(schemes[:1])
        assert other.cache_hits == 0
        assert other.fresh_evaluations == 1

    def test_fresh_child_of_cached_parent_charges_increment(self, tmp_path, space):
        c3 = space.of_method("C3")
        parent = CompressionScheme((c3[4],))
        child = parent.extend(c3[8])
        EvaluationEngine(make_surrogate(), workers=0, cache_dir=tmp_path).evaluate_many(
            [parent, child]
        )
        warm = EvaluationEngine(make_surrogate(), workers=0, cache_dir=tmp_path)
        grandchild = child.extend(c3[2])
        result = warm.evaluate_many([parent, child, grandchild])[-1]
        assert warm.cache_hits == 2 and warm.fresh_evaluations == 1
        # only the third step is paid: parent+child steps came from the cache
        from repro.core.evaluator import EVAL_OVERHEAD_HOURS

        expected = EVAL_OVERHEAD_HOURS + result.step_costs[2]
        assert result.cost == pytest.approx(expected)
        assert warm.total_cost == result.cost

    def test_corrupt_cache_file_is_a_miss(self, tmp_path, schemes):
        engine = EvaluationEngine(make_surrogate(), workers=0, cache_dir=tmp_path)
        engine.evaluate_many(schemes[:1])
        (payload_file,) = list(engine.cache.root.glob("*.json"))
        payload_file.write_text("{not json")
        again = EvaluationEngine(make_surrogate(), workers=0, cache_dir=tmp_path)
        again.evaluate_many(schemes[:1])
        assert again.cache_hits == 0
        assert again.fresh_evaluations == 1

    def test_cache_json_preserves_floats_exactly(self, tmp_path, schemes):
        engine = EvaluationEngine(make_surrogate(), workers=0, cache_dir=tmp_path)
        (result,) = engine.evaluate_many(schemes[:1])
        reloaded = ResultCache(tmp_path, engine.fingerprint()).get(schemes[0])
        assert reloaded.accuracy == result.accuracy
        assert reloaded.step_costs == result.step_costs


class TestBatchContract:
    def test_duplicates_map_to_same_object(self, schemes):
        evaluator = make_surrogate()
        results = evaluator.evaluate_many(schemes)
        assert results[0] is results[3]
        assert evaluator.evaluation_count == len({s.identifier for s in schemes})

    def test_results_align_with_input_order(self, schemes):
        evaluator = make_surrogate()
        results = evaluator.evaluate_many(schemes)
        for scheme, result in zip(schemes, results):
            assert result.scheme.identifier == scheme.identifier

    def test_lint_rejects_before_any_evaluation(self, space):
        c3 = space.of_method("C3")
        good = CompressionScheme((c3[4],))
        doomed = CompressionScheme(tuple(c3[0] for _ in range(6)))  # L006: too long
        evaluator = make_surrogate()
        with pytest.raises(SchemeRejected):
            evaluator.evaluate_many([good, doomed])
        assert evaluator.evaluation_count == 0
        assert evaluator.total_cost == 0.0
        assert doomed.identifier in evaluator.rejected


class TestEvaluatorProtocol:
    def test_backends_and_engine_satisfy_protocol(self):
        evaluator = make_surrogate()
        assert isinstance(evaluator, Evaluator)
        engine = EvaluationEngine(evaluator, workers=0)
        assert isinstance(engine, Evaluator)

    def test_engine_delegates_evaluator_surface(self):
        engine = EvaluationEngine(make_surrogate(), workers=0)
        assert engine.task is engine.evaluator.task
        assert engine.base_accuracy == engine.evaluator.base_accuracy

    def test_workers_require_buildable_config(self):
        train = tiny_dataset(num_classes=4, num_samples=32, image_size=8, seed=1)
        val = tiny_dataset(num_classes=4, num_samples=16, image_size=8, seed=2)
        opaque = TrainingEvaluator(
            lambda: create_model("resnet8", num_classes=4), train, val,
            config=EvaluatorConfig(pretrain_epochs=0.5),
        )
        with pytest.raises(ValueError):
            EvaluationEngine(opaque, workers=2)
        EvaluationEngine(opaque, workers=0)  # serial is always fine


class TestConfigShim:
    def test_unknown_kwarg_raises(self):
        with pytest.raises(TypeError):
            SurrogateEvaluator(
                lambda: resnet20(num_classes=10), "resnet20", "cifar10", TASK,
                nonsense=1,
            )

    def test_backend_defaults_resolved(self):
        config = EvaluatorConfig().resolved("surrogate")
        assert config.pretrain_epochs == 100.0
        assert config.model_cache_size == 32
        config = EvaluatorConfig().resolved("training")
        assert config.pretrain_epochs == 2.0
        assert config.model_cache_size == 16


class TestStableHash:
    def test_crc32_is_deterministic(self):
        assert stable_hash("C3[HP1=0.5]") == stable_hash("C3[HP1=0.5]")
        assert stable_hash("a") != stable_hash("b")

    def test_results_independent_of_pythonhashseed(self, space):
        """The old builtin-hash seeding made accuracies vary per process."""
        c3 = space.of_method("C3")
        scheme = CompressionScheme((c3[4], c3[8]))
        script = (
            "import json, sys;"
            "from repro.core import SurrogateEvaluator, EvaluatorConfig;"
            "from repro.data.tasks import EXP1, transfer_task;"
            "from repro.models import resnet20;"
            "from repro.space import StrategySpace, CompressionScheme;"
            "space = StrategySpace();"
            "c3 = space.of_method('C3');"
            "task = transfer_task(EXP1, 'resnet20', 0.27, 0.08, EXP1.model_accuracy);"
            "ev = SurrogateEvaluator(lambda: resnet20(num_classes=10), 'resnet20',"
            " 'cifar10', task, config=EvaluatorConfig(seed=0));"
            "r = ev.evaluate(CompressionScheme((c3[4], c3[8])));"
            "print(json.dumps([r.accuracy, r.params, r.cost]))"
        )
        outputs = []
        for hash_seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (env.get("PYTHONPATH"), "src") if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        assert outputs[0] == outputs[1]


class TestIncrementalRecord:
    def test_matches_full_rescan(self, schemes):
        from repro.core.pareto import hypervolume_2d, pareto_mask
        from repro.core.search import SearchStrategy

        evaluator = make_surrogate()
        strategy = SearchStrategy(
            evaluator, StrategySpace(), gamma=0.3, budget_hours=10.0
        )
        for scheme in schemes:
            evaluator.evaluate(scheme)
            point = strategy.record()
            everything = [
                r for r in evaluator.results.values() if not r.scheme.is_empty
            ]
            points = np.stack([r.objectives for r in everything])
            assert point.front_size == int(pareto_mask(points).sum())
            assert point.hypervolume == pytest.approx(
                hypervolume_2d(points, (-1.0, 0.0))
            )
            feasible = [r for r in everything if r.meets_target(0.3)]
            if feasible:
                best = max(feasible, key=lambda r: r.accuracy)
                assert point.best_accuracy == best.accuracy

    def test_search_result_all_results_defaults_to_list(self):
        from repro.core.search import SearchResult

        result = SearchResult(
            algorithm="x", pareto=[], front=[], trajectory=[],
            total_cost=0.0, evaluations=0, gamma=0.3,
        )
        assert result.all_results == []
