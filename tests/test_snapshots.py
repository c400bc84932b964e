"""Tests for the disk-backed model-snapshot store and prefix-affinity engine.

Covers PR 5's acceptance criteria: the snapshot tier never changes results
or charged costs (serial ≡ parallel ≡ snapshot-resumed, bit for bit), a
cross-run warm start replays zero prefix steps, eviction respects the byte
budget, corruption falls back to a replay, and the prefix-affinity
scheduler groups/chunks batches deterministically.
"""

import os

import pytest

from repro.core import (
    EvaluationEngine,
    EvaluatorConfig,
    ModelSnapshot,
    ModelSnapshotStore,
    SurrogateEvaluator,
    TrainingEvaluator,
    plan_prefix_groups,
)
from repro.core.engine import DEFAULT_CACHE_ENTRIES, ResultCache
from repro.data.datasets import tiny_dataset
from repro.data.tasks import EXP1, transfer_task
from repro.models import resnet20
from repro.space import CompressionScheme, StrategySpace

TASK = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)


def make_surrogate(snapshot_dir=None, budget_mb=None, seed=0):
    return SurrogateEvaluator(
        lambda: resnet20(num_classes=10),
        "resnet20",
        "cifar10",
        TASK,
        config=EvaluatorConfig(
            seed=seed,
            snapshot_dir=None if snapshot_dir is None else str(snapshot_dir),
            snapshot_budget_mb=budget_mb,
        ),
    )


@pytest.fixture(scope="module")
def space():
    return StrategySpace()


@pytest.fixture(scope="module")
def family(space):
    """Two parents and four children — the progressive-search batch shape."""
    c3 = space.of_method("C3")
    c2 = space.of_method("C2")
    p1 = CompressionScheme((c3[4],))
    p2 = CompressionScheme((c2[2],))
    parents = [p1, p2]
    children = [
        p1.extend(c3[8]),
        p1.extend(c3[11]),
        p2.extend(c3[4]),
        p2.extend(c3[8]),
    ]
    return parents, children


def assert_results_identical(a, b):
    assert a.scheme.identifier == b.scheme.identifier
    assert a.accuracy == b.accuracy
    assert a.params == b.params
    assert a.flops == b.flops
    assert a.cost == b.cost
    assert a.step_costs == b.step_costs


# --------------------------------------------------------------------------- #
class TestSnapshotStore:
    def test_round_trip_preserves_model_and_metadata(self, tmp_path, space):
        c3 = space.of_method("C3")
        evaluator = make_surrogate()
        scheme = CompressionScheme((c3[4],))
        result = evaluator.evaluate(scheme)
        model = evaluator._model_cache[scheme.identifier].model

        store = ModelSnapshotStore(tmp_path, evaluator.fingerprint())
        store.put(
            ModelSnapshot(
                scheme.identifier, model, 0.5,
                list(result.step_reports), list(result.step_costs),
            )
        )
        assert scheme.identifier in store
        loaded = store.get(scheme.identifier)
        assert loaded is not None
        assert loaded.accuracy == 0.5
        assert loaded.step_costs == result.step_costs
        got = loaded.model.state_dict()
        for name, value in model.state_dict().items():
            assert (got[name] == value).all()

    def test_corrupted_snapshot_is_a_miss_and_deleted(self, tmp_path):
        store = ModelSnapshotStore(tmp_path, "f" * 40)
        path = store._path("some -> scheme")
        path.write_bytes(b"not a pickle at all")
        assert store.get("some -> scheme") is None
        assert not path.exists()

    def test_eviction_respects_byte_budget(self, tmp_path, space):
        c3 = space.of_method("C3")
        evaluator = make_surrogate()
        evaluator.evaluate(CompressionScheme((c3[4],)))
        model = evaluator._model_cache[
            CompressionScheme((c3[4],)).identifier
        ].model
        probe = ModelSnapshotStore(tmp_path / "probe", "a" * 40)
        probe.put(ModelSnapshot("probe", model, 0.0))
        one_size = probe.stats()["bytes"]

        store = ModelSnapshotStore(
            tmp_path / "capped", "b" * 40, budget_bytes=int(2.5 * one_size)
        )
        for i in range(5):
            store.put(ModelSnapshot(f"snap-{i}", model, 0.0))
            os.utime(store._path(f"snap-{i}"), (i + 1, i + 1))
        stats = store.stats()
        assert stats["bytes"] <= store.budget_bytes
        assert stats["entries"] < 5  # something was evicted
        # oldest gone, newest kept
        assert "snap-0" not in store
        assert "snap-4" in store

    def test_sole_snapshot_survives_tiny_budget(self, tmp_path, space):
        c3 = space.of_method("C3")
        evaluator = make_surrogate()
        evaluator.evaluate(CompressionScheme((c3[4],)))
        model = evaluator._model_cache[
            CompressionScheme((c3[4],)).identifier
        ].model
        store = ModelSnapshotStore(tmp_path, "c" * 40, budget_bytes=1)
        store.put(ModelSnapshot("only", model, 0.0))
        assert "only" in store  # the just-written snapshot is never evicted


# --------------------------------------------------------------------------- #
class TestSnapshotResume:
    def test_cross_run_warm_start_replays_zero_prefix_steps(
        self, tmp_path, family
    ):
        parents, children = family
        reference = make_surrogate()
        expected = {
            s.identifier: reference.evaluate(s) for s in parents + children
        }

        first = make_surrogate(tmp_path)
        for scheme in parents:
            first.evaluate(scheme)
        assert first.steps_executed == len(parents)

        # fresh process equivalent: new evaluator, empty memory caches
        second = make_surrogate(tmp_path)
        for child in children:
            result = second.evaluate(child)
            reference_result = expected[child.identifier]
            assert result.accuracy == reference_result.accuracy
            assert result.params == reference_result.params
            assert result.step_costs == reference_result.step_costs
        # every child resumed its 1-step parent prefix from disk: only the
        # final step of each child ran, zero prefix steps were replayed
        assert second.steps_executed == len(children)
        assert second.snapshot_hits == len(parents)
        assert second.snapshot_steps_saved == len(parents)

    def test_charged_costs_unchanged_by_snapshots(self, tmp_path, family):
        parents, children = family
        plain = make_surrogate()
        for scheme in parents + children:
            plain.evaluate(scheme)

        warmed = make_surrogate(tmp_path)
        for scheme in parents:
            warmed.evaluate(scheme)
        resumed = make_surrogate(tmp_path)  # cold caches, warm disk
        for scheme in parents + children:
            resumed.evaluate(scheme)
        # charging is a function of the results history only — snapshot
        # resumes must not discount (or double-charge) anything
        assert resumed.total_cost == plain.total_cost
        for identifier, result in plain.results.items():
            assert resumed.results[identifier].cost == result.cost

    def test_corrupted_snapshot_falls_back_to_replay(self, tmp_path, family):
        parents, children = family
        reference = make_surrogate()
        expected = reference.evaluate(children[0])

        first = make_surrogate(tmp_path)
        first.evaluate(parents[0])
        # corrupt every snapshot on disk
        store = first.snapshot_store
        corrupted = 0
        for name in os.listdir(store.root):
            if name.endswith(".snap"):
                (store.root / name).write_bytes(b"\x00garbage")
                corrupted += 1
        assert corrupted > 0

        second = make_surrogate(tmp_path)
        result = second.evaluate(children[0])
        assert result.accuracy == expected.accuracy
        assert result.step_costs == expected.step_costs
        assert second.snapshot_hits == 0
        assert second.steps_executed == children[0].length  # full replay

    def test_training_backend_resumes_bit_identically(self, tmp_path, space):
        train = tiny_dataset(num_classes=4, num_samples=32, image_size=8, seed=1)
        val = tiny_dataset(num_classes=4, num_samples=16, image_size=8, seed=2)
        c3 = space.of_method("C3")
        parent = CompressionScheme((c3[4],))
        child = parent.extend(c3[8])

        def make(snap=None):
            return TrainingEvaluator(
                "resnet8", train, val,
                config=EvaluatorConfig(
                    pretrain_epochs=1.0, seed=5,
                    snapshot_dir=None if snap is None else str(snap),
                ),
            )

        reference = make()
        expected = reference.evaluate(child)

        make(tmp_path).evaluate(parent)
        resumed = make(tmp_path)
        result = resumed.evaluate(child)
        assert result.accuracy == expected.accuracy
        assert result.params == expected.params
        assert result.step_costs == expected.step_costs
        assert resumed.snapshot_hits == 1
        assert resumed.steps_executed == 1


# --------------------------------------------------------------------------- #
class TestEngineWithSnapshots:
    def test_serial_parallel_bit_identical_with_store(self, tmp_path, family):
        parents, children = family
        batch = parents + children
        serial = EvaluationEngine(make_surrogate(), workers=0)
        with EvaluationEngine(
            make_surrogate(tmp_path / "snaps"), workers=2
        ) as parallel:
            for a, b in zip(
                serial.evaluate_many(batch), parallel.evaluate_many(batch)
            ):
                assert_results_identical(a, b)
            assert serial.total_cost == parallel.total_cost
            assert serial.evaluation_count == parallel.evaluation_count

    def test_cold_lanes_resume_from_shared_store(self, tmp_path, family):
        parents, children = family
        # reference: an engine whose history also holds only the children,
        # so charged costs are comparable (charging follows results history)
        reference = EvaluationEngine(make_surrogate(), workers=0)
        expected = {
            r.scheme.identifier: r for r in reference.evaluate_many(children)
        }

        snap = tmp_path / "snaps"
        first = EvaluationEngine(make_surrogate(snap), workers=2)
        first.evaluate_many(parents)
        first.close()  # worker LRUs die with the lanes

        second = EvaluationEngine(make_surrogate(snap), workers=2)
        with second:
            for result in second.evaluate_many(children):
                assert_results_identical(
                    result, expected[result.scheme.identifier]
                )
            # each child replayed only its own final step
            assert second.steps_replayed == len(children)
            assert second.snapshot_hits >= 1
            assert second.snapshot_steps_saved >= 1


# --------------------------------------------------------------------------- #
class TestPrefixGrouping:
    def test_groups_by_shared_prefix_shortest_first(self, family):
        parents, children = family
        batch = [children[0], parents[0], children[2], parents[1], children[1]]
        groups = plan_prefix_groups(batch)
        assert len(groups) == 2
        for group in groups:
            # shortest-first within each family
            lengths = [s.length for s in group]
            assert lengths == sorted(lengths)
        by_head = {g[0].identifier: g for g in groups}
        assert parents[0].identifier in by_head
        assert parents[1].identifier in by_head
        assert len(by_head[parents[0].identifier]) == 3

    def test_unrelated_schemes_stay_singletons(self, space):
        c3 = space.of_method("C3")
        c2 = space.of_method("C2")
        batch = [
            CompressionScheme((c3[4],)),
            CompressionScheme((c2[2],)),
            CompressionScheme((c3[11],)),
        ]
        groups = plan_prefix_groups(batch)
        assert [len(g) for g in groups] == [1, 1, 1]

    def test_max_group_chunks_large_families(self, space):
        c3 = space.of_method("C3")
        base = CompressionScheme((c3[4],))
        batch = [base] + [base.extend(c3[i]) for i in range(6, 12)]
        groups = plan_prefix_groups(batch, max_group=3)
        assert [len(g) for g in groups] == [3, 3, 1]
        assert groups[0][0].identifier == base.identifier

    def test_deterministic_for_same_input(self, family):
        parents, children = family
        batch = parents + children
        a = plan_prefix_groups(batch, max_group=2)
        b = plan_prefix_groups(batch, max_group=2)
        assert [[s.identifier for s in g] for g in a] == [
            [s.identifier for s in g] for g in b
        ]


# --------------------------------------------------------------------------- #
class TestResultCacheCap:
    def test_put_prunes_oldest_beyond_cap(self, tmp_path, family):
        parents, children = family
        evaluator = make_surrogate()
        cache = ResultCache(tmp_path, evaluator.fingerprint(), max_entries=3)
        batch = parents + children
        for i, scheme in enumerate(batch):
            result = evaluator.evaluate(scheme)
            cache.put(result)
            # deterministic mtimes so "oldest" is well defined
            os.utime(cache._path(scheme.identifier), (i + 1, i + 1))
        assert cache.stats()["entries"] <= 3
        # newest survives, oldest pruned
        assert cache.get(batch[-1]) is not None
        assert cache.get(batch[0]) is None

    def test_default_cap_is_applied_by_engine(self, tmp_path):
        engine = EvaluationEngine(
            make_surrogate(), workers=0, cache_dir=tmp_path
        )
        assert engine.cache.max_entries == DEFAULT_CACHE_ENTRIES
        capped = EvaluationEngine(
            make_surrogate(), workers=0, cache_dir=tmp_path, cache_entries=7
        )
        assert capped.cache.max_entries == 7
