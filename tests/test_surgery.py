"""Tests for structural surgery: invariants that pruning must preserve."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import profile_model
from repro.compression.surgery import (
    SurgeryError,
    bn_scale_magnitudes,
    execute_plan,
    filter_l1_norms,
    filter_l2_norms,
    greedy_removal,
    params_per_channel,
    plan_global_pruning,
    prune_by_scores,
    prune_unit,
    uniform_width_scale,
)
from repro.models import resnet8, resnet56, vgg8_tiny, vgg16
from repro.nn import Tensor


def _forward_ok(model, size=8):
    out = model(Tensor(np.random.default_rng(0).normal(size=(2, 3, size, size))))
    assert np.isfinite(out.data).all()
    return out


class TestPruneUnit:
    def test_removes_channels_everywhere(self, trained_resnet8):
        model = copy.deepcopy(trained_resnet8)
        unit = model.pruning_units()[0]
        before = unit.out_channels
        keep = np.arange(before // 2)
        prune_unit(unit, keep)
        assert unit.producer.out_channels == before // 2
        assert unit.bn.num_features == before // 2
        assert unit.consumers[0].in_channels == before // 2
        _forward_ok(model)

    def test_refuses_empty_keep(self, trained_resnet8):
        model = copy.deepcopy(trained_resnet8)
        unit = model.pruning_units()[0]
        with pytest.raises(SurgeryError):
            prune_unit(unit, np.array([], dtype=np.int64))

    def test_keeps_correct_filters(self, trained_resnet8):
        model = copy.deepcopy(trained_resnet8)
        unit = model.pruning_units()[0]
        original = unit.producer.weight.data.copy()
        keep = np.array([0, 2])
        prune_unit(unit, keep)
        np.testing.assert_allclose(unit.producer.weight.data, original[[0, 2]])

    def test_equivalent_output_when_pruning_dead_channels(self, trained_vgg8):
        """Pruning channels whose filters are zero must not change outputs."""
        model = copy.deepcopy(trained_vgg8)
        model.eval()
        unit = model.pruning_units()[0]
        dead = np.array([1, 3])
        unit.producer.weight.data[dead] = 0.0
        unit.bn.gamma.data[dead] = 0.0
        unit.bn.beta.data[dead] = 0.0
        unit.bn.running_mean[dead] = 0.0
        unit.bn.running_var[dead] = 1.0
        x = np.random.default_rng(1).normal(size=(2, 3, 8, 8))
        before = model(Tensor(x)).data.copy()
        keep = np.setdiff1d(np.arange(unit.out_channels), dead)
        prune_unit(unit, keep)
        after = model(Tensor(x)).data
        # Pruned channels are exactly zero, but removing them changes the
        # float32 summation order downstream — allow that much noise.
        np.testing.assert_allclose(before, after, atol=1e-6)


class TestGlobalPlanning:
    def test_budget_respected(self, trained_vgg8):
        model = copy.deepcopy(trained_vgg8)
        units = model.pruning_units()
        scores = {u.name: filter_l2_norms(u) for u in units}
        total = model.num_parameters()
        plan = plan_global_pruning(units, scores, param_budget=total // 5)
        assert plan.params_removed >= total // 5 * 0.8  # close to target

    def test_lowest_scores_removed_first(self, trained_vgg8):
        model = copy.deepcopy(trained_vgg8)
        units = model.pruning_units()
        scores = {u.name: np.arange(u.out_channels, dtype=float) for u in units}
        plan = plan_global_pruning(units, scores, param_budget=1)
        # Only the very cheapest/lowest-scoring channels go; all keeps are suffixes.
        for u in units:
            kept = plan.keep[u.name]
            dropped = np.setdiff1d(np.arange(u.out_channels), kept)
            if dropped.size:
                assert dropped.max() < kept.min()

    def test_max_ratio_cap(self, trained_vgg8):
        model = copy.deepcopy(trained_vgg8)
        units = model.pruning_units()
        scores = {u.name: filter_l2_norms(u) for u in units}
        plan = plan_global_pruning(
            units, scores, param_budget=10**9, max_ratio=0.5
        )
        for u in units:
            assert len(plan.keep[u.name]) >= int(np.ceil(u.out_channels * 0.5))

    def test_score_length_mismatch_raises(self, trained_vgg8):
        model = copy.deepcopy(trained_vgg8)
        units = model.pruning_units()
        scores = {u.name: np.ones(3) for u in units}
        with pytest.raises(SurgeryError, match="score length"):
            plan_global_pruning(units, scores, param_budget=10)

    def test_execute_close_to_plan(self, trained_vgg8):
        """Measured removal tracks the plan estimate (chain interactions
        make the estimate an upper bound in VGG topologies)."""
        model = copy.deepcopy(trained_vgg8)
        units = model.pruning_units()
        scores = {u.name: filter_l2_norms(u) for u in units}
        before = model.num_parameters()
        plan = plan_global_pruning(units, scores, param_budget=before // 6)
        execute_plan(units, plan)
        measured = before - model.num_parameters()
        assert 0 < measured <= plan.params_removed
        assert measured >= 0.7 * plan.params_removed
        _forward_ok(model)

    def test_prune_by_scores_iterates_to_budget(self, trained_vgg8):
        model = copy.deepcopy(trained_vgg8)
        before = model.num_parameters()
        budget = before // 6
        scores = {u.name: filter_l2_norms(u) for u in model.pruning_units()}
        removed = prune_by_scores(model, scores, budget)
        assert removed == before - model.num_parameters()
        assert removed >= 0.95 * budget
        _forward_ok(model)


def reference_plan(units, scores, param_budget, max_ratio=0.9, min_channels=1):
    """The channel-at-a-time greedy ``plan_global_pruning`` replaced, as
    (keep per unit, params removed)."""
    candidates = []  # (score, unit_index, channel)
    limits = []
    for ui, unit in enumerate(units):
        unit_scores = np.asarray(scores[unit.name], dtype=np.float64)
        n = unit.out_channels
        limits.append(max(min_channels, int(np.ceil(n * (1.0 - max_ratio)))))
        for ch in range(n):
            candidates.append((unit_scores[ch], ui, ch))
    candidates.sort(key=lambda t: t[0])

    removed_per_unit = [0] * len(units)
    drop = [[] for _ in units]
    costs = [params_per_channel(u) for u in units]
    removed_params = 0
    for score, ui, ch in candidates:
        if removed_params >= param_budget:
            break
        if units[ui].out_channels - removed_per_unit[ui] - 1 < limits[ui]:
            continue
        drop[ui].append(ch)
        removed_per_unit[ui] += 1
        removed_params += costs[ui]

    keep = {}
    for ui, unit in enumerate(units):
        mask = np.ones(unit.out_channels, dtype=bool)
        mask[np.asarray(drop[ui], dtype=np.int64)] = False
        keep[unit.name] = np.flatnonzero(mask)
    return keep, removed_params


@pytest.fixture(scope="module")
def paper_units():
    """Pruning units of the two paper models, built once."""
    return {"resnet56": resnet56().pruning_units(), "vgg16": vgg16().pruning_units()}


def _scores(units, kind):
    if kind == "l2":
        return {u.name: filter_l2_norms(u) for u in units}
    if kind == "coarse":  # few distinct values: ties across and within units
        return {u.name: np.round(filter_l2_norms(u), 1) for u in units}
    return {u.name: np.ones(u.out_channels) for u in units}  # all tied


class TestGreedyMatchesReference:
    @pytest.mark.parametrize("model", ["resnet56", "vgg16"])
    @pytest.mark.parametrize("kind", ["l2", "coarse", "tied"])
    @pytest.mark.parametrize("max_ratio", [0.3, 0.9, 1.0])
    @pytest.mark.parametrize("min_channels", [1, 4])
    @pytest.mark.parametrize("budget", ["zero", "one", "fifth", "over_total"])
    def test_same_plan(self, paper_units, model, kind, max_ratio, min_channels, budget):
        units = paper_units[model]
        total = sum(params_per_channel(u) * u.out_channels for u in units)
        param_budget = {"zero": 0, "one": 1, "fifth": total // 5, "over_total": total + 1}[budget]
        scores = _scores(units, kind)
        plan = plan_global_pruning(
            units, scores, param_budget, max_ratio=max_ratio, min_channels=min_channels
        )
        keep, removed = reference_plan(
            units, scores, param_budget, max_ratio=max_ratio, min_channels=min_channels
        )
        assert plan.params_removed == removed
        assert type(plan.params_removed) is int
        assert list(plan.keep) == list(keep)
        for name, kept in keep.items():
            np.testing.assert_array_equal(plan.keep[name], kept, err_msg=name)
            assert plan.keep[name].dtype == kept.dtype

    def test_empty_unit_list(self):
        plan = plan_global_pruning([], {}, param_budget=100)
        assert plan.keep == {} and plan.params_removed == 0


class TestFlatGreedy:
    """``greedy_removal`` over flat scores plus per-unit counts."""

    @pytest.mark.parametrize("model", ["resnet56", "vgg16"])
    @pytest.mark.parametrize("kind", ["l2", "coarse", "tied"])
    @pytest.mark.parametrize("max_ratio", [0.3, 1.0])
    @pytest.mark.parametrize("budget", ["zero", "fifth", "over_total"])
    def test_same_drops_as_reference(self, paper_units, model, kind, max_ratio, budget):
        units = paper_units[model]
        costs = [params_per_channel(u) for u in units]
        counts = [u.out_channels for u in units]
        total = sum(c * n for c, n in zip(costs, counts))
        param_budget = {"zero": 0, "fifth": total // 5, "over_total": total + 1}[budget]
        scores = _scores(units, kind)
        limits = [max(1, int(np.ceil(n * (1.0 - max_ratio)))) for n in counts]
        dropped, removed = greedy_removal(
            np.concatenate([scores[u.name] for u in units]), counts, limits, costs, param_budget
        )
        keep, expected_removed = reference_plan(units, scores, param_budget, max_ratio=max_ratio)
        assert removed == expected_removed and type(removed) is int
        assert dropped.dtype == bool and dropped.shape == (sum(counts),)
        expected = np.ones(sum(counts), dtype=bool)
        start = 0
        for unit, n in zip(units, counts):
            expected[start + keep[unit.name]] = False
            start += n
        np.testing.assert_array_equal(dropped, expected)

    def test_no_units(self):
        dropped, removed = greedy_removal(np.empty(0), [], [], [], 100)
        assert dropped.shape == (0,) and removed == 0

    def test_float32_scores_sort_like_float64(self):
        rng = np.random.default_rng(3)
        scores = rng.random(40).astype(np.float32)
        args = ([10, 30], [2, 5], [7, 3], 60)
        narrow, removed = greedy_removal(scores, *args)
        wide, expected = greedy_removal(scores.astype(np.float64), *args)
        np.testing.assert_array_equal(narrow, wide)
        assert removed == expected


class TestPruneByScores:
    @pytest.mark.parametrize("model_factory", [resnet8, vgg8_tiny])
    def test_param_count_decreases_and_forward_works(self, model_factory):
        model = model_factory(num_classes=4)
        before = model.num_parameters()
        scores = {u.name: filter_l2_norms(u) for u in model.pruning_units()}
        removed = prune_by_scores(model, scores, before // 5)
        assert removed > 0
        assert model.num_parameters() == before - removed
        _forward_ok(model)

    def test_flops_also_decrease(self):
        model = vgg8_tiny(num_classes=4)
        flops_before = profile_model(model, (3, 8, 8)).flops
        scores = {u.name: filter_l2_norms(u) for u in model.pruning_units()}
        prune_by_scores(model, scores, model.num_parameters() // 4)
        assert profile_model(model, (3, 8, 8)).flops < flops_before


class TestScoringCriteria:
    def test_l1_l2_norm_shapes(self, trained_resnet8):
        unit = trained_resnet8.pruning_units()[0]
        assert filter_l1_norms(unit).shape == (unit.out_channels,)
        assert filter_l2_norms(unit).shape == (unit.out_channels,)

    def test_l1_dominates_l2(self, trained_resnet8):
        unit = trained_resnet8.pruning_units()[0]
        assert (filter_l1_norms(unit) >= filter_l2_norms(unit) - 1e-12).all()

    def test_bn_scale_magnitudes(self, trained_resnet8):
        unit = trained_resnet8.pruning_units()[0]
        np.testing.assert_allclose(
            bn_scale_magnitudes(unit), np.abs(unit.bn.gamma.data)
        )


class TestUniformWidthScale:
    def test_hits_budget(self):
        model = vgg8_tiny(num_classes=4)
        before = model.num_parameters()
        budget = before // 4
        removed = uniform_width_scale(model, budget)
        assert removed >= budget * 0.9
        _forward_ok(model)

    def test_params_per_channel_consistent(self):
        """Removing exactly one channel frees params_per_channel params."""
        model = vgg8_tiny(num_classes=4)
        unit = model.pruning_units()[1]
        expected = params_per_channel(unit)
        before = model.num_parameters()
        prune_unit(unit, np.arange(1, unit.out_channels))
        assert before - model.num_parameters() == expected


class TestHypothesisInvariants:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=100))
    def test_random_keep_sets_always_leave_valid_model(self, n_keep, seed):
        model = vgg8_tiny(num_classes=4, seed=seed % 3)
        unit = model.pruning_units()[0]
        rng = np.random.default_rng(seed)
        keep = rng.choice(
            unit.out_channels, size=min(n_keep, unit.out_channels), replace=False
        )
        prune_unit(unit, keep)
        assert unit.producer.out_channels == len(set(keep.tolist()))
        _forward_ok(model)
