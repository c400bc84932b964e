"""Tests for soft channel masking."""

import copy

import numpy as np
import pytest

from repro.compression.masks import masked_evaluation, zero_unit_channels
from repro.nn import Tensor


def currently_zeroed(unit, tolerance=1e-12):
    """Channel indices whose producer filters are entirely (near) zero."""
    w = unit.producer.weight.data
    norms = np.abs(w).reshape(w.shape[0], -1).sum(axis=1)
    return np.flatnonzero(norms <= tolerance)


class TestZeroUnitChannels:
    def test_zeroes_producer_and_bn(self, trained_resnet8):
        model = copy.deepcopy(trained_resnet8)
        unit = model.pruning_units()[0]
        zero_unit_channels(unit, np.array([0, 2]))
        assert np.allclose(unit.producer.weight.data[[0, 2]], 0)
        assert np.allclose(unit.bn.gamma.data[[0, 2]], 0)
        assert not np.allclose(unit.producer.weight.data[1], 0)

    def test_empty_drop_noop(self, trained_resnet8):
        model = copy.deepcopy(trained_resnet8)
        unit = model.pruning_units()[0]
        before = unit.producer.weight.data.copy()
        zero_unit_channels(unit, np.array([], dtype=np.int64))
        np.testing.assert_array_equal(unit.producer.weight.data, before)


class TestMaskedEvaluation:
    def test_weights_restored_after(self, trained_resnet8):
        model = copy.deepcopy(trained_resnet8)
        units = model.pruning_units()
        snapshot = {u.name: u.producer.weight.data.copy() for u in units}
        keep = {u.name: np.arange(1, u.out_channels) for u in units}  # drop ch 0
        masked_evaluation(units, keep, lambda: 0.0)
        for u in units:
            np.testing.assert_array_equal(u.producer.weight.data, snapshot[u.name])

    def test_restored_even_if_evaluate_raises(self, trained_resnet8):
        model = copy.deepcopy(trained_resnet8)
        units = model.pruning_units()
        snapshot = {u.name: u.producer.weight.data.copy() for u in units}
        keep = {u.name: np.arange(1, u.out_channels) for u in units}

        def boom():
            raise RuntimeError("fitness failed")

        with pytest.raises(RuntimeError):
            masked_evaluation(units, keep, boom)
        for u in units:
            np.testing.assert_array_equal(u.producer.weight.data, snapshot[u.name])

    def test_mask_active_during_evaluation(self, trained_resnet8):
        model = copy.deepcopy(trained_resnet8)
        units = model.pruning_units()
        keep = {u.name: np.arange(1, u.out_channels) for u in units}

        def check():
            return float(units[0].producer.weight.data[0].sum())

        assert masked_evaluation(units, keep, check) == 0.0

    def test_full_keep_noop(self, trained_resnet8):
        model = copy.deepcopy(trained_resnet8)
        units = model.pruning_units()
        keep = {u.name: np.arange(u.out_channels) for u in units}
        x = np.random.default_rng(0).normal(size=(1, 3, 8, 8))
        model.eval()
        reference = model(Tensor(x)).data
        got = masked_evaluation(units, keep, lambda: model(Tensor(x)).data.copy())
        np.testing.assert_allclose(got, reference)


class TestCurrentlyZeroed:
    def test_detects_zeroed(self, trained_resnet8):
        model = copy.deepcopy(trained_resnet8)
        unit = model.pruning_units()[0]
        zero_unit_channels(unit, np.array([1]))
        assert 1 in currently_zeroed(unit)
        assert 0 not in currently_zeroed(unit)
