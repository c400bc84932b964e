"""Tests for the bottleneck ResNet variant."""


import numpy as np
import pytest

from repro.analysis import profile_model
from repro.compression import METHODS, ExecutionContext
from repro.compression.surgery import filter_l2_norms, prune_by_scores
from repro.models import (
    BottleneckResNet,
    resnet29_bottleneck,
    resnet164_bottleneck,
)
from repro.nn import Tensor


class TestTopology:
    def test_depth_validation(self):
        with pytest.raises(ValueError, match="9n\\+2"):
            BottleneckResNet(depth=50)

    def test_block_count(self):
        assert len(list(resnet29_bottleneck().blocks)) == 9
        assert len(list(resnet164_bottleneck().blocks)) == 54

    def test_forward_shape(self, rng):
        model = resnet29_bottleneck(num_classes=7)
        out = model(Tensor(rng.normal(size=(2, 3, 16, 16))))
        assert out.shape == (2, 7)

    def test_expansion_widths(self):
        model = resnet29_bottleneck(base_width=8)
        first = list(model.blocks)[0]
        assert first.conv3.out_channels == 8 * 4
        assert model.classifier.in_features == 32 * 4

    def test_resnet164_bottleneck_param_count(self):
        """The canonical bottleneck ResNet-164 is ~1.7M params."""
        profile = profile_model(resnet164_bottleneck(), (3, 32, 32))
        assert profile.params_m == pytest.approx(1.7, abs=0.2)


class TestPruning:
    def test_two_units_per_block(self):
        model = resnet29_bottleneck()
        assert len(model.pruning_units()) == 2 * len(list(model.blocks))

    def test_units_consume_next_conv(self):
        model = resnet29_bottleneck()
        units = model.pruning_units()
        block = list(model.blocks)[0]
        assert units[0].producer is block.conv1
        assert units[0].consumers == [block.conv2]
        assert units[1].producer is block.conv2
        assert units[1].consumers == [block.conv3]

    def test_global_pruning_keeps_model_functional(self, rng):
        model = resnet29_bottleneck(num_classes=4)
        before = model.num_parameters()
        scores = {u.name: filter_l2_norms(u) for u in model.pruning_units()}
        removed = prune_by_scores(model, scores, before // 4)
        assert removed > 0
        out = model(Tensor(rng.normal(size=(1, 3, 16, 16))))
        assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("label", ["C3", "C5", "C6"])
    def test_compression_methods_apply(self, label, rng):
        model = resnet29_bottleneck(num_classes=4)
        before = model.num_parameters()
        ctx = ExecutionContext(original_params=before, train_enabled=False)
        hp = {"HP1": 0.1, "HP2": 0.2, "HP6": 0.9, "HP11": "P1", "HP12": "l1norm",
              "HP13": 0.3, "HP14": 1, "HP15": 1.0, "HP16": "MSE"}
        METHODS[label].apply(model, hp, ctx)
        assert model.num_parameters() < before
        out = model(Tensor(rng.normal(size=(1, 3, 16, 16))))
        assert np.isfinite(out.data).all()
