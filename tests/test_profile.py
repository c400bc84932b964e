"""Tests for parameter/FLOP accounting.

``profile_model`` counts FLOPs from the traced graph.  The reference here
counts them the other way: it runs a batch-1 forward pass with the six
FLOP-bearing kernels wrapped, and takes each call's FLOPs from the shapes
of its arguments.  The two must agree on every zoo model, before and after
compression, and both must equal ``tests/goldens/model_costs.json``.
"""

import copy
import inspect
import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import ModelProfile, count_flops, count_params, profile_model
from repro.compression import EXTENSION_METHODS, METHODS
from repro.compression.base import ExecutionContext
from repro.models import available_models, create_model, resnet20, resnet56, vgg16
from repro.nn import (
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    Module,
    ReLU,
    Sequential,
    Tensor,
    no_grad,
)
from repro.nn import functional as F
from repro.nn import quant
from repro.space import StrategySpace

ALL_METHODS = {**METHODS, **EXTENSION_METHODS}

MODEL_COSTS_PATH = Path(__file__).parent / "goldens" / "model_costs.json"

#: the costmodel_tolerance.json battery plus real PTQ: int8, fp16, prune -> int8
PINNED_SCHEMES = json.loads(
    (Path(__file__).parent / "goldens" / "costmodel_tolerance.json").read_text()
)["scheme_battery"] + [
    "C8[HP19=int8,HP20=2]",
    "C8[HP19=fp16,HP20=2]",
    "C4[HP2=0.28,HP9=0.1,HP10=3] -> C8[HP19=int8,HP20=2]",
]


def apply_scheme(model, scheme, base_params):
    """Run the real surgery for ``scheme`` on ``model`` (no training)."""
    ctx = ExecutionContext(original_params=base_params, train_enabled=False)
    for strategy in scheme:
        ALL_METHODS[strategy.method_label].apply(model, strategy.hp, ctx)
    return model


# --------------------------------------------------------------------------- #
# The forward-pass reference counter
# --------------------------------------------------------------------------- #
def _conv_rule(weight: str):
    def rule(args) -> int:
        f, c, kh, kw = args[weight].shape
        n, _, h, w = args["x"].shape
        ho = (h + 2 * args["padding"] - kh) // args["stride"] + 1
        wo = (w + 2 * args["padding"] - kw) // args["stride"] + 1
        outputs = n * ho * wo * f
        return 2 * outputs * c * kh * kw + (outputs if args["bias"] is not None else 0)

    return rule


def _linear_rule(weight: str):
    def rule(args) -> int:
        out_features, in_features = args[weight].shape
        outputs = int(np.prod(args["x"].shape[:-1])) * out_features
        return 2 * outputs * in_features + (outputs if args["bias"] is not None else 0)

    return rule


#: (owner, kernel, FLOPs from the bound arguments): 2 FLOPs per MAC, one
#: per bias add, one per residual output, two per normalised element
KERNEL_RULES = (
    (F, "conv2d", _conv_rule("weight")),
    (F, "linear", _linear_rule("weight")),
    (F, "add_relu", lambda a: int(np.prod(np.broadcast_shapes(a["a"].shape, a["b"].shape)))),
    (F, "batch_norm", lambda a: 2 * int(np.prod(a["x"].shape))),
    (quant, "quant_conv2d", _conv_rule("qweight")),
    (quant, "quant_linear", _linear_rule("qweight")),
)


def reference_flops(model: Module, input_shape) -> int:
    """FLOPs of one batch-1 forward pass, counted at the kernels."""
    total = 0

    def counting(kernel, rule):
        signature = inspect.signature(kernel)

        def wrapper(*args, **kwargs):
            nonlocal total
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            total += rule(bound.arguments)
            return kernel(*args, **kwargs)

        return wrapper

    was_training = model.training
    model.eval()
    try:
        with pytest.MonkeyPatch.context() as patch, no_grad():
            for owner, name, rule in KERNEL_RULES:
                patch.setattr(owner, name, counting(getattr(owner, name), rule))
            model(Tensor(np.zeros((1, *input_shape))))
    finally:
        model.train(was_training)
    return total


def reference_profile(model: Module, input_shape=(3, 32, 32)) -> ModelProfile:
    return ModelProfile(params=model.num_parameters(), flops=reference_flops(model, input_shape))


# --------------------------------------------------------------------------- #
# Hand-computed counts
# --------------------------------------------------------------------------- #
class TestCounting:
    def test_linear_flops_exact(self):
        layer = Sequential(Linear(10, 5))
        # 2 * in * out per sample, plus one add per output for the bias
        # (counted the same way as conv2d's bias).
        assert count_flops(layer, (10,)) == 2 * 10 * 5 + 5

    def test_linear_without_bias_flops_exact(self):
        layer = Sequential(Linear(10, 5, bias=False))
        assert count_flops(layer, (10,)) == 2 * 10 * 5

    def test_conv_flops_exact(self):
        conv = Sequential(Conv2d(3, 8, 3, padding=1, bias=False))
        flops = count_flops(conv, (3, 4, 4))
        assert flops == 2 * 4 * 4 * 8 * 3 * 3 * 3  # 2*Ho*Wo*F*C*k*k

    def test_bias_adds_flops(self):
        with_bias = count_flops(Sequential(Conv2d(3, 8, 3)), (3, 6, 6))
        without = count_flops(Sequential(Conv2d(3, 8, 3, bias=False)), (3, 6, 6))
        assert with_bias == without + 8 * 4 * 4

    def test_reference_agrees_on_hand_cases(self):
        for net, shape in (
            (Sequential(Linear(10, 5)), (10,)),
            (Sequential(Conv2d(3, 8, 3, padding=1, bias=False)), (3, 4, 4)),
            (Sequential(Conv2d(3, 8, 3)), (3, 6, 6)),
        ):
            assert count_flops(net, shape) == reference_flops(net, shape)

    def test_count_params_matches_module(self):
        net = Sequential(Conv2d(3, 4, 3), Linear(4, 2))
        assert count_params(net) == net.num_parameters()

    def test_profile_restores_training_mode(self):
        net = Sequential(Conv2d(3, 4, 3, padding=1), ReLU(), GlobalAvgPool2d(), Linear(4, 2))
        net.train()
        profile_model(net, (3, 8, 8))
        assert net.training


class _Opaque(Module):
    """A custom module with no ``trace_static``: the tracer cannot follow it."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class TestUncountable:
    def test_untraceable_module_raises(self):
        net = Sequential(Conv2d(3, 4, 3), _Opaque(), GlobalAvgPool2d(), Linear(4, 2))
        with pytest.raises(ValueError, match="V010"):
            count_flops(net, (3, 8, 8))

    def test_broken_structure_raises(self):
        net = Sequential(Conv2d(3, 4, 3), Conv2d(5, 2, 3))
        with pytest.raises(ValueError, match="V001"):
            count_flops(net, (3, 8, 8))


class TestPaperNumbers:
    """The profiles should land on the paper's Table 2 baseline row."""

    def test_vgg16_cifar100_matches_table2(self):
        profile = profile_model(vgg16(num_classes=100), (3, 32, 32))
        assert profile.params_m == pytest.approx(14.77, abs=0.05)
        assert profile.flops_g == pytest.approx(0.63, abs=0.02)

    def test_resnet56_cifar10_close_to_table2(self):
        profile = profile_model(resnet56(num_classes=10), (3, 32, 32))
        assert profile.params_m == pytest.approx(0.90, abs=0.08)
        assert profile.flops_g == pytest.approx(0.27, abs=0.04)

    def test_resnet20_smaller_than_resnet56(self):
        p20 = profile_model(resnet20(), (3, 32, 32))
        p56 = profile_model(resnet56(), (3, 32, 32))
        assert p20.params < p56.params
        assert p20.flops < p56.flops

    def test_str_format(self):
        profile = profile_model(resnet20(), (3, 32, 32))
        assert "params" in str(profile) and "FLOPs" in str(profile)


# --------------------------------------------------------------------------- #
# Pinned costs of compressed zoo models
# --------------------------------------------------------------------------- #
def _compressed(name: str) -> dict:
    """``name`` after each pinned scheme, keyed by scheme text."""
    space = StrategySpace(include_quantization=True)
    base = create_model(name)
    base_params = base.num_parameters()
    return {
        text: apply_scheme(copy.deepcopy(base), space.parse_scheme(text), base_params)
        for text in PINNED_SCHEMES
    }


@lru_cache(maxsize=None)
def _pinned_costs(name: str) -> dict:
    """Graph and reference profiles of ``name`` after each pinned scheme."""
    return {
        text: (profile_model(model), reference_profile(model))
        for text, model in _compressed(name).items()
    }


@pytest.mark.parametrize("name", available_models())
def test_model_costs_match_goldens(name, update_goldens):
    """P(M)/F(M) of every zoo model after each pinned scheme, exactly."""
    measured = {
        text: {"params": graph.params, "flops": graph.flops}
        for text, (graph, _) in _pinned_costs(name).items()
    }
    if update_goldens:
        goldens = json.loads(MODEL_COSTS_PATH.read_text()) if MODEL_COSTS_PATH.exists() else {}
        goldens[name] = measured
        MODEL_COSTS_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"model costs for {name} regenerated; review the diff")

    goldens = json.loads(MODEL_COSTS_PATH.read_text())
    assert measured == goldens[name]


@pytest.mark.parametrize("name", available_models())
def test_graph_matches_forward_reference(name):
    """The graph count equals the kernel-level count of a real forward."""
    for text, (graph, reference) in _pinned_costs(name).items():
        assert graph == reference, (name, text)


@pytest.mark.parametrize("name", ["resnet20", "vgg8_tiny"])
def test_profile_runs_no_forward(name, monkeypatch):
    compressed = _compressed(name)
    goldens = json.loads(MODEL_COSTS_PATH.read_text())[name]

    def no_forward(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} ran a forward pass")

    monkeypatch.setattr(Module, "__call__", no_forward)
    for text, model in compressed.items():
        assert profile_model(model) == ModelProfile(**goldens[text]), text
