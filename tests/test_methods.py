"""Integration tests: every compression method really compresses a model.

These run real surgery + real (tiny) gradient training end to end; they are
the strongest evidence that nothing in the pipeline is stubbed.
"""

import copy

import numpy as np
import pytest

from repro.compression import (
    EXTENSION_METHODS,
    METHODS,
    ExecutionContext,
    get_method,
)
from repro.compression.factorized import BasisConv2d, TuckerConv2d
from repro.models import resnet8, vgg8_tiny
from repro.nn import Trainer, evaluate_accuracy

HP_DEFAULTS = {
    "HP1": 0.2, "HP2": 0.2, "HP4": 3, "HP5": 0.5, "HP6": 0.9, "HP7": 0.4,
    "HP8": "l2_weight", "HP9": 0.2, "HP10": 3, "HP11": "P1", "HP12": "l1norm",
    "HP13": 0.3, "HP14": 1, "HP15": 1.0, "HP16": "MSE", "HP17": 5, "HP18": 0.5,
}


def _context(tiny_data, train_enabled=True, original_params=None, seed=0):
    train, val = tiny_data
    return ExecutionContext(
        original_params=original_params,
        pretrain_epochs=2,
        dataset=train,
        val_dataset=val,
        trainer=Trainer(lr=0.05, batch_size=32, seed=seed),
        train_enabled=train_enabled,
        seed=seed,
    )


@pytest.mark.parametrize("label", sorted(METHODS))
@pytest.mark.parametrize("factory", [resnet8, vgg8_tiny], ids=["resnet", "vgg"])
class TestAllMethodsRealRun:
    def test_reduces_params_and_stays_functional(self, label, factory, tiny_data, trained_resnet8, trained_vgg8):
        source = trained_resnet8 if factory is resnet8 else trained_vgg8
        model = copy.deepcopy(source)
        before = model.num_parameters()
        ctx = _context(tiny_data, original_params=before)
        report = METHODS[label].apply(model, dict(HP_DEFAULTS), ctx)

        after = model.num_parameters()
        assert after < before
        assert report.params_before == before
        assert report.params_after == after
        # Step should approximately hit the HP2 budget of 20%.
        step_pr = (before - after) / before
        assert 0.10 <= step_pr <= 0.35
        _, val = tiny_data
        acc = evaluate_accuracy(model, val)
        assert 0.0 <= acc <= 1.0

    def test_analysis_only_mode_no_training(self, label, factory, tiny_data, trained_resnet8, trained_vgg8):
        """train_enabled=False must still do surgery but skip gradients."""
        source = trained_resnet8 if factory is resnet8 else trained_vgg8
        model = copy.deepcopy(source)
        before = model.num_parameters()
        ctx = _context(tiny_data, train_enabled=False, original_params=before)
        report = METHODS[label].apply(model, dict(HP_DEFAULTS), ctx)
        assert model.num_parameters() < before
        # The surrogate evaluator reads its PR deltas from these two fields.
        assert report.params_before == before
        assert report.params_after == model.num_parameters()


class TestMethodSpecifics:
    def test_ns_prunes_lowest_gamma_channels(self, tiny_data, trained_resnet8):
        model = copy.deepcopy(trained_resnet8)
        unit = model.pruning_units()[0]
        # Mark channel 0 as clearly least important.
        unit.bn.gamma.data[0] = 1e-6
        ctx = _context(tiny_data, train_enabled=False, original_params=model.num_parameters())
        METHODS["C3"].apply(model, {**HP_DEFAULTS, "HP2": 0.1}, ctx)
        unit_after = model.pruning_units()[0]
        # Channel 0 should be gone; the next surviving one moved up.
        assert not np.allclose(unit_after.producer.weight.data[0], 0)
        assert abs(unit_after.bn.gamma.data).min() > 1e-6

    def test_sfp_soft_zeroing_recovers(self, tiny_data, trained_resnet8):
        """With training enabled SFP's zeroed filters receive gradients."""
        model = copy.deepcopy(trained_resnet8)
        ctx = _context(tiny_data, original_params=model.num_parameters())
        report = METHODS["C4"].apply(model, {**HP_DEFAULTS, "HP9": 0.5, "HP10": 2}, ctx)
        assert report.train_epochs == pytest.approx(1.0)  # 0.5 * 2 epochs

    def test_hos_creates_tucker_layers(self, tiny_data, trained_vgg8):
        model = copy.deepcopy(trained_vgg8)
        ctx = _context(tiny_data, train_enabled=False, original_params=model.num_parameters())
        METHODS["C5"].apply(model, {**HP_DEFAULTS, "HP2": 0.3}, ctx)
        kinds = [type(m) for m in model.modules()]
        assert TuckerConv2d in kinds

    def test_lfb_creates_basis_layers(self, tiny_data, trained_vgg8):
        model = copy.deepcopy(trained_vgg8)
        ctx = _context(tiny_data, train_enabled=False, original_params=model.num_parameters())
        METHODS["C6"].apply(model, dict(HP_DEFAULTS), ctx)
        kinds = [type(m) for m in model.modules()]
        assert BasisConv2d in kinds

    def test_lma_shrinks_every_unit(self, tiny_data, trained_resnet8):
        model = copy.deepcopy(trained_resnet8)
        widths_before = [u.out_channels for u in model.pruning_units()]
        ctx = _context(tiny_data, train_enabled=False, original_params=model.num_parameters())
        METHODS["C1"].apply(model, {**HP_DEFAULTS, "HP2": 0.3}, ctx)
        widths_after = [u.out_channels for u in model.pruning_units()]
        assert all(a <= b for a, b in zip(widths_after, widths_before))
        assert sum(widths_after) < sum(widths_before)

    def test_legr_respects_hp6_cap(self, tiny_data, trained_vgg8):
        model = copy.deepcopy(trained_vgg8)
        units_before = {u.name: u.out_channels for u in model.pruning_units()}
        ctx = _context(tiny_data, train_enabled=False, original_params=model.num_parameters())
        METHODS["C2"].apply(model, {**HP_DEFAULTS, "HP2": 0.4, "HP6": 0.7}, ctx)
        for unit in model.pruning_units():
            kept_fraction = unit.out_channels / units_before[unit.name]
            assert kept_fraction >= 0.3 - 1e-9  # lost at most HP6 = 70%

    def test_methods_are_singletons_with_labels(self):
        assert set(METHODS) == {"C1", "C2", "C3", "C4", "C5", "C6"}
        for label, method in METHODS.items():
            assert method.label == label
            assert method.techniques

    def test_get_method_by_label_and_name(self):
        assert get_method("C2") is METHODS["C2"]
        assert get_method("legr") is METHODS["C2"]
        assert get_method("NS") is METHODS["C3"]
        with pytest.raises(KeyError):
            get_method("nonexistent")


class TestQuantizationExtension:
    def test_weights_become_powers_of_two(self, tiny_data, trained_resnet8):
        model = copy.deepcopy(trained_resnet8)
        ctx = _context(tiny_data, train_enabled=False, original_params=model.num_parameters())
        report = EXTENSION_METHODS["C7"].apply(model, dict(HP_DEFAULTS), ctx)
        assert report.params_after == report.params_before
        assert report.details["effective_bits"] == 5.0
        for p in model.parameters():
            if p.ndim < 2:
                continue
            nonzero = p.data[np.abs(p.data) > 1e-12]
            if nonzero.size:
                log2 = np.log2(np.abs(nonzero))
                np.testing.assert_allclose(log2, np.round(log2), atol=1e-9)

    def test_model_still_functional_after_quantization(self, tiny_data, trained_resnet8):
        model = copy.deepcopy(trained_resnet8)
        ctx = _context(tiny_data, original_params=model.num_parameters())
        EXTENSION_METHODS["C7"].apply(model, {**HP_DEFAULTS, "HP1": 0.1}, ctx)
        _, val = tiny_data
        assert 0.0 <= evaluate_accuracy(model, val) <= 1.0
