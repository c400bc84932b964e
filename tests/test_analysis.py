"""Tests for the static analysis subsystem (verifier, linter, anomaly mode).

Corruption tests follow one pattern: take a healthy model, apply a *partial*
structural edit (the kind a buggy surgery pass would produce), and assert the
verifier flags it with the documented rule id — without ever running a
forward pass.
"""

import numpy as np
import pytest

from repro.analysis import (
    AnomalyError,
    Report,
    SchemeRejected,
    Severity,
    VerificationError,
    anomaly_enabled,
    assert_valid,
    detect_anomaly,
    lint_scheme,
    trace_model,
    verify_checkpoint,
    verify_model,
)
from repro.compression import (
    EXTENSION_METHODS,
    METHODS,
    BasisConv2d,
    ExecutionContext,
    SurgeryError,
    TuckerConv2d,
)
from repro.compression.surgery import (
    check_unit,
    prune_unit,
    self_verifying_surgery,
    shrink_bn,
    shrink_input,
    shrink_output,
)
from repro.core.config import EvaluatorConfig
from repro.core.evaluator import SchemeEvaluator
from repro.models import available_models, create_model, resnet8, vgg8_tiny
from repro.nn import (
    Conv2d,
    Flatten,
    Linear,
    Module,
    QuantizedConv2d,
    QuantizedLinear,
    Sequential,
    Tensor,
    Trainer,
    quantize_module,
)
from repro.nn.serialization import load_state, save_model
from repro.space import CompressionScheme, make_strategy
from repro.space.strategy import CompressionStrategy

TINY_SHAPE = (3, 8, 8)

HP_DEFAULTS = {
    "HP1": 0.2, "HP2": 0.2, "HP4": 3, "HP5": 0.5, "HP6": 0.9, "HP7": 0.4,
    "HP8": "l2_weight", "HP9": 0.2, "HP10": 3, "HP11": "P1", "HP12": "l1norm",
    "HP13": 0.3, "HP14": 1, "HP15": 1.0, "HP16": "MSE", "HP17": 5, "HP18": 0.5,
}


def _strategy(label, **overrides):
    hp = dict(HP_DEFAULTS)
    hp.update(overrides)
    return make_strategy(label, hp)


def _scheme(*strategies):
    return CompressionScheme(tuple(strategies))


# --------------------------------------------------------------------------- #
# Verifier: healthy models
# --------------------------------------------------------------------------- #
class TestVerifierCleanModels:
    @pytest.mark.parametrize("name", available_models())
    def test_registered_models_verify_clean(self, name):
        report = verify_model(create_model(name), name=name)
        assert report.is_clean, report.format(verbose=True)
        assert report.graph.output is not None

    @pytest.mark.parametrize("mode", ["int8", "fp16"])
    @pytest.mark.parametrize("name", ["resnet20", "vgg8_tiny"])
    def test_quantized_models_verify_clean(self, name, mode):
        model = quantize_module(create_model(name), mode=mode)
        report = verify_model(model, name=f"{name}-{mode}")
        assert report.is_clean, report.format(verbose=True)  # no V010 skips

    def test_trace_graph_contents(self):
        graph = trace_model(resnet8(num_classes=4), input_shape=TINY_SHAPE)
        assert graph.output.channels == 4
        assert not graph.output.spatial
        assert graph.node("classifier").kind == "Linear"
        assert len(graph) > 10

    def test_assert_valid_passes(self):
        assert_valid(vgg8_tiny(num_classes=4), input_shape=TINY_SHAPE)

    @pytest.mark.parametrize("label", sorted(METHODS) + sorted(EXTENSION_METHODS))
    @pytest.mark.parametrize("factory", [resnet8, vgg8_tiny], ids=["resnet", "vgg"])
    def test_every_method_output_verifies_clean(self, label, factory):
        model = factory(num_classes=4)
        method = METHODS.get(label) or EXTENSION_METHODS[label]
        ctx = ExecutionContext(
            original_params=model.num_parameters(), train_enabled=False, seed=0
        )
        method.apply(model, dict(HP_DEFAULTS), ctx)
        report = verify_model(model, input_shape=TINY_SHAPE, name=f"{label}")
        assert not report.has_errors, report.format(verbose=True)


# --------------------------------------------------------------------------- #
# Verifier: seeded corruptions
# --------------------------------------------------------------------------- #
class TestVerifierCorruptions:
    def test_mismatched_bn_flagged_v002(self):
        model = resnet8(num_classes=4)
        block = model.blocks._modules["0"]
        shrink_bn(block.bn1, np.arange(block.bn1.num_features - 3))
        report = verify_model(model, input_shape=TINY_SHAPE)
        assert "V002" in report.rules(), report.format(verbose=True)

    def test_broken_shortcut_flagged_v004(self):
        model = resnet8(num_classes=4)
        block = model.blocks._modules["0"]
        keep = np.arange(block.conv2.out_channels - 2)
        shrink_output(block.conv2, keep)
        shrink_bn(block.bn2, keep)
        report = verify_model(model, input_shape=TINY_SHAPE)
        assert "V004" in report.rules(), report.format(verbose=True)

    def test_bad_linear_fanin_flagged_v003(self):
        model = resnet8(num_classes=4)
        shrink_input(model.classifier, np.arange(model.classifier.in_features - 4))
        report = verify_model(model, input_shape=TINY_SHAPE)
        assert "V003" in report.rules()

    def test_quantized_conv_mismatch_flagged_v001(self):
        model = Sequential(QuantizedConv2d.from_float(Conv2d(4, 8, 3)))
        report = verify_model(model, input_shape=TINY_SHAPE)
        assert "V001" in report.rules(), report.format(verbose=True)

    def test_quantized_linear_fanin_flagged_v003(self):
        model = Sequential(Flatten(), QuantizedLinear.from_float(Linear(10, 2), mode="fp16"))
        report = verify_model(model, input_shape=TINY_SHAPE)
        assert "V003" in report.rules(), report.format(verbose=True)

    def test_conv_chain_mismatch_flagged_v001(self):
        model = vgg8_tiny(num_classes=4)
        convs = [m for m in model.features._modules.values() if isinstance(m, Conv2d)]
        # Shrink one conv's output without rewiring its consumer.
        shrink_output(convs[0], np.arange(convs[0].out_channels - 2))
        report = verify_model(model, input_shape=TINY_SHAPE)
        assert "V001" in report.rules()

    def test_zero_width_conv_flagged_v007(self):
        conv = Conv2d(3, 4, 3, padding=1)
        conv.weight.data = conv.weight.data[:0]
        report = verify_model(Sequential(conv), input_shape=TINY_SHAPE)
        assert "V007" in report.rules()

    def test_nan_parameter_flagged_v009(self):
        model = resnet8(num_classes=4)
        model.conv1.weight.data[0, 0, 0, 0] = np.nan
        report = verify_model(model, input_shape=TINY_SHAPE)
        assert "V009" in report.rules()
        with pytest.raises(VerificationError):
            report.raise_on_error()

    def test_tucker_rank_mismatch_flagged_v005(self):
        rng = np.random.default_rng(0)
        tucker = TuckerConv2d(
            in_factor=rng.normal(size=(8, 3)),
            core=rng.normal(size=(4, 3, 3, 3)),
            out_factor=rng.normal(size=(16, 4)),
            bias=None,
            stride=1,
            padding=1,
        )
        # Corrupt: slice the first factor's rank without touching the core.
        tucker.first_weight.data = tucker.first_weight.data[:2]
        model = Sequential(Conv2d(3, 8, 3, padding=1), tucker)
        report = verify_model(model, input_shape=TINY_SHAPE)
        assert "V005" in report.rules(), report.format(verbose=True)

    def test_inflated_basis_flagged_v006(self):
        rng = np.random.default_rng(0)
        basis = BasisConv2d(
            basis=rng.normal(size=(16, 8, 3, 3)),  # basis as large as filter count
            coefficients=rng.normal(size=(16, 16)),
            bias=None,
            stride=1,
            padding=1,
        )
        model = Sequential(Conv2d(3, 8, 3, padding=1), basis)
        report = verify_model(model, input_shape=TINY_SHAPE)
        assert "V006" in report.rules()
        assert not report.has_errors  # inflated rank is a warning, not an error

    def test_spatial_collapse_flagged_v008(self):
        model = Sequential(
            Conv2d(3, 4, 3), Conv2d(4, 4, 3), Conv2d(4, 4, 3), Conv2d(4, 4, 3)
        )
        report = verify_model(model, input_shape=(3, 6, 6))
        assert "V008" in report.rules()

    def test_unknown_module_warns_v010(self):
        class Mystery(Module):
            def forward(self, x):
                return x

        report = verify_model(Sequential(Mystery()), input_shape=TINY_SHAPE)
        assert "V010" in report.rules()
        assert not report.has_errors


# --------------------------------------------------------------------------- #
# Checkpoint verification
# --------------------------------------------------------------------------- #
class TestCheckpointVerification:
    def test_roundtrip_clean(self, tmp_path):
        model = resnet8(num_classes=4)
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        report = verify_checkpoint(
            load_state(path), resnet8(num_classes=4), input_shape=TINY_SHAPE
        )
        assert report.is_clean, report.format(verbose=True)

    def test_nonfinite_array_flagged_c002(self, tmp_path):
        model = resnet8(num_classes=4)
        model.conv1.weight.data[:] = np.inf
        path = str(tmp_path / "bad.npz")
        save_model(model, path)
        report = verify_checkpoint(load_state(path))
        assert "C002" in report.rules()

    def test_structural_mismatch_flagged_c001(self, tmp_path):
        model = resnet8(num_classes=4)
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        report = verify_checkpoint(
            load_state(path), vgg8_tiny(num_classes=4), input_shape=TINY_SHAPE
        )
        assert "C001" in report.rules()

    def test_empty_checkpoint_flagged_c001(self):
        assert "C001" in verify_checkpoint({}).rules()


# --------------------------------------------------------------------------- #
# Scheme linter
# --------------------------------------------------------------------------- #
class TestSchemeLinter:
    def test_empty_scheme_is_clean(self):
        assert lint_scheme(CompressionScheme()).is_clean

    def test_grid_scheme_is_clean(self, space):
        scheme = _scheme(space[0], space[100])
        report = lint_scheme(scheme)
        assert not report.has_errors, report.format(verbose=True)

    def test_duplicate_quantization_rejected_l009(self):
        c7 = _strategy("C7")
        report = lint_scheme(_scheme(c7, c7))
        assert "L009" in report.rules()
        assert report.has_errors

    def test_too_long_scheme_rejected_l006(self):
        steps = tuple(_strategy("C4") for _ in range(6))
        assert "L006" in lint_scheme(CompressionScheme(steps)).rules()

    def test_over_unity_compression_rejected_l007(self):
        scheme = _scheme(_strategy("C2", HP2=0.6), _strategy("C3", HP2=0.6))
        report = lint_scheme(scheme)
        assert "L007" in report.rules()
        assert report.has_errors

    def test_off_grid_value_warns_l004(self):
        report = lint_scheme(_scheme(_strategy("C2", HP2=0.33)))
        assert "L004" in report.rules()
        assert not report.has_errors  # grid baselines pin HP2 off-grid

    def test_out_of_domain_value_rejected_l005(self):
        report = lint_scheme(_scheme(_strategy("C2", HP2=1.5)))
        assert "L005" in report.rules()
        assert report.has_errors

    def test_missing_hp_rejected_l003(self):
        broken = CompressionStrategy(method_label="C2", hp_items=(("HP1", 0.2),))
        assert "L003" in lint_scheme(_scheme(broken)).rules()

    def test_unknown_method_rejected_l001(self):
        broken = CompressionStrategy(method_label="C99", hp_items=())
        assert "L001" in lint_scheme(_scheme(broken)).rules()

    def test_structural_after_quantization_warns_l011(self):
        report = lint_scheme(_scheme(_strategy("C7"), _strategy("C4")))
        assert "L011" in report.rules()

    def test_repeated_strategy_warns_l010(self):
        c4 = _strategy("C4")
        assert "L010" in lint_scheme(_scheme(c4, c4)).rules()


# --------------------------------------------------------------------------- #
# Evaluator integration: rejection before cost
# --------------------------------------------------------------------------- #
class _NeverEvaluates(SchemeEvaluator):
    def _evaluate(self, scheme):
        raise AssertionError("evaluator charged cost for a doomed scheme")


class TestEvaluatorLintIntegration:
    def test_rejects_before_any_cost(self):
        evaluator = _NeverEvaluates(task=None)
        c7 = _strategy("C7")
        with pytest.raises(SchemeRejected) as excinfo:
            evaluator.evaluate(_scheme(c7, c7))
        assert evaluator.rejected_count == 1
        assert evaluator.total_cost == 0.0
        assert evaluator.evaluation_count == 0
        assert "L009" in excinfo.value.report.rules()
        assert excinfo.value.scheme.identifier in evaluator.rejected

    def test_lint_disabled_skips_rejection(self):
        evaluator = _NeverEvaluates(task=None, config=EvaluatorConfig(lint_schemes=False))
        c7 = _strategy("C7")
        with pytest.raises(AssertionError):
            evaluator.evaluate(_scheme(c7, c7))
        assert evaluator.rejected_count == 0


# --------------------------------------------------------------------------- #
# Surgery hardening + self-verification
# --------------------------------------------------------------------------- #
class TestSurgeryGuards:
    def test_shrink_primitives_reject_empty_keep(self):
        model = resnet8(num_classes=4)
        empty = np.array([], dtype=np.int64)
        with pytest.raises(SurgeryError):
            shrink_output(model.conv1, empty)
        with pytest.raises(SurgeryError):
            shrink_input(model.classifier, empty)
        with pytest.raises(SurgeryError):
            shrink_bn(model.bn1, empty)

    def test_check_unit_catches_partial_edit(self):
        model = resnet8(num_classes=4)
        unit = model.pruning_units()[0]
        shrink_output(unit.producer, np.arange(unit.out_channels - 2))
        with pytest.raises(SurgeryError):
            check_unit(unit)

    def test_self_verifying_surgery_passes_on_correct_prune(self):
        model = resnet8(num_classes=4)
        with self_verifying_surgery():
            unit = model.pruning_units()[0]
            prune_unit(unit, np.arange(unit.out_channels - 2))
        assert_valid(model, input_shape=TINY_SHAPE)

    def test_self_verifying_surgery_catches_broken_consumer(self):
        model = resnet8(num_classes=4)
        unit = model.pruning_units()[0]
        consumer = unit.consumers[0]
        consumer.shrink_input_channels = lambda keep: None  # buggy no-op rewiring
        with self_verifying_surgery():
            with pytest.raises(SurgeryError):
                prune_unit(unit, np.arange(unit.out_channels - 2))


# --------------------------------------------------------------------------- #
# Anomaly mode
# --------------------------------------------------------------------------- #
class TestAnomalyMode:
    def test_forward_nonfinite_raises_with_op_name(self):
        with detect_anomaly():
            with pytest.raises(AnomalyError) as excinfo:
                Tensor(np.array([0.0]), requires_grad=True).log()
        assert excinfo.value.op == "log"
        assert excinfo.value.phase == "forward"

    def test_backward_nonfinite_raises_with_op_name(self):
        with detect_anomaly():
            t = Tensor(np.array([0.0]), requires_grad=True)
            out = t.sqrt()  # finite forward, 1/(2*sqrt(0)) backward
            with pytest.raises(AnomalyError) as excinfo:
                out.backward()
        assert excinfo.value.op == "sqrt"
        assert excinfo.value.phase == "backward"

    def test_off_by_default(self):
        assert not anomaly_enabled()
        out = Tensor(np.array([0.0]), requires_grad=True).log()
        assert np.isneginf(out.data[0])  # silently propagates without the mode

    def test_context_restores_state(self):
        with detect_anomaly():
            assert anomaly_enabled()
        assert not anomaly_enabled()

    def test_trainer_flag_clean_run(self, tiny_data):
        train, _ = tiny_data
        model = Sequential(Flatten(), Linear(192, 4))
        trainer = Trainer(lr=0.05, batch_size=32, seed=0, detect_anomaly=True)
        report = trainer.fit(model, train, epochs=0.2)
        assert np.isfinite(report.final_loss)

    def test_trainer_flag_catches_poisoned_weight(self, tiny_data):
        train, _ = tiny_data
        model = Sequential(Flatten(), Linear(192, 4))
        model._modules["1"].weight.data[0, 0] = np.nan
        trainer = Trainer(lr=0.05, batch_size=32, seed=0, detect_anomaly=True)
        with pytest.raises(AnomalyError):
            trainer.fit(model, train, epochs=0.2)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestAnalyzeCLI:
    def test_all_models_clean(self, capsys):
        from repro.cli import main

        assert main(["analyze", "--all-models"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        for name in available_models():
            assert name in out

    def test_single_model(self, capsys):
        from repro.cli import main

        assert main(["analyze", "resnet8"]) == 0
        assert "resnet8: clean" in capsys.readouterr().out

    def test_checkpoint_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "ckpt.npz")
        save_model(create_model("resnet8"), path)
        assert main(["analyze", "resnet8", "--checkpoint", path]) == 0
        assert "clean" in capsys.readouterr().out

    def test_corrupted_checkpoint_fails(self, tmp_path, capsys):
        from repro.cli import main

        model = create_model("resnet8")
        model.conv1.weight.data[:] = np.nan
        path = str(tmp_path / "bad.npz")
        save_model(model, path)
        assert main(["analyze", "--checkpoint", path]) == 1
        assert "C002" in capsys.readouterr().out

    def test_scheme_lint_failure(self, capsys):
        from repro.cli import main

        dup = "C7[HP1=0.1,HP17=5,HP18=0.5] -> C7[HP1=0.1,HP17=5,HP18=0.5]"
        assert main(["analyze", "--scheme", dup]) == 1
        assert "L009" in capsys.readouterr().out

    def test_no_target_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["analyze"]) == 2

    def test_strict_escalates_warnings(self, capsys):
        from repro.cli import main

        # An off-grid HP2 value cannot be produced via --scheme (the parser is
        # strict), so exercise --strict through a model with an inflated basis
        # is not CLI-reachable either; instead check strict passes on clean.
        assert main(["analyze", "resnet8", "--strict"]) == 0


# --------------------------------------------------------------------------- #
# Diagnostics plumbing
# --------------------------------------------------------------------------- #
class TestDiagnostics:
    def test_report_severity_ordering(self):
        report = Report(subject="x")
        assert report.status is Severity.OK
        report.warn("T001", "a", "suspicious")
        assert report.status is Severity.WARNING
        report.error("T002", "b", "broken", expected=1, actual=2)
        assert report.status is Severity.ERROR
        assert report.rules() == {"T001", "T002"}
        assert "expected 1, got 2" in report.by_rule("T002")[0].format()

    def test_format_hides_notes_unless_verbose(self):
        report = Report(subject="x")
        report.note("T000", "", "fine")
        assert "T000" not in report.format()
        assert "T000" in report.format(verbose=True)
