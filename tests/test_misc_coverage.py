"""Focused tests for smaller code paths not covered elsewhere."""

import numpy as np
import pytest

from repro.core.evaluator import EvaluationResult
from repro.experiments.table3 import Table3Cell, Table3Result
from repro.nn import Adam, Tensor, Trainer
from repro.nn import functional as F
from repro.space import CompressionScheme


class TestAvgPoolGeneralPath:
    def test_overlapping_stride(self, rng):
        """kernel != stride exercises the sliding-window fallback."""
        x = Tensor(rng.normal(size=(1, 2, 6, 6)), requires_grad=True)
        out = F.avg_pool2d(x, kernel=3, stride=2)
        assert out.shape == (1, 2, 2, 2)
        # Values match a manual window average.
        manual = x.data[0, 0, 0:3, 0:3].mean()
        assert out.data[0, 0, 0, 0] == pytest.approx(manual)
        out.sum().backward()
        assert x.grad is not None
        assert x.grad.sum() == pytest.approx(out.size)

    def test_gradient_shares_across_overlaps(self, rng):
        x = Tensor(np.ones((1, 1, 5, 5)), requires_grad=True)
        F.avg_pool2d(x, kernel=3, stride=2).sum().backward()
        # Centre pixel participates in all four windows.
        assert x.grad[0, 0, 2, 2] == pytest.approx(4 / 9)
        # A corner participates in exactly one.
        assert x.grad[0, 0, 0, 0] == pytest.approx(1 / 9)


class TestTrainerOptimizerOverride:
    def test_custom_optimizer_used(self, tiny_data):
        from repro.models import resnet8

        train, _ = tiny_data
        model = resnet8(num_classes=4)
        custom = Adam(model.parameters(), lr=1e-3)
        report = Trainer(batch_size=32, seed=0).fit(
            model, train, epochs=0.2, optimizer=custom
        )
        assert custom._t > 0  # Adam's step counter advanced
        assert report.losses

    def test_report_final_loss(self, tiny_data):
        from repro.models import resnet8

        train, _ = tiny_data
        report = Trainer(batch_size=32, seed=0).fit(resnet8(num_classes=4), train, 0.2)
        assert report.final_loss == report.losses[-1]

    def test_empty_report_final_loss_nan(self):
        from repro.nn.train import TrainReport

        assert np.isnan(TrainReport(epochs=0, steps=0).final_loss)


class TestTable3Formatting:
    def _cell(self, algorithm="NS", model="resnet20", result=None):
        return Table3Cell(algorithm=algorithm, model=model, experiment="Exp1", result=result)

    def test_none_cell_format(self):
        assert "--" in self._cell().format()

    def test_lookup_missing(self):
        table = Table3Result(cells=[self._cell()])
        assert table.lookup("NS", "resnet20") is None  # result is None
        assert table.lookup("LFB", "vgg13") is None

    def test_format_includes_all_models(self):
        table = Table3Result(cells=[])
        text = table.format()
        for model in ("resnet20", "resnet164", "vgg13", "vgg19"):
            assert model in text


class TestEvaluationResultMisc:
    def test_reduction_helpers(self):
        result = EvaluationResult(
            scheme=CompressionScheme(),
            params=800,
            flops=900,
            accuracy=0.5,
            base_params=1000,
            base_flops=1000,
            base_accuracy=0.6,
            cost=0.1,
        )
        assert result.pr == pytest.approx(0.2)
        assert result.fr == pytest.approx(0.1)
        assert result.ar == pytest.approx((0.5 - 0.6) / 0.6)
        assert result.meets_target(0.2)
        assert not result.meets_target(0.21)

    def test_step_report_helpers(self):
        from repro.compression.base import StepReport

        report = StepReport(method="C3", params_before=1000, params_after=700)
        assert report.params_removed == 300
