"""Tests for ``repro.nn.bench.measure_latency``, the evaluators' latency probe."""

import numpy as np
import pytest

from repro.models import resnet8
from repro.nn import Module, Tensor, is_grad_enabled
from repro.nn.bench import measure_latency

INPUT_SHAPE = (3, 8, 8)


class _Recorder(Module):
    """Runs ``inner`` and keeps what each forward saw and returned."""

    def __init__(self, inner: Module, fail: bool = False):
        super().__init__()
        self.inner = inner
        self.fail = fail
        self.calls = []

    def forward(self, x: Tensor) -> Tensor:
        if self.fail:
            raise RuntimeError("forward failed")
        out = self.inner(x)
        self.calls.append((self.training, is_grad_enabled(), out))
        return out


def test_returns_positive_milliseconds():
    ms = measure_latency(resnet8(num_classes=4), INPUT_SHAPE, batch=2, repeats=3)
    assert isinstance(ms, float) and ms > 0


@pytest.mark.parametrize("training", [True, False])
def test_restores_training_mode(training):
    model = _Recorder(resnet8(num_classes=4)).train(training)
    measure_latency(model, INPUT_SHAPE, batch=2, repeats=2)
    assert all(m.training is training for m in model.modules())
    # one warm-up forward plus ``repeats`` timed ones, all in eval mode
    assert [was_training for was_training, _, _ in model.calls] == [False] * 3


@pytest.mark.parametrize("training", [True, False])
def test_restores_training_mode_when_forward_raises(training):
    model = _Recorder(resnet8(num_classes=4), fail=True).train(training)
    with pytest.raises(RuntimeError, match="forward failed"):
        measure_latency(model, INPUT_SHAPE, batch=2, repeats=2)
    assert all(m.training is training for m in model.modules())
    assert is_grad_enabled()


def test_leaves_no_autograd_tape():
    model = _Recorder(resnet8(num_classes=4)).train()
    measure_latency(model, INPUT_SHAPE, batch=2, repeats=2)
    assert model.calls
    for _, grad_enabled, out in model.calls:
        assert not grad_enabled
        assert not out.requires_grad and out._parents == () and out._backward is None
    assert all(p.grad is None for p in model.parameters())
    assert all(np.isfinite(out.data).all() for _, _, out in model.calls)
