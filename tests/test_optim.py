"""Tests for optimizers and LR schedules."""

import numpy as np
import pytest

from repro.nn import SGD, Adam, CosineSchedule, Tensor
from repro.nn.layers import Parameter


def _quadratic_losses(optimizer_factory, steps=60):
    """Minimise ||w - target||^2 and return the loss curve."""
    w = Parameter(np.array([5.0, -3.0]))
    target = np.array([1.0, 2.0])
    opt = optimizer_factory([w])
    losses = []
    for _ in range(steps):
        diff = w - Tensor(target)
        loss = (diff * diff).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
        losses.append(loss.item())
    return losses, w


class TestSGD:
    def test_converges_on_quadratic(self):
        losses, w = _quadratic_losses(lambda p: SGD(p, lr=0.1))
        assert losses[-1] < 1e-6
        np.testing.assert_allclose(w.data, [1.0, 2.0], atol=1e-3)

    def test_momentum_faster_than_plain(self):
        plain, _ = _quadratic_losses(lambda p: SGD(p, lr=0.02), steps=30)
        momentum, _ = _quadratic_losses(lambda p: SGD(p, lr=0.02, momentum=0.9), steps=30)
        assert momentum[-1] < plain[-1]

    def test_weight_decay_shrinks_weights(self):
        w = Parameter(np.array([10.0]))
        opt = SGD([w], lr=0.1, weight_decay=0.5)
        for _ in range(20):
            (w * 0.0).sum().backward()  # zero task gradient
            opt.step()
            w.zero_grad()
        assert abs(float(w.data[0])) < 10.0

    def test_skips_parameters_without_grad(self):
        w = Parameter(np.array([1.0]))
        opt = SGD([w], lr=0.1)
        opt.step()  # no grad — must not crash or move
        np.testing.assert_allclose(w.data, [1.0])


class TestAdam:
    def test_converges_on_quadratic(self):
        losses, w = _quadratic_losses(lambda p: Adam(p, lr=0.2), steps=150)
        assert losses[-1] < 1e-3
        assert losses[-1] < losses[0] / 1e4

    def test_bias_correction_first_step_size(self):
        w = Parameter(np.array([0.0]))
        opt = Adam([w], lr=0.1)
        w.grad = np.array([1.0])
        opt.step()
        # With bias correction the first step is ~lr regardless of beta.
        assert float(w.data[0]) == pytest.approx(-0.1, abs=1e-6)


class TestSchedules:
    def test_cosine_decays_to_min(self):
        opt = SGD([Parameter(np.zeros(1))], lr=1.0)
        sched = CosineSchedule(opt, total_steps=10, lr_min=0.0)
        for _ in range(10):
            sched.step()
        assert opt.lr == pytest.approx(0.0, abs=1e-9)

    def test_cosine_monotone_decreasing(self):
        opt = SGD([Parameter(np.zeros(1))], lr=1.0)
        sched = CosineSchedule(opt, total_steps=20)
        rates = [sched.step() for _ in range(20)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
