"""Tests for conv/pool/batchnorm/softmax and their gradients."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor

from .conftest import numeric_gradient

# Central-difference gradient checks need float64 precision.
pytestmark = pytest.mark.usefixtures("float64_gradcheck")


class TestConv2d:
    def test_output_shape(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(5, 3, 3, 3)))
        assert F.conv2d(x, w, stride=1, padding=1).shape == (2, 5, 8, 8)
        assert F.conv2d(x, w, stride=2, padding=1).shape == (2, 5, 4, 4)
        assert F.conv2d(x, w, stride=1, padding=0).shape == (2, 5, 6, 6)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 4, 4)))
        w = Tensor(rng.normal(size=(2, 4, 3, 3)))
        with pytest.raises(ValueError, match="channel mismatch"):
            F.conv2d(x, w)

    def test_identity_kernel(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = F.conv2d(x, Tensor(w), stride=1, padding=1)
        np.testing.assert_allclose(out.data, x.data)

    def test_matches_direct_convolution(self, rng):
        """Cross-check im2col against a naive loop implementation."""
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), stride=1, padding=0).data
        naive = np.zeros((1, 3, 3, 3))
        for f in range(3):
            for i in range(3):
                for j in range(3):
                    naive[0, f, i, j] = (x[0, :, i : i + 3, j : j + 3] * w[f]).sum()
        np.testing.assert_allclose(out, naive, atol=1e-10)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_gradients_match_numeric(self, rng, stride, padding):
        x_data = rng.normal(size=(2, 2, 5, 5))
        w_data = rng.normal(size=(3, 2, 3, 3))
        b_data = rng.normal(size=(3,))
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        (F.conv2d(x, w, b, stride, padding) ** 2).sum().backward()

        def value():
            out = F.conv2d(Tensor(x_data), Tensor(w_data), Tensor(b_data), stride, padding)
            return float((out.data ** 2).sum())

        np.testing.assert_allclose(w.grad, numeric_gradient(value, w_data), atol=1e-4)
        np.testing.assert_allclose(b.grad, numeric_gradient(value, b_data), atol=1e-4)
        np.testing.assert_allclose(x.grad, numeric_gradient(value, x_data), atol=1e-4)


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_gradient_routes_to_max(self):
        data = np.arange(16.0).reshape(1, 1, 4, 4)
        x = Tensor(data, requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        expected = np.zeros_like(data)
        expected[0, 0, 1, 1] = expected[0, 0, 1, 3] = 1
        expected[0, 0, 3, 1] = expected[0, 0, 3, 3] = 1
        np.testing.assert_allclose(x.grad, expected)

    def test_avg_pool_values_and_grad(self):
        x = Tensor(np.ones((1, 2, 4, 4)), requires_grad=True)
        out = F.avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data, np.ones((1, 2, 2, 2)))
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 2, 4, 4), 0.25))

    def test_global_avg_pool(self, rng):
        data = rng.normal(size=(2, 3, 5, 5))
        out = F.global_avg_pool2d(Tensor(data))
        np.testing.assert_allclose(out.data, data.mean(axis=(2, 3)))


class TestBatchNorm:
    def test_training_normalises_batch(self, rng):
        x = Tensor(rng.normal(2.0, 3.0, size=(16, 4, 5, 5)))
        gamma = Tensor(np.ones(4), requires_grad=True)
        beta = Tensor(np.zeros(4), requires_grad=True)
        mean = np.zeros(4)
        var = np.ones(4)
        out = F.batch_norm(x, gamma, beta, mean, var, training=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0, atol=1e-7)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), 1, atol=1e-2)

    def test_running_stats_updated(self, rng):
        x = Tensor(rng.normal(5.0, 1.0, size=(32, 2, 4, 4)))
        mean = np.zeros(2)
        var = np.ones(2)
        F.batch_norm(Tensor(x.data), Tensor(np.ones(2)), Tensor(np.zeros(2)), mean, var, True)
        assert (mean > 0.4).all()  # momentum 0.1 over one batch of mean~5

    def test_eval_uses_running_stats(self):
        x = Tensor(np.full((4, 2, 2, 2), 10.0))
        mean = np.full(2, 10.0)
        var = np.ones(2)
        out = F.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), mean, var, False)
        np.testing.assert_allclose(out.data, 0, atol=1e-2)

    def test_gamma_beta_gradients(self, rng):
        x = Tensor(rng.normal(size=(8, 3, 4, 4)))
        gamma = Tensor(np.ones(3), requires_grad=True)
        beta = Tensor(np.zeros(3), requires_grad=True)
        out = F.batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), True)
        (out * out).sum().backward()
        assert gamma.grad is not None and np.abs(gamma.grad).sum() > 0
        assert beta.grad is not None


class TestFusedMatchesReference:
    """Fused kernels (conv+ReLU, add_relu, batch_norm) match the composition
    of primitive ops, in values and gradients."""

    RTOL, ATOL = 1e-5, 1e-5

    def test_conv2d_fused_relu(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        b = Tensor(rng.normal(size=(4,)))
        fused = F.conv2d(x, w, b, stride=1, padding=1, activation="relu")
        reference = F.conv2d(x, w, b, stride=1, padding=1).relu()
        np.testing.assert_allclose(fused.data, reference.data, rtol=self.RTOL, atol=self.ATOL)

    def test_conv2d_fused_relu_gradients(self, rng):
        x1 = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        w1 = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        x2 = Tensor(x1.data.copy(), requires_grad=True)
        w2 = Tensor(w1.data.copy(), requires_grad=True)
        F.conv2d(x1, w1, stride=1, padding=1, activation="relu").sum().backward()
        F.conv2d(x2, w2, stride=1, padding=1).relu().sum().backward()
        np.testing.assert_allclose(x1.grad, x2.grad, rtol=self.RTOL, atol=self.ATOL)
        np.testing.assert_allclose(w1.grad, w2.grad, rtol=self.RTOL, atol=self.ATOL)

    def test_add_relu(self, rng):
        a = Tensor(rng.normal(size=(4, 8, 5, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 8, 5, 5)), requires_grad=True)
        fused = F.add_relu(a, b)
        reference = (Tensor(a.data.copy()) + Tensor(b.data.copy())).relu()
        np.testing.assert_allclose(fused.data, reference.data, rtol=self.RTOL, atol=self.ATOL)

    def test_add_relu_gradients(self, rng):
        a1 = Tensor(rng.normal(size=(3, 4, 4, 4)), requires_grad=True)
        b1 = Tensor(rng.normal(size=(3, 4, 4, 4)), requires_grad=True)
        a2 = Tensor(a1.data.copy(), requires_grad=True)
        b2 = Tensor(b1.data.copy(), requires_grad=True)
        (F.add_relu(a1, b1) * 3.0).sum().backward()
        ((a2 + b2).relu() * 3.0).sum().backward()
        np.testing.assert_allclose(a1.grad, a2.grad, rtol=self.RTOL, atol=self.ATOL)
        np.testing.assert_allclose(b1.grad, b2.grad, rtol=self.RTOL, atol=self.ATOL)

    def test_batch_norm_training(self, rng):
        x = rng.normal(size=(8, 5, 4, 4))
        gamma = rng.normal(size=(5,)) + 1.0
        beta = rng.normal(size=(5,))
        rmean, rvar = np.zeros(5, np.float32), np.ones(5, np.float32)
        out = F.batch_norm(
            Tensor(x), Tensor(gamma), Tensor(beta), rmean.copy(), rvar.copy(),
            training=True, eps=1e-5,
        )
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        var = x.var(axis=(0, 2, 3), keepdims=True)
        expected = (x - mean) / np.sqrt(var + 1e-5)
        expected = expected * gamma.reshape(1, -1, 1, 1) + beta.reshape(1, -1, 1, 1)
        np.testing.assert_allclose(out.data, expected, rtol=self.RTOL, atol=self.ATOL)

    def test_batch_norm_eval(self, rng):
        x = rng.normal(size=(8, 5, 4, 4))
        gamma = rng.normal(size=(5,)) + 1.0
        beta = rng.normal(size=(5,))
        rmean = rng.normal(size=(5,)).astype(np.float32)
        rvar = (rng.uniform(0.5, 2.0, size=(5,))).astype(np.float32)
        out = F.batch_norm(
            Tensor(x), Tensor(gamma), Tensor(beta), rmean, rvar,
            training=False, eps=1e-5,
        )
        expected = (x - rmean.reshape(1, -1, 1, 1)) / np.sqrt(
            rvar.reshape(1, -1, 1, 1).astype(np.float64) + 1e-5
        )
        expected = expected * gamma.reshape(1, -1, 1, 1) + beta.reshape(1, -1, 1, 1)
        np.testing.assert_allclose(out.data, expected, rtol=self.RTOL, atol=self.ATOL)


class TestSoftmax:
    def test_softmax_sums_to_one(self, rng):
        out = F.softmax(Tensor(rng.normal(size=(4, 7))))
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_stable_for_large_logits(self):
        out = F.softmax(Tensor([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_log_softmax_consistent(self, rng):
        x = rng.normal(size=(3, 5))
        np.testing.assert_allclose(
            F.log_softmax(Tensor(x)).data, np.log(F.softmax(Tensor(x)).data), atol=1e-12
        )


class TestDropoutFlatten:
    def test_dropout_eval_is_identity(self, rng):
        x = Tensor(rng.normal(size=(5, 5)))
        out = F.dropout(x, 0.5, training=False, rng=rng)
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_training_scales(self, rng):
        x = Tensor(np.ones((1000,)))
        out = F.dropout(x, 0.5, training=True, rng=np.random.default_rng(0))
        # Inverted dropout preserves the expectation.
        assert out.data.mean() == pytest.approx(1.0, abs=0.1)
        assert set(np.unique(out.data)) <= {0.0, 2.0}

    def test_flatten(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4, 4)))
        assert F.flatten(x).shape == (2, 48)
