"""Tests for TuckerConv2d / BasisConv2d and module replacement."""


import numpy as np
import pytest

from repro.compression.factorized import BasisConv2d, TuckerConv2d, replace_module
from repro.compression.hooi import tucker2
from repro.models import vgg8_tiny
from repro.nn import Conv2d, Tensor
from repro.nn import functional as F

# Factorised-vs-dense equivalence is asserted to ~1e-8, beyond float32.
pytestmark = pytest.mark.usefixtures("float64_gradcheck")


class TestTuckerConv2d:
    def _build(self, rng, ranks=(4, 3), channels=(5, 8), stride=1, padding=1):
        c, f = channels
        w = rng.normal(size=(f, c, 3, 3))
        core, u_out, u_in = tucker2(w, *ranks)
        layer = TuckerConv2d(u_in, core, u_out, None, stride, padding)
        return w, layer

    def test_full_rank_matches_dense_conv(self, rng):
        w = rng.normal(size=(6, 4, 3, 3))
        core, u_out, u_in = tucker2(w, 6, 4)
        layer = TuckerConv2d(u_in, core, u_out, None, 1, 1)
        x = Tensor(rng.normal(size=(2, 4, 6, 6)))
        dense = F.conv2d(x, Tensor(w), None, 1, 1)
        np.testing.assert_allclose(layer(x).data, dense.data, atol=1e-8)

    def test_fewer_params_than_dense(self, rng):
        w, layer = self._build(rng, ranks=(3, 2), channels=(8, 16))
        assert layer.num_parameters() < w.size

    def test_shrink_input_channels(self, rng):
        w, layer = self._build(rng)
        keep = np.array([0, 2, 4])
        layer.shrink_input_channels(keep)
        assert layer.in_channels == 3
        out = layer(Tensor(rng.normal(size=(1, 3, 6, 6))))
        assert np.isfinite(out.data).all()

    def test_input_cost_per_channel(self, rng):
        _, layer = self._build(rng, ranks=(4, 3))
        assert layer.input_cost_per_channel() == 3  # r_in

    def test_flags(self, rng):
        _, layer = self._build(rng)
        assert layer.is_conv_like and not layer.prunable_output

    def test_stride_matches_dense(self, rng):
        w = rng.normal(size=(6, 4, 3, 3))
        core, u_out, u_in = tucker2(w, 6, 4)
        layer = TuckerConv2d(u_in, core, u_out, None, stride=2, padding=1)
        x = Tensor(rng.normal(size=(1, 4, 8, 8)))
        dense = F.conv2d(x, Tensor(w), None, 2, 1)
        np.testing.assert_allclose(layer(x).data, dense.data, atol=1e-8)


class TestBasisConv2d:
    def test_full_basis_matches_dense(self, rng):
        w = rng.normal(size=(6, 4, 3, 3))
        mat = w.reshape(6, -1)
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        coeffs = u * s
        basis = vt.reshape(-1, 4, 3, 3)
        layer = BasisConv2d(basis, coeffs, None, 1, 1)
        x = Tensor(rng.normal(size=(2, 4, 5, 5)))
        dense = F.conv2d(x, Tensor(w), None, 1, 1)
        np.testing.assert_allclose(layer(x).data, dense.data, atol=1e-8)

    def test_bias_applied(self, rng):
        basis = rng.normal(size=(2, 3, 3, 3))
        coeffs = rng.normal(size=(4, 2))
        bias = rng.normal(size=(4,))
        with_bias = BasisConv2d(basis, coeffs, bias, 1, 1)
        without = BasisConv2d(basis, coeffs, None, 1, 1)
        x = Tensor(rng.normal(size=(1, 3, 4, 4)))
        diff = with_bias(x).data - without(x).data
        np.testing.assert_allclose(diff, bias.reshape(1, 4, 1, 1) * np.ones_like(diff), atol=1e-10)

    def test_shrink_input_channels(self, rng):
        layer = BasisConv2d(rng.normal(size=(2, 5, 3, 3)), rng.normal(size=(4, 2)), None, 1, 1)
        layer.shrink_input_channels(np.array([1, 3]))
        assert layer.in_channels == 2

    def test_properties(self, rng):
        layer = BasisConv2d(rng.normal(size=(3, 5, 3, 3)), rng.normal(size=(7, 3)), None, 1, 1)
        assert layer.out_channels == 7
        assert layer.basis_size == 3
        assert layer.input_cost_per_channel() == 3 * 9


class TestReplacement:
    def test_replace_module_in_sequential(self, rng):
        model = vgg8_tiny(num_classes=4)
        target_name, target = [
            (name, m) for name, m in model.named_modules() if isinstance(m, Conv2d)
        ][1]
        f, c = target.out_channels, target.in_channels
        core, u_out, u_in = tucker2(target.weight.data, max(1, f // 2), max(1, c // 2))
        replacement = TuckerConv2d(u_in, core, u_out, None, target.stride, target.padding)
        replace_module(model, target_name, replacement)
        # The replacement is live in the forward pass:
        out = model(Tensor(rng.normal(size=(1, 3, 8, 8))))
        assert np.isfinite(out.data).all()
        # ... and no longer offered as a prunable producer.
        names = [u.name for u in model.pruning_units()]
        assert target_name not in names
