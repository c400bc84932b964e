"""Property-based tests for the int8/fp16 quantization substrate.

Two families of invariants, hypothesis-drawn over shapes and data:

* *round-trip bounds* — symmetric absmax quantization never clips, so the
  quantize -> dequantize error of every element is bounded by half a
  quantization step (``scale / 2``), per channel for weights and per tensor
  for activations;
* *kernel exactness* — ``quant_conv2d`` / ``quant_linear`` must agree with
  an exact int64 integer reference on the same quantized operands for every
  shape, including 1x1 kernels, strides and padding.  The fast path
  accumulates int8 products in float32 BLAS, which is exact at these
  fan-ins, so the tolerance is float32 round-off only.

A third family checks whole models: int8 and fp16 ResNets stay close to the
float32 forward on the same weights.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models import resnet8, resnet56
from repro.nn import Tensor, no_grad
from repro.nn import functional as F
from repro.nn.quant import (
    quant_conv2d,
    quant_linear,
    quantize_activation,
    quantize_module,
    quantize_weight,
    quantized_bits,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _normal(seed, shape, spread=1.0):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=shape) * spread).astype(np.float32)


def dequantize_weight(qweight, scale):
    """Inverse of ``quantize_weight`` (up to rounding error): per output channel."""
    shape = [-1] + [1] * (qweight.ndim - 1)
    return qweight.astype(np.float32) * np.asarray(scale, dtype=np.float32).reshape(shape)


# --------------------------------------------------------------------------- #
# Round-trip bounds
# --------------------------------------------------------------------------- #
class TestRoundTripBounds:
    @given(
        seed=seeds,
        f=st.integers(1, 6),
        c=st.integers(1, 5),
        k=st.sampled_from([1, 3, 5]),
        spread=st.sampled_from([1e-3, 1.0, 100.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_weight_round_trip_error_within_half_step(self, seed, f, c, k, spread):
        w = _normal(seed, (f, c, k, k), spread)
        qw, scale = quantize_weight(w)
        assert qw.dtype == np.int8 and scale.shape == (f,)
        back = dequantize_weight(qw, scale)
        # symmetric absmax scaling never clips, so error <= scale/2 per channel
        err = np.abs(back - w).max(axis=(1, 2, 3))
        assert np.all(err <= scale / 2 + 1e-7 * spread)

    @given(seed=seeds, out=st.integers(1, 8), inp=st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_linear_weight_round_trip(self, seed, out, inp):
        w = _normal(seed, (out, inp))
        qw, scale = quantize_weight(w)
        err = np.abs(dequantize_weight(qw, scale) - w).max(axis=1)
        assert np.all(err <= scale / 2 + 1e-7)

    @given(
        seed=seeds,
        shape=st.sampled_from([(3,), (2, 7), (1, 3, 5, 5), (4, 2, 1, 1)]),
        spread=st.sampled_from([1e-3, 1.0, 50.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_activation_round_trip_error_within_half_step(self, seed, shape, spread):
        x = _normal(seed, shape, spread)
        xq, scale = quantize_activation(x)
        assert xq.dtype == np.int8 and scale > 0
        assert np.abs(xq.astype(np.float32) * scale - x).max() <= scale / 2 + 1e-7 * spread

    def test_all_zero_tensors_quantize_cleanly(self):
        qw, w_scale = quantize_weight(np.zeros((2, 3, 3, 3), dtype=np.float32))
        xq, x_scale = quantize_activation(np.zeros((2, 8), dtype=np.float32))
        assert not qw.any() and not xq.any()
        assert np.all(w_scale > 0) and x_scale > 0


# --------------------------------------------------------------------------- #
# Kernel exactness vs the int64 integer reference
# --------------------------------------------------------------------------- #
def _conv2d_int64_reference(xq, qweight, stride, padding):
    n, c, h, w = xq.shape
    f, _, kh, kw = qweight.shape
    if padding:
        xq = np.pad(xq, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, f, ho, wo), dtype=np.int64)
    xi, wi = xq.astype(np.int64), qweight.astype(np.int64)
    for i in range(ho):
        for j in range(wo):
            patch = xi[:, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
            out[:, :, i, j] = np.einsum("ncij,fcij->nf", patch, wi)
    return out


def _tap_quant_conv2d(x, qweight, weight_scale, bias, stride, padding, x_scale):
    """The former int8 kernel, kept as a reference: NHWC tap accumulation,
    one strided slice -> float32 cast -> GEMM per kernel tap, then the
    fused requantization, bias and ReLU."""
    f, c, kh, kw = qweight.shape
    n, _, h, w = x.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    wtaps = np.ascontiguousarray(qweight.transpose(2, 3, 1, 0).astype(np.float32))
    rows = n * ho * wo
    xq, x_scale = quantize_activation(x, x_scale)
    xq = np.pad(xq, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    xq = np.ascontiguousarray(xq.transpose(0, 2, 3, 1))
    acc = np.zeros((rows, f), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            patch = xq[:, i : i + ho * stride : stride, j : j + wo * stride : stride, :]
            acc += patch.astype(np.float32).reshape(rows, c) @ wtaps[i, j]
    acc *= (np.float32(x_scale) * np.asarray(weight_scale, dtype=np.float32))[None, :]
    acc += np.asarray(bias, dtype=np.float32)[None, :]
    np.maximum(acc, 0.0, out=acc)
    return np.ascontiguousarray(acc.reshape(n, ho, wo, f).transpose(0, 3, 1, 2))


def _resnet56_conv_shapes(monkeypatch):
    """``(input shape, weight shape, stride, padding)`` of every distinct conv
    a ResNet-56 forward runs at batch 2."""
    calls = {}
    real = F.conv2d

    def recording(x, weight, bias=None, stride=1, padding=0, activation=None):
        calls[(x.shape, weight.shape, stride, padding)] = None
        return real(x, weight, bias, stride, padding, activation)

    monkeypatch.setattr(F, "conv2d", recording)
    with no_grad():
        resnet56(num_classes=10).eval()(Tensor(np.zeros((2, 3, 32, 32), dtype=np.float32)))
    monkeypatch.undo()
    return list(calls)


class TestKernelExactness:
    @given(
        seed=seeds,
        n=st.integers(1, 3),
        c=st.integers(1, 5),
        f=st.integers(1, 6),
        k=st.sampled_from([1, 3]),
        stride=st.integers(1, 2),
        padding=st.integers(0, 1),
        extra=st.integers(0, 4),
    )
    @settings(max_examples=30, deadline=None)
    @example(seed=0, n=1, c=512, f=2, k=3, stride=1, padding=1, extra=1)  # K = 4608
    def test_quant_conv2d_matches_integer_reference(
        self, seed, n, c, f, k, stride, padding, extra
    ):
        h = k + extra  # guarantees at least one valid output position
        x = _normal(seed, (n, c, h, h))
        w = _normal(seed + 1, (f, c, k, k))
        qw, w_scale = quantize_weight(w)
        xq, x_scale = quantize_activation(x)
        got = quant_conv2d(
            Tensor(x), qw, w_scale, stride=stride, padding=padding, x_scale=x_scale
        ).data
        ref = _conv2d_int64_reference(xq, qw, stride, padding)
        expected = ref.astype(np.float64) * (x_scale * w_scale)[None, :, None, None]
        np.testing.assert_allclose(got, expected, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("c,k", [(512, 3), (1041, 1)])
    def test_quant_conv2d_exact_beyond_float32_fan_in(self, c, k):
        """K = C*kh*kw above 1040 can overflow float32's integer window; the
        kernel splits the fan-in and must still match the integer reference
        exactly, even for full-range operands (|x|, |w| = 127)."""
        rng = np.random.default_rng(c)
        qx = rng.choice(np.array([-127, 127], dtype=np.int8), size=(2, c, 4, 4))
        qw = rng.choice(np.array([-127, 127], dtype=np.int8), size=(3, c, k, k))
        qw[0] = 127  # a worst-case channel: all products +16129 where qx > 0
        qx[0] = 127
        got = quant_conv2d(
            Tensor(qx.astype(np.float32)), qw, np.ones(3, dtype=np.float32),
            padding=k // 2, x_scale=1.0,
        ).data
        ref = _conv2d_int64_reference(qx, qw, 1, k // 2)
        assert np.abs(ref).max() > 2**24  # float32 accumulation would round here
        np.testing.assert_array_equal(got, ref.astype(np.float32))

    @pytest.mark.parametrize("static", [False, True], ids=["dynamic", "static"])
    def test_quant_conv2d_matches_tap_kernel_on_resnet56(self, static, monkeypatch):
        """Bit for bit against the former tap-accumulation kernel on every
        ResNet-56 conv shape: both accumulate exact integers in float32."""
        rng = np.random.default_rng(56)
        shapes = _resnet56_conv_shapes(monkeypatch)
        assert len(shapes) == 8  # stem, three stage bodies, two downsamplings, two shortcuts
        for x_shape, w_shape, stride, padding in shapes:
            x = rng.normal(size=x_shape).astype(np.float32)
            qw, w_scale = quantize_weight(rng.normal(size=w_shape).astype(np.float32))
            bias = rng.normal(size=w_shape[0]).astype(np.float32)
            x_scale = 0.02 if static else None
            got = quant_conv2d(
                Tensor(x), qw, w_scale, bias, stride, padding,
                activation="relu", x_scale=x_scale,
            ).data
            expected = _tap_quant_conv2d(x, qw, w_scale, bias, stride, padding, x_scale)
            np.testing.assert_array_equal(got, expected, err_msg=str((x_shape, w_shape)))

    @given(
        seed=seeds,
        n=st.integers(1, 6),
        inp=st.integers(1, 32),
        out=st.integers(1, 9),
    )
    @settings(max_examples=30, deadline=None)
    def test_quant_linear_matches_integer_reference(self, seed, n, inp, out):
        x = _normal(seed, (n, inp))
        w = _normal(seed + 1, (out, inp))
        qw, w_scale = quantize_weight(w)
        xq, x_scale = quantize_activation(x)
        got = quant_linear(Tensor(x), qw, w_scale, x_scale=x_scale).data
        ref = xq.astype(np.int64) @ qw.astype(np.int64).T
        expected = ref.astype(np.float64) * (x_scale * w_scale)[None, :]
        np.testing.assert_allclose(got, expected, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("k", [1041, 4608])
    def test_quant_linear_exact_beyond_float32_fan_in(self, k):
        """K above 1040 can overflow float32's integer window; the linear
        kernel splits the fan-in like the conv kernel and must still match
        the integer reference exactly on large operands in [100, 127]."""
        rng = np.random.default_rng(k)
        qx = rng.integers(100, 128, size=(4, k)).astype(np.int8)
        qw = rng.integers(100, 128, size=(3, k)).astype(np.int8)
        qw[0] = 127  # a worst-case output: all products 16129 in row 0
        qx[0] = 127
        got = quant_linear(
            Tensor(qx.astype(np.float32)), qw, np.ones(3, dtype=np.float32), x_scale=1.0
        ).data
        ref = qx.astype(np.int64) @ qw.astype(np.int64).T
        assert np.abs(ref).max() > 2**24  # float32 accumulation would round here
        np.testing.assert_array_equal(got, ref.astype(np.float32))

    @given(
        seed=seeds,
        k=st.sampled_from([1, 3]),
        stride=st.integers(1, 2),
        padding=st.integers(0, 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_one_by_one_kernels_with_bias_and_relu(self, seed, k, stride, padding):
        """Bias/ReLU fusion on the 1x1 pointwise fast case and on padded 3x3."""
        x = _normal(seed, (2, 4, 5, 5))
        w = _normal(seed + 1, (3, 4, k, k))
        b = _normal(seed + 2, (3,))
        qw, w_scale = quantize_weight(w)
        xq, x_scale = quantize_activation(x)
        got = quant_conv2d(
            Tensor(x), qw, w_scale, bias=b, stride=stride, padding=padding,
            x_scale=x_scale, activation="relu",
        ).data
        ref = _conv2d_int64_reference(xq, qw, stride, padding).astype(np.float64)
        expected = np.maximum(
            ref * (x_scale * w_scale)[None, :, None, None] + b[None, :, None, None],
            0.0,
        )
        np.testing.assert_allclose(got, expected, rtol=1e-6, atol=1e-6)

    def test_backward_through_quant_kernels_is_refused(self):
        x = Tensor(np.ones((1, 4), dtype=np.float32), requires_grad=True)
        qw, w_scale = quantize_weight(np.ones((2, 4), dtype=np.float32))
        out = quant_linear(x, qw, w_scale)
        with pytest.raises(RuntimeError, match="inference-only"):
            out.sum().backward()


# --------------------------------------------------------------------------- #
# Whole-model accuracy: quantized vs float32 on the same weights
# --------------------------------------------------------------------------- #
class TestQuantizedModelAccuracy:
    def _model_and_input(self, rng, batch=16):
        model = resnet8(num_classes=10).eval()
        x = rng.normal(size=(batch, 3, 16, 16)).astype(np.float32)
        return model, x

    def test_int8_close_to_float_and_argmax_agrees(self, rng):
        model, x = self._model_and_input(rng)
        with no_grad():
            ref = model(Tensor(x)).data
        quantize_module(model, mode="int8", calibration=[x])
        assert quantized_bits(model) == 8
        with no_grad():
            got = model(Tensor(x)).data
        rel = np.abs(got - ref).mean() / np.abs(ref).mean()
        assert rel < 0.10, f"int8 logits drifted {rel:.3f} relative from float32"
        agreement = (got.argmax(axis=1) == ref.argmax(axis=1)).mean()
        assert agreement >= 0.85, f"int8 argmax agreement {agreement:.2f}"

    def test_fp16_nearly_exact(self, rng):
        model, x = self._model_and_input(rng)
        with no_grad():
            ref = model(Tensor(x)).data
        quantize_module(model, mode="fp16")
        assert quantized_bits(model) == 16
        with no_grad():
            got = model(Tensor(x)).data
        rel = np.abs(got - ref).mean() / np.abs(ref).mean()
        assert rel < 5e-3, f"fp16 logits drifted {rel:.5f} relative from float32"

    def test_static_scales_close_to_dynamic(self, rng):
        model, x = self._model_and_input(rng)
        dynamic = resnet8(num_classes=10).eval()
        dynamic.load_state_dict(model.state_dict())
        quantize_module(model, mode="int8", calibration=[x])  # static scales
        quantize_module(dynamic, mode="int8")                 # per-batch scales
        with no_grad():
            a = model(Tensor(x)).data
            b = dynamic(Tensor(x)).data
        rel = np.abs(a - b).mean() / max(np.abs(b).mean(), 1e-12)
        assert rel < 0.05, f"calibrated scales diverge {rel:.3f} from dynamic"
