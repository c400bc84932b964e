"""Conv kernel allocation properties and the scratch meter (repro.nn.workspace).

* *bit-identity* — the single kernel path gives the same bits on a cold
  and a warm call, for every drawn conv geometry (hypothesis) and for the
  pooling paths, gradients included, and agrees with a direct-loop float64
  reference;
* *allocation bugfixes stay fixed* — ``padding == 0`` never copies the
  input (an old path paid a full padding copy on every 1x1 conv), and
  the fused-ReLU clamp really happens in the output buffer (an old
  spelling silently clamped a temporary when the output was
  non-contiguous);
* *the meter* — each conv reports its own transient scratch, the thread
  keeps the largest single-kernel figure (not a sum over every shape it
  has run), and one thread's kernels never move another thread's reading.

Kernel values and gradients are pinned in ``tests/goldens/kernels.json``
(``tests/test_goldens.py``).
"""

import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.config import EvaluatorConfig
from repro.core.evaluator import SurrogateEvaluator
from repro.data.tasks import EXP1
from repro.models import resnet56
from repro.nn import Tensor, reset_workspace_peak, workspace_stats
from repro.nn import functional as F
from repro.nn.quant import quant_conv2d, quantize_weight
from repro.space import CompressionScheme


def conv_outputs(data, stride, padding, activation=None):
    """out/dx/dw/db of one conv2d forward+backward on copies of ``data``."""
    xd, wd, bd = data
    x = Tensor(xd.copy(), requires_grad=True)
    w = Tensor(wd.copy(), requires_grad=True)
    b = Tensor(bd.copy(), requires_grad=True)
    out = F.conv2d(x, w, b, stride=stride, padding=padding, activation=activation)
    out.backward(np.ones(out.shape, dtype=np.float32))
    return out.data.copy(), x.grad.copy(), w.grad.copy(), b.grad.copy()


def conv_scratch_bytes(x_shape, w_shape, stride, padding, int8=False):
    """Padded input + patch matrix of one conv2d (or, with ``int8``, one
    quant_conv2d) call, in bytes.  Stride-1 padded convs gather whole
    padded rows, and their padded input carries one spare zero row; the
    int8 kernel pads its int8 input and gathers float32 columns."""
    n, c, h, w = x_shape
    f, _, kh, kw = w_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    if kh == kw == stride == 1 and not padding and not int8:
        return 0  # pointwise: the GEMM runs on the input itself
    wide = stride == 1 and padding > 0
    padded = n * c * (hp + wide) * wp * (1 if int8 else 4) if padding else 0
    patches = c * kh * kw * n * ho * (wp if wide else wo) * 4
    return padded + patches


def reference_conv(data, stride, padding, relu_mask=None):
    """out/dx/dw/db of conv2d under an all-ones upstream gradient, by direct
    loops over the kernel taps in float64.  ``relu_mask`` (the kernel's own
    ``out > 0``) gates the backward exactly as the fused ReLU does."""
    xd, wd, bd = (a.astype(np.float64) for a in data)
    n, c, h, w = xd.shape
    f, _, kh, kw = wd.shape
    xp = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    out = np.broadcast_to(bd[None, :, None, None], (n, f, ho, wo)).copy()
    for u in range(kh):
        for v in range(kw):
            window = xp[:, :, u : u + stride * ho : stride, v : v + stride * wo : stride]
            out += np.einsum("nchw,fc->nfhw", window, wd[:, :, u, v])
    if relu_mask is not None:
        out = np.maximum(out, 0.0)
    g = np.ones_like(out) if relu_mask is None else relu_mask.astype(np.float64)
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(wd)
    for u in range(kh):
        for v in range(kw):
            window = xp[:, :, u : u + stride * ho : stride, v : v + stride * wo : stride]
            dw[:, :, u, v] = np.einsum("nfhw,nchw->fc", g, window)
            dxp[:, :, u : u + stride * ho : stride, v : v + stride * wo : stride] += (
                np.einsum("nfhw,fc->nchw", g, wd[:, :, u, v])
            )
    dx = dxp[:, :, padding : padding + h, padding : padding + w]
    return out, dx, dw, g.sum(axis=(0, 2, 3))


def reference_avg_pool(xd, kernel, stride):
    """out/dx of avg_pool2d under an all-ones upstream gradient, by loops."""
    n, c, h, w = xd.shape
    ho, wo = (h - kernel) // stride + 1, (w - kernel) // stride + 1
    out = np.zeros((n, c, ho, wo))
    dx = np.zeros((n, c, h, w))
    for i in range(ho):
        for j in range(wo):
            rows = slice(i * stride, i * stride + kernel)
            cols = slice(j * stride, j * stride + kernel)
            out[:, :, i, j] = xd[:, :, rows, cols].astype(np.float64).mean(axis=(2, 3))
            dx[:, :, rows, cols] += 1.0 / (kernel * kernel)
    return out, dx


# --------------------------------------------------------------------------- #
# Cold == warm bit for bit, and agreement with a direct-loop reference
# --------------------------------------------------------------------------- #
class TestPlannedBitIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 5),
        h=st.integers(3, 11),
        w=st.integers(3, 11),
        f=st.integers(1, 6),
        kh=st.integers(1, 4),
        kw=st.integers(1, 4),
        stride=st.integers(1, 3),
        padding=st.integers(0, 2),
        relu=st.booleans(),
    )
    def test_conv2d(self, n, c, h, w, f, kh, kw, stride, padding, relu):
        assume(h + 2 * padding >= kh and w + 2 * padding >= kw)
        rng = np.random.default_rng([n, c, h, w, f, kh, kw, stride, padding])
        data = (
            rng.normal(size=(n, c, h, w)).astype(np.float32),
            rng.normal(size=(f, c, kh, kw)).astype(np.float32),
            rng.normal(size=(f,)).astype(np.float32),
        )
        activation = "relu" if relu else None
        cold = conv_outputs(data, stride, padding, activation)
        warm = conv_outputs(data, stride, padding, activation)
        reference = reference_conv(data, stride, padding, cold[0] > 0 if relu else None)
        for name, a, b, r in zip(("out", "dx", "dw", "db"), cold, warm, reference):
            np.testing.assert_array_equal(b, a, err_msg=f"{name} (warm vs cold)")
            assert a.shape == r.shape, name
            np.testing.assert_allclose(a, r, rtol=1e-4, atol=1e-4, err_msg=name)

    @pytest.mark.parametrize("kernel,stride,size", [(2, 2, 8), (3, 1, 7), (3, 2, 9)])
    def test_avg_pool2d(self, rng, kernel, stride, size):
        xd = rng.normal(size=(2, 3, size, size)).astype(np.float32)

        def run():
            x = Tensor(xd.copy(), requires_grad=True)
            out = F.avg_pool2d(x, kernel=kernel, stride=stride)
            out.backward(np.ones(out.shape, dtype=np.float32))
            return out.data.copy(), x.grad.copy()

        cold_out, cold_dx = run()
        warm_out, warm_dx = run()
        np.testing.assert_array_equal(warm_out, cold_out)
        np.testing.assert_array_equal(warm_dx, cold_dx)
        ref_out, ref_dx = reference_avg_pool(xd, kernel, stride)
        np.testing.assert_allclose(cold_out, ref_out, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(cold_dx, ref_dx, rtol=1e-5, atol=1e-6)


# --------------------------------------------------------------------------- #
# The allocation bugfixes stay fixed
# --------------------------------------------------------------------------- #
class TestPaddingZeroNoCopy:
    def test_conv2d_padding_zero_never_pads(self, rng, monkeypatch):
        """A no-padding conv hands the input itself to im2col, no copy."""
        seen = []
        real_im2col = F._im2col

        def recording(xp, *args):
            seen.append(xp)
            return real_im2col(xp, *args)

        monkeypatch.setattr(F, "_im2col", recording)
        for k in (1, 3):
            x = Tensor(rng.normal(size=(2, 4, 6, 6)), requires_grad=True)
            w = Tensor(rng.normal(size=(3, 4, k, k)), requires_grad=True)
            F.conv2d(x, w, stride=1, padding=0).sum().backward()
            assert seen.pop() is x.data


class TestFusedReluContiguity:
    def test_clamp_lands_in_output(self, rng):
        """The fused clamp must modify the tensor the op returns, not a
        contiguous temporary (the old footgun)."""
        data = (
            rng.normal(size=(2, 3, 6, 6)).astype(np.float32),
            rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
            np.zeros(4, dtype=np.float32),
        )
        fused = conv_outputs(data, 1, 1, "relu")[0]
        assert fused.flags["C_CONTIGUOUS"]
        assert fused.min() >= 0.0
        plain = conv_outputs(data, 1, 1, None)[0]
        np.testing.assert_array_equal(fused, np.maximum(plain, 0.0))


# --------------------------------------------------------------------------- #
# The scratch meter
# --------------------------------------------------------------------------- #
class TestScratchMeter:
    def test_conv2d_reports_its_scratch(self, rng):
        for x_shape, w_shape, stride, padding in [
            ((2, 3, 8, 8), (4, 3, 3, 3), 1, 1),
            ((2, 8, 9, 9), (5, 8, 3, 3), 2, 1),
            ((1, 4, 7, 7), (6, 4, 1, 1), 1, 0),  # pointwise: no scratch at all
        ]:
            x = Tensor(rng.normal(size=x_shape).astype(np.float32))
            w = Tensor(rng.normal(size=w_shape).astype(np.float32))
            reset_workspace_peak()
            F.conv2d(x, w, stride=stride, padding=padding)
            assert workspace_stats() == {
                "bytes_peak": conv_scratch_bytes(x_shape, w_shape, stride, padding)
            }

    def test_quant_conv2d_reports_its_scratch(self, rng):
        for x_shape, w_shape, stride, padding in [
            ((2, 3, 8, 8), (4, 3, 3, 3), 1, 1),
            ((2, 8, 9, 9), (5, 8, 3, 3), 2, 1),
            ((1, 4, 7, 7), (6, 4, 1, 1), 1, 0),  # pointwise: the cast columns
        ]:
            x = Tensor(rng.normal(size=x_shape).astype(np.float32))
            qweight, scale = quantize_weight(rng.normal(size=w_shape).astype(np.float32))
            reset_workspace_peak()
            quant_conv2d(x, qweight, scale, stride=stride, padding=padding)
            assert workspace_stats() == {
                "bytes_peak": conv_scratch_bytes(x_shape, w_shape, stride, padding, int8=True)
            }

    def test_resnet56_probe_peak_is_one_kernel(self, monkeypatch):
        """The latency probe's peak is the largest *single* conv's scratch,
        not a sum over every shape the model runs."""
        largest = []
        real_conv2d = F.conv2d

        def recording(x, weight, bias=None, stride=1, padding=0, activation=None):
            largest.append(conv_scratch_bytes(x.shape, weight.shape, stride, padding))
            return real_conv2d(x, weight, bias, stride, padding, activation)

        evaluator = SurrogateEvaluator(
            lambda: resnet56(num_classes=10), "resnet56", "cifar10", EXP1,
            config=EvaluatorConfig(seed=0, latency_batch=8),
        )
        monkeypatch.setattr(F, "conv2d", recording)
        result = evaluator.evaluate(CompressionScheme())
        assert largest, "the probe ran no conv2d"
        assert 0 < result.workspace_bytes_peak <= max(largest)

    def test_other_threads_do_not_raise_this_threads_peak(self, rng):
        x = Tensor(rng.normal(size=(4, 8, 16, 16)).astype(np.float32))
        w = Tensor(rng.normal(size=(8, 8, 3, 3)).astype(np.float32))
        worker_peak = {}

        def worker():
            reset_workspace_peak()
            F.conv2d(x, w, stride=1, padding=1)
            worker_peak["bytes"] = workspace_stats()["bytes_peak"]

        reset_workspace_peak()
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert worker_peak["bytes"] == conv_scratch_bytes(x.shape, w.shape, 1, 1)
        assert workspace_stats()["bytes_peak"] == 0
