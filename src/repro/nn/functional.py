"""Neural-network operations built on :mod:`repro.nn.tensor`.

The hot ops are *fused kernels*: single registered ops whose forward is one
numpy expression and whose backward is hand-written in closed form, instead
of a chain of primitive tape nodes that each allocate a fresh array.

* :func:`conv2d` — forward as one patch gather (:func:`_im2col`, shared
  with ``quant_conv2d``) and one BLAS GEMM over the whole batch, explicit
  col2im backward, with an optional fused ReLU (``activation="relu"``);
* :func:`batch_norm` — one op for both modes: batch statistics with the
  closed-form batchnorm backward during training, a precomputed scale/shift
  multiply-add at eval time;
* :func:`add_relu` — the ResNet residual join ``relu(a + b)`` as one kernel;
* pooling backward passes are vectorised scatter-adds (a single reshape
  scatter when windows do not overlap, per-tap strided adds otherwise).

Each op has exactly one implementation.  ``conv2d`` and ``quant_conv2d``
report the bytes of the transient scratch they allocate (padded input,
patch matrix) to the per-thread meter in :mod:`repro.nn.workspace`, which
the evaluator's latency probe reads as ``workspace_bytes_peak``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .tensor import Tensor, _register_op, _unbroadcast
from .workspace import record_scratch

def _im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int, dtype: np.dtype
) -> Tuple[np.ndarray, int, int]:
    """Patch matrix of NCHW ``x`` for one conv GEMM, cast to ``dtype``.

    Returns ``(cols, wc, scratch_bytes)``.  ``cols`` is ``(C*kh*kw,
    N*Ho*wc)``, so ``wmat @ cols`` is the whole conv in one GEMM; its
    columns are ``(n, ho, w)`` positions, of which the first ``Wo`` per
    row are outputs (see :func:`_per_sample`).  The gather is one
    ``copyto`` from an ``as_strided`` view, and any cast (int8 -> float32
    in ``quant_conv2d``) happens inside that copy.

    * stride-1 padded convs gather whole padded rows (``wc = Wp``): each
      kernel tap is then one contiguous run of ``Ho*Wp`` elements.  A
      tap's run spills ``kw - 1`` elements past the last row, so the
      padded buffer carries one spare zero row; the ``kw - 1`` wrapped
      columns of every output row are dropped when the output is written.
    * other convs gather runs of ``Wo`` elements (``wc = Wo``).
    * an unpadded pointwise conv without a cast returns ``(N, C, H*W)``, a
      view of ``x`` itself: ``wmat @ cols`` then is NCHW already.
    """
    n, c, h, w = x.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    if kh == kw == stride == 1 and not padding and x.dtype == dtype:
        return x.reshape(n, c, h * w), wo, 0
    wide = stride == 1 and padding > 0
    scratch = 0
    xp = x
    if padding:
        xp = np.zeros((n, c, hp + wide, wp), dtype=x.dtype)
        xp[:, :, padding : padding + h, padding : padding + w] = x
        scratch += xp.nbytes
    sn, sc, sh, sw = xp.strides
    if wide:
        wc = wp
        shape, strides = (c, kh, kw, n, ho * wp), (sc, sh, sw, sn, sw)
    else:
        wc = wo
        shape = (c, kh, kw, n, ho, wo)
        strides = (sc, sh, sw, sn, sh * stride, sw * stride)
    windows = as_strided(xp, shape, strides, writeable=False)
    cols = np.empty((c * kh * kw, n * ho * wc), dtype=dtype)
    np.copyto(cols.reshape(shape), windows, casting="unsafe")
    return cols, wc, scratch + cols.nbytes


def _per_sample(m: np.ndarray, n: int, ho: int, wo: int, wc: int) -> np.ndarray:
    """``(N, R, Ho, Wo)`` view of an ``(R, N*Ho*wc)`` matrix laid out like
    :func:`_im2col`'s columns, with the wrapped columns dropped."""
    return m.reshape(-1, n, ho, wc)[:, :, :, :wo].transpose(1, 0, 2, 3)


def _nchw(gemm: np.ndarray, n: int, ho: int, wo: int, wc: int) -> np.ndarray:
    """The NCHW conv output from ``wmat @ cols``: the pointwise ``(N, F,
    H*W)`` product reshaped in place, otherwise one crop-and-transpose copy
    (a plain copy is about 3x faster than an arithmetic ufunc over the
    transposed view, so bias and clamps are applied before it)."""
    if gemm.ndim == 3:
        return gemm.reshape(n, -1, ho, wo)
    out = np.empty((n, gemm.shape[0], ho, wo), dtype=gemm.dtype)
    np.copyto(out, _per_sample(gemm, n, ho, wo, wc))
    return out


def _col2im(
    dcols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    out_hw: Tuple[int, int],
) -> np.ndarray:
    """Scatter-add patch gradients back to the (padded) input gradient.

    ``dcols`` is the transposed patch-gradient matrix ``(N, C*kh*kw,
    Ho*Wo)``.  Non-overlapping windows (stride >= kernel) scatter with one
    vectorised reshape assignment; overlapping windows accumulate one
    whole-array strided add per kernel tap (kh*kw adds, each fully
    vectorised).  The result is freshly allocated, so ``_accumulate`` may
    adopt it.
    """
    n, c, hp, wp = x_shape
    ho, wo = out_hw
    blocks = dcols.reshape(n, c, kh, kw, ho, wo)
    dx = np.zeros(x_shape, dtype=dcols.dtype)
    if stride >= kh and stride >= kw and hp == stride * ho and wp == stride * wo:
        view = dx.reshape(n, c, ho, stride, wo, stride)
        view[:, :, :, :kh, :, :kw] = blocks.transpose(0, 1, 4, 2, 5, 3)
        return dx
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += (
                blocks[:, :, i, j]
            )
    return dx


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    activation: Optional[str] = None,
) -> Tensor:
    """2D convolution for NCHW input and (F, C, kh, kw) weights.

    ``activation="relu"`` fuses the ReLU into the kernel: the clamp happens
    in place on the conv output and the backward pass masks the incoming
    gradient before the usual conv backward — no extra tape node.
    """
    if activation not in (None, "relu"):
        raise ValueError(f"conv2d activation must be None or 'relu', got {activation!r}")
    f, c_w, kh, kw = weight.shape
    n, c, h, w = x.shape
    if c != c_w:
        raise ValueError(f"conv2d channel mismatch: input {c} vs weight {c_w}")
    wmat = weight.data.reshape(f, -1)  # (F, C*kh*kw)
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    cols, wc, scratch = _im2col(x.data, kh, kw, stride, padding, x.data.dtype)
    record_scratch(scratch)
    gemm = np.matmul(wmat, cols)  # freshly allocated: the ops below are in place
    if bias is not None:
        gemm += bias.data.reshape(f, 1)
    relu_mask = None
    if activation == "relu":
        np.maximum(gemm, 0.0, out=gemm)
    out = _nchw(gemm, n, ho, wo, wc)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        if relu_mask is not None:
            grad = grad * relu_mask  # never mask `grad` in place: the tape owns it
        gmat = grad.reshape(n, f, ho * wo)  # (N, F, Ho*Wo), no copy
        if weight.requires_grad:
            # Per-sample GEMMs over the (N, C*kh*kw, Ho*Wo) cropped columns,
            # then a reduction over the batch.  BLAS consumes the transposed
            # view directly, which avoids the two large contiguous copies
            # np.tensordot makes.
            if cols.ndim == 3:
                pcols = cols
            else:
                pcols = np.ascontiguousarray(_per_sample(cols, n, ho, wo, wc))
                pcols = pcols.reshape(n, -1, ho * wo)
            dw = np.matmul(gmat, pcols.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(dw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(gmat.sum(axis=(0, 2)))
        if x.requires_grad:
            dcols = np.matmul(wmat.T, gmat)  # (N, C*kh*kw, Ho*Wo)
            xp_shape = (n, c, h + 2 * padding, w + 2 * padding)
            dxp = _col2im(dcols, xp_shape, kh, kw, stride, (ho, wo))
            if padding:
                dxp = dxp[:, :, padding:-padding, padding:-padding]
            x._accumulate(dxp)

    result = x._make(out, parents, backward)
    if activation == "relu" and result.requires_grad:
        relu_mask = out > 0
    return _register_op(result, "conv2d")


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` for (N, in) input and (out, in) weight."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def add_relu(a: Tensor, b: Tensor) -> Tensor:
    """Fused ``relu(a + b)`` — the ResNet residual join as one kernel.

    One allocation for the forward value and one mask in the backward,
    instead of the add node + relu node (and their intermediates) the
    primitive composition costs.
    """
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    out = a.data + b.data
    np.maximum(out, 0.0, out=out)

    def backward(grad: np.ndarray) -> None:
        g = grad * (out > 0)
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(g, b.shape))

    return _register_op(a._make(out, (a, b), backward), "add_relu")


def max_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Max pooling over NCHW spatial dims."""
    stride = stride or kernel
    n, c, h, w = x.shape
    windows = sliding_window_view(x.data, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # (N, C, Ho, Wo, k, k)
    ho, wo = windows.shape[2], windows.shape[3]
    flat = windows.reshape(n, c, ho, wo, kernel * kernel)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def backward(grad: np.ndarray) -> None:
        dx = np.zeros_like(x.data)
        ki, kj = np.divmod(arg, kernel)
        ii = (np.arange(ho) * stride)[None, None, :, None] + ki
        jj = (np.arange(wo) * stride)[None, None, None, :] + kj
        nn_idx = np.arange(n)[:, None, None, None]
        cc_idx = np.arange(c)[None, :, None, None]
        np.add.at(dx, (nn_idx, cc_idx, ii, jj), grad)
        x._accumulate(dx)

    return _register_op(x._make(out, (x,), backward), "max_pool2d")


def avg_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Average pooling as a single fused op.

    Non-overlapping windows (the common stride == kernel case) reduce with
    one reshaped mean and scatter their backward with one broadcast — no
    Python loop and no intermediate tape nodes.
    """
    stride = stride or kernel
    n, c, h, w = x.shape
    inv = 1.0 / (kernel * kernel)
    if stride == kernel and h % kernel == 0 and w % kernel == 0:
        ho, wo = h // kernel, w // kernel
        out = x.data.reshape(n, c, ho, kernel, wo, kernel).mean(axis=(3, 5))

        def backward(grad: np.ndarray) -> None:
            share = np.asarray(grad * inv)[:, :, :, None, :, None]
            dx = np.broadcast_to(share, (n, c, ho, kernel, wo, kernel))
            x._accumulate(np.ascontiguousarray(dx).reshape(n, c, h, w))

        return _register_op(x._make(out, (x,), backward), "avg_pool2d")

    windows = sliding_window_view(x.data, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    ho, wo = windows.shape[2], windows.shape[3]
    out = windows.mean(axis=(4, 5))

    def backward(grad: np.ndarray) -> None:
        dx = np.zeros(x.data.shape, dtype=x.data.dtype)
        share = grad * inv
        for i in range(kernel):
            for j in range(kernel):
                dx[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += share
        x._accumulate(dx)

    return _register_op(x._make(out, (x,), backward), "avg_pool2d")


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the spatial dims of NCHW, returning (N, C)."""
    n, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3))
    inv = 1.0 / (h * w)

    def backward(grad: np.ndarray) -> None:
        dx = np.broadcast_to(np.asarray(grad * inv)[:, :, None, None], x.shape)
        x._accumulate(np.ascontiguousarray(dx))

    return _register_op(x._make(out, (x,), backward), "global_avg_pool2d")


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalisation over channel dim of NCHW (or feature dim of NF).

    A single fused op in both modes.  Training normalises with batch
    statistics and uses the closed-form batchnorm backward; eval collapses
    the whole transform into a precomputed per-channel ``scale``/``shift``
    (materialised in ``x``'s dtype) so inference is one multiply-add.
    ``running_mean``/``running_var`` are updated in place during training.
    """
    axes = (0, 2, 3) if x.ndim == 4 else (0,)
    shape = (1, -1, 1, 1) if x.ndim == 4 else (1, -1)
    dtype = x.dtype
    if training:
        # One pass for the statistics: np.var would subtract the mean all
        # over again, and the centred array doubles as the x_hat buffer.
        # Every in-place op below replaces an allocation with an identical
        # elementwise computation, so the values stay bit-for-bit equal to
        # the naive spelling.
        mean = x.data.mean(axis=axes, dtype=dtype)
        xc = x.data - mean.reshape(shape)
        sq = xc * xc
        var = sq.mean(axis=axes, dtype=dtype)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.astype(running_mean.dtype, copy=False)
        running_var *= 1.0 - momentum
        running_var += momentum * var.astype(running_var.dtype, copy=False)
        inv_std = 1.0 / np.sqrt(var + eps, dtype=dtype)
        x_hat = np.multiply(xc, inv_std.reshape(shape), out=sq)
        out = x_hat * gamma.data.reshape(shape)
        out += beta.data.reshape(shape)
        m = x.size // x.shape[1] if x.ndim == 4 else x.shape[0]

        def backward(grad: np.ndarray) -> None:
            dbeta = grad.sum(axis=axes)
            dgamma = (grad * x_hat).sum(axis=axes)
            if gamma.requires_grad:
                gamma._accumulate(dgamma)
            if beta.requires_grad:
                beta._accumulate(dbeta)
            if x.requires_grad:
                # Closed-form batchnorm backward (Ioffe & Szegedy, 2015):
                # dx = (gamma/std) / m * (m*dy - sum(dy) - xhat * sum(dy*xhat))
                coeff = (gamma.data * inv_std / m).reshape(shape)
                dx = m * grad
                dx -= dbeta.reshape(shape)
                dx -= x_hat * dgamma.reshape(shape)
                dx *= coeff
                x._accumulate(dx)

        return _register_op(x._make(out, (x, gamma, beta), backward), "batch_norm")

    inv_std = 1.0 / np.sqrt(running_var + eps)
    scale = (gamma.data * inv_std).astype(dtype, copy=False)
    shift = (beta.data - running_mean * gamma.data * inv_std).astype(dtype, copy=False)
    out = x.data * scale.reshape(shape)
    out += shift.reshape(shape)

    def backward(grad: np.ndarray) -> None:
        if gamma.requires_grad:
            x_hat = (x.data - running_mean.reshape(shape).astype(dtype, copy=False)) * (
                inv_std.reshape(shape).astype(dtype, copy=False)
            )
            gamma._accumulate((grad * x_hat).sum(axis=axes))
        if beta.requires_grad:
            beta._accumulate(grad.sum(axis=axes))
        if x.requires_grad:
            x._accumulate(grad * scale.reshape(shape))

    return _register_op(x._make(out, (x, gamma, beta), backward), "batch_norm")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.data.max(axis=axis, keepdims=True)
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.data.max(axis=axis, keepdims=True)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity at eval time.  The mask follows ``x.dtype``."""
    if not training or p <= 0:
        return x
    mask = (rng.random(x.shape) >= p).astype(x.dtype) * x.dtype.type(1.0 / (1.0 - p))
    return x * Tensor(mask, dtype=x.dtype)


def flatten(x: Tensor) -> Tensor:
    return x.reshape(x.shape[0], -1)
