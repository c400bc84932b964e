"""Int8/fp16 quantized inference for the ``repro.nn`` substrate.

Real reduced-precision execution behind the C7/C8 quantization story: the
search can *measure* a quantized scheme's latency instead of modelling it.

Two modes, selected by :func:`quantize_module`:

* ``"int8"`` — per-channel symmetric weight quantization (scale per output
  channel, zero-point 0) plus per-tensor activation quantization (dynamic
  per-batch absmax, or static scales frozen from calibration batches).
  Inference runs on the int8 kernels below.
* ``"fp16"`` — storage-only half precision: weights live in float16 buffers
  (half the bytes) and are cast back to float32 for the existing fused
  kernels.  No accuracy surprises, no speedup claim.

The int8 conv kernel shares the float conv's patch gather
(:func:`repro.nn.functional._im2col`): the quantized activation is
gathered into a ``(C*kh*kw, N*Ho*Wc)`` float32 matrix, the int8 -> float32
cast happening inside the gather's one copy, and one BLAS GEMM against the
``(F, C*kh*kw)`` float32 weight matrix computes the whole conv.  It runs
the same GEMM as the float path, so it is about as fast, not faster.  The
int8 linear kernel runs one GEMM of the quantized ``(N, in)`` input
against the ``(in, out)`` weight transpose.

Accumulating integer products in float32 BLAS is *exact* int32 arithmetic
while every partial sum stays within float32's 2**24 integer window: each
product is at most 127 * 127 = 16129, so sums are exact up to a fan-in of
:data:`EXACT_FAN_IN` = 1040, which covers every conv in the ResNet zoo
(C*kh*kw <= 64*9 = 576) and every zoo classifier (fan-in <= 512).  Larger
fan-ins (VGG's 512*9) are split into chunks of at most 1040, each chunk's
GEMM exact, and the chunk products are added in float64, so both kernels
give the exact integer sum (rounded once to float32) at every fan-in.

:class:`QuantizedConv2d` and :class:`QuantizedLinear` share one base,
:class:`QuantizedLayer`, which owns the storage, calibration observing and
the fp16/int8 dispatch; each adds only its geometry and kernel calls.

BatchNorm folding happens at quantize time (:func:`fold_batchnorm`): each
``Conv2d -> BatchNorm2d`` pair adjacent in registration order
(:func:`foldable_batchnorms`) is collapsed into the conv's weights/bias and
the BN becomes :class:`Identity`, so the quantized graph runs one kernel
where the float graph ran two.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from . import functional as F
from .layers import BatchNorm2d, Conv2d, Identity, Linear, Module, Parameter
from .tensor import Tensor, _register_op, no_grad
from .workspace import record_scratch

#: modes accepted by quantize_module
QUANT_MODES = ("int8", "fp16")
#: storage width in bits of a weight in each mode
MODE_BITS = {"int8": 8, "fp16": 16}

#: symmetric int8 range: [-127, 127] keeps the scale sign-symmetric
QMAX = 127

#: floor for scales so all-zero tensors quantize without dividing by zero
_EPS = 1e-12

#: largest fan-in K whose int8 products sum exactly in float32:
#: K * QMAX**2 < 2**24
EXACT_FAN_IN = (2**24 - 1) // QMAX**2


# --------------------------------------------------------------------------- #
# Weight quantization / dequantization
# --------------------------------------------------------------------------- #
def quantize_weight(
    weight: np.ndarray, axis: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-channel symmetric int8 quantization of a weight array.

    ``axis`` is the output-channel axis (0 for both ``(F, C, kh, kw)`` conv
    weights and ``(out, in)`` linear weights).  Returns ``(qweight, scale)``
    with ``qweight`` int8 and ``scale`` float32 of shape ``(F,)`` such that
    ``qweight * scale[..., None] ~= weight``.  Zero-points are always 0.
    """
    w = np.asarray(weight, dtype=np.float32)
    reduce_axes = tuple(i for i in range(w.ndim) if i != axis)
    absmax = np.abs(w).max(axis=reduce_axes) if w.size else np.zeros(w.shape[axis])
    scale = (np.maximum(absmax, _EPS) / QMAX).astype(np.float32)
    shape = [1] * w.ndim
    shape[axis] = -1
    q = np.clip(np.rint(w / scale.reshape(shape)), -QMAX, QMAX).astype(np.int8)
    return q, scale


def quantize_activation(
    x: np.ndarray, scale: Optional[float] = None
) -> Tuple[np.ndarray, float]:
    """Per-tensor symmetric int8 quantization of an activation array.

    With ``scale=None`` the scale is dynamic — computed from this batch's
    absmax — which is the calibration-free default.
    """
    if scale is None:
        absmax = float(max(x.max(), -x.min())) if x.size else 0.0
        scale = max(absmax, _EPS) / QMAX
    q = x * (1.0 / scale)
    np.rint(q, out=q)
    np.clip(q, -QMAX, QMAX, out=q)
    return q.astype(np.int8), scale


# --------------------------------------------------------------------------- #
# Quantized kernels
# --------------------------------------------------------------------------- #
def _inference_only_backward(_grad: np.ndarray) -> None:
    raise RuntimeError(
        "quantized kernels are inference-only and have no backward pass; "
        "quantize after training (post-training quantization)"
    )


def _exact_int_gemm(wmat: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``wmat @ cols`` over int8-valued float32 operands, exactly.

    ``wmat`` is ``(M, K)`` and ``cols`` ``(K, N)``, K the fan-in.  One
    float32 GEMM when the fan-in keeps every partial sum inside float32's
    integer window (``K * 127**2 < 2**24``, see the module docstring);
    otherwise the fan-in is split into chunks that do, and the exact chunk
    products are added in float64.
    """
    k = wmat.shape[1]
    if k <= EXACT_FAN_IN:
        return wmat @ cols
    acc = np.zeros((wmat.shape[0], cols.shape[1]), dtype=np.float64)
    for lo in range(0, k, EXACT_FAN_IN):
        acc += wmat[:, lo : lo + EXACT_FAN_IN] @ cols[lo : lo + EXACT_FAN_IN]
    return acc.astype(np.float32)


def quant_conv2d(
    x: Tensor,
    qweight: np.ndarray,
    weight_scale: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    padding: int = 0,
    activation: Optional[str] = None,
    x_scale: Optional[float] = None,
    wmat: Optional[np.ndarray] = None,
) -> Tensor:
    """Int8 2D convolution for NCHW input and int8 ``(F, C, kh, kw)`` weights.

    The input is quantized per-tensor (``x_scale``, dynamic when ``None``)
    and its patches gathered by the float conv's ``_im2col``, which casts
    int8 to float32 inside its one copy.  One float32 GEMM against the
    ``(F, C*kh*kw)`` weight matrix computes the integer accumulator exactly
    (see the module docstring).  The per-channel ``x_scale * weight_scale``
    requantization, the bias and an optional ReLU then run in place on the
    accumulator, and one copy writes the NCHW output.  ``wmat`` accepts the
    precomputed float32 weight matrix so persistent layers pay the cast
    once.
    """
    if activation not in (None, "relu"):
        raise ValueError(
            f"quant_conv2d activation must be None or 'relu', got {activation!r}"
        )
    f, c_w, kh, kw = qweight.shape
    n, c, h, w = x.shape
    if c != c_w:
        raise ValueError(f"quant_conv2d channel mismatch: input {c} vs weight {c_w}")
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    if wmat is None:
        wmat = qweight.reshape(f, -1).astype(np.float32)

    xq, x_scale = quantize_activation(x.data, x_scale)
    cols, wc, scratch = F._im2col(xq, kh, kw, stride, padding, np.float32)
    record_scratch(scratch)
    acc = _exact_int_gemm(wmat, cols)  # (F, N*Ho*wc)
    acc *= (np.float32(x_scale) * np.asarray(weight_scale, dtype=np.float32))[:, None]
    if bias is not None:
        acc += np.asarray(bias, dtype=np.float32)[:, None]
    if activation == "relu":
        np.maximum(acc, 0.0, out=acc)
    out = F._nchw(acc, n, ho, wo, wc)
    result = x._make(out, (x,), _inference_only_backward)
    return _register_op(result, "quant_conv2d")


def quant_linear(
    x: Tensor,
    qweight: np.ndarray,
    weight_scale: np.ndarray,
    bias: Optional[np.ndarray] = None,
    x_scale: Optional[float] = None,
    wmat: Optional[np.ndarray] = None,
) -> Tensor:
    """Int8 affine map for ``(N, in)`` input and int8 ``(out, in)`` weight.

    Same arithmetic scheme as :func:`quant_conv2d`: per-tensor input scale,
    per-output-channel weight scales, exact float32-BLAS accumulation over
    integer values at any fan-in, fused requantization.  ``wmat`` accepts
    the precomputed ``(in, out)`` float32 weight transpose.
    """
    xq, x_scale = quantize_activation(x.data, x_scale)
    if wmat is None:
        wmat = np.ascontiguousarray(qweight.T.astype(np.float32))  # (in, out)
    acc = _exact_int_gemm(xq.astype(np.float32), wmat)  # (N, out)
    acc *= (np.float32(x_scale) * np.asarray(weight_scale, dtype=np.float32))[None, :]
    if bias is not None:
        acc += np.asarray(bias, dtype=np.float32)[None, :]
    result = x._make(acc, (x,), _inference_only_backward)
    return _register_op(result, "quant_linear")


# --------------------------------------------------------------------------- #
# Quantized layers
# --------------------------------------------------------------------------- #
class QuantizedLayer(Module):
    """Inference-only layer with int8 (or float16) weight storage.

    The one home of what :class:`QuantizedConv2d` and
    :class:`QuantizedLinear` share.  Each subclass adds only its geometry
    (``_geometry`` reads it off the float layer), ``_float_op(x, weight,
    bias)`` for fp16 and ``_int8_op(x, x_scale)``, its int8 kernel call.

    All quantized state lives in *buffers* (never :class:`Parameter`, which
    would force-cast back to the float default dtype): ``qweight`` int8 or
    float16, ``weight_scale`` float32 per output channel (int8 mode),
    ``qbias`` float32, and — once calibrated — a one-element ``x_scale``.
    ``num_parameters()`` reports the *logical* element count (weight + bias)
    so P(M) tracks model structure, not storage precision; the precision is
    exposed as :attr:`effective_bits` and budgeted via ``weight_bits`` in
    the static cost model.
    """

    def __init__(
        self,
        qweight: np.ndarray,
        weight_scale: Optional[np.ndarray] = None,
        bias: Optional[np.ndarray] = None,
        mode: str = "int8",
        x_scale: Optional[float] = None,
    ):
        super().__init__()
        if mode not in QUANT_MODES:
            raise ValueError(f"mode must be one of {QUANT_MODES}, got {mode!r}")
        if mode == "int8" and weight_scale is None:
            raise ValueError("int8 mode needs per-channel weight scales")
        self.mode = mode
        self.register_buffer("qweight", np.asarray(qweight))
        if mode == "int8":
            self.register_buffer(
                "weight_scale", np.asarray(weight_scale, dtype=np.float32)
            )
        if bias is not None:
            self.register_buffer("qbias", np.asarray(bias, dtype=np.float32))
        else:
            self.qbias = None
        if x_scale is not None:
            self.register_buffer("x_scale", np.asarray([x_scale], dtype=np.float32))
        else:
            self.x_scale = None
        self._wmat: Optional[np.ndarray] = None
        self._observing = False
        self.observed_absmax = 0.0
        self.training = False

    @classmethod
    def from_float(cls, layer: Module, mode: str = "int8") -> "QuantizedLayer":
        """Quantize a (BN-folded) float layer into a frozen inference layer."""
        if mode == "fp16":
            qweight, scale = layer.weight.data.astype(np.float16), None
        else:
            qweight, scale = quantize_weight(layer.weight.data)
        bias = layer.bias.data if layer.bias is not None else None
        return cls(qweight, scale, bias=bias, mode=mode, **cls._geometry(layer))

    @staticmethod
    def _geometry(layer: Module) -> dict:
        """Constructor keywords beyond the weights, read off the float layer."""
        return {}

    @property
    def effective_bits(self) -> int:
        return MODE_BITS[self.mode]

    def num_parameters(self) -> int:
        total = int(self.qweight.size)
        if self.qbias is not None:
            total += int(self.qbias.size)
        return total

    def forward(self, x: Tensor) -> Tensor:
        if self._observing:
            absmax = float(np.max(np.abs(x.data))) if x.size else 0.0
            self.observed_absmax = max(self.observed_absmax, absmax)
        if self.mode == "fp16":
            weight = Tensor(self.qweight.astype(np.float32))
            bias = Tensor(self.qbias) if self.qbias is not None else None
            return self._float_op(x, weight, bias)
        scale = float(self.x_scale[0]) if self.x_scale is not None else None
        if self._observing:
            scale = None  # calibration forwards stay dynamic
        return self._int8_op(x, scale)


class QuantizedConv2d(QuantizedLayer):
    """Inference-only Conv2d with int8 (or float16) weight storage."""

    def __init__(
        self,
        qweight: np.ndarray,
        weight_scale: Optional[np.ndarray] = None,
        bias: Optional[np.ndarray] = None,
        stride: int = 1,
        padding: int = 0,
        mode: str = "int8",
        x_scale: Optional[float] = None,
    ):
        super().__init__(qweight, weight_scale, bias, mode, x_scale)
        self.stride = stride
        self.padding = padding
        self.kernel_size = int(qweight.shape[2])

    @staticmethod
    def _geometry(layer: Conv2d) -> dict:
        return {"stride": layer.stride, "padding": layer.padding}

    @property
    def in_channels(self) -> int:
        return int(self.qweight.shape[1])

    @property
    def out_channels(self) -> int:
        return int(self.qweight.shape[0])

    def _float_op(self, x: Tensor, weight: Tensor, bias: Optional[Tensor]) -> Tensor:
        return F.conv2d(x, weight, bias, self.stride, self.padding)

    def _int8_op(self, x: Tensor, x_scale: Optional[float]) -> Tensor:
        if self._wmat is None:
            self._wmat = self.qweight.reshape(self.out_channels, -1).astype(np.float32)
        return quant_conv2d(
            x,
            self.qweight,
            self.weight_scale,
            self.qbias,
            self.stride,
            self.padding,
            x_scale=x_scale,
            wmat=self._wmat,
        )

    def __repr__(self) -> str:
        return (
            f"QuantizedConv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"mode={self.mode!r})"
        )


class QuantizedLinear(QuantizedLayer):
    """Inference-only Linear with int8 (or float16) weight storage."""

    @property
    def in_features(self) -> int:
        return int(self.qweight.shape[1])

    @property
    def out_features(self) -> int:
        return int(self.qweight.shape[0])

    def _float_op(self, x: Tensor, weight: Tensor, bias: Optional[Tensor]) -> Tensor:
        return F.linear(x, weight, bias)

    def _int8_op(self, x: Tensor, x_scale: Optional[float]) -> Tensor:
        if self._wmat is None:
            self._wmat = np.ascontiguousarray(self.qweight.T.astype(np.float32))
        return quant_linear(
            x, self.qweight, self.weight_scale, self.qbias,
            x_scale=x_scale, wmat=self._wmat,
        )

    def __repr__(self) -> str:
        return (
            f"QuantizedLinear({self.in_features}, {self.out_features}, "
            f"mode={self.mode!r})"
        )


# --------------------------------------------------------------------------- #
# Module-level transforms
# --------------------------------------------------------------------------- #
def foldable_batchnorms(
    model: Module,
) -> List[Tuple[Module, str, Conv2d, BatchNorm2d]]:
    """Every ``Conv2d -> BatchNorm2d`` pair adjacent in registration order,
    as ``(parent, bn_name, conv, bn)``: the BNs PTQ folds.

    The one pairing rule, shared by :func:`fold_batchnorm` and the static
    cost model's C8 effect signature.
    """
    pairs = []
    for module in model.modules():
        prev: Optional[Module] = None
        for name, child in module._modules.items():
            if type(child) is BatchNorm2d and type(prev) is Conv2d:
                pairs.append((module, name, prev, child))
                prev = None
            else:
                prev = child
    return pairs


def fold_batchnorm(model: Module) -> int:
    """Collapse each eval-mode BN of a :func:`foldable_batchnorms` pair into
    its conv's weights and bias; the BN is replaced by :class:`Identity`.

    Forward-safe because models apply BN as ``self.bn(self.conv(x))`` — the
    Identity passes the (now already-normalised) conv output through.
    Returns the number of BNs folded.
    """
    pairs = foldable_batchnorms(model)
    for parent, name, conv, bn in pairs:
        inv_std = 1.0 / np.sqrt(bn.running_var + bn.eps)
        scale = (bn.gamma.data * inv_std).astype(np.float32)
        conv.weight.data = conv.weight.data * scale[:, None, None, None]
        base = conv.bias.data if conv.bias is not None else 0.0
        folded = (base - bn.running_mean) * scale + bn.beta.data
        if conv.bias is None:
            conv.bias = Parameter(folded)
        else:
            conv.bias.data = np.asarray(folded, dtype=conv.weight.data.dtype)
        parent.add_module(name, Identity())
    return len(pairs)


def calibrate_module(
    model: Module, batches: Iterable[Union[np.ndarray, Tensor]]
) -> int:
    """Freeze static activation scales from observed calibration ranges.

    Runs each batch through the model (grad-free, dynamic quantization) with
    every int8 layer recording its input absmax, then installs per-layer
    static ``x_scale`` buffers.  Returns the number of layers calibrated.
    """
    layers = [
        m
        for m in model.modules()
        if isinstance(m, QuantizedLayer) and m.mode == "int8"
    ]
    for layer in layers:
        layer._observing = True
        layer.observed_absmax = 0.0
    try:
        with no_grad():
            for batch in batches:
                x = batch if isinstance(batch, Tensor) else Tensor(
                    np.asarray(batch, dtype=np.float32)
                )
                model(x)
    finally:
        for layer in layers:
            layer._observing = False
            absmax = max(layer.observed_absmax, _EPS)
            layer.register_buffer(
                "x_scale", np.asarray([absmax / QMAX], dtype=np.float32)
            )
    return len(layers)


def quantize_module(
    model: Module,
    mode: str = "int8",
    calibration: Optional[Iterable[Union[np.ndarray, Tensor]]] = None,
) -> Module:
    """Post-training-quantize a model in place for reduced-precision inference.

    ``mode="int8"`` folds BatchNorms, swaps every exact ``Conv2d``/``Linear``
    for its quantized twin (per-channel symmetric weights), and — when
    ``calibration`` batches are given — freezes static activation scales via
    :func:`calibrate_module`; without calibration, activation scales stay
    dynamic per batch.  ``mode="fp16"`` performs the same folding/swap but
    stores weights as float16 and computes in float32 (storage-only).

    The model is switched to eval mode and returned for chaining.  Layers
    that are *subclasses* of Conv2d/Linear (factorized layers etc.) are left
    untouched; their inner exact convs are still caught by the walk.
    """
    if mode not in QUANT_MODES:
        raise ValueError(f"mode must be one of {QUANT_MODES}, got {mode!r}")
    model.eval()
    fold_batchnorm(model)
    replaced = 0
    for module in list(model.modules()):
        for name, child in list(module._modules.items()):
            if type(child) is Conv2d:
                module.add_module(name, QuantizedConv2d.from_float(child, mode=mode))
                replaced += 1
            elif type(child) is Linear:
                module.add_module(name, QuantizedLinear.from_float(child, mode=mode))
                replaced += 1
    if replaced == 0:
        raise ValueError("quantize_module found no exact Conv2d/Linear to quantize")
    if calibration is not None and mode == "int8":
        calibrate_module(model, calibration)
    return model


def quantized_bits(model: Module) -> Optional[int]:
    """The weight precision a quantized model executes at, or ``None``.

    Returns 8/16 when the model contains quantized layers (the max across
    layers if mixed), ``None`` for a pure float model — the executed-bits
    figure the evaluator checks against the cost model's ``weight_bits``.
    """
    bits = [m.effective_bits for m in model.modules() if isinstance(m, QuantizedLayer)]
    return max(bits) if bits else None
