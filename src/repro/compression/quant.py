"""Extension method C8 — real post-training quantization (PTQ).

Where C7 (:mod:`repro.compression.quantization`) *simulates* reduced
precision by constraining float weights to powers of two, C8 actually
changes the execution path: it calls :func:`repro.nn.quant.quantize_module`,
which folds BatchNorms, swaps ``Conv2d``/``Linear`` layers for their int8 or
fp16 twins, and routes inference through the quantized kernels.  The step's
``details["effective_bits"]`` therefore reports the *executed* storage
width (8 or 16), which the static cost model mirrors exactly via the C8
effect signature — no predicted-vs-executed drift by construction.

PTQ removes no parameters and needs no fine-tuning, so it composes cheaply
after any pruning/low-rank step: the search can explore prune -> quantize
schemes the paper's space never contained.

Hyperparameters (extension cells in Table 1's grid):

* ``HP19`` — quantization mode, ``"int8"`` or ``"fp16"``;
* ``HP20`` — calibration batches for static int8 activation scales
  (ignored by fp16, which has no activation quantization).
"""

from __future__ import annotations

from typing import Dict, Iterator, List

import numpy as np

from ..nn import Conv2d, Module
from ..nn.quant import quantize_module, quantized_bits
from .base import CompressionMethod, ExecutionContext, StepReport

#: spatial size of synthesized calibration inputs when no dataset is wired
_FALLBACK_HW = 32
_FALLBACK_BATCH = 8


def _calibration_batches(
    model: Module, ctx: ExecutionContext, batches: int
) -> List[np.ndarray]:
    """Collect ``batches`` input arrays for activation-range calibration.

    Prefers real validation/training data from the context; falls back to
    seeded Gaussian images shaped from the model's first conv so PTQ stays
    usable on the surrogate backend (where no dataset is attached).
    """
    data = ctx.val_dataset or ctx.dataset
    if data is not None:
        collected: List[np.ndarray] = []
        iterator: Iterator = data.iter_batches(32, shuffle=False)
        for i, (xb, _yb) in enumerate(iterator):
            if i >= batches:
                break
            collected.append(np.asarray(xb, dtype=np.float32))
        if collected:
            return collected
    in_channels = next(
        (m.in_channels for m in model.modules() if type(m) is Conv2d), 3
    )
    shape = (_FALLBACK_BATCH, in_channels, _FALLBACK_HW, _FALLBACK_HW)
    return [ctx.rng.normal(0.0, 1.0, size=shape).astype(np.float32) for _ in range(batches)]


class PostTrainingQuantization(CompressionMethod):
    """One-shot PTQ through the real int8/fp16 execution path."""

    label = "C8"
    name = "PTQ"
    techniques = ("TE10",)

    def compress(
        self, model: Module, hp: Dict[str, object], ctx: ExecutionContext, report: StepReport
    ) -> None:
        mode = str(hp.get("HP19", "int8"))
        calib_batches = int(hp.get("HP20", 2))

        calibration = None
        if mode == "int8" and calib_batches > 0:
            calibration = _calibration_batches(model, ctx, calib_batches)
        quantize_module(model, mode=mode, calibration=calibration)

        bits = quantized_bits(model)
        report.details = {
            "effective_bits": float(bits if bits is not None else 32),
            "calibration_batches": float(calib_batches if mode == "int8" else 0),
            "static_scales": 1.0 if calibration is not None else 0.0,
        }
