"""Extension method C7 — INQ-style incremental quantization (Zhou et al.,
ICLR 2017).

The paper lists quantization among the compression families (§2.1) but its
search space (Table 1) contains none; enriching the space is named as future
work (§5).  This module implements that extension: weights are incrementally
constrained to powers of two (or zero), a fraction of each layer per
iteration, with the remaining full-precision weights re-trained in between.

Quantization does not remove parameters, so ``params_after == params_before``;
instead the step records the *effective* storage size in
``details["effective_bits"]`` (bits per weight after quantisation).  The
strategy space exposes it only when ``include_quantization=True``.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..nn import Module, Parameter
from .base import CompressionMethod, ExecutionContext, StepReport


def quantize_to_power_of_two(values: np.ndarray, bits: int = 5) -> np.ndarray:
    """Round each value to the nearest signed power of two (or zero).

    ``bits`` bounds the exponent range, matching INQ's codebook
    {0, ±2^(n1), ..., ±2^(n2)}.
    """
    out = np.zeros_like(values)
    nonzero = np.abs(values) > 1e-12
    if not nonzero.any():
        return out
    magnitudes = np.abs(values[nonzero])
    max_exp = np.floor(np.log2(magnitudes.max())) if magnitudes.max() > 0 else 0
    min_exp = max_exp - (2 ** (bits - 1) - 1)
    exps = np.clip(np.round(np.log2(magnitudes)), min_exp, max_exp)
    quantized = np.sign(values[nonzero]) * (2.0 ** exps)
    # Values far below the smallest code collapse to zero.
    quantized[magnitudes < 2.0 ** (min_exp - 1)] = 0.0
    out[nonzero] = quantized
    return out


class IncrementalQuantization(CompressionMethod):
    """Iterative partition / quantize / re-train power-of-two quantization."""

    label = "C7"
    name = "INQ"
    techniques = ("TE10", "TE3")

    iterations = 3

    def compress(
        self, model: Module, hp: Dict[str, object], ctx: ExecutionContext, report: StepReport
    ) -> None:
        bits = int(hp.get("HP17", 5))
        portion = float(hp.get("HP18", 0.5))  # fraction quantised per iteration
        ft_epochs = ctx.epochs(float(hp.get("HP1", 0.1)))

        params: List[Parameter] = [p for p in model.parameters() if p.ndim >= 2]
        frozen_masks = [np.zeros(p.shape, dtype=bool) for p in params]

        for it in range(self.iterations):
            for p, frozen in zip(params, frozen_masks):
                free = ~frozen
                free_values = np.abs(p.data[free])
                if free_values.size == 0:
                    continue
                # INQ quantises the largest-magnitude weights first.
                threshold = np.quantile(free_values, 1.0 - portion)
                newly = free & (np.abs(p.data) >= threshold)
                p.data[newly] = quantize_to_power_of_two(p.data[newly], bits)
                frozen |= newly
            if ctx.can_train:

                def refreeze(m: Module, step: int) -> None:
                    for p, frozen in zip(params, frozen_masks):
                        p.data[frozen] = quantize_to_power_of_two(p.data[frozen], bits)

                ctx.trainer.fit(
                    model, ctx.dataset, ft_epochs / self.iterations, step_hook=refreeze
                )

        # Final pass: quantise everything that remains.
        for p, frozen in zip(params, frozen_masks):
            p.data[~frozen] = quantize_to_power_of_two(p.data[~frozen], bits)
            frozen[:] = True

        report.fine_tune_epochs = ft_epochs
        report.details = {"effective_bits": float(bits), "iterations": float(self.iterations)}
