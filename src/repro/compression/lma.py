"""Method C1 — LMA: Light Multi-segment Activation distillation
(Xu et al., AAAI 2020).

Technique TE1: the current model becomes the *teacher*; a narrower student
is built by uniformly width-scaling every prunable unit until the HP2
parameter budget is removed, then the student is trained with the LMA
distillation objective (:func:`repro.nn.losses.lma_distillation_loss`):
hard-label cross-entropy (weight HP5 alpha) plus a soft term matching the
teacher's logits after a piecewise-linear multi-segment transform, softened
by temperature HP4, for HP1 fine-tune epochs.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..nn import Module
from ..nn.losses import lma_distillation_loss
from ..nn.tensor import Tensor
from .base import CompressionMethod, ExecutionContext, StepReport, distill
from .surgery import uniform_width_scale


class LMADistillation(CompressionMethod):
    """Width-scaled student trained with LMA multi-segment distillation."""

    label = "C1"
    name = "LMA"
    techniques = ("TE1",)

    segments = 4

    def compress(
        self, model: Module, hp: Dict[str, object], ctx: ExecutionContext, report: StepReport
    ) -> None:
        budget = ctx.param_budget(float(hp["HP2"]))
        ft_epochs = ctx.epochs(float(hp["HP1"]))
        temperature = float(hp.get("HP4", 3.0))
        alpha = float(hp.get("HP5", 0.5))

        def loss(logits: Tensor, targets: np.ndarray, teacher_logits: np.ndarray) -> Tensor:
            return lma_distillation_loss(
                logits, teacher_logits, targets, temperature, alpha, self.segments
            )

        distill(model, lambda: uniform_width_scale(model, budget), ft_epochs, loss, ctx)
        report.fine_tune_epochs = ft_epochs
        report.details = {"temperature": temperature, "alpha": alpha}
