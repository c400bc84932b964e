"""Method C3 — Network Slimming (Liu et al., ICCV 2017).

Technique TE4: channels are ranked globally by the magnitude of their
batch-norm scaling factor |gamma|; the lowest-ranked channels are removed
until the HP2 parameter budget is met, then the network is fine-tuned (TE3).

Hyperparameters (Table 1): HP1 fine-tune epochs, HP2 parameter decrease
ratio, HP6 per-channel-group maximum pruning ratio.
"""

from __future__ import annotations

from typing import Dict

from ..nn import Module
from .base import CompressionMethod, ExecutionContext, StepReport, fine_tune
from .surgery import bn_scale_magnitudes, prune_by_scores


class NetworkSlimming(CompressionMethod):
    """BN-scaling-factor channel pruning with fine-tuning."""

    label = "C3"
    name = "NS"
    techniques = ("TE4", "TE3")

    def compress(
        self, model: Module, hp: Dict[str, object], ctx: ExecutionContext, report: StepReport
    ) -> None:
        budget = ctx.param_budget(float(hp["HP2"]))
        scores = {u.name: bn_scale_magnitudes(u) for u in model.pruning_units()}
        prune_by_scores(model, scores, budget, max_ratio=float(hp.get("HP6", 0.9)))
        report.fine_tune_epochs = ctx.epochs(float(hp["HP1"]))
        fine_tune(model, report.fine_tune_epochs, ctx)
