"""Method C4 — Soft Filter Pruning (He et al., IJCAI 2018).

Technique TE5: the model keeps training while, every ``HP10`` optimizer
steps, the lowest-L2-norm filters of each prunable unit are *soft-zeroed*
(set to zero but left in the graph, free to regrow).  After ``HP9``
back-propagation epochs the filters that remain zeroed are hard-pruned.

Hyperparameters: HP2 parameter decrease ratio, HP9 back-propagation epochs,
HP10 update frequency.  SFP has no separate fine-tuning phase — the
prune-while-training loop plays that role.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..nn import Module
from .base import CompressionMethod, ExecutionContext, StepReport
from .masks import zero_unit_channels
from .surgery import (
    filter_l2_norms,
    plan_global_pruning,
    prune_by_scores,
)


class SoftFilterPruning(CompressionMethod):
    """Prune-while-training filter pruning."""

    label = "C4"
    name = "SFP"
    techniques = ("TE5",)

    max_ratio = 0.9

    def _plan(self, model: Module, budget: int):
        units = model.pruning_units()
        scores = {u.name: filter_l2_norms(u) for u in units}
        return units, plan_global_pruning(units, scores, budget, max_ratio=self.max_ratio)

    def compress(
        self, model: Module, hp: Dict[str, object], ctx: ExecutionContext, report: StepReport
    ) -> None:
        budget = ctx.param_budget(float(hp["HP2"]))
        train_epochs = ctx.epochs(float(hp["HP9"]))
        frequency = max(1, int(hp["HP10"]))

        if ctx.can_train:

            def soft_prune_hook(m: Module, step: int) -> None:
                if step % frequency != 0:
                    return
                units, plan = self._plan(m, budget)
                for unit in units:
                    kept = plan.keep[unit.name]
                    mask = np.ones(unit.out_channels, dtype=bool)
                    mask[kept] = False
                    zero_unit_channels(unit, np.flatnonzero(mask))

            ctx.trainer.fit(model, ctx.dataset, train_epochs, step_hook=soft_prune_hook)

        # Final hard prune of the lowest-norm (possibly re-grown) filters.
        # prune_by_scores iterates to the budget (one-shot plans undershoot
        # on chain topologies where unit costs interact).
        scores = {u.name: filter_l2_norms(u) for u in model.pruning_units()}
        prune_by_scores(
            model, scores, budget, max_ratio=self.max_ratio,
            score_fn=filter_l2_norms,
        )
        report.train_epochs = train_epochs
        report.details = {"update_frequency": frequency}
