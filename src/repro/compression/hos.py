"""Method C5 — HOS: compression with Higher-Order Statistics + HOOI
(Chatzikonstantinou et al., CVPR 2020).

Three techniques chained:

* TE6 — filter pruning ranked by higher-order statistics of the filter
  weights (criterion HP12: ``l1norm``, ``k34`` third/fourth-moment energy, or
  ``skew_kur`` skewness+kurtosis), aggregated globally per HP11
  (``P1`` layer-z-scored, ``P2`` raw, ``P3`` per-layer rank);
* TE7 — HOOI Tucker-2 low-rank approximation of the largest remaining
  convolution kernels (:mod:`repro.compression.hooi`);
* TE3 — fine-tuning with an auxiliary MSE reconstruction loss against the
  pre-compression model's logits (factor HP14), for HP13 epochs.

Half of the HP2 parameter budget is taken by pruning, half by the low-rank
decomposition (the paper's two-stage design).
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..models.pruning import PrunableUnit
from ..nn import Conv2d, Module
from ..nn.losses import cross_entropy, mse_loss
from ..nn.tensor import Tensor, no_grad
from .base import CompressionMethod, ExecutionContext, StepReport
from .factorized import TuckerConv2d, replace_module
from .hooi import choose_tucker_ranks, tucker2, tucker2_params
from .surgery import filter_l1_norms, prune_by_scores


def _standardized_moments(w: np.ndarray) -> np.ndarray:
    """Per-filter (skewness, excess kurtosis) of the flattened weights.

    Computed from central power sums with explicit multiplications — this
    runs on every filter of a 14M-parameter VGG during scoring, so avoiding
    the ``z**3`` / ``z**4`` temporaries matters.
    """
    flat = w.reshape(w.shape[0], -1)
    centered = flat - flat.mean(axis=1, keepdims=True)
    c2 = centered * centered
    m2 = c2.mean(axis=1)
    m3 = (c2 * centered).mean(axis=1)
    m4 = (c2 * c2).mean(axis=1)
    sigma2 = m2 + 1e-24
    skew = m3 / sigma2 ** 1.5
    kurt = m4 / (sigma2 * sigma2) - 3.0
    return np.stack([skew, kurt], axis=1)


def _score_l1(unit: PrunableUnit) -> np.ndarray:
    return filter_l1_norms(unit)


def _score_k34(unit: PrunableUnit) -> np.ndarray:
    """Energy in the 3rd+4th standardized moments — HOS's signature score."""
    moments = _standardized_moments(unit.producer.weight.data)
    return np.sqrt((moments ** 2).sum(axis=1))


def _score_skew_kur(unit: PrunableUnit) -> np.ndarray:
    moments = _standardized_moments(unit.producer.weight.data)
    return np.abs(moments[:, 0]) + np.abs(moments[:, 1])


_LOCAL_CRITERIA: Dict[str, Callable[[PrunableUnit], np.ndarray]] = {
    "l1norm": _score_l1,
    "k34": _score_k34,
    "skew_kur": _score_skew_kur,
}


def saving_ranks(f: int, c: int, k: int, needed: int) -> Tuple[int, int]:
    """Tucker-2 ranks for an (f, c, k, k) kernel that should save ``needed``
    weights, keeping at least an eighth of them."""
    size = f * c * k * k
    return choose_tucker_ranks(f, c, k, max(size - needed, size // 8))


def _aggregate(scores: np.ndarray, mode: str) -> np.ndarray:
    """HP11 global aggregation of one unit's local scores."""
    if mode == "P1":  # z-score within the layer
        return (scores - scores.mean()) / (scores.std() + 1e-12)
    if mode == "P2":  # raw values compared globally
        return scores
    if mode == "P3":  # rank within the layer, normalised to [0, 1]
        order = scores.argsort().argsort()
        return order / max(len(scores) - 1, 1)
    raise ValueError(f"unknown HP11 aggregation {mode!r}")


class HOSCompression(CompressionMethod):
    """Higher-order-statistics pruning plus HOOI low-rank approximation."""

    label = "C5"
    name = "HOS"
    techniques = ("TE6", "TE7", "TE3")

    prune_share = 0.5  # fraction of the HP2 budget taken by TE6 pruning
    max_ratio = 0.9  # most of a unit's channels TE6 may prune
    min_channels_for_tucker = 8

    def apply(self, model: Module, hp: Dict[str, object], ctx: ExecutionContext) -> StepReport:
        params_before = model.num_parameters()
        budget = ctx.param_budget(float(hp["HP2"]))
        criterion = _LOCAL_CRITERIA[str(hp.get("HP12", "l1norm"))]
        aggregation = str(hp.get("HP11", "P1"))
        teacher = copy.deepcopy(model) if ctx.train_enabled else None

        # ---- TE6: global pruning by higher-order statistics --------------
        prune_budget = int(round(budget * self.prune_share))
        scores = {
            u.name: _aggregate(criterion(u), aggregation)
            for u in model.pruning_units()
        }
        removed = prune_by_scores(model, scores, prune_budget, max_ratio=self.max_ratio)

        # ---- TE7: HOOI Tucker-2 on the largest remaining kernels ---------
        lowrank_budget = budget - removed
        removed += self._factorize(model, lowrank_budget)

        # ---- TE3: fine-tune with auxiliary reconstruction loss ------------
        opt_epochs = ctx.epochs(float(hp.get("HP13", 0.3)))
        ft_epochs = ctx.epochs(float(hp["HP1"]))
        mse_factor = float(hp.get("HP14", 1.0))
        self._train(model, teacher, opt_epochs + ft_epochs, mse_factor, ctx)

        return StepReport(
            method=self.label,
            params_before=params_before,
            params_after=model.num_parameters(),
            fine_tune_epochs=ft_epochs,
            train_epochs=opt_epochs,
            details={"params_removed": removed, "mse_factor": mse_factor},
        )

    # ------------------------------------------------------------------ #
    def _factorize(self, model: Module, budget: int) -> int:
        """Replace the largest conv kernels with Tucker-2 factorisations."""
        if budget <= 0:
            return 0
        candidates: List[tuple] = []
        for name, module in model.named_modules():
            if not isinstance(module, Conv2d):
                continue
            f, c, kh, _ = module.weight.shape
            if module.kernel_size < 2:
                continue
            if f < self.min_channels_for_tucker or c < self.min_channels_for_tucker:
                continue
            candidates.append((module.weight.size, name, module))
        candidates.sort(reverse=True, key=lambda t: t[0])

        saved_total = 0
        for size, name, conv in candidates:
            if saved_total >= budget:
                break
            f, c, k, _ = conv.weight.shape
            ro, ri = saving_ranks(f, c, k, budget - saved_total)
            new_size = tucker2_params(f, c, k, ro, ri)
            if new_size >= size:
                continue
            core, u_out, u_in = tucker2(conv.weight.data, ro, ri)
            bias = conv.bias.data.copy() if conv.bias is not None else None
            replace_module(
                model,
                name,
                TuckerConv2d(u_in, core, u_out, bias, conv.stride, conv.padding),
            )
            saved_total += size - new_size
        return saved_total

    # ------------------------------------------------------------------ #
    def _train(
        self,
        model: Module,
        teacher: Module,
        epochs: float,
        mse_factor: float,
        ctx: ExecutionContext,
    ) -> None:
        if not ctx.train_enabled or epochs <= 0 or ctx.dataset is None or ctx.trainer is None:
            return
        teacher.eval()

        def loss_fn(logits: Tensor, targets: np.ndarray, idx: np.ndarray) -> Tensor:
            loss = cross_entropy(logits, targets)
            if teacher is not None and mse_factor > 0:
                with no_grad():
                    with_teacher = teacher(Tensor(ctx.dataset.images[idx])).data
                loss = loss + mse_loss(logits, with_teacher) * mse_factor
            return loss

        ctx.trainer.fit(model, ctx.dataset, epochs, loss_fn=loss_fn)
