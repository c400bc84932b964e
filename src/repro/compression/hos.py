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

from typing import Callable, Dict, Tuple

import numpy as np

from ..models.pruning import PrunableUnit
from ..nn import Conv2d, Module
from ..nn.losses import cross_entropy, mse_loss
from ..nn.tensor import Tensor
from .base import CompressionMethod, ExecutionContext, StepReport, distill
from .factorized import TuckerConv2d, factorize_convs
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


def tucker_plan(f: int, c: int, k: int, needed: int) -> Tuple[int, Tuple[int, int]]:
    """TE7's plan for the factorisation walk: the weights an (f, c, k, k)
    kernel keeps at its :func:`saving_ranks`, and those ranks."""
    ranks = saving_ranks(f, c, k, needed)
    return tucker2_params(f, c, k, *ranks), ranks


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

    def compress(
        self, model: Module, hp: Dict[str, object], ctx: ExecutionContext, report: StepReport
    ) -> None:
        budget = ctx.param_budget(float(hp["HP2"]))
        opt_epochs = ctx.epochs(float(hp.get("HP13", 0.3)))
        ft_epochs = ctx.epochs(float(hp["HP1"]))
        mse_factor = float(hp.get("HP14", 1.0))

        def prune_and_factorize() -> int:
            removed = self.prune(model, hp, budget)
            return removed + self.factorize(model, budget - removed)

        # TE3: fine-tune with an auxiliary reconstruction loss
        def loss(logits: Tensor, targets: np.ndarray, teacher_logits: np.ndarray) -> Tensor:
            return cross_entropy(logits, targets) + mse_loss(logits, teacher_logits) * mse_factor

        removed = distill(model, prune_and_factorize, opt_epochs + ft_epochs, loss, ctx)
        report.fine_tune_epochs = ft_epochs
        report.train_epochs = opt_epochs
        report.details = {"params_removed": removed, "mse_factor": mse_factor}

    def prune(self, model: Module, hp: Dict[str, object], budget: int) -> int:
        """TE6: global pruning by higher-order statistics, to HOS's share of
        ``budget``; returns the parameters removed."""
        criterion = _LOCAL_CRITERIA[str(hp.get("HP12", "l1norm"))]
        aggregation = str(hp.get("HP11", "P1"))
        scores = {
            u.name: _aggregate(criterion(u), aggregation)
            for u in model.pruning_units()
        }
        return prune_by_scores(
            model, scores, int(round(budget * self.prune_share)), max_ratio=self.max_ratio
        )

    def factorize(self, model: Module, budget: int) -> int:
        """TE7: HOOI Tucker-2 on the largest remaining kernels."""
        return factorize_convs(
            model,
            budget,
            self.min_channels_for_tucker,
            self.min_channels_for_tucker,
            tucker_plan,
            _tucker_layer,
        )


def _tucker_layer(conv: Conv2d, ranks: Tuple[int, int]) -> TuckerConv2d:
    core, u_out, u_in = tucker2(conv.weight.data, *ranks)
    bias = conv.bias.data.copy() if conv.bias is not None else None
    return TuckerConv2d(u_in, core, u_out, bias, conv.stride, conv.padding)
