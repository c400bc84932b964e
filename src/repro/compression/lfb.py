"""Method C6 — LFB: Learning Filter Basis (Li et al., ICCV 2019).

Technique TE9: each convolution's F filters are re-expressed as linear
combinations of a small *shared basis*: W (F, C*k*k) ≈ G (F, b) · B (b, C*k*k).
The truncated SVD gives the optimal basis; the layer is replaced by a
:class:`~repro.compression.factorized.BasisConv2d` (basis conv + pointwise
recombination).  The factorised model is then trained with an auxiliary
distillation loss against the pre-compression model (HP16: NLL / CE / MSE,
weighted by HP15) plus the ordinary task loss, for HP1 fine-tune epochs.

Layers are factorised largest-first until the HP2 parameter budget is met.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..nn import Conv2d, Module
from ..nn import functional as F
from ..nn.losses import cross_entropy, mse_loss, nll_loss
from ..nn.tensor import Tensor
from .base import CompressionMethod, ExecutionContext, StepReport, distill
from .factorized import BasisConv2d, factorize_convs


def basis_params(f: int, c: int, k: int, b: int) -> int:
    """Weights of an (f, c, k, k) kernel factorised onto ``b`` basis filters."""
    return b * c * k * k + f * b


def _max_useful_basis(f: int, c: int, k: int) -> int:
    """Largest basis size that still shrinks the layer."""
    original = f * c * k * k
    per_basis = c * k * k + f
    return max(1, original // per_basis - 1)


def choose_basis_size(f: int, c: int, k: int, needed: int) -> int:
    """Basis size for an (f, c, k, k) kernel that should save ``needed`` weights.

    The smallest saving of at least ``needed``, else the largest saving
    (``b = 1``); never more than :func:`_max_useful_basis`.
    """
    b = (f * c * k * k - needed) // (c * k * k + f)
    return int(np.clip(b, 1, _max_useful_basis(f, c, k)))


def basis_plan(f: int, c: int, k: int, needed: int) -> Tuple[int, int]:
    """LFB's plan for the factorisation walk: the weights an (f, c, k, k)
    kernel keeps at its :func:`choose_basis_size`, and that size."""
    b = choose_basis_size(f, c, k, needed)
    return basis_params(f, c, k, b), b


def _auxiliary_loss(kind: str, student_logits: Tensor, teacher_logits: np.ndarray) -> Tensor:
    """HP16's distillation term against the teacher's logits."""
    if kind == "MSE":
        return mse_loss(student_logits, teacher_logits)
    if kind == "CE":
        return cross_entropy(student_logits, teacher_logits.argmax(axis=-1))
    if kind == "NLL":
        return nll_loss(F.log_softmax(student_logits, axis=-1), teacher_logits.argmax(axis=-1))
    raise ValueError(f"unknown HP16 auxiliary loss {kind!r}")


class LearningFilterBasis(CompressionMethod):
    """Low-rank filter-basis approximation with auxiliary-loss training."""

    label = "C6"
    name = "LFB"
    techniques = ("TE9",)

    min_channels = 8

    def compress(
        self, model: Module, hp: Dict[str, object], ctx: ExecutionContext, report: StepReport
    ) -> None:
        budget = ctx.param_budget(float(hp["HP2"]))
        ft_epochs = ctx.epochs(float(hp["HP1"]))
        factor = float(hp.get("HP15", 1.0))
        aux_kind = str(hp.get("HP16", "MSE"))

        def loss(logits: Tensor, targets: np.ndarray, teacher_logits: np.ndarray) -> Tensor:
            task = cross_entropy(logits, targets)
            return task + _auxiliary_loss(aux_kind, logits, teacher_logits) * factor

        saved = distill(model, lambda: self.factorize(model, budget), ft_epochs, loss, ctx)
        report.fine_tune_epochs = ft_epochs
        report.details = {"params_saved": saved}

    def factorize(self, model: Module, budget: int) -> int:
        """TE9: filter-basis factorisation of the largest kernels."""
        return factorize_convs(model, budget, self.min_channels, 1, basis_plan, self._basis_layer)

    @classmethod
    def _basis_layer(cls, conv: Conv2d, b: int) -> BasisConv2d:
        basis, coeffs = cls._svd_basis(conv.weight.data, b)
        bias = conv.bias.data.copy() if conv.bias is not None else None
        return BasisConv2d(basis, coeffs, bias, conv.stride, conv.padding)

    @staticmethod
    def _svd_basis(weight: np.ndarray, b: int):
        """Truncated SVD of the filter matrix -> (basis, coefficients).

        Uses the Gram-matrix eigenbasis when F << C*k*k (the usual case for
        conv filters), which is far cheaper than a full SVD of (F, C*k*k).
        """
        f, c, kh, kw = weight.shape
        mat = weight.reshape(f, c * kh * kw)
        if f <= mat.shape[1]:
            values, vectors = np.linalg.eigh(mat @ mat.T)
            order = np.argsort(values)[::-1][:b]
            u = vectors[:, order]
            s = np.sqrt(np.clip(values[order], 1e-24, None))
            vt = (u.T @ mat) / s[:, None]
        else:
            u_full, s_full, vt_full = np.linalg.svd(mat, full_matrices=False)
            u, s, vt = u_full[:, :b], s_full[:b], vt_full[:b]
        coeffs = u * s
        basis = vt.reshape(b, c, kh, kw)
        return basis, coeffs
