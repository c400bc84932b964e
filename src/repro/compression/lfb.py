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

import copy
from typing import Dict, List

import numpy as np

from ..nn import Conv2d, Module
from ..nn import functional as F
from ..nn.losses import cross_entropy, mse_loss, nll_loss
from ..nn.tensor import Tensor, no_grad
from .base import CompressionMethod, ExecutionContext, StepReport
from .factorized import BasisConv2d, replace_module


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


class LearningFilterBasis(CompressionMethod):
    """Low-rank filter-basis approximation with auxiliary-loss training."""

    label = "C6"
    name = "LFB"
    techniques = ("TE9",)

    min_channels = 8

    def apply(self, model: Module, hp: Dict[str, object], ctx: ExecutionContext) -> StepReport:
        params_before = model.num_parameters()
        budget = ctx.param_budget(float(hp["HP2"]))
        teacher = copy.deepcopy(model) if ctx.train_enabled else None

        saved = self._factorize(model, budget)

        ft_epochs = ctx.epochs(float(hp["HP1"]))
        self._train(
            model,
            teacher,
            ft_epochs,
            float(hp.get("HP15", 1.0)),
            str(hp.get("HP16", "MSE")),
            ctx,
        )
        return StepReport(
            method=self.label,
            params_before=params_before,
            params_after=model.num_parameters(),
            fine_tune_epochs=ft_epochs,
            details={"params_saved": saved},
        )

    # ------------------------------------------------------------------ #
    def _factorize(self, model: Module, budget: int) -> int:
        candidates: List[tuple] = []
        for name, module in model.named_modules():
            if not isinstance(module, Conv2d):
                continue
            f, c, k, _ = module.weight.shape
            if f < self.min_channels or module.kernel_size < 2:
                continue
            candidates.append((module.weight.size, name, module))
        candidates.sort(reverse=True, key=lambda t: t[0])

        saved_total = 0
        for size, name, conv in candidates:
            if saved_total >= budget:
                break
            f, c, k, _ = conv.weight.shape
            b = choose_basis_size(f, c, k, budget - saved_total)
            basis, coeffs = self._svd_basis(conv.weight.data, b)
            bias = conv.bias.data.copy() if conv.bias is not None else None
            replace_module(
                model,
                name,
                BasisConv2d(basis, coeffs, bias, conv.stride, conv.padding),
            )
            saved_total += size - basis_params(f, c, k, b)
        return saved_total

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

    # ------------------------------------------------------------------ #
    def _train(
        self,
        model: Module,
        teacher: Module,
        epochs: float,
        factor: float,
        aux_kind: str,
        ctx: ExecutionContext,
    ) -> None:
        if not ctx.train_enabled or epochs <= 0 or ctx.dataset is None or ctx.trainer is None:
            return
        teacher.eval()

        def aux(student_logits: Tensor, teacher_logits: np.ndarray) -> Tensor:
            if aux_kind == "MSE":
                return mse_loss(student_logits, teacher_logits)
            if aux_kind == "CE":
                return cross_entropy(student_logits, teacher_logits.argmax(axis=-1))
            if aux_kind == "NLL":
                return nll_loss(
                    F.log_softmax(student_logits, axis=-1),
                    teacher_logits.argmax(axis=-1),
                )
            raise ValueError(f"unknown HP16 auxiliary loss {aux_kind!r}")

        def loss_fn(logits: Tensor, targets: np.ndarray, idx: np.ndarray) -> Tensor:
            with no_grad():
                teacher_logits = teacher(Tensor(ctx.dataset.images[idx])).data
            return cross_entropy(logits, targets) + aux(logits, teacher_logits) * factor

        ctx.trainer.fit(model, ctx.dataset, epochs, loss_fn=loss_fn)
