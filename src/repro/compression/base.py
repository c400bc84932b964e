"""Common infrastructure for compression methods.

A *compression method* (C1–C6 of Table 1) is a callable object that mutates a
model in place given a hyperparameter dict.  Methods run inside an
:class:`ExecutionContext`, which supplies the dataset, trainer, and the
reference quantities from the paper's definitions:

* ``original_params`` — P(M) of the *uncompressed* model; HP2 (``x γ``) asks
  each strategy to remove ``γ · P(M)`` parameters, relative to the original
  model, not the current one (Table 1 footnote).
* ``pretrain_epochs`` — the original model's pre-training epoch count; the
  ``*n`` hyperparameters (HP1, HP7, HP9, HP13) multiply it.

When ``ctx.train_enabled`` is False (the paper-scale surrogate backend),
methods still perform all weight-based analysis and real structural surgery
but skip gradient training; the surrounding evaluator supplies accuracy from
the calibrated response surface instead.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, TypeVar

import numpy as np

from ..nn import Module
from ..nn.tensor import Tensor, no_grad
from ..nn.train import Trainer


@dataclass
class ExecutionContext:
    """Runtime services and reference quantities for a compression step."""

    original_params: int
    pretrain_epochs: float = 10.0
    dataset: Optional[object] = None  # SyntheticImageDataset when training
    val_dataset: Optional[object] = None
    trainer: Optional[Trainer] = None
    train_enabled: bool = True
    seed: int = 0

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)

    @property
    def can_train(self) -> bool:
        """Whether a step may run gradient training: enabled, with data and a trainer."""
        return self.train_enabled and self.dataset is not None and self.trainer is not None

    def epochs(self, multiplier: float) -> float:
        """Resolve a ``*n`` hyperparameter to an absolute epoch count."""
        return multiplier * self.pretrain_epochs

    def param_budget(self, gamma: float) -> int:
        """Resolve HP2 (``x γ``) to an absolute parameter count to remove."""
        return int(round(gamma * self.original_params))

    def quick_accuracy(self, model: Module, batches: int = 4) -> float:
        """Cheap accuracy probe on the validation split (for EA fitness)."""
        data = self.val_dataset or self.dataset
        if data is None or not self.train_enabled:
            return float("nan")
        was_training = model.training
        model.eval()
        correct = total = 0
        with no_grad():
            for i, (xb, yb) in enumerate(data.iter_batches(32, shuffle=False)):
                if i >= batches:
                    break
                logits = model(Tensor(xb)).data
                correct += int((logits.argmax(-1) == yb).sum())
                total += len(yb)
        model.train(was_training)
        return correct / max(total, 1)


@dataclass
class StepReport:
    """What one compression strategy did to the model."""

    method: str
    params_before: int
    params_after: int
    fine_tune_epochs: float = 0.0
    train_epochs: float = 0.0
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def params_removed(self) -> int:
        return self.params_before - self.params_after


class CompressionMethod(ABC):
    """Base class for the six methods in the search space (Table 1).

    :meth:`apply` is the step envelope: it counts the model's parameters
    before and after :meth:`compress`, which records the rest of the
    :class:`StepReport`.
    """

    #: short label used in the knowledge graph and strategy ids ("C1".."C6")
    label: str = "?"
    #: human-readable method name ("LMA", "LeGR", ...)
    name: str = "?"
    #: compression-technique entity ids attached in the knowledge graph
    techniques: tuple = ()

    def apply(self, model: Module, hp: Dict[str, object], ctx: ExecutionContext) -> StepReport:
        """Compress ``model`` in place according to ``hp``; report what happened."""
        params_before = model.num_parameters()
        report = StepReport(self.label, params_before, params_before)
        self.compress(model, hp, ctx, report)
        report.params_after = model.num_parameters()
        return report

    @abstractmethod
    def compress(
        self, model: Module, hp: Dict[str, object], ctx: ExecutionContext, report: StepReport
    ) -> None:
        """Compress ``model`` in place; record epochs and details on ``report``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(label={self.label})"


def fine_tune(model: Module, epochs: float, ctx: ExecutionContext) -> None:
    """Shared fine-tuning procedure (technique TE3)."""
    if ctx.can_train and epochs > 0:
        ctx.trainer.fit(model, ctx.dataset, epochs)


Result = TypeVar("Result")


def distill(
    model: Module,
    compress: Callable[[], Result],
    epochs: float,
    loss: Callable[[Tensor, np.ndarray, np.ndarray], Tensor],
    ctx: ExecutionContext,
) -> Result:
    """Run ``compress()`` on ``model``, then train it against its former self.

    When the step can train, a copy of ``model`` taken before ``compress``
    is the teacher: each batch runs it in eval mode under ``no_grad``, and
    ``model`` trains for ``epochs`` on ``loss(logits, targets,
    teacher_logits)``.  Returns what ``compress`` returns.
    """
    teacher = copy.deepcopy(model) if ctx.can_train and epochs > 0 else None
    result = compress()
    if teacher is not None:
        teacher.eval()

        def loss_fn(logits: Tensor, targets: np.ndarray, idx: np.ndarray) -> Tensor:
            with no_grad():
                teacher_logits = teacher(Tensor(ctx.dataset.images[idx])).data
            return loss(logits, targets, teacher_logits)

        ctx.trainer.fit(model, ctx.dataset, epochs, loss_fn=loss_fn)
    return result
